package webserver

import (
	"trust/internal/frame"
	"trust/internal/geom"
)

// installDefaultPages builds the site: registration, login, home, and a
// couple of content pages reachable via actions. Layouts put the
// action buttons over the keyboard/thumb band, where sensor placement
// concentrates (the paper's "display critical buttons or menus over
// biometric enabled touchscreen regions"). Called once from New,
// before the server is shared; the page URLs set here are immutable
// afterwards.
func (s *Server) installDefaultPages() {
	base := "https://" + s.domain
	s.regURL = base + "/register"
	s.loginURL = base + "/login"
	s.homeURL = base + "/home"

	button := func(id, label, action string) frame.Element {
		return frame.Element{
			ID: id, Kind: frame.Button, Label: label, Action: action,
			// Centre of the keyboard band — biometric-enabled region.
			Bounds: geom.RectWH(180, 660, 120, 120),
		}
	}
	s.pages[s.regURL] = &frame.Page{
		URL:      s.regURL,
		Title:    s.domain + " — Create account",
		Body:     "Choose an account name and touch Register.",
		HeightPX: 800,
		Elements: []frame.Element{
			{ID: "account", Kind: frame.Input, Label: "Account", Bounds: geom.RectWH(60, 260, 360, 60)},
			button("register", "Register", "register"),
		},
	}
	s.pages[s.loginURL] = &frame.Page{
		URL:      s.loginURL,
		Title:    s.domain + " — Login",
		Body:     "Touch Login to authenticate with your fingerprint.",
		HeightPX: 800,
		Elements: []frame.Element{
			button("login", "Login", "login"),
		},
	}
	s.pages[s.homeURL] = &frame.Page{
		URL:      s.homeURL,
		Title:    s.domain + " — Home",
		Body:     "Account overview.",
		HeightPX: 1600,
		Elements: []frame.Element{
			{ID: "balance", Kind: frame.Text, Label: "Balance: $2,409.12", Bounds: geom.RectWH(60, 160, 360, 60)},
			button("statement", "Statement", "view-statement"),
		},
	}
	statement := base + "/statement"
	s.pages[statement] = &frame.Page{
		URL:      statement,
		Title:    s.domain + " — Statement",
		Body:     "Transactions for the last 30 days.",
		HeightPX: 2400,
		Elements: []frame.Element{
			button("home", "Back", "home"),
		},
	}
	transfer := base + "/transfer"
	s.pages[transfer] = &frame.Page{
		URL:      transfer,
		Title:    s.domain + " — Transfer",
		Body:     "Confirm transfer of $50 to savings.",
		HeightPX: 800,
		Elements: []frame.Element{
			button("confirm", "Confirm", "confirm-transfer"),
		},
	}
}

// page looks up a served page by URL.
func (s *Server) page(url string) *frame.Page {
	s.pagesMu.RLock()
	defer s.pagesMu.RUnlock()
	return s.pages[url]
}

// PageForAction maps a request action to the page served next.
func (s *Server) PageForAction(action string) *frame.Page {
	base := "https://" + s.domain
	switch action {
	case "login", "home", "":
		return s.page(s.homeURL)
	case "view-statement":
		return s.page(base + "/statement")
	case "transfer", "confirm-transfer":
		return s.page(base + "/transfer")
	default:
		return s.page(s.homeURL)
	}
}
