package harness

import (
	"encoding/json"
	"fmt"
	"sort"

	"trust/internal/frame"
	"trust/internal/protocol"
)

// Fig9 replays the registration protocol of Fig 9 step by step,
// recording a transcript with the verification outcome of every
// message, then confirms that tampering with each field of the
// submission is rejected.
func Fig9(seed uint64) (Result, error) {
	r, err := newStdRig(seed)
	if err != nil {
		return Result{}, err
	}
	var tr protocol.Transcript
	tr.Title = "Registration using FLock (Fig 9)"

	// Step 1: server -> device: page + nonce + cert + signature.
	regPage := r.server.ServeRegistrationPage(r.now)
	tr.Add(r.now, protocol.ServerToDevice, "RegistrationPage",
		fmt.Sprintf("domain=%s nonce=%.8s.. cert=CA-signed", regPage.Domain, regPage.Nonce), true)

	// Step 2: FLock verifies, displays, captures the register touch.
	client := r.dev.Client
	client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return Result{}, err
	}
	r.now = now
	tr.Add(r.now, protocol.Internal, "CaptureFingerprint", "register-button touch verified; key pair generated", true)

	sub, err := client.HandleRegistrationPage(r.now, regPage, "ab12xyom")
	if err != nil {
		return Result{}, err
	}
	tr.Add(r.now, protocol.Internal, "VerifyServerCert", "CA signature + domain binding ok", true)
	tr.Add(r.now, protocol.DeviceToServer, "RegistrationSubmit",
		fmt.Sprintf("account=%s pkA=%d bytes frameHash=%s", sub.Account, len(sub.UserPub), sub.FrameHash.Short()), true)

	// Step 5: server verifies and stores.
	res := r.server.HandleRegistration(r.now, sub, "recovery-pw")
	tr.Add(r.now, protocol.ServerToDevice, "RegistrationResult", res.Reason, res.OK)
	if !res.OK {
		return Result{}, fmt.Errorf("harness: registration failed: %s", res.Reason)
	}

	// Tamper matrix: every mutated submission must be rejected.
	tampered := 0
	rejected := 0
	mutations := map[string]func(*protocol.RegistrationSubmit){
		"account":   func(s *protocol.RegistrationSubmit) { s.Account = "mallory" },
		"userpub":   func(s *protocol.RegistrationSubmit) { s.UserPub[0] ^= 1 },
		"nonce":     func(s *protocol.RegistrationSubmit) { s.Nonce = "forged" },
		"framehash": func(s *protocol.RegistrationSubmit) { s.FrameHash[0] ^= 1 },
		"signature": func(s *protocol.RegistrationSubmit) { s.Signature[0] ^= 1 },
	}
	// Fixed order: each attempt draws nonces and touches from shared
	// streams and appends a transcript row, so map-iteration order would
	// scramble the artifact.
	names := make([]string, 0, len(mutations))
	for name := range mutations {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mut := mutations[name]
		// Fresh nonce/page per attempt so only the mutation can fail.
		page2 := r.server.ServeRegistrationPage(r.now)
		client.DisplayPage(page2.Page, frame.View{Zoom: 1})
		now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
		if err != nil {
			return Result{}, err
		}
		r.now = now
		s2, err := client.HandleRegistrationPage(r.now, page2, "tamper-"+name)
		if err != nil {
			return Result{}, err
		}
		mut(s2)
		res2 := r.server.HandleRegistration(r.now, s2, "pw")
		tampered++
		if !res2.OK {
			rejected++
		}
		tr.Add(r.now, protocol.DeviceToServer, "RegistrationSubmit*",
			fmt.Sprintf("tampered field: %s -> %s", name, res2.Reason), !res2.OK)
	}

	text := tr.String() + fmt.Sprintf("\ntamper matrix: %d/%d mutated submissions rejected\n", rejected, tampered)
	return Result{
		Title: "Process of registration using FLock (Fig 9)",
		Text:  text,
		Metrics: map[string]float64{
			"honest_ok":        1,
			"tampered_total":   float64(tampered),
			"tampered_rejects": float64(rejected),
		},
	}, nil
}

// Fig10 replays the continuous authentication protocol of Fig 10: login
// with session-key establishment, then N page interactions each carrying
// a fresh nonce, frame hash, and risk factor.
func Fig10(seed uint64) (Result, error) {
	r, err := newStdRig(seed)
	if err != nil {
		return Result{}, err
	}
	var tr protocol.Transcript
	tr.Title = "Continuous authentication using FLock (Fig 10)"

	// Registration (prerequisite, summarized as one line).
	if err := r.loginFlowWithTranscript("ab12xyom", &tr); err != nil {
		return Result{}, err
	}

	// Post-login: three page interactions. The device displays the
	// page the server last served before each request attests it.
	current := r.dev.CurrentPage()
	actions := []string{"view-statement", "home", "view-statement"}
	for _, action := range actions {
		client := r.dev.Client
		client.DisplayPage(current, frame.View{Zoom: 1})
		now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
		if err != nil {
			return Result{}, err
		}
		r.now = now
		req, err := client.BuildPageRequest(r.now, r.dev.Session(), action, 12)
		if err != nil {
			return Result{}, err
		}
		tr.Add(r.now, protocol.DeviceToServer, "PageRequest",
			fmt.Sprintf("action=%s nonce=%.8s.. risk=%d/%d frame=%s",
				action, req.Nonce, req.RiskVerified, req.RiskWindow, req.FrameHash.Short()), true)
		cp, err := r.server.HandlePageRequest(r.now, req)
		if err != nil {
			return Result{}, err
		}
		if err := client.AcceptContentPage(r.dev.Session(), cp); err != nil {
			return Result{}, err
		}
		tr.Add(r.now, protocol.ServerToDevice, "ContentPage",
			fmt.Sprintf("page=%s nonce=%.8s.. MAC ok", cp.Page.URL, cp.Nonce), true)
		current = cp.Page
	}

	// Replay check: the last request must not be accepted twice.
	client := r.dev.Client
	client.DisplayPage(current, frame.View{Zoom: 1})
	now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return Result{}, err
	}
	r.now = now
	req, err := client.BuildPageRequest(r.now, r.dev.Session(), "home", 12)
	if err != nil {
		return Result{}, err
	}
	if _, err := r.server.HandlePageRequest(r.now, req); err != nil {
		return Result{}, err
	}
	_, replayErr := r.server.HandlePageRequest(r.now, req)
	tr.Add(r.now, protocol.DeviceToServer, "PageRequest(replay)",
		"identical request resent", replayErr != nil)

	audit := r.server.RunAudit()

	// Wire-size accounting: the paper rides its fields in cookie
	// extensions, so per-request overhead matters on mobile links.
	sizeOf := func(v any) int {
		b, err := json.Marshal(v)
		if err != nil {
			return -1
		}
		return len(b)
	}
	binSize := func(v any) int {
		b, err := protocol.EncodeBinary(v)
		if err != nil {
			return -1
		}
		return len(b)
	}
	sizes := fmtTable([]string{"message", "JSON", "binary codec"}, [][]string{
		{"LoginSubmit", fmt.Sprintf("%d B", sizeOf(r.lastLoginSubmit)), fmt.Sprintf("%d B", binSize(r.lastLoginSubmit))},
		{"PageRequest", fmt.Sprintf("%d B", sizeOf(req)), fmt.Sprintf("%d B", binSize(req))},
	})
	text := tr.String() + "\nper-message wire overhead:\n" + sizes +
		fmt.Sprintf("\noffline audit: %d entries checked, %d flagged\n", audit.Checked, audit.Tampered)
	return Result{
		Title: "Process of continuous authentication using FLock (Fig 10)",
		Text:  text,
		Metrics: map[string]float64{
			"requests_ok":     float64(len(actions)),
			"replay_rejected": boolMetric(replayErr != nil),
			"audit_flagged":   float64(audit.Tampered),
		},
	}, nil
}

// loginFlowWithTranscript performs registration + login, adding the
// login steps to the transcript.
func (r *stdRig) loginFlowWithTranscript(account string, tr *protocol.Transcript) error {
	now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return err
	}
	r.now = now
	if err := r.dev.Register(r.now, account, "recovery-pw"); err != nil {
		return err
	}
	tr.Add(r.now, protocol.Internal, "Registration", "device-account binding established (Fig 9)", true)

	lp := r.server.ServeLoginPage(r.now)
	tr.Add(r.now, protocol.ServerToDevice, "LoginPage",
		fmt.Sprintf("domain=%s nonce=%.8s..", lp.Domain, lp.Nonce), true)
	client := r.dev.Client
	client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	now, err = r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return err
	}
	r.now = now
	tr.Add(r.now, protocol.Internal, "CaptureFingerprint", "login-button touch verified", true)
	sub, sess, err := client.HandleLoginPage(r.now, lp, r.server.Certificate(), account, 12)
	if err != nil {
		return err
	}
	r.lastLoginSubmit = sub
	tr.Add(r.now, protocol.DeviceToServer, "LoginSubmit",
		fmt.Sprintf("sessionKey=KEM(%d bytes) risk=%d/%d frame=%s",
			len(sub.SessionKeyCT), sub.RiskVerified, sub.RiskWindow, sub.FrameHash.Short()), true)
	cp, err := r.server.HandleLogin(r.now, sub)
	if err != nil {
		return err
	}
	if err := client.AcceptContentPage(sess, cp); err != nil {
		return err
	}
	tr.Add(r.now, protocol.ServerToDevice, "ContentPage",
		fmt.Sprintf("session=%.8s.. page=%s", cp.SessionID, cp.Page.URL), true)
	// Install the session in the device so Browse works afterwards.
	if err := r.installSession(sess, cp); err != nil {
		return err
	}
	return nil
}

// installSession mirrors device.Login's internal bookkeeping for flows
// driven step-by-step by the harness.
func (r *stdRig) installSession(sess *protocol.Session, cp *protocol.ContentPage) error {
	return r.dev.AdoptSession(sess, cp)
}
