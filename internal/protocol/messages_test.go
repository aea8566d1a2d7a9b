package protocol

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/wire"
)

// ResumeKey is ResumeKeyFrom with a fresh HMAC state keyed with
// ticketSessionKey: the reference the resume-key golden pins.
func ResumeKey(ticketSessionKey []byte, sessionID string) []byte {
	return ResumeKeyFrom(pki.NewMACer(ticketSessionKey), sessionID)
}

func TestSigningBytesExcludeAuthenticators(t *testing.T) {
	input := func(m interface{ SigningBytes() ([]byte, error) }) []byte {
		t.Helper()
		b, err := m.SigningBytes()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	page := &frame.Page{URL: "https://x/login", Title: "t", HeightPX: 800}
	lp := &LoginPage{Domain: "x", Nonce: "n1", Page: page}
	base := input(lp)
	lp.Signature = []byte("sig")
	if !bytes.Equal(base, input(lp)) {
		t.Fatal("LoginPage signature leaks into signing bytes")
	}

	ls := &LoginSubmit{Domain: "x", Account: "a", Nonce: "n1"}
	sb := input(ls)
	ls.Signature = []byte("s")
	ls.MAC = []byte("m")
	if !bytes.Equal(sb, input(ls)) {
		t.Fatal("LoginSubmit authenticators leak into signing bytes")
	}
	mb := ls.MACBytes()
	ls.MAC = []byte("other")
	if !bytes.Equal(mb, ls.MACBytes()) {
		t.Fatal("LoginSubmit MAC leaks into MAC bytes")
	}
	// But the signature must be covered by the MAC bytes.
	ls.Signature = []byte("changed")
	if bytes.Equal(mb, ls.MACBytes()) {
		t.Fatal("LoginSubmit signature not covered by MAC bytes")
	}
}

// authInput is one authenticator input: a message type with every
// field set, the input its authenticator covers, and the top-level
// authenticator fields that input excludes.
type authInput struct {
	name  string
	tag   byte
	skip  []string
	mk    func() any
	input func(any) ([]byte, error)
}

// authInputs lists the inputs of every signed and MAC'd message type;
// LoginSubmit has two, one per authenticator.
func authInputs() []authInput {
	page := func() *frame.Page {
		return &frame.Page{URL: "u", Title: "t", Body: "b", HeightPX: 800, Elements: []frame.Element{
			{ID: "e", Kind: frame.Button, Label: "l", Action: "a", Bounds: geom.RectWH(1, 2, 3, 4)},
		}}
	}
	cert := func() *pki.Certificate {
		return &pki.Certificate{Subject: "s", Role: pki.RoleServer, PublicKey: []byte{1}, KemKey: []byte{2},
			Issuer: "i", Serial: 3, Signature: []byte{4}}
	}
	h := frame.Hash{5}
	signed := func(m any) ([]byte, error) { return m.(interface{ SigningBytes() ([]byte, error) }).SigningBytes() }
	mac := func(m any) ([]byte, error) { return authBytes(m.(Authenticated)) }
	return []authInput{
		{"RegistrationPage", tagRegistrationPage, []string{"Signature"}, func() any {
			return &RegistrationPage{Domain: "d", Nonce: "n", Page: page(), ServerCert: cert(), Signature: []byte{6}}
		}, signed},
		{"RegistrationSubmit", tagRegistrationSubmit, []string{"Signature"}, func() any {
			return &RegistrationSubmit{Domain: "d", Account: "a", Nonce: "n", UserPub: []byte{7}, FrameHash: h, DeviceCert: cert(), Signature: []byte{6}}
		}, signed},
		{"LoginPage", tagLoginPage, []string{"Signature"}, func() any {
			return &LoginPage{Domain: "d", Nonce: "n", Page: page(), Signature: []byte{6}}
		}, signed},
		{"LoginSubmit signature", tagLoginSubmit, []string{"Signature", "MAC"}, func() any {
			return &LoginSubmit{Domain: "d", Account: "a", Nonce: "n", SessionKeyCT: []byte{8}, FrameHash: h,
				RiskVerified: 3, RiskWindow: 12, Signature: []byte{6}, MAC: []byte{9}}
		}, signed},
		{"LoginSubmit MAC", tagLoginSubmit, []string{"MAC"}, func() any {
			return &LoginSubmit{Domain: "d", Account: "a", Nonce: "n", SessionKeyCT: []byte{8}, FrameHash: h,
				RiskVerified: 3, RiskWindow: 12, Signature: []byte{6}, MAC: []byte{9}}
		}, mac},
		{"ContentPage", tagContentPage, []string{"MAC"}, func() any {
			return &ContentPage{Domain: "d", SessionID: "s", Nonce: "n", Account: "a", Page: page(), Ticket: []byte{10}, MAC: []byte{9}}
		}, mac},
		{"PageRequest", tagPageRequest, []string{"MAC"}, func() any {
			return &PageRequest{Domain: "d", Account: "a", SessionID: "s", Nonce: "n", Action: "act", FrameHash: h,
				RiskVerified: 3, RiskWindow: 12, MAC: []byte{9}}
		}, mac},
		{"ResyncRequest", tagResyncRequest, []string{"MAC"}, func() any {
			return &ResyncRequest{Domain: "d", Account: "a", SessionID: "s", MAC: []byte{9}}
		}, mac},
		{"ResumeSubmit", tagResumeSubmit, []string{"MAC"}, func() any {
			return &ResumeSubmit{Domain: "d", Account: "a", Ticket: []byte{10}, FrameHash: h, RiskVerified: 3, RiskWindow: 12, MAC: []byte{9}}
		}, mac},
		{"StreamHello", tagStreamHello, []string{"MAC"}, func() any {
			return &StreamHello{Domain: "d", Account: "a", SessionID: "s", MAC: []byte{9}}
		}, mac},
		{"StreamWelcome", tagStreamWelcome, []string{"MAC"}, func() any {
			return &StreamWelcome{Domain: "d", SessionID: "s", NonceSeed: []byte{11}, Window: 12, MinVerified: 3, MAC: []byte{9}}
		}, mac},
		{"PolicyPush", tagPolicyPush, []string{"MAC"}, func() any {
			return &PolicyPush{Domain: "d", SessionID: "s", Window: 12, MinVerified: 3, Seq: 4, MAC: []byte{9}}
		}, mac},
	}
}

// TestSigningBytesSensitiveToEveryField walks every exported field of
// every signed and MAC'd message, through its page, the page's
// elements and its certificate, and mutates one at a time. Any mutation
// must change the authenticator input except one of the message's own
// authenticators, which must leave it unchanged; an int moved out of
// its encodable range must be refused by the input and by the codec.
func TestSigningBytesSensitiveToEveryField(t *testing.T) {
	for _, tc := range authInputs() {
		base, err := tc.input(tc.mk())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(base) < 2 || base[0] != binVersion || base[1] != tc.tag {
			t.Fatalf("%s: input starts % x, want version %d and tag %d", tc.name, base[:min(2, len(base))], binVersion, tc.tag)
		}
		muts := 0
		for n := 0; ; n++ {
			m := tc.mk()
			k := n
			path, outOfRange, ok := mutateField(reflect.ValueOf(m).Elem(), "", &k)
			if !ok {
				break
			}
			muts++
			in, err := tc.input(m)
			top := path[:strings.IndexAny(path+".", ".[+=")]
			switch {
			case outOfRange:
				if !errors.Is(err, wire.ErrRange) {
					t.Errorf("%s: %s out of range: input err %v, want wire.ErrRange", tc.name, path, err)
				}
				if _, err := EncodeBinary(m); !errors.Is(err, wire.ErrRange) {
					t.Errorf("%s: %s out of range: EncodeBinary err %v", tc.name, path, err)
				}
			case err != nil:
				t.Errorf("%s: %s: %v", tc.name, path, err)
			case slices.Contains(tc.skip, top):
				if !bytes.Equal(in, base) {
					t.Errorf("%s: own authenticator %s changes the input", tc.name, path)
				}
			case bytes.Equal(in, base):
				t.Errorf("%s: field %s not covered by the input", tc.name, path)
			}
		}
		if fields := reflect.TypeOf(tc.mk()).Elem().NumField(); muts < fields {
			t.Fatalf("%s: %d mutations walked over %d fields", tc.name, muts, fields)
		}
	}
}

// mutateField walks v's exported fields depth first and applies the
// n-th single-field mutation it reaches, returning that field's path
// and whether the new value is outside the field's encodable range; ok
// is false once n passes the last mutation. Pointers are also set to
// nil, slices also grown by one zero element, and every int is also
// set to -1 and to v+2^32 (and element kinds to 256), values the codec
// must refuse rather than truncate.
func mutateField(v reflect.Value, path string, n *int) (_ string, outOfRange, ok bool) {
	hit := func() bool { *n--; return *n < 0 }
	switch v.Kind() {
	case reflect.Pointer:
		if hit() {
			v.SetZero()
			return path + "=nil", false, true
		}
		if !v.IsNil() {
			return mutateField(v.Elem(), path, n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			p := f.Name
			if path != "" {
				p = path + "." + f.Name
			}
			if p, oor, ok := mutateField(v.Field(i), p, n); ok {
				return p, oor, ok
			}
		}
	case reflect.Slice:
		if hit() {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return path + "+elem", false, true
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p, oor, ok := mutateField(v.Index(i), fmt.Sprintf("%s[%d]", path, i), n); ok {
				return p, oor, ok
			}
		}
	case reflect.String:
		if hit() {
			v.SetString(v.String() + "x")
			return path, false, true
		}
	case reflect.Int:
		bad := []int64{-1, v.Int() + 1<<32}
		if v.Type() == reflect.TypeOf(frame.ElementKind(0)) {
			bad = append(bad, 256)
		}
		if hit() {
			v.SetInt(v.Int() + 1)
			return path, false, true
		}
		for _, b := range bad {
			if hit() {
				v.SetInt(b)
				return path, true, true
			}
		}
	case reflect.Uint8, reflect.Uint64:
		if hit() {
			v.SetUint(v.Uint() + 1)
			return path, false, true
		}
	case reflect.Float64:
		if hit() {
			v.SetFloat(v.Float() + 1)
			return path, false, true
		}
	default:
		panic(fmt.Sprintf("mutateField: %s has unhandled kind %s", path, v.Kind()))
	}
	return "", false, false
}

func TestTranscriptRendering(t *testing.T) {
	var tr Transcript
	tr.Title = "Fig 9 registration"
	tr.Add(0, ServerToDevice, "RegistrationPage", "nonce=abc", true)
	tr.Add(time.Second, Internal, "Capture", "fingerprint verified", true)
	tr.Add(2*time.Second, DeviceToServer, "RegistrationSubmit", "account=a", false)
	s := tr.String()
	for _, want := range []string{"Fig 9 registration", "RegistrationPage", "FAIL", "device->server"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("transcript missing %q:\n%s", want, s)
		}
	}
}

func TestDirectionStrings(t *testing.T) {
	for _, d := range []Direction{DeviceToServer, ServerToDevice, Internal} {
		if d.String() == "" {
			t.Errorf("direction %d empty", int(d))
		}
	}
}
