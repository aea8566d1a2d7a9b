// Command trustdevice simulates a FLock-equipped phone talking to a
// running trustserver over HTTP: it enrolls its owner, registers an
// account, logs in, and browses under continuous authentication.
//
// Usage (with a trustserver on :8443 started with the same -caseed):
//
//	trustdevice -server http://localhost:8443 -account alice -caseed 2012
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/pki"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

func main() {
	var (
		server  = flag.String("server", "http://localhost:8443", "trustserver base URL")
		account = flag.String("account", "alice", "account name to register")
		caSeed  = flag.Uint64("caseed", 2012, "deterministic CA seed shared with the server")
		seed    = flag.Uint64("seed", 7, "device seed")
		binWire = flag.Bool("binary", false, "use the compact binary wire codec instead of JSON")
	)
	flag.Parse()

	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(*caSeed))
	if err != nil {
		log.Fatalf("trustdevice: CA: %v", err)
	}
	owner := fingerprint.Synthesize(*seed+1000, fingerprint.Loop)
	mod, err := testbed.Module(ca, "trustdevice", *seed, owner)
	if err != nil {
		log.Fatalf("trustdevice: %v", err)
	}
	dev := device.New("trustdevice", mod, &device.HTTP{BaseURL: *server, Client: http.DefaultClient, Binary: *binWire})

	cert, err := webserver.FetchCertificate(http.DefaultClient, *server)
	if err != nil {
		log.Fatalf("trustdevice: fetching server certificate: %v", err)
	}
	if err := cert.Verify(ca.PublicKey(), pki.RoleServer); err != nil {
		log.Fatalf("trustdevice: server certificate rejected: %v", err)
	}
	fmt.Printf("server certificate for %s verified against CA\n", cert.Subject)

	now := touchUntilVerified(mod, owner, 0)
	if err := dev.Register(now, *account, "recovery-pw"); err != nil {
		log.Fatalf("trustdevice: register: %v", err)
	}
	fmt.Printf("registered account %q (Fig 9 flow)\n", *account)

	now = touchUntilVerified(mod, owner, now)
	if err := dev.Login(now, cert, *account); err != nil {
		log.Fatalf("trustdevice: login: %v", err)
	}
	fmt.Println("logged in; session key established (Fig 10 flow)")

	for _, action := range []string{"view-statement", "home"} {
		now = touchUntilVerified(mod, owner, now)
		if err := dev.Browse(now, action); err != nil {
			log.Fatalf("trustdevice: browse %s: %v", action, err)
		}
		fmt.Printf("  request %-16s ok (continuous auth)\n", action)
	}
	fmt.Println("done — server /trust/audit shows the frame-hash log verdict")
}

// touchUntilVerified delivers deliberate button touches until the
// module verifies one, and returns the time after that tap.
func touchUntilVerified(mod *flock.Module, owner *fingerprint.Finger, start time.Duration) time.Duration {
	at, err := testbed.TapUntilVerified(mod, owner, start)
	if err != nil {
		log.Fatalf("trustdevice: %v", err)
	}
	return at + testbed.TapInterval
}
