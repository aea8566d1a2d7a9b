package flock

import (
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/pki"
)

// verifiedNow drives owner touches until one matches and returns a
// time at which the module is touch-authorized.
func verifiedNow(t *testing.T, m *Module, f *fingerprint.Finger) time.Duration {
	t.Helper()
	for i := 0; i < 20; i++ {
		out := m.HandleTouch(onSensorEvent(time.Duration(i)*time.Second), f)
		if out.Kind == Matched {
			return out.At + out.Total + time.Millisecond
		}
	}
	t.Fatal("owner never matched")
	return 0
}

func TestServiceRecordLifecycle(t *testing.T) {
	m, _ := newTestModule(t)
	serverKeys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(7))
	rec, err := m.NewServiceKeys("www.xyz.com", "ab12xyom", serverKeys.Public)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "www.xyz.com" || len(rec.Keys.Public) == 0 {
		t.Fatalf("record malformed: %+v", rec)
	}
	got, err := m.Record("www.xyz.com")
	if err != nil {
		t.Fatal(err)
	}
	if got.Account != "ab12xyom" {
		t.Fatalf("account %q", got.Account)
	}
	if _, err := m.Record("missing.example"); err == nil {
		t.Fatal("missing record returned")
	}
	if ds := m.Domains(); len(ds) != 1 || ds[0] != "www.xyz.com" {
		t.Fatalf("domains = %v", ds)
	}
}

func TestNewServiceKeysValidation(t *testing.T) {
	m, _ := newTestModule(t)
	serverKeys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(8))
	if _, err := m.NewServiceKeys("", "acct", serverKeys.Public); err == nil {
		t.Fatal("empty domain accepted")
	}
	if _, err := m.NewServiceKeys("d", "", serverKeys.Public); err == nil {
		t.Fatal("empty account accepted")
	}
}

func TestServiceKeysDifferPerDomain(t *testing.T) {
	m, _ := newTestModule(t)
	serverKeys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(9))
	a, _ := m.NewServiceKeys("a.com", "acct", serverKeys.Public)
	b, _ := m.NewServiceKeys("b.com", "acct", serverKeys.Public)
	if string(a.Keys.Public) == string(b.Keys.Public) {
		t.Fatal("per-domain keys identical: cross-site linkage possible")
	}
}

func TestSignAsServiceRequiresTouchAndRecord(t *testing.T) {
	m, _ := newTestModule(t)
	f := enrollOwner(t, m)
	serverKeys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(10))
	m.NewServiceKeys("www.xyz.com", "acct", serverKeys.Public)
	if _, err := m.SignAsService(0, "www.xyz.com", []byte("x")); err != ErrNotAuthorized {
		t.Fatalf("unauthorized error = %v", err)
	}
	now := verifiedNow(t, m, f)
	if _, err := m.SignAsService(now, "nope.example", []byte("x")); err == nil {
		t.Fatal("unknown domain signed")
	}
	if _, err := m.SignAsService(now, "www.xyz.com", []byte("x")); err != nil {
		t.Fatalf("authorized service sign failed: %v", err)
	}
}

func TestIdentityTransferRoundTrip(t *testing.T) {
	ca, _ := pki.NewCA("trust-root", pki.NewDeterministicRand(11))
	oldDev, err := New(DefaultConfig(testPlacement()), ca, "old-device", 1)
	if err != nil {
		t.Fatal(err)
	}
	newDev, err := New(DefaultConfig(testPlacement()), ca, "new-device", 2)
	if err != nil {
		t.Fatal(err)
	}
	f := enrollOwner(t, oldDev)
	serverKeys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(12))
	oldDev.NewServiceKeys("bank.example", "acct-1", serverKeys.Public)
	oldDev.NewServiceKeys("mail.example", "acct-2", serverKeys.Public)

	now := verifiedNow(t, oldDev, f)
	blob, err := oldDev.ExportIdentity(now, newDev.DeviceCert())
	if err != nil {
		t.Fatal(err)
	}
	if err := newDev.ImportIdentity(blob); err != nil {
		t.Fatal(err)
	}
	if !newDev.Enrolled() {
		t.Fatal("template not transferred")
	}
	if ds := newDev.Domains(); len(ds) != 2 {
		t.Fatalf("domains transferred: %v", ds)
	}
	oldRec, _ := oldDev.Record("bank.example")
	newRec, _ := newDev.Record("bank.example")
	if string(oldRec.Keys.Private) != string(newRec.Keys.Private) {
		t.Fatal("service keys not transferred intact")
	}
	// The owner's finger must now verify on the new device.
	matched := 0
	for i := 0; i < 10; i++ {
		if newDev.HandleTouch(onSensorEvent(time.Duration(i)*time.Second), f).Kind == Matched {
			matched++
		}
	}
	if matched < 5 {
		t.Fatalf("owner matched only %d/10 on new device", matched)
	}
}

func TestExportRequiresFreshTouch(t *testing.T) {
	ca, _ := pki.NewCA("trust-root", pki.NewDeterministicRand(13))
	oldDev, _ := New(DefaultConfig(testPlacement()), ca, "old", 3)
	newDev, _ := New(DefaultConfig(testPlacement()), ca, "new", 4)
	enrollOwner(t, oldDev)
	if _, err := oldDev.ExportIdentity(0, newDev.DeviceCert()); err != ErrNotAuthorized {
		t.Fatalf("export without touch: %v", err)
	}
}

func TestImportRejectsWrongRecipient(t *testing.T) {
	ca, _ := pki.NewCA("trust-root", pki.NewDeterministicRand(14))
	oldDev, _ := New(DefaultConfig(testPlacement()), ca, "old", 5)
	newDev, _ := New(DefaultConfig(testPlacement()), ca, "new", 6)
	thief, _ := New(DefaultConfig(testPlacement()), ca, "thief", 7)
	f := enrollOwner(t, oldDev)
	now := verifiedNow(t, oldDev, f)
	blob, err := oldDev.ExportIdentity(now, newDev.DeviceCert())
	if err != nil {
		t.Fatal(err)
	}
	if err := thief.ImportIdentity(blob); err == nil {
		t.Fatal("blob imported by non-recipient device")
	}
}

func TestImportRejectsTamperedBlob(t *testing.T) {
	ca, _ := pki.NewCA("trust-root", pki.NewDeterministicRand(15))
	oldDev, _ := New(DefaultConfig(testPlacement()), ca, "old", 8)
	newDev, _ := New(DefaultConfig(testPlacement()), ca, "new", 9)
	f := enrollOwner(t, oldDev)
	now := verifiedNow(t, oldDev, f)
	blob, err := oldDev.ExportIdentity(now, newDev.DeviceCert())
	if err != nil {
		t.Fatal(err)
	}
	blob.Sealed[len(blob.Sealed)/2] ^= 1
	if err := newDev.ImportIdentity(blob); err == nil {
		t.Fatal("tampered blob imported")
	}
	if err := newDev.ImportIdentity(nil); err == nil {
		t.Fatal("nil blob imported")
	}
}

func TestExportRejectsBogusRecipientCert(t *testing.T) {
	ca, _ := pki.NewCA("trust-root", pki.NewDeterministicRand(16))
	rogueCA, _ := pki.NewCA("rogue", pki.NewDeterministicRand(17))
	oldDev, _ := New(DefaultConfig(testPlacement()), ca, "old", 10)
	rogueDev, _ := New(DefaultConfig(testPlacement()), rogueCA, "rogue-dev", 11)
	f := enrollOwner(t, oldDev)
	now := verifiedNow(t, oldDev, f)
	if _, err := oldDev.ExportIdentity(now, rogueDev.DeviceCert()); err == nil {
		t.Fatal("export to rogue-CA device accepted")
	}
}
