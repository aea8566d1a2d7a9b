package flock

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/pki"
)

// Record is one per-service entry in the module's protected flash
// (Fig 9: domain, account, user key pair, server public key; the
// biometric template is stored module-wide).
type Record struct {
	Domain          string
	Account         string
	Keys            pki.KeyPair
	ServerPublicKey ed25519.PublicKey
}

// Errors from record management.
var (
	ErrNoRecord      = errors.New("flock: no record for domain")
	ErrNotEnrolled   = errors.New("flock: no enrolled template")
	ErrNotAuthorized = errors.New("flock: no fresh verified touch")
)

// NewServiceKeys generates a key pair for a new service binding and
// stores the record. Registration overwrites any previous binding for
// the domain (re-registration after identity reset).
func (m *Module) NewServiceKeys(domain, account string, serverPub ed25519.PublicKey) (*Record, error) {
	if domain == "" || account == "" {
		return nil, fmt.Errorf("flock: registering empty domain/account")
	}
	keys, err := pki.GenerateKeyPair(m.entropy)
	if err != nil {
		return nil, fmt.Errorf("flock: service keys: %w", err)
	}
	rec := &Record{
		Domain:          domain,
		Account:         account,
		Keys:            keys,
		ServerPublicKey: append(ed25519.PublicKey(nil), serverPub...),
	}
	m.records[domain] = rec
	m.energy.AddEvent("flash-write", 2e-6)
	return rec, nil
}

// Record returns the stored record for a domain.
func (m *Module) Record(domain string) (*Record, error) {
	rec, ok := m.records[domain]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoRecord, domain)
	}
	return rec, nil
}

// Domains lists bound services, sorted.
func (m *Module) Domains() []string {
	out := make([]string, 0, len(m.records))
	for d := range m.records {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// identityBundle is the serialized form moved during identity transfer:
// every service record plus the biometric templates, exactly what the
// paper transfers encrypted under the new device's public key.
type identityBundle struct {
	Records   []transferRecord
	Templates []transferTemplate
}

type transferTemplate struct {
	Name     string
	Minutiae []fingerprint.Minutia
}

type transferRecord struct {
	Domain          string
	Account         string
	Public          []byte
	Private         []byte
	ServerPublicKey []byte
}

// ExportIdentity packages the module's identity for transfer to a new
// device (Sec IV-B "Identity Transfer"). The user must authorize with a
// fresh verified touch; the bundle is hybrid-encrypted to the recipient
// certificate's X25519 key, so only the destination module's crypto
// processor can open it, and signed with the sender's device key.
func (m *Module) ExportIdentity(now time.Duration, recipient *pki.Certificate) (*TransferBlob, error) {
	if !m.TouchAuthorized(now) {
		return nil, ErrNotAuthorized
	}
	if len(m.templates) == 0 {
		return nil, ErrNotEnrolled
	}
	if err := recipient.Verify(m.caPub, pki.RoleFLock); err != nil {
		return nil, fmt.Errorf("flock: recipient certificate: %w", err)
	}
	var bundle identityBundle
	for _, e := range m.templates {
		bundle.Templates = append(bundle.Templates, transferTemplate{Name: e.name, Minutiae: e.tpl.Minutiae})
	}
	for _, d := range m.Domains() {
		r := m.records[d]
		bundle.Records = append(bundle.Records, transferRecord{
			Domain:          r.Domain,
			Account:         r.Account,
			Public:          r.Keys.Public,
			Private:         r.Keys.Private,
			ServerPublicKey: r.ServerPublicKey,
		})
	}
	plain, err := json.Marshal(bundle)
	if err != nil {
		return nil, fmt.Errorf("flock: encoding identity: %w", err)
	}
	sealed, err := pki.EncryptTo(recipient.KemKey, plain, m.entropy)
	if err != nil {
		return nil, fmt.Errorf("flock: sealing identity: %w", err)
	}
	blob := &TransferBlob{
		Recipient:  append([]byte(nil), recipient.PublicKey...),
		SenderCert: m.deviceCert.Clone(),
		Sealed:     sealed,
	}
	blob.Signature = ed25519.Sign(m.deviceKeys.Private, blob.signingBytes())
	return blob, nil
}

// TransferBlob is the encrypted identity in transit between devices.
type TransferBlob struct {
	Recipient  []byte // destination device signing public key
	SenderCert *pki.Certificate
	Sealed     []byte // pki.EncryptTo blob for the recipient's KEM key
	Signature  []byte
}

func (b *TransferBlob) signingBytes() []byte {
	var buf bytes.Buffer
	buf.Write(b.Recipient)
	buf.Write(b.Sealed)
	return buf.Bytes()
}

// ImportIdentity installs a transfer blob on the new device: it checks
// the blob is addressed to this module, verifies the sender's
// certificate and signature, decrypts, and initializes the per-service
// data structures.
func (m *Module) ImportIdentity(blob *TransferBlob) error {
	if blob == nil {
		return errors.New("flock: nil transfer blob")
	}
	// Routing check on the recipient's *public* signing key: both sides
	// are public material, so a short-circuit compare leaks nothing.
	//trustlint:allow ctcompare
	if !bytes.Equal(blob.Recipient, m.deviceKeys.Public) {
		return errors.New("flock: transfer blob addressed to another device")
	}
	if err := blob.SenderCert.Verify(m.caPub, pki.RoleFLock); err != nil {
		return fmt.Errorf("flock: sender certificate: %w", err)
	}
	if !ed25519.Verify(blob.SenderCert.Key(), blob.signingBytes(), blob.Signature) {
		return errors.New("flock: transfer blob signature invalid")
	}
	plain, err := pki.DecryptWith(m.deviceKem.Private, blob.Sealed)
	if err != nil {
		return fmt.Errorf("flock: opening transfer blob: %w", err)
	}
	var bundle identityBundle
	if err := json.Unmarshal(plain, &bundle); err != nil {
		return fmt.Errorf("flock: decoding identity: %w", err)
	}
	if len(bundle.Templates) == 0 {
		return errors.New("flock: transfer carries no templates")
	}
	var imported []enrolledTemplate
	for _, t := range bundle.Templates {
		if len(t.Minutiae) < fingerprint.MinProbeMinutiae {
			return fmt.Errorf("flock: transferred template %q too sparse", t.Name)
		}
		imported = append(imported, enrolledTemplate{
			name: t.Name,
			tpl:  &fingerprint.Template{Minutiae: t.Minutiae},
		})
	}
	m.templates = imported
	m.records = make(map[string]*Record, len(bundle.Records))
	for _, r := range bundle.Records {
		m.records[r.Domain] = &Record{
			Domain:          r.Domain,
			Account:         r.Account,
			Keys:            pki.KeyPair{Public: r.Public, Private: r.Private},
			ServerPublicKey: r.ServerPublicKey,
		}
	}
	m.energy.AddEvent("flash-write", 5e-6)
	return nil
}
