package frame

import (
	"fmt"
	"sync"
	"time"
)

// AuditEntry is one frame hash reported by a FLock module in a cookie
// field and logged by the server (Fig 9/10: "The server can store it to
// a log file. During future audit event, the log can be investigated").
type AuditEntry struct {
	Account string
	PageURL string
	Hash    Hash
	At      time.Duration // virtual time of the interaction
}

// AuditLog accumulates frame hashes for offline verification. Safe for
// concurrent use: the server appends from every request goroutine.
type AuditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
}

// Append records one entry.
func (l *AuditLog) Append(e AuditEntry) {
	l.mu.Lock()
	l.entries = append(l.entries, e)
	l.mu.Unlock()
}

// Entries returns a copy of the log.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEntry(nil), l.entries...)
}

// AuditFinding is the verdict for one log entry.
type AuditFinding struct {
	Entry AuditEntry
	// OK is true when the hash matches some standard view of the page
	// the server actually served.
	OK bool
	// View is the matched view when OK.
	View View
}

// AuditReport summarizes an offline audit pass.
type AuditReport struct {
	Findings []AuditFinding
	Checked  int
	Tampered int
	// Elapsed is the simulated audit cost: one hash-set lookup per
	// entry after enumerating each page's views once.
	HashesComputed int
}

// Audit verifies every log entry against the finite view sets of the
// pages served, keyed by URL. Unknown URLs count as tampered (the
// device claimed to display a page the server never sent).
func Audit(log *AuditLog, served map[string]*Page, screenHeightPX float64) AuditReport {
	var report AuditReport
	sets := make(map[string]map[Hash]View, len(served))
	for url, p := range served {
		if p.URL != url {
			// Guard against mis-keyed inputs; a mismatch would silently
			// void the audit.
			panic(fmt.Sprintf("frame: served map key %q holds page %q", url, p.URL))
		}
		sets[url] = PossibleHashes(p, screenHeightPX)
		report.HashesComputed += len(sets[url])
	}
	for _, e := range log.Entries() {
		report.Checked++
		finding := AuditFinding{Entry: e}
		if set, ok := sets[e.PageURL]; ok {
			if v, ok := set[e.Hash]; ok {
				finding.OK = true
				finding.View = v
			}
		}
		if !finding.OK {
			report.Tampered++
		}
		report.Findings = append(report.Findings, finding)
	}
	return report
}
