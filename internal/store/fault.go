package store

import (
	"errors"
	"sync"
)

// ErrInjected is the root of every fault this file injects; tests
// assert on it to distinguish injected failures from real ones.
var ErrInjected = errors.New("store: injected fault")

// FaultFS wraps an FS and makes its write path fail deterministically —
// the storage-side sibling of device.FaultyTransport. Faults are
// counted in operations, not time, so a scenario is reproducible at
// any worker count:
//
//   - WriteBudget: after this many successful File.Write calls across
//     the whole FS, the next write is torn — a prefix of the buffer
//     reaches the file, then the call errors — and every later write
//     fails outright. Negative means unlimited.
//   - SyncBudget: after this many successful Sync calls, Sync fails
//     (the bytes stay written but unacknowledged). Negative means
//     unlimited.
//
// Read paths are untouched: recovery from a torn log is exercised by
// reopening the underlying FS, not by failing reads.
type FaultFS struct {
	inner FS

	mu          sync.Mutex
	writeBudget int64
	syncBudget  int64
	// tripped latches once the write budget is exhausted: the
	// budget-exhausting write was torn, every write after it fails.
	tripped    bool
	tornWrites int
}

// NewFaultFS wraps inner with the given budgets (negative = unlimited).
func NewFaultFS(inner FS, writeBudget, syncBudget int64) *FaultFS {
	return &FaultFS{inner: inner, writeBudget: writeBudget, syncBudget: syncBudget}
}

func (f *FaultFS) OpenRead(name string) (File, error) { return f.inner.OpenRead(name) }

func (f *FaultFS) Create(name string) (File, error) {
	h, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	h, err := f.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, inner: h}, nil
}

func (f *FaultFS) Rename(oldname, newname string) error { return f.inner.Rename(oldname, newname) }
func (f *FaultFS) Remove(name string) error             { return f.inner.Remove(name) }

// faultHandle applies the FS-wide budgets to one writable handle.
type faultHandle struct {
	fs    *FaultFS
	inner File
}

func (h *faultHandle) Read(p []byte) (int, error) { return h.inner.Read(p) }

func (h *faultHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	switch {
	case h.fs.tripped:
		h.fs.mu.Unlock()
		return 0, errors.Join(ErrInjected, errors.New("write failed"))
	case h.fs.writeBudget < 0:
		h.fs.mu.Unlock()
		return h.inner.Write(p)
	case h.fs.writeBudget > 0:
		h.fs.writeBudget--
		h.fs.mu.Unlock()
		return h.inner.Write(p)
	case len(p) > 1:
		// The budget-exhausting write is torn: half the buffer lands
		// (a partial record on disk), then the error surfaces.
		h.fs.tripped = true
		h.fs.tornWrites++
		h.fs.mu.Unlock()
		n, _ := h.inner.Write(p[:len(p)/2])
		return n, errors.Join(ErrInjected, errors.New("torn write"))
	default:
		h.fs.tripped = true
		h.fs.mu.Unlock()
		return 0, errors.Join(ErrInjected, errors.New("write failed"))
	}
}

func (h *faultHandle) Sync() error {
	h.fs.mu.Lock()
	switch {
	case h.fs.syncBudget < 0:
		h.fs.mu.Unlock()
		return h.inner.Sync()
	case h.fs.syncBudget > 0:
		h.fs.syncBudget--
		h.fs.mu.Unlock()
		return h.inner.Sync()
	default:
		h.fs.mu.Unlock()
		return errors.Join(ErrInjected, errors.New("sync failed"))
	}
}

func (h *faultHandle) Close() error { return h.inner.Close() }
