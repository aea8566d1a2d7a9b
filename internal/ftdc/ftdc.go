// Package ftdc is a compact binary full-time-diagnostics capture:
// fixed-schema metric samples taken on the virtual clock, delta-encoded
// per column, framed into CRC-guarded chunks. It is the flight recorder
// for fleet-scale runs — loadgen, the chaos sweep, and trustserver all
// sample server/device counters through it — so it follows the same
// discipline as everything else on the hot path:
//
//   - Virtual time only. A sample's timestamp is the caller's
//     time.Duration "now"; the package never reads the wall clock, so a
//     capture is byte-identical across runs and worker counts whenever
//     its inputs are (the sweep-engine determinism contract).
//   - Near-zero cost. Sample appends into retained buffers; the steady
//     state allocates nothing (asserted at 0 allocs/op in
//     bench_test.go), so capture can stay enabled in every sweep.
//   - Torn-tail tolerant. Chunks are internal/chunk frames, the framing
//     internal/store's WAL records use, and Read follows that package's
//     recovery rule: a torn tail is discarded, corruption refused.
//
// Wire grammar:
//
//	capture  = chunk*
//	chunk    = an internal/chunk frame holding one payload
//	payload  = schemaChunk | dataChunk
//	schemaChunk = 'S' || uvarint(ncols) || (uvarint(len) || name)*
//	dataChunk   = 'D' || uvarint(nrows) || keyframe || delta*
//	keyframe = svarint(abs value) per column   (time column first)
//	delta    = svarint(value - prev row) per column
//
// svarint is zig-zag varint (encoding/binary's AppendVarint). The time
// column (nanoseconds of virtual time) is implicit: it is not listed in
// the schema but leads every row. A new chunk opens every KeyframeRows
// samples, so a reader never needs more than one chunk of history to
// recover absolute values, and a torn tail costs at most one chunk.
//
// Captures concatenate: appending one capture's bytes after another's
// is itself a valid capture provided the schemas match, which is how
// the chaos sweep merges per-trial captures in trial order.
package ftdc

import (
	"encoding/binary"
	"fmt"

	"trust/internal/chunk"
)

// KeyframeRows is the number of samples per data chunk. Each chunk
// opens with absolute values, so smaller means denser recovery points
// and larger means better delta compression; 32 keeps a torn tail under
// a few hundred bytes for server-sized schemas.
const KeyframeRows = 32

const (
	chunkSchema = 'S'
	chunkData   = 'D'
)

// Schema is the fixed, registered column set of a capture. Columns are
// named once, before the first sample; every sample supplies exactly
// one int64 per column. The implicit time column is not part of the
// schema.
type Schema struct {
	names []string
}

// NewSchema registers the capture's columns. The order is the sample
// order and is part of the wire format.
func NewSchema(names []string) *Schema {
	s := &Schema{names: make([]string, len(names))}
	copy(s.names, names)
	return s
}

// Names returns the registered column names (not aliased to the
// schema's own storage).
func (s *Schema) Names() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Len reports the number of registered columns.
func (s *Schema) Len() int { return len(s.names) }

// Capture accumulates delta-encoded samples for one schema. Not safe
// for concurrent use; collectors serialize Sample calls (loadgen holds
// a mutex, the chaos sweep samples from the single trial goroutine).
type Capture struct {
	schema  *Schema
	prev    []int64 // last encoded row: time followed by columns
	rows    int     // rows in the open chunk
	samples int     // rows recorded since NewCapture/Reset
	body    []byte  // encoded rows of the open chunk
	out     []byte  // completed chunks
}

// NewCapture starts a capture: the schema chunk is written immediately,
// data chunks follow as samples arrive.
func NewCapture(schema *Schema) *Capture {
	c := &Capture{
		schema: schema,
		prev:   make([]int64, 1+schema.Len()),
	}
	c.Reset()
	return c
}

// Sample records one row of column values at the given virtual time.
// len(vals) must equal the schema's column count. The slice is read,
// never retained. Steady-state cost is zero allocations: rows append
// into retained buffers that only grow on first use.
func (c *Capture) Sample(now int64, vals []int64) {
	if len(vals) != c.schema.Len() {
		panic(fmt.Sprintf("ftdc: sample has %d values for a %d-column schema", len(vals), c.schema.Len()))
	}
	if c.rows == 0 {
		// Keyframe: absolute values re-anchor the chunk.
		c.body = binary.AppendVarint(c.body, now)
		for _, v := range vals {
			c.body = binary.AppendVarint(c.body, v)
		}
	} else {
		c.body = binary.AppendVarint(c.body, now-c.prev[0])
		for i, v := range vals {
			c.body = binary.AppendVarint(c.body, v-c.prev[1+i])
		}
	}
	c.prev[0] = now
	copy(c.prev[1:], vals)
	c.rows++
	c.samples++
	if c.rows >= KeyframeRows {
		c.closeChunk()
	}
}

// closeChunk frames the open rows into a CRC-guarded data chunk.
func (c *Capture) closeChunk() {
	if c.rows == 0 {
		return
	}
	out, at := chunk.Begin(c.out)
	out = append(out, chunkData)
	out = binary.AppendUvarint(out, uint64(c.rows))
	out = append(out, c.body...)
	chunk.End(out, at)
	c.out = out
	c.body = c.body[:0]
	c.rows = 0
}

// Samples reports how many rows have been recorded since the capture
// started (or was last Reset).
func (c *Capture) Samples() int { return c.samples }

// Bytes closes the open chunk and returns the capture so far. The
// returned slice aliases the capture's buffer; copy it if the capture
// keeps sampling.
func (c *Capture) Bytes() []byte {
	c.closeChunk()
	return c.out
}

// Reset discards all recorded samples and re-emits the schema chunk,
// keeping the retained buffers. Used when a collector (testing.Benchmark
// reruns, for one) restarts the same capture.
func (c *Capture) Reset() {
	c.body = c.body[:0]
	c.rows = 0
	c.samples = 0
	out, at := chunk.Begin(c.out[:0])
	out = append(out, chunkSchema)
	out = binary.AppendUvarint(out, uint64(c.schema.Len()))
	for _, name := range c.schema.names {
		out = binary.AppendUvarint(out, uint64(len(name)))
		out = append(out, name...)
	}
	chunk.End(out, at)
	c.out = out
}
