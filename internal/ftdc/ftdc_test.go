package ftdc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"trust/internal/chunk"
)

func sampleCapture(t testing.TB, rows int) (*Capture, [][]int64) {
	t.Helper()
	c := NewCapture(NewSchema([]string{"accepted", "rejected", "depth"}))
	var want [][]int64
	for i := 0; i < rows; i++ {
		vals := []int64{int64(i * 3), int64(i % 5), int64(100 - i)}
		c.Sample(int64(i)*int64(time.Second), vals)
		want = append(want, vals)
	}
	return c, want
}

func TestRoundTrip(t *testing.T) {
	// 100 rows crosses three keyframe boundaries (KeyframeRows=32), so
	// both absolute and delta rows decode.
	c, want := sampleCapture(t, 100)
	d, err := Read(c.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 100 {
		t.Fatalf("decoded %d rows, want 100", d.Rows())
	}
	if len(d.Names) != 3 || d.Names[0] != "accepted" || d.Names[2] != "depth" {
		t.Fatalf("schema %v", d.Names)
	}
	for i := 0; i < 100; i++ {
		if d.Times[i] != time.Duration(i)*time.Second {
			t.Fatalf("row %d time %v", i, d.Times[i])
		}
		for col := 0; col < 3; col++ {
			if d.Cols[col][i] != want[i][col] {
				t.Fatalf("row %d col %d: got %d want %d", i, col, d.Cols[col][i], want[i][col])
			}
		}
	}
	if got := d.Last("depth"); got != 1 {
		t.Fatalf("Last(depth) = %d, want 1", got)
	}
	if d.Col("nope") != nil {
		t.Fatal("Col on unknown name should be nil")
	}
}

func TestNegativeAndLargeValues(t *testing.T) {
	c := NewCapture(NewSchema([]string{"v"}))
	vals := []int64{-1, 1 << 62, -(1 << 62), 0, 7}
	for i, v := range vals {
		c.Sample(int64(i), []int64{v})
	}
	d, err := Read(c.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if d.Cols[0][i] != v {
			t.Fatalf("row %d: got %d want %d", i, d.Cols[0][i], v)
		}
	}
}

func TestDeterministicBytes(t *testing.T) {
	a, _ := sampleCapture(t, 77)
	b, _ := sampleCapture(t, 77)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sample streams produced different capture bytes")
	}
}

func TestConcatenatedCaptures(t *testing.T) {
	a, _ := sampleCapture(t, 40)
	b, _ := sampleCapture(t, 10)
	d, err := Read(append(append([]byte{}, a.Bytes()...), b.Bytes()...))
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 50 {
		t.Fatalf("decoded %d rows, want 50", d.Rows())
	}
	// A segment with a different schema refuses to merge.
	other := NewCapture(NewSchema([]string{"different"}))
	other.Sample(0, []int64{1})
	if _, err := Read(append(append([]byte{}, a.Bytes()...), other.Bytes()...)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("schema change mid-stream: got %v, want ErrCorrupt", err)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	c, _ := sampleCapture(t, 100)
	whole := c.Bytes()
	full, err := Read(whole)
	if err != nil {
		t.Fatal(err)
	}
	// Truncating at every byte of the final chunk loses at most that
	// chunk; earlier rows still decode.
	for cut := len(whole) - 1; cut > len(whole)-20; cut-- {
		d, err := Read(whole[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if d.Rows() > full.Rows() || d.Rows() < full.Rows()-KeyframeRows {
			t.Fatalf("cut at %d decoded %d rows (full %d)", cut, d.Rows(), full.Rows())
		}
	}
}

func TestMidFileCorruptionRefused(t *testing.T) {
	c, _ := sampleCapture(t, 100) // several chunks
	whole := append([]byte{}, c.Bytes()...)
	// Flip a bit in the first data chunk's payload: a CRC mismatch with
	// more chunks behind it is corruption, not a torn tail.
	schemaLen := binary.LittleEndian.Uint32(whole)
	whole[8+int(schemaLen)+8] ^= 0x40
	if _, err := Read(whole); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-file corruption: got %v, want ErrCorrupt", err)
	}
	if _, err := Read([]byte{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty capture: got %v, want ErrCorrupt", err)
	}
}

// hugeSchemaCapture is an 18-byte capture whose one schema chunk
// declares 2^62 columns.
func hugeSchemaCapture() []byte {
	out, at := chunk.Begin(nil)
	out = binary.AppendUvarint(append(out, chunkSchema), 1<<62)
	chunk.End(out, at)
	return out
}

// TestHugeSchemaCountFailsBeforeAllocating: a column count the schema
// chunk's bytes cannot hold fails with ErrCorrupt without sizing a
// slice from the count.
func TestHugeSchemaCountFailsBeforeAllocating(t *testing.T) {
	capt := hugeSchemaCapture()
	if len(capt) != 18 {
		t.Fatalf("capture is %d bytes, want 18", len(capt))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(capt)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read: %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
		t.Fatalf("Read allocated %d bytes before failing", alloc)
	}
}

// FuzzRead feeds arbitrary bytes to Read. It must never panic, fail
// only with ErrCorrupt, and on success decode row-aligned columns that
// equal Read of the capture's longest clean prefix: a torn tail adds
// nothing. The committed corpus (testdata/fuzz/FuzzRead) holds a clean
// capture, a torn one, a concatenation, mid-file damage and the
// 2^62-column schema, and replays on every plain go test.
func FuzzRead(f *testing.F) {
	c, _ := sampleCapture(f, 40)
	whole := c.Bytes()
	f.Add(whole)
	f.Add(whole[:len(whole)-7])
	f.Add(hugeSchemaCapture())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Read(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read failed with an untyped error: %v", err)
			}
			return
		}
		if len(d.Cols) != len(d.Names) {
			t.Fatalf("%d columns for %d names", len(d.Cols), len(d.Names))
		}
		for i, col := range d.Cols {
			if len(col) != d.Rows() {
				t.Fatalf("column %q has %d values for %d rows", d.Names[i], len(col), d.Rows())
			}
		}
		// Every chunk decoded, so the framing alone fixes the prefix.
		prefix, err := chunk.Scan(data, func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("Read accepted a capture the codec calls corrupt: %v", err)
		}
		cut, err := Read(data[:prefix])
		if err != nil || !reflect.DeepEqual(d, cut) {
			t.Fatalf("clean %d-byte prefix reads %+v (err %v), want %+v", prefix, cut, err, d)
		}
	})
}

func TestCaptureReset(t *testing.T) {
	c, _ := sampleCapture(t, 10)
	first := append([]byte{}, c.Bytes()...)
	c.Reset()
	if c.Samples() != 0 {
		t.Fatalf("samples after reset: %d", c.Samples())
	}
	for i := 0; i < 10; i++ {
		c.Sample(int64(i)*int64(time.Second), []int64{int64(i * 3), int64(i % 5), int64(100 - i)})
	}
	if !bytes.Equal(first, c.Bytes()) {
		t.Fatal("reset capture is not byte-identical to the original")
	}
}

func TestZeroAllocSampling(t *testing.T) {
	schema := make([]string, 74) // server-sized column set
	for i := range schema {
		schema[i] = "col" + strings.Repeat("x", i%7)
	}
	c := NewCapture(NewSchema(schema))
	vals := make([]int64, len(schema))
	var now int64
	// Warm the buffers past their growth phase.
	for i := 0; i < 4*KeyframeRows; i++ {
		now += int64(time.Millisecond)
		c.Sample(now, vals)
	}
	c.Bytes()
	c.Reset()
	i := int64(0)
	allocs := testing.AllocsPerRun(2000, func() {
		i++
		now += int64(time.Millisecond)
		for j := range vals {
			vals[j] = i + int64(j)
		}
		c.Sample(now, vals)
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %.1f/op, want 0", allocs)
	}
}

func TestDumpAndDiff(t *testing.T) {
	a, _ := sampleCapture(t, 20)
	da, err := Read(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	da.Dump(&buf)
	out := buf.String()
	for _, want := range []string{"20 samples", "accepted", "rejected", "depth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}

	b := NewCapture(NewSchema([]string{"accepted", "rejected", "extra"}))
	b.Sample(0, []int64{90, 2, 5})
	db, err := Read(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rows := Diff(da, db)
	byName := map[string]DiffRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// accepted: a ends at 19*3=57, b at 90 → delta +33.
	if r := byName["accepted"]; r.A != 57 || r.B != 90 || r.Delta != 33 || r.OnlyIn != "" {
		t.Fatalf("accepted diff %+v", r)
	}
	if r := byName["depth"]; r.OnlyIn != "a" {
		t.Fatalf("depth diff %+v", r)
	}
	if r := byName["extra"]; r.OnlyIn != "b" {
		t.Fatalf("extra diff %+v", r)
	}
	buf.Reset()
	WriteDiff(&buf, rows)
	if !strings.Contains(buf.String(), "only in b") || !strings.Contains(buf.String(), "+33") {
		t.Fatalf("diff table:\n%s", buf.String())
	}
}

// TestDiffComparesWholeSeries pins the series-aware diff: two captures
// sampled at the same timestamps that agree on their last row but
// differ earlier report how many samples differ, and the table flags
// the metric; captures whose timestamps differ are compared by final
// value alone.
func TestDiffComparesWholeSeries(t *testing.T) {
	capture := func(times []int64, accepted, rejected []int64) *Data {
		c := NewCapture(NewSchema([]string{"accepted", "rejected"}))
		for i, now := range times {
			c.Sample(now, []int64{accepted[i], rejected[i]})
		}
		d, err := Read(c.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	times := []int64{1, 2, 3, 4}
	a := capture(times, []int64{1, 2, 3, 4}, []int64{0, 0, 1, 1})
	b := capture(times, []int64{1, 5, 6, 4}, []int64{0, 0, 1, 1})
	rows := Diff(a, b)
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if r := rows[0]; r.Name != "accepted" || r.Delta != 0 || r.Differing != 2 {
		t.Fatalf("accepted diff %+v, want delta 0 and 2 differing samples", r)
	}
	if r := rows[1]; r.Name != "rejected" || r.Differing != 0 {
		t.Fatalf("rejected diff %+v, want 0 differing samples", r)
	}
	var buf bytes.Buffer
	WriteDiff(&buf, rows)
	lines := strings.Split(buf.String(), "\n")
	if !strings.Contains(lines[0], "differ") || !strings.HasSuffix(lines[1], " 2  *") || strings.HasSuffix(lines[2], "*") {
		t.Fatalf("diff table does not flag the mid-capture difference:\n%s", buf.String())
	}

	shifted := capture([]int64{1, 2, 3, 5}, []int64{1, 5, 6, 4}, []int64{0, 0, 1, 1})
	for _, r := range Diff(a, shifted) {
		if r.Differing != -1 {
			t.Fatalf("%s: %d differing samples across unaligned captures, want -1", r.Name, r.Differing)
		}
	}
	buf.Reset()
	WriteDiff(&buf, Diff(a, shifted))
	if strings.Contains(buf.String(), "differ") {
		t.Fatalf("unaligned captures print a differ column:\n%s", buf.String())
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Count() != 0 {
		t.Fatal("empty hist not zero")
	}
	// 90 fast observations, 10 slow: p50 lands in the fast bucket's
	// edge, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count %d", got)
	}
	if p50 := h.Quantile(0.50); p50 != 4*time.Microsecond {
		t.Fatalf("p50 = %v, want 4µs bucket edge", p50)
	}
	if p99 := h.Quantile(0.99); p99 != 8192*time.Microsecond {
		t.Fatalf("p99 = %v, want 8192µs bucket edge", p99)
	}
	// Negative and huge observations clamp, not panic.
	h.Observe(-time.Second)
	h.Observe(1 << 62)
	vals := h.AppendSummary(nil)
	if len(vals) != 3 || vals[0] != 102 {
		t.Fatalf("summary %v", vals)
	}
	names := SummaryNames(nil, "login")
	if len(names) != 3 || names[1] != "login_p50_ns" {
		t.Fatalf("summary names %v", names)
	}
}
