package ftdc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"trust/internal/chunk"
)

// ErrCorrupt reports a capture that is corrupt under internal/chunk's
// recovery rule. A torn final chunk is NOT corruption — like the WAL's
// torn tail, it is discarded silently, because a capture interrupted
// by a crash is exactly the capture you most need to read.
var ErrCorrupt = errors.New("ftdc: corrupt capture")

// Data is a decoded capture: one time series per column, row-aligned.
type Data struct {
	Names []string
	Times []time.Duration // virtual timestamps, one per row
	Cols  [][]int64       // Cols[c][row]; len(Cols) == len(Names)
}

// Rows reports the number of decoded samples.
func (d *Data) Rows() int { return len(d.Times) }

// Col returns the series for a named column, or nil if absent.
func (d *Data) Col(name string) []int64 {
	for i, n := range d.Names {
		if n == name {
			return d.Cols[i]
		}
	}
	return nil
}

// Last returns the final value of a named column (0 if the column is
// absent or the capture is empty).
func (d *Data) Last(name string) int64 {
	c := d.Col(name)
	if len(c) == 0 {
		return 0
	}
	return c[len(c)-1]
}

// Read decodes a capture. Concatenated captures are accepted as long as
// every schema chunk registers the same columns (the chaos sweep merges
// per-trial captures this way); rows accumulate across segments in
// input order. A torn tail is discarded; anything else malformed
// returns ErrCorrupt.
func Read(data []byte) (*Data, error) {
	d := &Data{}
	_, err := chunk.Scan(data, func(payload []byte) error {
		switch payload[0] {
		case chunkSchema:
			names, err := decodeSchema(payload[1:])
			if err != nil {
				return err
			}
			if d.Cols == nil {
				d.Names = names
				d.Cols = make([][]int64, len(names))
			} else if !equalNames(d.Names, names) {
				return errors.New("concatenated capture changes schema")
			}
		case chunkData:
			if d.Cols == nil {
				return errors.New("data chunk before schema")
			}
			return decodeRows(d, payload[1:])
		default:
			return fmt.Errorf("unknown chunk kind %#x", payload[0])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if d.Cols == nil {
		return nil, fmt.Errorf("%w: no schema chunk", ErrCorrupt)
	}
	return d, nil
}

func decodeSchema(p []byte) ([]string, error) {
	n, k := binary.Uvarint(p)
	if k <= 0 {
		return nil, errors.New("bad schema count")
	}
	p = p[k:]
	// Every name takes at least its one-byte length, so a count the
	// chunk cannot hold is refused before it sizes an allocation.
	if n > uint64(len(p)) {
		return nil, fmt.Errorf("schema count %d exceeds its %d bytes", n, len(p))
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, k := binary.Uvarint(p)
		if k <= 0 || uint64(len(p)-k) < l {
			return nil, errors.New("bad schema name")
		}
		names = append(names, string(p[k:k+int(l)]))
		p = p[k+int(l):]
	}
	if len(p) != 0 {
		return nil, errors.New("trailing bytes in schema chunk")
	}
	return names, nil
}

func decodeRows(d *Data, p []byte) error {
	nrows, k := binary.Uvarint(p)
	if k <= 0 {
		return errors.New("bad row count")
	}
	p = p[k:]
	var prev []int64
	row := make([]int64, 1+len(d.Cols))
	for r := uint64(0); r < nrows; r++ {
		for c := range row {
			v, k := binary.Varint(p)
			if k <= 0 {
				return errors.New("bad row varint")
			}
			p = p[k:]
			if r == 0 {
				row[c] = v // keyframe: absolute
			} else {
				row[c] = prev[c] + v
			}
		}
		if prev == nil {
			prev = make([]int64, len(row))
		}
		copy(prev, row)
		d.Times = append(d.Times, time.Duration(row[0]))
		for c := range d.Cols {
			d.Cols[c] = append(d.Cols[c], row[1+c])
		}
	}
	if len(p) != 0 {
		return errors.New("trailing bytes in data chunk")
	}
	return nil
}

func equalNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Dump pretty-prints a capture summary: per column first/last/min/max.
// Columns print in schema order — the registry order, stable across
// runs — so dumps diff cleanly in text tools too.
func (d *Data) Dump(w io.Writer) {
	fmt.Fprintf(w, "%d samples", d.Rows())
	if d.Rows() > 0 {
		fmt.Fprintf(w, " over %v..%v", d.Times[0], d.Times[len(d.Times)-1])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %12s %12s %12s %12s\n", "metric", "first", "last", "min", "max")
	for i, name := range d.Names {
		col := d.Cols[i]
		if len(col) == 0 {
			fmt.Fprintf(w, "%-28s %12s %12s %12s %12s\n", name, "-", "-", "-", "-")
			continue
		}
		lo, hi := col[0], col[0]
		for _, v := range col {
			lo, hi = min(lo, v), max(hi, v)
		}
		fmt.Fprintf(w, "%-28s %12d %12d %12d %12d\n", name, col[0], col[len(col)-1], lo, hi)
	}
}

// DiffRow is one metric's comparison between two captures.
type DiffRow struct {
	Name  string
	A, B  int64 // final values in each capture
	Delta int64 // B - A
	// Differing counts the samples at which the metric's two series
	// differ. It is -1 when the captures' timestamps differ, so their
	// samples do not pair up, and for a metric missing from one side.
	Differing int
	OnlyIn    string // "a" or "b" when the metric is missing from the other
}

// Diff compares two captures metric by metric — the
// regression-hunting primitive behind benchtab's -ftdc-diff mode. Each
// shared metric is compared by its final value and, when both captures
// sampled at the same timestamps, sample by sample, so a series that
// differs mid-capture but ends equal still shows. Metrics present in
// both captures are listed in a's schema order; metrics unique to
// either side follow, sorted by name.
func Diff(a, b *Data) []DiffRow {
	aligned := slices.Equal(a.Times, b.Times)
	inB := make(map[string]bool, len(b.Names))
	for _, n := range b.Names {
		inB[n] = true
	}
	inA := make(map[string]bool, len(a.Names))
	for _, n := range a.Names {
		inA[n] = true
	}
	var rows []DiffRow
	for _, n := range a.Names {
		if inB[n] {
			av, bv := a.Last(n), b.Last(n)
			differing := -1
			if aligned {
				differing = 0
				bc := b.Col(n)
				for i, v := range a.Col(n) {
					if v != bc[i] {
						differing++
					}
				}
			}
			rows = append(rows, DiffRow{Name: n, A: av, B: bv, Delta: bv - av, Differing: differing})
		}
	}
	var only []DiffRow
	for _, n := range a.Names {
		if !inB[n] {
			only = append(only, DiffRow{Name: n, A: a.Last(n), Differing: -1, OnlyIn: "a"})
		}
	}
	for _, n := range b.Names {
		if !inA[n] {
			only = append(only, DiffRow{Name: n, B: b.Last(n), Differing: -1, OnlyIn: "b"})
		}
	}
	sort.Slice(only, func(i, j int) bool { return only[i].Name < only[j].Name })
	return append(rows, only...)
}

// WriteDiff formats Diff's rows as a table, flagging changed metrics
// with a trailing marker so regressions stand out in a terminal scan.
// When the captures' samples pair up, a "differ" column counts each
// shared metric's differing samples, and a metric that differs
// anywhere is flagged.
func WriteDiff(w io.Writer, rows []DiffRow) {
	series := slices.ContainsFunc(rows, func(r DiffRow) bool { return r.Differing >= 0 })
	differ := func(v any) string {
		if !series {
			return ""
		}
		return fmt.Sprintf(" %8v", v)
	}
	fmt.Fprintf(w, "%-28s %12s %12s %12s%s\n", "metric", "a", "b", "delta", differ("differ"))
	for _, r := range rows {
		switch r.OnlyIn {
		case "a":
			fmt.Fprintf(w, "%-28s %12d %12s %12s%s  only in a\n", r.Name, r.A, "-", "-", differ("-"))
		case "b":
			fmt.Fprintf(w, "%-28s %12s %12d %12s%s  only in b\n", r.Name, "-", r.B, "-", differ("-"))
		default:
			mark := ""
			if r.Delta != 0 || r.Differing > 0 {
				mark = "  *"
			}
			fmt.Fprintf(w, "%-28s %12d %12d %+12d%s%s\n", r.Name, r.A, r.B, r.Delta, differ(r.Differing), mark)
		}
	}
}
