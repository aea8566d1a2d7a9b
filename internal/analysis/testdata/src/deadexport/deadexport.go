// Package defix exercises the deadexport rule: exported API that
// nothing uses, or that only its own package's tests use, is a finding.
package defix

import (
	"container/heap"
	"fmt"
	"io"
)

// Unused has no use anywhere.
func Unused() {} // want "exported Unused has no use in the module"

// TestOnly is called only from this package's _test.go file.
func TestOnly() int { return 1 } // want "exported TestOnly is used only by its own package's tests"

// Countdown only calls itself, which is no use.
func Countdown(n int) int { // want "exported Countdown has no use in the module"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Celsius is an alias nothing names.
type Celsius = float64 // want "exported Celsius has no use in the module"

// Limit is a constant nothing reads.
const Limit = 3 // want "exported Limit has no use in the module"

// Benchmarked is named only by the nested module under nested/, which
// is matched by name.
func Benchmarked() int { return 2 }

// Kept has no use, but says why it stays.
//
//trustlint:allow deadexport -- fixture: an export an oracle elsewhere needs
func Kept() {}

// queue is a min-heap. container/heap requires its exported methods,
// so they count as used though no code calls them by name.
type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Top is a method no interface requires and nothing calls.
func (q queue) Top() int { return q[0] } // want "exported queue.Top has no use in the module"

// counter counts the bytes written to it; io.Writer requires Write.
type counter struct{ n int }

func (c *counter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// smallest drains a heap through container/heap and reports the
// minimum through an io.Writer.
func smallest(xs []int) int {
	q := queue(xs)
	heap.Init(&q)
	var w io.Writer = &counter{}
	m := heap.Pop(&q).(int)
	fmt.Fprintln(w, m)
	return m
}
