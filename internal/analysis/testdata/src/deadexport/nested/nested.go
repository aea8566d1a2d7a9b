// Package nested stands for a separate module built apart from the
// linted one (perfbench): its identifiers are matched by name.
package nested

import defix "trust/internal/analysis/testdata/src/deadexport"

var _ = defix.Benchmarked()
