package trust

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt fails on any Go file in the module whose gofmt output
// differs from the file. testdata/ is exempt because the analyzer
// goldens pin findings to fixture line layout, and perfbench/ because
// it is its own module.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || name == "perfbench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
