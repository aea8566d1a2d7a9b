package trust

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestPerfbenchVets vets the perfbench module, which sits outside this
// module's ./... and imports its packages through a replace directive.
// Vetting type-checks every perfbench package against the tree as it
// stands, so an API change that breaks the benchmark fails here. It
// runs offline: the module has no dependencies beyond this one.
func TestPerfbenchVets(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	cmd := exec.Command(gobin, "-C", "perfbench", "vet", "./...")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go -C perfbench vet ./...: %v\n%s", err, out)
	}
}
