package streammill_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchmarkBuilds compiles the benchmark (bench/) the way bench/run.sh
// does. bench/ is a module of its own, so `go build ./...` at the root never
// reaches it: without this test a change to an API it imports would surface
// only when the benchmark is run.
func TestBenchmarkBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "build", "-o", filepath.Join(t.TempDir(), "bench"), ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build in bench/: %v\n%s", err, out)
	}
}
