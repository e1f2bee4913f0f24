package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests of the built binary: exit codes and the output lines
// scripts depend on.

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sensitivity-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "sensitivity")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns its stdout, stderr and exit code.
func run(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if err == nil {
		return stdout.String(), stderr.String(), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return stdout.String(), stderr.String(), ee.ExitCode()
}

func TestMissingConfigIsUsageError(t *testing.T) {
	_, stderr, code := run(t)
	if code != 2 || !strings.Contains(stderr, "-config is required") {
		t.Fatalf("exit %d, want 2:\n%s", code, stderr)
	}
}

func TestSampleConfigPrintsBaseline(t *testing.T) {
	stdout, stderr, code := run(t, "-config", filepath.Join("testdata", "mycluster.json"),
		"-procs", "4", "-cache", filepath.Join(t.TempDir(), "cache"))
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "baseline b_eff = ") || !strings.Contains(stdout, "4 procs") {
		t.Fatalf("no baseline line:\n%s", stdout)
	}
}

// TestProcsAboveMaxProcsFails: a partition larger than the config's
// maxProcs fails the run and names the bound, rather than measuring a
// smaller partition under the requested size's label.
func TestProcsAboveMaxProcsFails(t *testing.T) {
	stdout, stderr, code := run(t, "-config", filepath.Join("testdata", "mycluster.json"),
		"-procs", "64", "-no-cache")
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s%s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "64 processors outside [1,32]") {
		t.Fatalf("error does not name the bound:\n%s", stderr)
	}
	if strings.Contains(stdout, "baseline b_eff") {
		t.Fatalf("reported a result for a partition it never ran:\n%s", stdout)
	}
}
