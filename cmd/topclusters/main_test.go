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
	dir, err := os.MkdirTemp("", "topclusters-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "topclusters")
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

func TestSmallRunEmitsRecord(t *testing.T) {
	stdout, stderr, code := run(t, "-machine", "cluster", "-procs", "4", "-io-minutes", "0.05", "-maxloop", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	if !strings.Contains(stdout, `topclusters machine="cluster" procs=4 beff=`) {
		t.Fatalf("no topclusters record:\n%s", stdout)
	}
}
