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
	dir, err := os.MkdirTemp("", "tables-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "tables")
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

func TestNoFigureIsUsageError(t *testing.T) {
	_, stderr, code := run(t)
	if code != 2 || !strings.Contains(stderr, "Usage") {
		t.Fatalf("exit %d, want 2 with usage:\n%s", code, stderr)
	}
}

// TestFig1ReusesTable1Cells: Fig. 1's cells are a subset of Table 1's,
// and both sweeps share one cache, so on a cold cache every Fig. 1
// cell is a hit on what Table 1 stored moments earlier.
func TestFig1ReusesTable1Cells(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	_, stderr, code := run(t, "-table1", "-fig1", "-maxloop", "1", "-cache", dir)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	var fig1, cached int
	for _, line := range strings.Split(stderr, "\n") {
		if strings.HasPrefix(line, "fig1: ") {
			fig1++
			if strings.HasSuffix(line, " cached") {
				cached++
			}
		}
	}
	if fig1 != 8 || cached != 8 {
		t.Fatalf("fig1: %d of %d progress lines cached, want 8 of 8:\n%s", cached, fig1, stderr)
	}
	if flats, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(flats) != 0 {
		t.Fatalf("cache directory holds flat entries: %v", flats)
	}
}
