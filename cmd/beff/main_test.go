package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests: the built binary's exit codes and usage behaviour —
// the contract scripts and CI depend on, which unit tests of the
// internals cannot see.

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "beff-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "beff")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// run executes the binary and returns combined output and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// tinyConfig is a 1 MB-per-proc machine: L_max collapses to 8 KB so a
// full benchmark run completes in milliseconds.
func tinyConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	cfg := `{"key":"tiny","name":"tiny test box","maxProcs":4,"memoryPerProcMB":1,
	 "fabric":{"aggregateGBps":1,"latencyUs":5},
	 "nic":{"txGBps":1,"rxGBps":1,"portGBps":1,"sendOverheadUs":2,"recvOverheadUs":2,"memcpyGBps":2}}`
	if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUnknownFlagFailsWithUsage(t *testing.T) {
	out, code := run(t, "-no-such-flag")
	if code == 0 {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(out, "Usage") {
		t.Fatalf("no usage text:\n%s", out)
	}
}

func TestBadFlagValuesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "-4"},
		{"-maxloop", "0"},
		{"-reps", "0"},
		{"-reps", "-1"},
		{"-seed", "0"},
		{"-seed", "-7"},
		{"-hotspots", "-1"},
		{"-shards", "2"}, // the sharded executor is gone
	} {
		out, code := run(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (usage)", args, code)
		}
		if !strings.Contains(out, "Usage") {
			t.Errorf("%v: no usage text:\n%s", args, out)
		}
	}
}

func TestUnreadableConfigFails(t *testing.T) {
	out, code := run(t, "-config", filepath.Join(t.TempDir(), "absent.json"))
	if code == 0 {
		t.Fatal("unreadable config accepted")
	}
	if !strings.Contains(out, "beff:") {
		t.Fatalf("no error message:\n%s", out)
	}
}

func TestUnknownMachineFails(t *testing.T) {
	out, code := run(t, "-machine", "no-such-machine")
	if code == 0 {
		t.Fatal("unknown machine accepted")
	}
	if !strings.Contains(out, "no-such-machine") {
		t.Fatalf("error does not name the machine:\n%s", out)
	}
}

func TestListSucceeds(t *testing.T) {
	out, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list failed (%d):\n%s", code, out)
	}
	for _, key := range []string{"t3e", "sp", "cluster"} {
		if !strings.Contains(out, key) {
			t.Errorf("-list missing %s:\n%s", key, out)
		}
	}
}

func TestCheckedRunSucceeds(t *testing.T) {
	out, code := run(t, "-config", tinyConfig(t), "-procs", "2", "-maxloop", "1", "-check")
	if code != 0 {
		t.Fatalf("checked run failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "check: all invariants held") {
		t.Fatalf("no check confirmation:\n%s", out)
	}
	if !strings.Contains(out, "b_eff") {
		t.Fatalf("no result table:\n%s", out)
	}
}
