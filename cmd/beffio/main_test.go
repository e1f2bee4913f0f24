package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests for the built binary: exit codes, usage text, and one
// fast end-to-end checked run on a tiny machine definition.

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "beffio-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "beffio")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

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

// tinyConfig is a 1 MB-per-proc machine with a small filesystem:
// M_PART stays at the 2 MB floor and a -T 0.05 run finishes in
// milliseconds.
func tinyConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.json")
	cfg := `{"key":"tiny","name":"tiny test box","maxProcs":4,"memoryPerProcMB":1,
	 "fabric":{"aggregateGBps":1,"latencyUs":5},
	 "nic":{"txGBps":1,"rxGBps":1,"portGBps":1,"sendOverheadUs":2,"recvOverheadUs":2,"memcpyGBps":2},
	 "fs":{"servers":2,"stripeKB":64,"blockKB":16,"writeMBps":100,"readMBps":100,"seekMs":1,
	       "requestOverheadUs":50,"cachePerServerMB":8,"memoryGBps":1,"clientMBps":0}}`
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
		{"-T", "0"},
		{"-T", "-5"},
		{"-load", "1"},
		{"-load", "-0.1"},
		{"-maxreps", "0"},
		{"-reps", "0"},
		{"-seed", "-1"},
	} {
		out, code := run(t, args...)
		if code == 0 {
			t.Errorf("%v accepted", args)
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
	if !strings.Contains(out, "beffio:") {
		t.Fatalf("no error message:\n%s", out)
	}
}

func TestMachineWithoutIOModelFails(t *testing.T) {
	// sr2201 has no fs model; the error must say so rather than panic.
	out, code := run(t, "-machine", "sr2201", "-procs", "2", "-T", "0.05")
	if code == 0 {
		t.Fatalf("machine without I/O model accepted:\n%s", out)
	}
	if !strings.Contains(out, "I/O model") {
		t.Fatalf("unhelpful error:\n%s", out)
	}
}

func TestBadSweepListFails(t *testing.T) {
	for _, list := range []string{"2,x,4", "0,2"} {
		out, code := run(t, "-config", tinyConfig(t), "-sweep", list)
		if code != 2 {
			t.Errorf("-sweep %s: exit %d, want 2 (usage error):\n%s", list, code, out)
		}
		if !strings.Contains(out, "partition size") || !strings.Contains(out, "Usage") {
			t.Errorf("-sweep %s: unhelpful error:\n%s", list, out)
		}
	}
}

// TestCheckedSweepRunsRuntimeWatches: under -check every partition of
// a sweep runs with the full invariant watch set, not only the
// result-level audits.
func TestCheckedSweepRunsRuntimeWatches(t *testing.T) {
	out, code := run(t, "-config", tinyConfig(t), "-sweep", "2,4", "-T", "0.05", "-check")
	if code != 0 {
		t.Fatalf("checked sweep failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "check: all invariants held") {
		t.Fatalf("no runtime-watch confirmation:\n%s", out)
	}
	if !strings.Contains(out, "system b_eff_io") {
		t.Fatalf("no system value:\n%s", out)
	}
}

// workloadSpec writes a tiny two-phase workload spec for CLI tests.
func workloadSpec(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wl.json")
	spec := `{"name":"cli-smoke","seed":3,"phases":[
	  {"name":"w","pattern":{"op":"shared","count":2,"chunk":16384}},
	  {"name":"r","pattern":{"op":"shared","count":2,"chunk":16384,"read":true}}]}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWorkloadRunSucceeds(t *testing.T) {
	out, code := run(t, "-config", tinyConfig(t), "-procs", "2", "-workload", workloadSpec(t), "-check")
	if code != 0 {
		t.Fatalf("workload run failed (%d):\n%s", code, out)
	}
	for _, want := range []string{"check: all invariants held", "workload: cli-smoke", "aggregate:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestWorkloadJSONOutputIsDeterministic(t *testing.T) {
	spec := workloadSpec(t)
	a, code := run(t, "-config", tinyConfig(t), "-procs", "2", "-workload", spec, "-json")
	if code != 0 {
		t.Fatalf("workload -json failed (%d):\n%s", code, a)
	}
	if !strings.HasPrefix(a, "{") || !strings.Contains(a, `"Name": "cli-smoke"`) {
		t.Fatalf("not canonical JSON:\n%s", a)
	}
	b, _ := run(t, "-config", tinyConfig(t), "-procs", "2", "-workload", spec, "-json")
	if a != b {
		t.Fatalf("two runs differ:\n%s\n%s", a, b)
	}
}

func TestWorkloadFlagConflictsRejected(t *testing.T) {
	spec := workloadSpec(t)
	for _, args := range [][]string{
		{"-config", "", "-workload", spec, "-sweep", "2,4"},
		{"-config", "", "-workload", spec, "-detail"},
	} {
		args[1] = tinyConfig(t)
		out, code := run(t, args...)
		if code == 0 {
			t.Errorf("%v accepted", args)
		}
		if !strings.Contains(out, "Usage") {
			t.Errorf("%v: no usage text:\n%s", args, out)
		}
	}
}

func TestWorkloadBadSpecFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x","phases":[{"name":"p","pattern":{"op":"warp","chunk":1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := run(t, "-config", tinyConfig(t), "-procs", "2", "-workload", path)
	if code == 0 {
		t.Fatalf("malformed workload spec accepted:\n%s", out)
	}
	if !strings.Contains(out, "beffio:") {
		t.Fatalf("no error message:\n%s", out)
	}
}

func TestCheckedRunSucceeds(t *testing.T) {
	out, code := run(t, "-config", tinyConfig(t), "-procs", "2", "-T", "0.05", "-check")
	if code != 0 {
		t.Fatalf("checked run failed (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "check: all invariants held") {
		t.Fatalf("no check confirmation:\n%s", out)
	}
	if !strings.Contains(out, "b_eff_io") {
		t.Fatalf("no result line:\n%s", out)
	}
}
