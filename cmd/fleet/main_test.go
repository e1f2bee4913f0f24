package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Smoke tests of the built binary: exit codes, artifact writing, and
// the -diff drift gate — the surface CI and scripts depend on.

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fleet-smoke")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "fleet")
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

// miniFleetArgs keeps smoke runs to milliseconds: two small machines,
// a tiny L_max, no cache sharing with the host.
func miniFleetArgs(t *testing.T, extra ...string) []string {
	t.Helper()
	args := []string{
		"-machines", "t3e,sx5", "-procs", "4", "-lmax", "65536",
		"-cache", filepath.Join(t.TempDir(), "cache"),
	}
	return append(args, extra...)
}

func TestBadFlagValuesRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-procs", "0"},
		{"-procs", "4;8"},
		{"-maxloop", "0"},
		{"-reps", "-1"},
		{"-seed", "0"},
		{"-diff-tolerance", "0"},
		{"-j", "2", "-shards", "2"}, // the sharded executor is gone
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

func TestUnknownMachineFails(t *testing.T) {
	out, code := run(t, "-machines", "no-such-machine")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "no-such-machine") {
		t.Fatalf("error does not name the machine:\n%s", out)
	}
}

func TestMiniFleetRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "fleet.csv")
	jsonPath := filepath.Join(dir, "fleet.json")
	out, code := run(t, miniFleetArgs(t, "-csv", csvPath, "-json", jsonPath)...)
	if code != 0 {
		t.Fatalf("fleet run failed (%d):\n%s", code, out)
	}
	for _, want := range []string{"Fleet characterization: 2 machines", "Taxonomy", "3-D torus", "NEC SX-5/8B"} {
		if !strings.Contains(out, want) {
			t.Errorf("text report missing %q:\n%s", want, out)
		}
	}
	csvData, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csvData), "\n"); lines != 3 { // header + 2 machines x 1 point
		t.Errorf("csv lines = %d, want 3:\n%s", lines, csvData)
	}
	jsData, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machines []struct {
			Key  string  `json:"key"`
			Beff float64 `json:"beff"`
		} `json:"machines"`
	}
	if err := json.Unmarshal(jsData, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Machines) != 2 || doc.Machines[0].Beff <= 0 {
		t.Errorf("json malformed: %+v", doc)
	}
}

func TestDiffGate(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	if out, code := run(t, miniFleetArgs(t, "-json", basePath, "-no-text")...); code != 0 {
		t.Fatalf("baseline run failed (%d):\n%s", code, out)
	}

	// Same spec: no drift, exit 0.
	out, code := run(t, miniFleetArgs(t, "-diff", basePath, "-no-text")...)
	if code != 0 {
		t.Fatalf("identical fleet flagged drift (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "no drift") {
		t.Errorf("missing no-drift confirmation:\n%s", out)
	}

	// A different L_max moves every b_eff: the gate must fail. (The
	// flag package takes the last occurrence, so this overrides the
	// mini-fleet's -lmax.)
	out, code = run(t, miniFleetArgs(t, "-lmax", "1048576", "-diff", basePath, "-no-text")...)
	if code != 1 {
		t.Fatalf("drifted fleet passed the gate (%d):\n%s", code, out)
	}
	if !strings.Contains(out, "drift") {
		t.Errorf("missing drift diagnostics:\n%s", out)
	}
}

func TestDeterministicJSONAcrossJ(t *testing.T) {
	var want []byte
	for _, extra := range [][]string{
		{"-j", "1"},
		{"-j", "8"},
	} {
		jsonPath := filepath.Join(t.TempDir(), "fleet.json")
		args := miniFleetArgs(t, append(extra, "-json", jsonPath, "-no-text")...)
		if out, code := run(t, args...); code != 0 {
			t.Fatalf("%v failed (%d):\n%s", extra, code, out)
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
			continue
		}
		if string(data) != string(want) {
			t.Errorf("%v: JSON differs from the -j1 run", extra)
		}
	}
}
