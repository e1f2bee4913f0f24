package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkReport(sha string, cells ...CellResult) Report {
	return Report{GitSHA: sha, GoVersion: "go-test", NumCPU: 4, Cells: cells}
}

func cell4(name string, wall, allocs float64) CellResult {
	return CellResult{Name: name, Ops: 1000, WallSec: wall, NsPerOp: wall * 1e9 / 1000, AllocsPerA: allocs}
}

func withBytes(c CellResult, b float64) CellResult {
	c.BytesPerOp = b
	return c
}

func withHeadline(c CellResult, mb float64) CellResult {
	c.HeadlineMB = mb
	return c
}

func TestGateWallAndAllocs(t *testing.T) {
	hist := []Report{mkReport("aaaa111", cell4("beff_t3e_16", 1.0, 5))}
	// Within tolerance: pass.
	if f, s := runGate([]CellResult{cell4("beff_t3e_16", 1.05, 5.0005)}, hist); len(f) != 0 || len(s) != 0 {
		t.Errorf("5%% wall drift and allocs within 1e-3 should pass: %v", f)
	}
	// Wall beyond tolerance: fail and suspect.
	f, s := runGate([]CellResult{cell4("beff_t3e_16", 1.2, 5)}, hist)
	if len(f) != 1 || len(s) != 1 || !strings.Contains(f[0], "wall") {
		t.Errorf("20%% drift should fail with a wall suspect: %v / %v", f, s)
	}
	// Allocation growth: fail, but re-measuring cannot fix it.
	f, s = runGate([]CellResult{cell4("beff_t3e_16", 1.0, 5.01)}, hist)
	if len(f) != 1 || len(s) != 0 || !strings.Contains(f[0], "allocs/op") {
		t.Errorf("allocs/op growth should fail without a wall suspect: %v / %v", f, s)
	}
	// A cell no entry records is not compared.
	if f, s := runGate([]CellResult{cell4("beff_t3e_64", 9, 9)}, hist); len(f) != 0 || len(s) != 0 {
		t.Errorf("unrecorded cell should not be compared: %v", f)
	}
}

// TestGateUsesBestRecordedPoint: wall and allocs/op are compared
// against the best value anywhere in the history, so a slow decay that
// stays within tolerance of the latest entry still fails against an
// older, better one.
func TestGateUsesBestRecordedPoint(t *testing.T) {
	hist := []Report{
		mkReport("aaaa111", cell4("beff_t3e_16", 1.0, 5)),
		mkReport("bbbb222", cell4("beff_t3e_16", 1.08, 5.5)), // 8% slower, tolerated vs previous
	}
	// 8% over the latest entry but 17% over the best point: must fail,
	// and the message must name the best entry's commit.
	f, s := runGate([]CellResult{cell4("beff_t3e_16", 1.17, 5)}, hist)
	if len(f) != 1 || len(s) != 1 {
		t.Fatalf("decay past the best point should fail: %v", f)
	}
	if !strings.Contains(f[0], "aaaa111") {
		t.Errorf("failure should name the best entry: %v", f[0])
	}

	// Matching the best point passes.
	if f, _ := runGate([]CellResult{cell4("beff_t3e_16", 1.02, 5)}, hist); len(f) != 0 {
		t.Errorf("2%% over best should pass: %v", f)
	}

	// Allocs at the latest entry's level are over the best point.
	f, _ = runGate([]CellResult{cell4("beff_t3e_16", 1.0, 5.5)}, hist)
	if len(f) != 1 || !strings.Contains(f[0], "allocs/op") || !strings.Contains(f[0], "aaaa111") {
		t.Errorf("allocs decay past the best point should fail naming it: %v", f)
	}
}

// TestGateCatchesBytesGrowth: allocated bytes per op are gated at +5%
// against the latest entry that has the cell, even when allocs/op and
// wall hold — a buffer that grows without allocating more often shows
// only here.
func TestGateCatchesBytesGrowth(t *testing.T) {
	hist := []Report{
		mkReport("aaaa111", withBytes(cell4("beffio_t3e_8", 1.0, 5), 500)),
		mkReport("bbbb222", withBytes(cell4("beffio_t3e_8", 1.0, 5), 1000)),
		mkReport("cccc333", cell4("beff_t3e_16", 1.0, 5)), // does not have the cell
	}
	at := func(b float64) []CellResult { return []CellResult{withBytes(cell4("beffio_t3e_8", 1.0, 5), b)} }

	if f, s := runGate(at(1049), hist); len(f) != 0 || len(s) != 0 {
		t.Errorf("4.9%% bytes growth over the latest should pass: %v", f)
	}
	f, s := runGate(at(1060), hist)
	if len(f) != 1 || !strings.Contains(f[0], "B/op") || !strings.Contains(f[0], "bbbb222") || len(s) != 0 {
		t.Errorf("6%% bytes growth should fail naming the latest entry, without a wall suspect: %v / %v", f, s)
	}
	if f, _ := runGate(at(73), hist); len(f) != 0 {
		t.Errorf("fewer bytes should pass: %v", f)
	}

	// A latest entry without bytes/op is not compared.
	old := []Report{mkReport("aaaa111", cell4("beffio_t3e_8", 1.0, 5))}
	if f, _ := runGate(at(1060), old); len(f) != 0 {
		t.Errorf("zero recorded bytes/op should not be compared: %v", f)
	}
}

// TestGateCatchesHeadlineDrift: a change that alters a cell's benchmark
// value fails the gate even when wall and allocs/op are unchanged. It
// is compared against both the latest entry and the best-wall entry.
func TestGateCatchesHeadlineDrift(t *testing.T) {
	const mb = 1212.168050094987
	base := withHeadline(cell4("beff_t3e_16", 1.0, 5), mb)
	hist := []Report{mkReport("aaaa111", base)}

	if f, _ := runGate([]CellResult{base}, hist); len(f) != 0 {
		t.Errorf("unchanged headline should pass: %v", f)
	}
	f, s := runGate([]CellResult{withHeadline(base, 1212.17)}, hist)
	if len(f) != 1 || !strings.Contains(f[0], "headline") || len(s) != 0 {
		t.Errorf("headline drift should fail once without a wall suspect: %v / %v", f, s)
	}

	// The best-wall entry and the latest entry disagree: matching
	// either one alone fails against the other.
	split := []Report{
		mkReport("aaaa111", base),
		mkReport("bbbb222", withHeadline(cell4("beff_t3e_16", 1.05, 5), 1212.17)),
	}
	f, _ = runGate([]CellResult{base}, split)
	if len(f) != 1 || !strings.Contains(f[0], "latest") || !strings.Contains(f[0], "bbbb222") {
		t.Errorf("drift against the latest entry should fail naming it: %v", f)
	}
	f, _ = runGate([]CellResult{withHeadline(base, 1212.17)}, split)
	if len(f) != 1 || !strings.Contains(f[0], "best-wall") || !strings.Contains(f[0], "aaaa111") {
		t.Errorf("drift against the best-wall entry should fail naming it: %v", f)
	}

	// A recorded headline of zero predates the field: not compared.
	old := []Report{mkReport("aaaa111", cell4("beff_t3e_16", 1.0, 5))}
	if f, _ := runGate([]CellResult{withHeadline(base, 1212.17)}, old); len(f) != 0 {
		t.Errorf("zero recorded headline should not be compared: %v", f)
	}
}

// TestGateOnlyWallIsSuspect: with every kind of failure at once, only
// the wall failure names a suspect for re-measurement; allocation
// counts, bytes and headlines are deterministic.
func TestGateOnlyWallIsSuspect(t *testing.T) {
	hist := []Report{mkReport("aaaa111", withHeadline(withBytes(cell4("beff_t3e_16", 1.0, 5), 1000), 100))}
	cur := withHeadline(withBytes(cell4("beff_t3e_16", 2.0, 6), 2000), 101)
	f, s := runGate([]CellResult{cur}, hist)
	if len(f) != 4 {
		t.Errorf("want wall, allocs/op, B/op and headline failures, got %v", f)
	}
	if len(s) != 1 || s[0] != "beff_t3e_16" {
		t.Errorf("suspects = %v, want the one wall failure", s)
	}
}

func TestLoadHistoryBothFormats(t *testing.T) {
	dir := t.TempDir()
	rep := mkReport("aaaa111", cell4("beff_t3e_16", 1.0, 5))
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	entries, err := loadHistory(write("history.json", History{Entries: []Report{rep, rep}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Cells[0].Name != "beff_t3e_16" {
		t.Errorf("history should load both entries: %+v", entries)
	}

	// A bare single report is the retired BENCH_core.json layout.
	single := write("single.json", rep)
	if _, err := loadHistory(single); err == nil || !strings.Contains(err.Error(), single) {
		t.Errorf("a bare report should be rejected with an error naming the file, got %v", err)
	}

	for name, content := range map[string]string{
		"garbage.json": "{not json",
		"empty.json":   "{}",
	} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadHistory(p); err == nil {
			t.Errorf("%s should fail to load", name)
		}
	}
}

// TestAppendRoundTrip: -append creates the history, folds later runs
// in after it, and what it writes loads and gates.
func TestAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	cells := []CellResult{withHeadline(withBytes(cell4("beff_t3e_16", 1.0, 5), 1000), 1212.168050094987)}
	for i, sha := range []string{"aaaa111", "bbbb222"} {
		n, err := appendHistory(path, mkReport(sha, cells...))
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Errorf("append %d reported %d entries", i+1, n)
		}
	}
	hist, err := loadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 || hist[0].GitSHA != "aaaa111" || hist[1].GitSHA != "bbbb222" {
		t.Fatalf("entries = %+v, want aaaa111 then bbbb222", hist)
	}
	if f, s := runGate(cells, hist); len(f) != 0 || len(s) != 0 {
		t.Errorf("the appended run should pass its own gate: %v", f)
	}
}

func withDispatches(c CellResult, d int64) CellResult {
	c.Dispatches = d
	return c
}

// TestGateCatchesScheduleChange: dispatches are gated exactly against
// the latest entry that records them. An engine that pushes or pops one
// process more (or less) fails; an entry without the field is skipped.
func TestGateCatchesScheduleChange(t *testing.T) {
	hist := []Report{
		mkReport("aaaa111", withDispatches(cell4("beff_t3e_16", 1.0, 5), 900)),
		mkReport("bbbb222", withDispatches(cell4("beff_t3e_16", 1.0, 5), 1000)),
		mkReport("cccc333", cell4("beff_t3e_16", 1.0, 5)), // predates the field
	}
	at := func(d int64) []CellResult { return []CellResult{withDispatches(cell4("beff_t3e_16", 1.0, 5), d)} }

	if f, s := runGate(at(1000), hist); len(f) != 0 || len(s) != 0 {
		t.Errorf("the recorded dispatch count should pass: %v", f)
	}
	for _, d := range []int64{999, 1001, 900} {
		f, s := runGate(at(d), hist)
		if len(f) != 1 || !strings.Contains(f[0], "dispatches") || !strings.Contains(f[0], "bbbb222") || len(s) != 0 {
			t.Errorf("%d dispatches against a recorded 1000 should fail naming bbbb222, without a wall suspect: %v / %v", d, f, s)
		}
	}
	old := []Report{mkReport("aaaa111", cell4("beff_t3e_16", 1.0, 5))}
	if f, _ := runGate(at(1234), old); len(f) != 0 {
		t.Errorf("a history without dispatches should not be compared: %v", f)
	}
}
