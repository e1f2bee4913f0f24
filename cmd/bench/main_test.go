package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkReport(numCPU int, cells ...CellResult) Report {
	return Report{GoVersion: "go-test", NumCPU: numCPU, Cells: cells}
}

func cell4(name string, wall, allocs float64) CellResult {
	return CellResult{Name: name, Ops: 1000, WallSec: wall, NsPerOp: wall * 1e9 / 1000, AllocsPerA: allocs}
}

func TestGateWallAndAllocs(t *testing.T) {
	base := []CellResult{cell4("beff_t3e_16", 1.0, 5)}
	// Within tolerance: pass.
	rep := mkReport(4, cell4("beff_t3e_16", 1.05, 5))
	if f, s := runGate(&rep, base); len(f) != 0 || len(s) != 0 {
		t.Errorf("5%% drift should pass: %v", f)
	}
	// Beyond tolerance: fail and suspect.
	rep = mkReport(4, cell4("beff_t3e_16", 1.2, 5))
	f, s := runGate(&rep, base)
	if len(f) != 1 || len(s) != 1 {
		t.Errorf("20%% drift should fail with a wall suspect: %v / %v", f, s)
	}
	// A speedup populates the Speedups table.
	rep = mkReport(4, cell4("beff_t3e_16", 0.5, 5))
	runGate(&rep, base)
	if row, ok := rep.Speedups["beff_t3e_16"]; !ok || row.Wall < 1.9 || row.Wall > 2.1 {
		t.Errorf("speedup row = %+v", rep.Speedups)
	}
}

// TestTrendGateUsesBestHistoricalPoint: the trend gate compares each
// cell against the best value anywhere in the history, so a slow
// decay that stays within tolerance of the latest entry still fails
// against an older, better one.
func TestTrendGateUsesBestHistoricalPoint(t *testing.T) {
	hist := []Report{
		func() Report {
			r := mkReport(4, cell4("beff_t3e_16", 1.0, 5))
			r.GitSHA = "aaaa111"
			return r
		}(),
		mkReport(4, cell4("beff_t3e_16", 1.08, 5)), // 8% slower, tolerated vs previous
	}
	// 8% over the latest entry but 17% over the best point: must fail,
	// and the message must name the best entry's commit.
	rep := mkReport(4, cell4("beff_t3e_16", 1.17, 5))
	failures, suspects := runTrend(&rep, hist)
	if len(failures) != 1 || len(suspects) != 1 {
		t.Fatalf("decay past the best point should fail: %v", failures)
	}
	if !strings.Contains(failures[0], "aaaa111") {
		t.Errorf("failure should name the best entry: %v", failures[0])
	}

	// Matching the best point passes.
	rep = mkReport(4, cell4("beff_t3e_16", 1.02, 5))
	if f, _ := runTrend(&rep, hist); len(f) != 0 {
		t.Errorf("2%% over best should pass: %v", f)
	}

	// Allocs are gated against the historical best too.
	rep = mkReport(4, cell4("beff_t3e_16", 1.0, 6))
	if f, _ := runTrend(&rep, hist); len(f) != 1 || !strings.Contains(f[0], "allocs/op") {
		t.Errorf("allocs decay should fail: %v", f)
	}
}

func TestLoadHistoryBothFormats(t *testing.T) {
	dir := t.TempDir()

	single := filepath.Join(dir, "single.json")
	rep := mkReport(4, cell4("beff_t3e_16", 1.0, 5))
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(single, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := loadHistory(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Cells[0].Name != "beff_t3e_16" {
		t.Errorf("single report should load as a one-entry history: %+v", entries)
	}

	multi := filepath.Join(dir, "history.json")
	data, err = json.Marshal(History{Entries: []Report{rep, rep}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(multi, data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err = loadHistory(multi)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("history should load both entries, got %d", len(entries))
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

// TestGateAndTrendCatchHeadlineDrift: a change that alters a cell's
// benchmark value fails both gates even when wall and allocs/op are
// unchanged, and is not a wall suspect (re-measuring cannot fix it).
func TestGateAndTrendCatchHeadlineDrift(t *testing.T) {
	withHeadline := func(c CellResult, mb float64) CellResult {
		c.HeadlineMB = mb
		return c
	}
	base := withHeadline(cell4("beff_t3e_16", 1.0, 5), 1212.168050094987)
	hist := []Report{mkReport(4, base)}

	same := mkReport(4, base)
	if f, _ := runGate(&same, hist[0].Cells); len(f) != 0 {
		t.Errorf("unchanged headline should pass the gate: %v", f)
	}
	if f, _ := runTrend(&same, hist); len(f) != 0 {
		t.Errorf("unchanged headline should pass the trend: %v", f)
	}

	moved := mkReport(4, withHeadline(base, 1212.17))
	f, s := runGate(&moved, hist[0].Cells)
	if len(f) != 1 || !strings.Contains(f[0], "headline") || len(s) != 0 {
		t.Errorf("headline drift should fail the gate without a wall suspect: %v / %v", f, s)
	}
	f, s = runTrend(&moved, hist)
	if len(f) != 1 || !strings.Contains(f[0], "headline") || len(s) != 0 {
		t.Errorf("headline drift should fail the trend without a wall suspect: %v / %v", f, s)
	}

	// A recorded headline of zero predates the field: not compared.
	old := []CellResult{cell4("beff_t3e_16", 1.0, 5)}
	if f, _ := runGate(&moved, old); len(f) != 0 {
		t.Errorf("zero recorded headline should not be compared: %v", f)
	}
}

// TestBaselineReadsHistory: -baseline accepts a history document and
// compares against its latest entry, like -gate does.
func TestBaselineReadsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	data, err := json.Marshal(History{Entries: []Report{
		mkReport(1, cell4("beff_t3e_16", 4.0, 5)),
		mkReport(1, cell4("beff_t3e_16", 2.0, 5)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := mkReport(1, cell4("beff_t3e_16", 1.0, 5))
	if err := applyBaseline(&rep, path); err != nil {
		t.Fatal(err)
	}
	if len(rep.Baseline) != 1 {
		t.Fatalf("baseline cells = %+v, want the latest entry's one cell", rep.Baseline)
	}
	if row, ok := rep.Speedups["beff_t3e_16"]; !ok || row.Wall != 2 {
		t.Errorf("speedup against the latest entry = %+v, want 2x wall", rep.Speedups)
	}
}
