package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/store"
)

// seedStore puts n entries into a store at dir, alternating the runner
// cache's two layouts (legacy first), and returns their hex keys.
func seedStore(t *testing.T, dir string, n int) []string {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
		doc := fmt.Sprintf(`{
 "key": "cell-%d",
 "fingerprint": {"i": %d},
 "value": {"n": %d}
}`, i, i, i*10)
		if i%2 == 1 {
			doc = fmt.Sprintf(runner.ServedLayout+`"key":"cell-%d","fingerprint":{"i":%d}}`+"\n{\n  \"n\": %d\n}\n", i, i, i*10)
		}
		if err := st.Put(keys[i], []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// beffstore invokes run() and returns (exit code, stdout, stderr).
func beffstore(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestGetLsVerifyRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	keys := seedStore(t, dir, 5)

	// get returns each entry with its cell key: the whole document,
	// or the header line of the served layout.
	for i, key := range keys {
		code, out, errb := beffstore("-cache", dir, "get", key)
		if code != 0 {
			t.Fatalf("get %s: exit %d\n%s", key, code, errb)
		}
		if strings.HasPrefix(out, runner.ServedLayout) {
			out, _, _ = strings.Cut(out, "\n")
		}
		var e entryDoc
		if err := json.Unmarshal([]byte(out), &e); err != nil {
			t.Fatalf("get %s: bad JSON: %v\n%s", key, err, out)
		}
		if e.Key != fmt.Sprintf("cell-%d", i) {
			t.Fatalf("get %s: key %q", key, e.Key)
		}
	}

	// ls lists them, ls -v with their cell keys; verify finds no damage.
	code, out, _ := beffstore("-cache", dir, "ls")
	if code != 0 || len(strings.Fields(out)) != 5 {
		t.Fatalf("ls: exit %d, out %q", code, out)
	}
	code, out, _ = beffstore("-cache", dir, "ls", "-v")
	for i := range keys {
		if code != 0 || !strings.Contains(out, fmt.Sprintf("  cell-%d\n", i)) {
			t.Fatalf("ls -v: exit %d, no cell-%d in %q", code, i, out)
		}
	}
	code, out, errb := beffstore("-cache", dir, "verify")
	if code != 0 || !strings.Contains(out, "verified 5 entries, ") || !strings.Contains(out, " 0 damaged") {
		t.Fatalf("verify: exit %d, out %q, err %q", code, out, errb)
	}
}

func TestVerifyNamesDamagedEntry(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	seedStore(t, dir, 2)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A torn legacy document, and served-layout entries whose header
	// does not decode or whose body is missing, empty, null or not JSON.
	head := runner.ServedLayout + `"key":"cell-x","fingerprint":{}}`
	damaged := []string{
		"{torn",
		runner.ServedLayout + `"key":}` + "\n1\n",
		head,
		head + "\n",
		head + "\nnull\n",
		head + "\n{\"n\":\n",
	}
	for i, doc := range damaged {
		if err := st.Put(fmt.Sprintf("%064x", 0xf0+i), []byte(doc)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	code, out, errb := beffstore("-cache", dir, "verify")
	if code != 1 || !strings.Contains(out, "verified 8 entries, ") || !strings.Contains(out, " 6 damaged") {
		t.Fatalf("verify: exit %d, out %q", code, out)
	}
	for i := range damaged {
		if bad := fmt.Sprintf("%064x", 0xf0+i); !strings.Contains(errb, bad) {
			t.Fatalf("verify stderr does not name %s: %q", bad, errb)
		}
	}
}

func TestMissingCacheDirFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nodir")
	for _, cmd := range []string{"stats", "compact"} {
		code, _, errb := beffstore("-cache", dir, cmd)
		if code != 1 || !strings.Contains(errb, dir) {
			t.Fatalf("%s on a missing dir: exit %d, stderr %q", cmd, code, errb)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s created %s: %v", cmd, dir, err)
		}
	}
}

func TestStatsAndCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	st, err := store.Open(dir, store.Options{TargetSegmentSize: 1 << 10, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		for k := 0; k < 4; k++ {
			key := fmt.Sprintf("%064x", k+1)
			doc := fmt.Sprintf(`{"key":"cell-%d","fingerprint":{},"value":{"round":%d}}`, k, round)
			if err := st.Put(key, []byte(doc)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	code, out, errb := beffstore("-cache", dir, "stats")
	if code != 0 {
		t.Fatalf("stats: exit %d\n%s", code, errb)
	}
	var stats struct {
		Stats    store.Stats         `json:"stats"`
		Segments []store.SegmentStat `json:"segments"`
	}
	if err := json.Unmarshal([]byte(out), &stats); err != nil {
		t.Fatalf("stats output not JSON: %v\n%s", err, out)
	}
	if stats.Stats.LiveEntries != 4 || stats.Stats.DeadBytes == 0 || len(stats.Segments) < 2 {
		t.Fatalf("stats: %+v", stats)
	}

	code, out, errb = beffstore("-cache", dir, "compact")
	if code != 0 {
		t.Fatalf("compact: exit %d\n%s", code, errb)
	}
	if !strings.Contains(out, "reclaimed") || !strings.Contains(out, "4 live entries") {
		t.Fatalf("compact output: %s", out)
	}

	code, out, _ = beffstore("-cache", dir, "verify")
	if code != 0 || !strings.Contains(out, "verified 4 entries") {
		t.Fatalf("verify after compact: exit %d, %s", code, out)
	}
}

func TestReadCommandsWorkWhileLocked(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	seedStore(t, dir, 1)
	holder, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()

	if code, _, errb := beffstore("-cache", dir, "stats"); code != 0 {
		t.Fatalf("stats under lock: %s", errb)
	}
	if code, _, errb := beffstore("-cache", dir, "ls"); code != 0 {
		t.Fatalf("ls under lock: %s", errb)
	}
	// Maintenance needs the lock and must say who probably holds it.
	code, _, errb := beffstore("-cache", dir, "compact")
	if code != 1 || !strings.Contains(errb, "beffd or a sweep") {
		t.Fatalf("compact under lock: exit %d, %s", code, errb)
	}
}

func TestGetMissingAndUsageErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	seedStore(t, dir, 0)
	if code, _, _ := beffstore("-cache", dir, "get", strings.Repeat("a", 64)); code != 1 {
		t.Fatalf("get missing: exit %d", code)
	}
	if code, _, _ := beffstore("-cache", dir, "get"); code != 2 {
		t.Fatalf("get without key: exit %d", code)
	}
	if code, _, _ := beffstore("-cache", dir, "frobnicate"); code != 2 {
		t.Fatalf("unknown command: exit %d", code)
	}
	if code, _, _ := beffstore(); code != 2 {
		t.Fatalf("no command: exit %d", code)
	}
	for _, flag := range []string{"-entries", "-lookups", "-scans"} {
		if code, _, _ := beffstore("bench", flag, "0"); code != 2 {
			t.Fatalf("bench %s 0: exit %d", flag, code)
		}
	}
}

func TestBenchSmoke(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "bench.json")
	code, out, errb := beffstore("bench", "-entries", "64", "-value-bytes", "128", "-lookups", "200", "-scans", "2", "-out", outPath)
	if code != 0 {
		t.Fatalf("bench: exit %d\n%s", code, errb)
	}
	var rep benchReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("bench output not JSON: %v\n%s", err, out)
	}
	if len(rep.Backends) != 1 || rep.Backends[0].Backend != "store" || rep.Entries != 64 {
		t.Fatalf("bench report: %+v", rep)
	}
	b := rep.Backends[0]
	if b.PointLookup.AvgNs <= 0 || b.FullScan.MedianNs <= 0 || b.Reopen.MedianNs <= 0 {
		t.Fatalf("store has empty latencies: %+v", b)
	}
	// The store packs all 64 entries into a handful of segment files.
	if b.Files == 0 || b.Files > 4 {
		t.Fatalf("store files = %d for 64 entries", b.Files)
	}
	if data, err := os.ReadFile(outPath); err != nil || !json.Valid(data) {
		t.Fatalf("-out file: %v", err)
	}
}
