package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

type fp struct {
	Machine string
	Procs   int
}

// countingCell returns a cacheable cell that bumps runs each time its
// body actually executes.
func countingCell(runs *atomic.Int32, fingerprint any, value int) Cell[int] {
	return Cell[int]{
		Key:         fmt.Sprintf("cell-%v", fingerprint),
		Fingerprint: fingerprint,
		Run: func() (int, error) {
			runs.Add(1)
			return value, nil
		},
	}
}

func openTestCache(t *testing.T) *Cache {
	t.Helper()
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReadOnly(); err != nil {
		t.Fatalf("fresh cache opened read-only: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCacheHitMissInvalidation(t *testing.T) {
	cache := openTestCache(t)
	var runs atomic.Int32
	base := fp{Machine: "cluster", Procs: 4}

	// Cold: computes and stores.
	res := Sweep([]Cell[int]{countingCell(&runs, base, 42)}, Options{Cache: cache})
	if runs.Load() != 1 || res[0].Cached || res[0].Value != 42 {
		t.Fatalf("cold run wrong: runs=%d cached=%v value=%d", runs.Load(), res[0].Cached, res[0].Value)
	}

	// Warm: identical fingerprint is a hit, body not invoked.
	res = Sweep([]Cell[int]{countingCell(&runs, base, 42)}, Options{Cache: cache})
	if runs.Load() != 1 || !res[0].Cached || res[0].Value != 42 {
		t.Fatalf("warm run wrong: runs=%d cached=%v value=%d", runs.Load(), res[0].Cached, res[0].Value)
	}

	// Any config change invalidates: different fingerprint, fresh compute.
	changed := fp{Machine: "cluster", Procs: 8}
	res = Sweep([]Cell[int]{countingCell(&runs, changed, 43)}, Options{Cache: cache})
	if runs.Load() != 2 || res[0].Cached || res[0].Value != 43 {
		t.Fatalf("changed-config run wrong: runs=%d cached=%v value=%d", runs.Load(), res[0].Cached, res[0].Value)
	}

	// The original entry still hits.
	res = Sweep([]Cell[int]{countingCell(&runs, base, 42)}, Options{Cache: cache})
	if runs.Load() != 2 || !res[0].Cached {
		t.Fatalf("original entry lost: runs=%d cached=%v", runs.Load(), res[0].Cached)
	}
}

func TestCorruptedEntryFallsBackToRecompute(t *testing.T) {
	// A crash mid-append leaves a torn record at the segment's tail. The
	// next open drops it, so the entry misses, is recomputed and is
	// written back whole.
	dir := filepath.Join(t.TempDir(), "cache")
	var runs atomic.Int32
	cell := countingCell(&runs, fp{Machine: "t3e", Procs: 2}, 7)
	for cut := int64(1); cut <= 64; cut *= 8 {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		Sweep([]Cell[int]{cell}, Options{Cache: c})
		c.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
		if len(segs) != 1 {
			t.Fatalf("segments = %v", segs)
		}
		info, err := os.Stat(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segs[0], info.Size()-cut); err != nil {
			t.Fatal(err)
		}

		c, err = OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		before := runs.Load()
		res := Sweep([]Cell[int]{cell}, Options{Cache: c})
		if res[0].Cached || res[0].Err != nil || res[0].Value != 7 || runs.Load() != before+1 {
			t.Fatalf("torn entry (-%d bytes) not recomputed: %+v", cut, res[0])
		}
		res = Sweep([]Cell[int]{cell}, Options{Cache: c})
		if !res[0].Cached || res[0].Value != 7 {
			t.Fatalf("entry not repaired after tearing %d bytes: %+v", cut, res[0])
		}
		c.Close()
	}
}

func TestNullValueEntryFallsBackToRecompute(t *testing.T) {
	// A stored `"value": null` would unmarshal "successfully" into a
	// pointer-typed result by setting it to nil — a poisoned hit that
	// downstream code dereferences. It must be treated as corruption:
	// miss, recompute, repair.
	cache := openTestCache(t)
	var runs atomic.Int32
	type payload struct{ N int }
	cell := Cell[*payload]{
		Key:         "ptr-cell",
		Fingerprint: fp{Machine: "t3e", Procs: 8},
		Run:         func() (*payload, error) { runs.Add(1); return &payload{N: 11}, nil },
	}
	Sweep([]Cell[*payload]{cell}, Options{Cache: cache})
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for _, corruption := range []string{
		`{"key":"ptr-cell","fingerprint":{},"value":null}`,
		"\x00\x01binary garbage\xff",
	} {
		if err := cache.st.Put(key, []byte(corruption)); err != nil {
			t.Fatal(err)
		}
		before := runs.Load()
		res := Sweep([]Cell[*payload]{cell}, Options{Cache: cache})
		if res[0].Cached || res[0].Err != nil {
			t.Fatalf("corrupted entry %q served as a hit: %+v", corruption, res[0])
		}
		if res[0].Value == nil || res[0].Value.N != 11 {
			t.Fatalf("corrupted entry %q poisoned the result: %+v", corruption, res[0].Value)
		}
		if runs.Load() != before+1 {
			t.Fatalf("corrupted entry %q: body not re-invoked", corruption)
		}
		// The recompute must repair the entry.
		res = Sweep([]Cell[*payload]{cell}, Options{Cache: cache})
		if !res[0].Cached || res[0].Value == nil || res[0].Value.N != 11 {
			t.Fatalf("entry not repaired after corruption %q: %+v", corruption, res[0])
		}
	}
}

func TestCodeVersionSaltInvalidates(t *testing.T) {
	cache := openTestCache(t)
	var runs atomic.Int32
	cell := countingCell(&runs, fp{Machine: "sp", Procs: 4}, 9)
	Sweep([]Cell[int]{cell}, Options{Cache: cache})

	stale := cache.withSalt("older-sim-version")
	res := Sweep([]Cell[int]{cell}, Options{Cache: stale})
	if res[0].Cached || runs.Load() != 2 {
		t.Fatalf("entry from a different code version served: %+v", res[0])
	}
}

func TestNilFingerprintNeverCached(t *testing.T) {
	cache := openTestCache(t)
	var runs atomic.Int32
	cell := Cell[int]{Key: "uncacheable", Run: func() (int, error) { runs.Add(1); return 1, nil }}
	Sweep([]Cell[int]{cell}, Options{Cache: cache})
	res := Sweep([]Cell[int]{cell}, Options{Cache: cache})
	if runs.Load() != 2 || res[0].Cached {
		t.Fatalf("nil fingerprint was cached: runs=%d %+v", runs.Load(), res[0])
	}
}

func TestFailedCellNotStored(t *testing.T) {
	cache := openTestCache(t)
	var runs atomic.Int32
	cell := Cell[int]{
		Key:         "failing",
		Fingerprint: fp{Machine: "bad"},
		Run:         func() (int, error) { runs.Add(1); return 0, fmt.Errorf("no such machine") },
	}
	Sweep([]Cell[int]{cell}, Options{Cache: cache})
	res := Sweep([]Cell[int]{cell}, Options{Cache: cache})
	if runs.Load() != 2 || res[0].Cached || res[0].Err == nil {
		t.Fatalf("failure was cached: runs=%d %+v", runs.Load(), res[0])
	}
}

func TestCacheEntryIsInspectable(t *testing.T) {
	cache := openTestCache(t)
	cell := countingCell(new(atomic.Int32), fp{Machine: "sx5", Procs: 4}, 5)
	Sweep([]Cell[int]{cell}, Options{Cache: cache})
	key, _ := cache.keyFor(cell.Fingerprint)
	data, ok, err := cache.st.Get(key)
	if err != nil || !ok {
		t.Fatalf("entry missing: %v", err)
	}
	for _, want := range []string{`"key"`, `"fingerprint"`, `"value"`, "sx5"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("entry missing %s:\n%s", want, data)
		}
	}
}
