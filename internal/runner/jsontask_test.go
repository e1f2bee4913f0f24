package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/obs"
)

// Tests for JSONTask's two hit paths: the body of an entry in the
// served layout, as stored, and the typed decode of a legacy entry,
// whose hit rewrites it in the served layout.

// counted is a cell value that counts its typed decodes, so a test can
// tell a hit served through T from one served from the stored bytes.
type counted struct {
	N int
	F float64
}

var typedDecodes atomic.Int32

func (v *counted) UnmarshalJSON(b []byte) error {
	typedDecodes.Add(1)
	type plain counted
	return json.Unmarshal(b, (*plain)(v))
}

func countedCell(runs *atomic.Int32) Cell[counted] {
	return Cell[counted]{
		Key:         "counted-cell",
		Fingerprint: fp{Machine: "counted", Procs: 2},
		Run: func() (counted, error) {
			runs.Add(1)
			return counted{N: 11, F: 2.5}, nil
		},
	}
}

// rendered is today's bytes for v: json.MarshalIndent plus a newline.
func rendered(t *testing.T, v counted) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data) + "\n"
}

// runJSON runs the cell's JSONTask body once and checks that the value
// it returns has no spare capacity.
func runJSON(t *testing.T, path string, c Cell[counted], cache *Cache) (string, bool) {
	t.Helper()
	data, cached, err := JSONTask(c, cache).Run()
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if cap(data) != len(data) {
		t.Fatalf("%s: value has cap %d, len %d", path, cap(data), len(data))
	}
	return string(data), cached
}

// reopen closes c and opens a fresh Cache on the same directory: a new
// process's view.
func reopen(t *testing.T, c *Cache) *Cache {
	t.Helper()
	dir := c.Dir()
	c.Close()
	fresh, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	return fresh
}

// hit runs one JSONTask hit and reports whether it went through the
// typed decode.
func hit(t *testing.T, path string, c Cell[counted], cache *Cache, want string) (typed bool) {
	t.Helper()
	before := typedDecodes.Load()
	got, cached := runJSON(t, path, c, cache)
	if !cached {
		t.Fatalf("%s: not served from the cache", path)
	}
	if got != want {
		t.Fatalf("%s: served\n%s\nwant\n%s", path, got, want)
	}
	return typedDecodes.Load() != before
}

// servedEntry reports whether the entry under key is in the served
// layout, with body as its body.
func servedEntry(t *testing.T, cache *Cache, key, body string) bool {
	t.Helper()
	data, ok, err := cache.st.Get(key)
	if err != nil || !ok {
		t.Fatalf("entry %s missing: %v", key, err)
	}
	head, got, _ := strings.Cut(string(data), "\n")
	return strings.HasPrefix(head, ServedLayout) && got == body
}

func TestJSONTaskHitPaths(t *testing.T) {
	var runs atomic.Int32
	cell := countedCell(&runs)
	want := rendered(t, counted{N: 11, F: 2.5})

	if got, cached := runJSON(t, "uncached", cell, nil); cached || got != want {
		t.Fatalf("uncached: cached=%v\n%s", cached, got)
	}
	cache := openTestCache(t)
	if got, cached := runJSON(t, "cold", cell, cache); cached || got != want {
		t.Fatalf("cold: cached=%v\n%s", cached, got)
	}
	if hit(t, "hit on a key this cache stored", cell, cache, want) {
		t.Fatal("a key this cache stored was decoded into T")
	}
	cache = reopen(t, cache)
	if hit(t, "hit in a new process", cell, cache, want) {
		t.Fatal("an entry in the served layout was decoded into T")
	}

	// Legacy entries, whatever their layout, decode into T on their
	// first hit, which rewrites them; later hits serve the body.
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	legacy := struct {
		Key         string          `json:"key"`
		Fingerprint json.RawMessage `json:"fingerprint"`
		Value       json.RawMessage `json:"value"`
	}{cell.Key, json.RawMessage(`{"Machine":"counted","Procs":2}`), json.RawMessage(`{"N":11,"F":2.5}`)}
	for _, indent := range []string{"", " ", "  "} {
		data, err := json.MarshalIndent(legacy, "", indent)
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.st.Put(key, data); err != nil {
			t.Fatal(err)
		}
		cache = reopen(t, cache)
		if !hit(t, "legacy entry", cell, cache, want) {
			t.Fatalf("indent %q: a legacy entry was served without the typed decode", indent)
		}
		if !servedEntry(t, cache, key, want) {
			t.Fatalf("indent %q: the hit did not rewrite the legacy entry", indent)
		}
		if hit(t, "rewritten entry", cell, cache, want) {
			t.Fatalf("indent %q: the rewritten entry was decoded into T", indent)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("cell body ran %d times, want 2 (uncached, cold)", runs.Load())
	}
}

// TestLegacyEntryMigrated serves an entry that the cache wrote in its
// legacy layout, committed as testdata, for the corpus's t3e b_eff
// cell: byte-identical to the golden entry, through the typed path,
// rewritten in the served layout by the first hit on a writable cache
// and never by a read-only one.
func TestLegacyEntryMigrated(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy_beff_t3e.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", "beff_t3e.json"))
	if err != nil {
		t.Fatal(err)
	}
	beff := BeffCell("t3e", 8, core.Options{LmaxOverride: 1 << 16, MaxLooplength: 2, Reps: 1, Seed: 1})
	cell := Cell[*decodedResult]{Key: beff.Key, Fingerprint: beff.Fingerprint, Run: func() (*decodedResult, error) {
		return nil, errors.New("a cached cell was computed")
	}}
	hitGolden := func(cache *Cache) (typed bool) {
		t.Helper()
		before := typedDecodes.Load()
		got, cached, err := JSONTask(cell, cache).Run()
		if err != nil || !cached || !bytes.Equal(got, want) || cap(got) != len(got) {
			t.Fatalf("hit: cached=%v err=%v, %d bytes against the golden %d", cached, err, len(got), len(want))
		}
		return typedDecodes.Load() != before
	}

	dir := filepath.Join(t.TempDir(), "cache")
	holder, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { holder.Close() })
	key, err := holder.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.st.Put(key, fixture); err != nil {
		t.Fatal(err)
	}

	second, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if second.ReadOnly() == nil {
		t.Fatal("second opener is writable")
	}
	reg := obs.New()
	second.Instrument(reg)
	for i := 0; i < 3; i++ {
		if !hitGolden(second) {
			t.Fatalf("read-only hit %d skipped the typed decode", i+1)
		}
	}
	if n := reg.Counter("runner_cache_store_errors_total").Value(); n != 0 {
		t.Fatalf("a read-only cache tried %d rewrites", n)
	}
	second.Close()
	if stored, _, err := holder.st.Get(key); err != nil || !bytes.Equal(stored, fixture) {
		t.Fatalf("a read-only cache rewrote the entry (err %v)", err)
	}

	if !hitGolden(holder) {
		t.Fatal("the first hit on the legacy entry skipped the typed decode")
	}
	if !servedEntry(t, holder, key, string(want)) {
		t.Fatal("the first hit did not rewrite the legacy entry in the served layout")
	}
	if hitGolden(holder) {
		t.Fatal("the rewritten entry was decoded into T")
	}
}

// decodedResult is a b_eff result that counts its typed decodes; it
// encodes as core.Result does.
type decodedResult struct{ core.Result }

func (v *decodedResult) UnmarshalJSON(b []byte) error {
	typedDecodes.Add(1)
	return json.Unmarshal(b, &v.Result)
}

func TestJSONTaskCorruptEntriesRecomputed(t *testing.T) {
	var runs atomic.Int32
	cell := countedCell(&runs)
	want := rendered(t, counted{N: 11, F: 2.5})
	cache := openTestCache(t)
	runJSON(t, "cold", cell, cache)
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for _, poison := range []string{
		"{truncated",
		`{"key":"x","fingerprint":{},"value":null}`,
		"{\n \"key\": \"x\",\n \"fingerprint\": {},\n \"value\": null\n}",
		"{\n \"key\": \"x\",\n \"fingerprint\": {},\n \"value\": {\n  \"N\": 11,\n  \"F\": 2.5",
		`{"key":"x","value":"not a struct"}`,
		"",
		"\x00\x01binary garbage\xff",
		// The served layout torn or emptied: no newline after the
		// header, an empty body, a null body.
		ServedLayout + `"key":"x","fingerprint":{}}`,
		ServedLayout + `"key":"x","fingerprint":{}}` + "\n",
		ServedLayout + `"key":"x","fingerprint":{}}` + "\nnull\n",
		// A legacy compact entry whose first line mimics a header.
		ServedLayout + `"key":"x","fingerprint":{},"value":{"N":11,"F":2.5}}`,
	} {
		if err := cache.st.Put(key, []byte(poison)); err != nil {
			t.Fatal(err)
		}
		cache = reopen(t, cache)
		before := runs.Load()
		got, cached := runJSON(t, "poisoned", cell, cache)
		if cached || got != want {
			t.Fatalf("poisoned entry %q served: cached=%v\n%s", poison, cached, got)
		}
		if runs.Load() != before+1 {
			t.Fatalf("poisoned entry %q: body not re-invoked", poison)
		}
		if !servedEntry(t, cache, key, want) {
			t.Fatalf("poison %q: the recompute did not repair the entry", poison)
		}
		if hit(t, "hit after the repair", cell, cache, want) {
			t.Fatalf("poison %q: the repaired entry was decoded into T", poison)
		}
	}
}

// TestJSONTaskNonRoundTripServedThroughT: a legacy entry that decodes
// into T but does not re-encode to its own bytes is served through T,
// with today's bytes, and its first hit rewrites it, so every hit
// serves today's bytes.
func TestJSONTaskNonRoundTripServedThroughT(t *testing.T) {
	var runs atomic.Int32
	cell := countedCell(&runs)
	for _, tc := range []struct {
		name, value string
		decoded     counted
	}{
		{"unknown field", `{"N":11,"F":2.5,"Extra":true}`, counted{N: 11, F: 2.5}},
		{"float written 1.0", `{"N":11,"F":1.0}`, counted{N: 11, F: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := openTestCache(t)
			key, err := cache.keyFor(cell.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			entry := `{"key":"counted-cell","fingerprint":{},"value":` + tc.value + `}`
			if err := cache.st.Put(key, []byte(entry)); err != nil {
				t.Fatal(err)
			}
			want := rendered(t, tc.decoded)
			if !hit(t, "non-round-tripping entry", cell, cache, want) {
				t.Fatal("the first hit served the stored bytes raw")
			}
			if !servedEntry(t, cache, key, want) {
				t.Fatal("the first hit did not rewrite the entry")
			}
			for i := 0; i < 2; i++ {
				if hit(t, "rewritten entry", cell, cache, want) {
					t.Fatalf("hit %d on the rewritten entry was decoded into T", i+2)
				}
			}
			if runs.Load() != 0 {
				t.Fatalf("cell body ran %d times on a decodable entry", runs.Load())
			}
		})
	}
}

// FuzzStoredEntry puts arbitrary bytes under a cell's key. JSONTask
// and RunCell either recompute or serve a hit, and never panic. A
// JSONTask hit on an entry in the served layout is its body, and any
// other hit is the typed rendering of the legacy entry's value, after
// which the entry is in the served layout. The same bytes, as a value,
// a fingerprint and a cell key, round-trip through store to exactly
// the bytes JSONTask serves for them.
func FuzzStoredEntry(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "legacy_beff_t3e.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	for _, seed := range []string{
		ServedLayout + `"key":"counted-cell","fingerprint":{}}` + "\n{\n  \"N\": 11,\n  \"F\": 2.5\n}\n",
		ServedLayout + `"key":"x","fingerprint":{}}`,
		ServedLayout + `"key":"x","fingerprint":{}}` + "\nnull\n",
		ServedLayout + `"key":"x","fingerprint":{},"value":{"N":11,"F":2.5}}`,
		"{\n \"key\": \"x\",\n \"fingerprint\": {},\n \"value\": {\n  \"N\": 7,\n  \"F\": 1\n }\n}",
		`{"key":"x","fingerprint":{},"value":{"N":11,"F":1.0,"Extra":true}}`,
		`{"key":"x","value":null}`, `"a \n string"`, "",
	} {
		f.Add([]byte(seed))
	}
	cache, err := OpenCache(filepath.Join(f.TempDir(), "cache"))
	if err != nil {
		f.Fatal(err)
	}
	var runs atomic.Int32
	cell := countedCell(&runs)
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		f.Fatal(err)
	}
	computed, err := served(nil, counted{N: 11, F: 2.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// What each layout reader makes of data, by encoding/json alone.
		_, body, ok := bytes.Cut(data, []byte("\n"))
		inServed := bytes.HasPrefix(data, []byte(ServedLayout)) && ok
		var legacy struct{ Value json.RawMessage }
		var typed counted
		decodes := json.Unmarshal(data, &legacy) == nil && json.Unmarshal(legacy.Value, &typed) == nil

		if err := cache.st.Put(key, data); err != nil {
			t.Fatal(err)
		}
		before := runs.Load()
		got, cached, err := JSONTask(cell, cache).Run()
		switch {
		case err != nil:
			t.Fatalf("JSONTask failed: %v", err)
		case cap(got) != len(got):
			t.Fatalf("value has cap %d, len %d", cap(got), len(got))
		case !cached:
			if !bytes.Equal(got, computed) || runs.Load() != before+1 {
				t.Fatalf("recompute served %q", got)
			}
		case inServed:
			if !bytes.Equal(got, body) {
				t.Fatalf("served %q, the body is %q", got, body)
			}
		case !decodes || string(got) != rendered(t, typed):
			t.Fatalf("legacy hit served %q", got)
		}
		if !(cached && inServed) && !servedEntry(t, cache, key, string(got)) {
			t.Fatal("the entry was not repaired or rewritten in the served layout")
		}

		if err := cache.st.Put(key, data); err != nil {
			t.Fatal(err)
		}
		if r := RunCell(cell, cache); r.Err != nil || (!r.Cached && r.Value != (counted{N: 11, F: 2.5})) {
			t.Fatalf("RunCell: %+v", r)
		}

		var v any // nil for null, a value that never hits
		if json.Unmarshal(data, &v) != nil {
			return
		}
		vkey, err := cache.keyFor(v)
		if err != nil {
			t.Fatal(err)
		}
		want, err := served(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		if got := cache.store(vkey, string(data), v, v); !bytes.Equal(got, want) {
			t.Fatalf("store returned %q, want %q", got, want)
		}
		if got, ok := cache.load(vkey, nil, true); v != nil && (!ok || !bytes.Equal(got, want)) {
			t.Fatalf("stored entry serves %q (hit %v), want %q", got, ok, want)
		}
	})
}
