package runner

import (
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// Tests for JSONTask's two hit paths: the stored entry rendered by
// renderStored for keys in the cache's verified set, the typed decode
// for every other key.

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
// process's view, with an empty verified set.
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
	if !hit(t, "first hit in a new process", cell, cache, want) {
		t.Fatal("the first hit on an unverified key skipped the typed decode")
	}
	for i := 0; i < 2; i++ {
		if hit(t, "verified hit", cell, cache, want) {
			t.Fatal("a verified key was decoded into T")
		}
	}
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cache.verified.Load(key); !ok {
		t.Fatal("a key whose typed hit rendered like its stored entry was not verified")
	}

	// Entries another writer laid out differently decode into T, but
	// renderStored does not render them as the typed path does: they
	// never enter the verified set and every hit goes the typed way,
	// with today's bytes.
	value, err := json.Marshal(counted{N: 11, F: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	ours := entry{Key: cell.Key, Fingerprint: json.RawMessage(`{"Machine":"counted","Procs":2}`), Value: value}
	valueFirst := struct {
		Key         string          `json:"key"`
		Value       json.RawMessage `json:"value"`
		Fingerprint json.RawMessage `json:"fingerprint"`
	}{ours.Key, ours.Value, ours.Fingerprint}
	for _, tc := range []struct {
		name   string
		layout func() ([]byte, error)
	}{
		{"compact", func() ([]byte, error) { return json.Marshal(ours) }},
		{"two-space indent", func() ([]byte, error) { return json.MarshalIndent(ours, "", "  ") }},
		{"value before fingerprint", func() ([]byte, error) { return json.MarshalIndent(valueFirst, "", " ") }},
		// Laid out by hand so that the fingerprint's nested value is the
		// first line that looks like the value field.
		{"nested value in the fingerprint", func() ([]byte, error) {
			return []byte("{\n \"key\": \"counted-cell\",\n \"fingerprint\": {\n \"value\": {\"N\": 99, \"F\": 1},\n" +
				" \"Machine\": \"counted\"\n },\n \"value\": {\n  \"N\": 11,\n  \"F\": 2.5\n }\n}"), nil
		}},
	} {
		data, err := tc.layout()
		if err != nil {
			t.Fatal(err)
		}
		if err := cache.st.Put(key, data); err != nil {
			t.Fatal(err)
		}
		cache = reopen(t, cache)
		for i := 0; i < 3; i++ {
			if !hit(t, tc.name, cell, cache, want) {
				t.Fatalf("%s: hit %d served the stored entry without the typed decode", tc.name, i+1)
			}
		}
		if _, ok := cache.verified.Load(key); ok {
			t.Fatalf("%s: the key entered the verified set", tc.name)
		}
	}
	if runs.Load() != 2 {
		t.Fatalf("cell body ran %d times, want 2 (uncached, cold)", runs.Load())
	}
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
		if hit(t, "hit after the repair", cell, cache, want) {
			t.Fatalf("poison %q: the repaired entry was decoded into T", poison)
		}
		// The repair persisted: a new process decodes it into T.
		cache = reopen(t, cache)
		if !hit(t, "repaired entry in a new process", cell, cache, want) {
			t.Fatalf("poison %q: first hit skipped the typed decode", poison)
		}
	}
}

// TestJSONTaskNonRoundTripServedThroughT pins the first-hit comparison:
// an entry that decodes into T but does not re-encode to its own bytes
// is served through T on every hit, never raw.
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
			dir := filepath.Join(t.TempDir(), "cache")
			cache, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cache.Close() })
			key, err := cache.keyFor(cell.Fingerprint)
			if err != nil {
				t.Fatal(err)
			}
			entry := `{"key":"counted-cell","fingerprint":{},"value":` + tc.value + `}`
			if err := cache.st.Put(key, []byte(entry)); err != nil {
				t.Fatal(err)
			}
			want := rendered(t, tc.decoded)
			for i := 0; i < 3; i++ {
				if !hit(t, "non-round-tripping entry", cell, cache, want) {
					t.Fatalf("hit %d served the stored bytes raw", i+1)
				}
			}
			if _, ok := cache.verified.Load(key); ok {
				t.Fatal("a non-round-tripping key entered the verified set")
			}
			if runs.Load() != 0 {
				t.Fatalf("cell body ran %d times on a decodable entry", runs.Load())
			}
		})
	}
}
