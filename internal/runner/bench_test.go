package runner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/core"
)

// Microbenchmarks of the result cache on a real b_eff result: the
// corpus's t3e protocol at 8 processes, about 35 kB indented.

var benchValue json.RawMessage

// goldenBeffCell returns a cell whose body returns the corpus's t3e
// b_eff result, and an open cache in a temporary directory.
func goldenBeffCell(b *testing.B) (Cell[*core.Result], *Cache) {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("..", "check", "testdata", "golden", "beff_t3e.json"))
	if err != nil {
		b.Fatal(err)
	}
	res := new(core.Result)
	if err := json.Unmarshal(data, res); err != nil {
		b.Fatal(err)
	}
	cache, err := OpenCache(filepath.Join(b.TempDir(), "cache"))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cache.Close() })
	cell := Cell[*core.Result]{
		Key:         "t3e/8",
		Fingerprint: fp{Machine: "t3e", Procs: 8},
		Run:         func() (*core.Result, error) { return res, nil },
	}
	return cell, cache
}

// BenchmarkJSONTaskHit is one warm beffd cache hit: the task finds the
// stored entry and renders the indented bytes served over HTTP.
func BenchmarkJSONTaskHit(b *testing.B) {
	cell, cache := goldenBeffCell(b)
	task := JSONTask(cell, cache)
	if _, cached, err := task.Run(); cached || err != nil {
		b.Fatalf("cold run: cached=%v err=%v", cached, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, cached, err := task.Run()
		if !cached || err != nil {
			b.Fatalf("warm run: cached=%v err=%v", cached, err)
		}
		benchValue = v
	}
}

// BenchmarkCachePut is one cache store of the result: encode the value
// and the entry, then append it to the store.
func BenchmarkCachePut(b *testing.B) {
	cell, cache := goldenBeffCell(b)
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		b.Fatal(err)
	}
	res, _ := cell.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.store(key, cell.Key, cell.Fingerprint, res)
	}
}
