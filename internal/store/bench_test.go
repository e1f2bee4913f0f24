package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The benchmarks measure the two cache access patterns the ISSUE cares
// about — OLTP-style random point lookups and OLAP-style whole-sweep
// scans — against both backends: the segment-log store and the legacy
// flat directory (one file per entry), which is reproduced here without
// the runner wrapping so the comparison is storage-layer only.

const (
	benchEntries   = 2048
	benchValueSize = 1024
)

func benchValue(i int) []byte {
	v := make([]byte, benchValueSize)
	r := rand.New(rand.NewSource(int64(i)))
	r.Read(v)
	return v
}

func benchKey(i int) string { return fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15) }

func newBenchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), Options{NoAutoCompact: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	for i := 0; i < benchEntries; i++ {
		if err := s.Put(benchKey(i), benchValue(i)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func newBenchFlat(b *testing.B) string {
	b.Helper()
	dir := b.TempDir()
	for i := 0; i < benchEntries; i++ {
		if err := os.WriteFile(filepath.Join(dir, benchKey(i)+".json"), benchValue(i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

func BenchmarkStorePointLookup(b *testing.B) {
	s := newBenchStore(b)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := benchKey(r.Intn(benchEntries))
		v, ok, err := s.Get(k)
		if err != nil || !ok || len(v) != benchValueSize {
			b.Fatalf("get %s: %v %v %d", k, ok, err, len(v))
		}
	}
	b.SetBytes(benchValueSize)
}

func BenchmarkFlatStorePointLookup(b *testing.B) {
	dir := newBenchFlat(b)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := benchKey(r.Intn(benchEntries))
		v, err := os.ReadFile(filepath.Join(dir, k+".json"))
		if err != nil || len(v) != benchValueSize {
			b.Fatalf("read %s: %v %d", k, err, len(v))
		}
	}
	b.SetBytes(benchValueSize)
}

func BenchmarkStoreFullScan(b *testing.B) {
	s := newBenchStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		err := s.Scan(func(_ string, v []byte) error { n += len(v); return nil })
		if err != nil || n != benchEntries*benchValueSize {
			b.Fatalf("scan: %v, %d bytes", err, n)
		}
	}
	b.SetBytes(benchEntries * benchValueSize)
}

func BenchmarkFlatStoreFullScan(b *testing.B) {
	dir := newBenchFlat(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ents, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, ent := range ents {
			v, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				b.Fatal(err)
			}
			n += len(v)
		}
		if n != benchEntries*benchValueSize {
			b.Fatalf("scanned %d bytes", n)
		}
	}
	b.SetBytes(benchEntries * benchValueSize)
}

func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{NoAutoCompact: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	v := benchValue(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(benchKey(i), v); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchValueSize)
}

func BenchmarkFlatStorePut(b *testing.B) {
	dir := b.TempDir()
	v := benchValue(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := os.WriteFile(filepath.Join(dir, benchKey(i)+".json"), v, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchValueSize)
}

// BenchmarkStoreOpen reopens a store of 4 segments of 35 kB entries,
// about the size of a t3e/8 b_eff cell, and reports replay MB/s.
func BenchmarkStoreOpen(b *testing.B) {
	const (
		entries   = 400
		valueSize = 35 << 10
	)
	dir := b.TempDir()
	opts := Options{TargetSegmentSize: 4 << 20, NoAutoCompact: true}
	s, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]byte, valueSize)
	rand.New(rand.NewSource(1)).Read(v)
	for i := 0; i < entries; i++ {
		if err := s.Put(benchKey(i), v); err != nil {
			b.Fatal(err)
		}
	}
	want := s.Stats()
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	if want.Segments < 3 {
		b.Fatalf("%d segments, want at least 3", want.Segments)
	}
	b.SetBytes(want.TotalBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if st := s.Stats(); st.LiveEntries != entries || st.Segments != want.Segments {
			b.Fatalf("reopened %+v, want %+v", st, want)
		}
		s.Close()
	}
}
