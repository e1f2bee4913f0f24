package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/hpcbench/beff/internal/obs"
)

// small returns options that force frequent rotation so tests exercise
// multi-segment stores without megabytes of data.
func small() Options {
	return Options{TargetSegmentSize: 1 << 10, NoAutoCompact: true}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func put(t *testing.T, s *Store, key, value string) {
	t.Helper()
	if err := s.Put(key, []byte(value)); err != nil {
		t.Fatalf("put %s: %v", key, err)
	}
}

func get(t *testing.T, s *Store, key string) (string, bool) {
	t.Helper()
	v, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	return string(v), ok
}

func TestPutGetOverwriteDelete(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if _, ok := get(t, s, "absent"); ok {
		t.Fatal("hit on empty store")
	}
	put(t, s, "a", "alpha")
	put(t, s, "b", "beta")
	if v, ok := get(t, s, "a"); !ok || v != "alpha" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	put(t, s, "a", "alpha2") // supersede
	if v, _ := get(t, s, "a"); v != "alpha2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "a"); ok {
		t.Fatal("deleted key still present")
	}
	if err := s.Delete("never-there"); err != nil {
		t.Fatalf("deleting an absent key: %v", err)
	}
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("keys = %v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Put("", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, small())
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%d", i)
		put(t, s, k, v)
		want[k] = v
	}
	s.Delete("key-007")
	delete(want, "key-007")
	put(t, s, "key-008", "rewritten")
	want["key-008"] = "rewritten"
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("test did not rotate: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, small())
	if r.Len() != len(want) {
		t.Fatalf("reopened with %d entries, want %d", r.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := get(t, r, k); !ok || got != v {
			t.Fatalf("%s = %q, %v; want %q", k, got, ok, v)
		}
	}
	if _, ok := get(t, r, "key-007"); ok {
		t.Fatal("tombstone not replayed")
	}
}

func TestScanSortedAndComplete(t *testing.T) {
	s := mustOpen(t, t.TempDir(), small())
	for i := 30; i >= 0; i-- { // insert out of order
		put(t, s, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	var keys []string
	err := s.Scan(func(k string, v []byte) error {
		keys = append(keys, k)
		var i int
		fmt.Sscanf(k, "k%d", &i)
		if string(v) != fmt.Sprintf("v%d", i) {
			return fmt.Errorf("%s = %q", k, v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 31 {
		t.Fatalf("scanned %d keys", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order: %s before %s", keys[i-1], keys[i])
		}
	}
	// Scan stops at the first callback error.
	stop := errors.New("stop")
	n := 0
	if err := s.Scan(func(string, []byte) error { n++; return stop }); !errors.Is(err, stop) || n != 1 {
		t.Fatalf("scan did not stop: n=%d err=%v", n, err)
	}
}

func TestCompactionDropsDeadRecords(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, small())
	// Many overwrites of few keys: almost everything is superseded.
	for round := 0; round < 50; round++ {
		for k := 0; k < 8; k++ {
			put(t, s, fmt.Sprintf("k%d", k), fmt.Sprintf("round-%d-%d", round, k))
		}
	}
	s.Delete("k7")
	before := s.Stats()
	if before.DeadBytes == 0 || before.Segments < 3 {
		t.Fatalf("test shape wrong: %+v", before)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.LiveEntries != 7 {
		t.Fatalf("live entries = %d", after.LiveEntries)
	}
	if after.TotalBytes >= before.TotalBytes {
		t.Fatalf("compaction reclaimed nothing: before %d, after %d", before.TotalBytes, after.TotalBytes)
	}
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d", after.Compactions)
	}
	for k := 0; k < 7; k++ {
		if v, ok := get(t, s, fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("round-49-%d", k) {
			t.Fatalf("k%d = %q, %v", k, v, ok)
		}
	}
	if _, ok := get(t, s, "k7"); ok {
		t.Fatal("tombstoned key survived compaction")
	}
	// The tombstone itself must be gone from disk after a reopen: the
	// generation file supersedes everything older.
	s.Close()
	r := mustOpen(t, dir, small())
	if _, ok := get(t, r, "k7"); ok {
		t.Fatal("tombstoned key resurrected after reopen")
	}
	if r.Len() != 7 {
		t.Fatalf("reopened with %d entries", r.Len())
	}
	// Repeated compaction over an existing generation file still works.
	put(t, r, "k0", "final")
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if v, _ := get(t, r, "k0"); v != "final" {
		t.Fatalf("k0 = %q after second compaction", v)
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{
		TargetSegmentSize: 1 << 10,
		CompactMinBytes:   1, // trigger as soon as the fraction allows
		CompactFraction:   0.3,
	})
	for round := 0; round < 100; round++ {
		put(t, s, "hot", fmt.Sprintf("%0128d", round))
	}
	s.wg.Wait() // settle background passes
	if s.Stats().Compactions == 0 {
		t.Fatalf("auto compaction never ran: %+v", s.Stats())
	}
	if v, ok := get(t, s, "hot"); !ok || v != fmt.Sprintf("%0128d", 99) {
		t.Fatalf("hot = %q, %v", v, ok)
	}
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, small())
	put(t, w, "k", "v")

	r := mustOpen(t, dir, Options{ReadOnly: true})
	if v, ok := get(t, r, "k"); !ok || v != "v" {
		t.Fatalf("read-only get: %q, %v", v, ok)
	}
	if err := r.Put("x", nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("put on read-only store: %v", err)
	}
	if err := r.Delete("k"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("delete on read-only store: %v", err)
	}
	if err := r.Compact(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("compact on read-only store: %v", err)
	}
}

func TestReadOnlyOpenOfMissingDirFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	if s, err := Open(dir, Options{ReadOnly: true}); err == nil {
		s.Close()
		t.Fatal("read-only open of a missing directory succeeded")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("read-only open created %s: %v", dir, err)
	}
}

func TestSecondWriterRejectedReadersProceed(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	put(t, w, "k", "v")

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer: err = %v, want ErrLocked", err)
	}
	// Readers are not blocked by the writer lock.
	r := mustOpen(t, dir, Options{ReadOnly: true})
	if v, ok := get(t, r, "k"); !ok || v != "v" {
		t.Fatalf("reader under writer lock: %q, %v", v, ok)
	}
	// Releasing the writer admits the next one.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2 := mustOpen(t, dir, Options{})
	put(t, w2, "k2", "v2")
}

func TestClosedStoreErrors(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	put(t, s, "k", "v")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrClosed) {
		t.Fatalf("get after close: %v", err)
	}
}

func TestConcurrentReadersDuringWritesAndCompaction(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{
		TargetSegmentSize: 1 << 12,
		CompactMinBytes:   1,
		CompactFraction:   0.2,
	})
	const keys = 16
	for k := 0; k < keys; k++ {
		put(t, s, fmt.Sprintf("k%d", k), "seed")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("k%d", i%keys)
				v, ok, err := s.Get(k)
				if err != nil {
					t.Errorf("get %s: %v", k, err)
					return
				}
				if ok && len(v) == 0 {
					t.Errorf("get %s: empty value", k)
					return
				}
			}
		}()
	}
	for round := 0; round < 200; round++ {
		for k := 0; k < keys; k++ {
			put(t, s, fmt.Sprintf("k%d", k), fmt.Sprintf("%0100d", round))
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		if v, ok := get(t, s, fmt.Sprintf("k%d", k)); !ok || v != fmt.Sprintf("%0100d", 199) {
			t.Fatalf("k%d = %q, %v", k, v, ok)
		}
	}
}

func TestMetricsCountAndGauge(t *testing.T) {
	reg := obs.New()
	m := &Metrics{
		Puts:        reg.Counter("store_puts_total"),
		Gets:        reg.Counter("store_gets_total"),
		GetMisses:   reg.Counter("store_get_misses_total"),
		Deletes:     reg.Counter("store_deletes_total"),
		Compactions: reg.Counter("store_compactions_total"),
		Segments:    reg.Gauge("store_segments"),
		LiveEntries: reg.Gauge("store_entries_live"),
		LiveBytes:   reg.Gauge("store_bytes_live"),
		DeadBytes:   reg.Gauge("store_bytes_dead"),
	}
	// Tiny segments: every record seals its segment, so Compact below
	// has sealed input to merge.
	s := mustOpen(t, t.TempDir(), Options{NoAutoCompact: true, TargetSegmentSize: 1})
	s.SetMetrics(m)
	put(t, s, "a", "1")
	put(t, s, "a", "2")
	get(t, s, "a")
	get(t, s, "missing")
	s.Delete("a")
	if m.Puts.Value() != 2 || m.Gets.Value() != 2 || m.GetMisses.Value() != 1 || m.Deletes.Value() != 1 {
		t.Fatalf("counters: puts=%d gets=%d misses=%d deletes=%d",
			m.Puts.Value(), m.Gets.Value(), m.GetMisses.Value(), m.Deletes.Value())
	}
	if m.LiveEntries.Value() != 0 || m.DeadBytes.Value() == 0 {
		t.Fatalf("gauges: live=%d dead=%d", m.LiveEntries.Value(), m.DeadBytes.Value())
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if m.Compactions.Value() != 1 {
		t.Fatalf("compactions counter = %d", m.Compactions.Value())
	}
}

func TestSegmentStatsInspection(t *testing.T) {
	s := mustOpen(t, t.TempDir(), small())
	for i := 0; i < 100; i++ {
		put(t, s, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("%064d", i))
	}
	segs := s.Segments()
	if len(segs) < 2 {
		t.Fatalf("segments = %+v", segs)
	}
	actives := 0
	for i, g := range segs {
		if i > 0 && segs[i-1].ID >= g.ID {
			t.Fatalf("segments out of order: %+v", segs)
		}
		if g.Active {
			actives++
		}
		if g.LiveBytes > g.Bytes {
			t.Fatalf("live > total in %+v", g)
		}
	}
	if actives != 1 {
		t.Fatalf("%d active segments", actives)
	}
}

func TestStrayFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	// Files the store did not write may share its directory (an old
	// cache's <key>.json entries, say); the store must not touch them.
	stray := filepath.Join(dir, "0123abcd.json")
	if err := os.WriteFile(stray, []byte(`{"key":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{})
	put(t, s, "k", "v")
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("stray file disturbed: %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}
