package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hpcbench/beff/internal/obs"
)

// fill writes n sequential entries and returns the expected contents.
func fill(t *testing.T, s *Store, n int) map[string]string {
	t.Helper()
	want := map[string]string{}
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("value-%04d", i)
		put(t, s, k, v)
		want[k] = v
	}
	return want
}

// verify checks that the store holds exactly want.
func verify(t *testing.T, s *Store, want map[string]string) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("store has %d entries, want %d", s.Len(), len(want))
	}
	for k, v := range want {
		if got, ok := get(t, s, k); !ok || got != v {
			t.Fatalf("%s = %q, %v; want %q", k, got, ok, v)
		}
	}
}

// activeSegPath returns the path of the active segment file.
func activeSegPath(s *Store) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return filepath.Join(s.dir, s.active.name())
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		// A crashed writer's partial final record: the header promises
		// more payload than was flushed.
		"torn-payload": func(b []byte) []byte { return b[:len(b)-3] },
		// Only part of the length prefix made it out.
		"torn-header": func(b []byte) []byte { return b[:recHdrSize/2] },
		// The full record landed but its bytes rotted.
		"corrupt-crc": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			want := fill(t, s, 20)
			path := activeSegPath(s)
			goodSize := s.Stats().TotalBytes
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			// Append one more record and mangle it per the scenario.
			rec := mangle(appendRecord(nil, 0, "key-0003", []byte("phantom")))
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(rec); err != nil {
				t.Fatal(err)
			}
			f.Close()

			reg := obs.New()
			m := &Metrics{RecoveryTruncations: reg.Counter("store_recovery_truncations_total")}
			r := mustOpen(t, dir, Options{})
			r.SetMetrics(m)
			verify(t, r, want) // the mangled tail must not shadow key-0003
			if m.RecoveryTruncations.Value() != 1 {
				t.Fatalf("recovery truncations = %d", m.RecoveryTruncations.Value())
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != goodSize {
				t.Fatalf("tail not truncated: %d bytes, want %d", fi.Size(), goodSize)
			}
			// The store keeps working on the clean tail.
			put(t, r, "after", "recovery")
			if v, ok := get(t, r, "after"); !ok || v != "recovery" {
				t.Fatalf("append after recovery: %q, %v", v, ok)
			}
		})
	}
}

func TestReadOnlyOpenToleratesTornTailWithoutTruncating(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	want := fill(t, s, 5)
	path := activeSegPath(s)
	s.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x07, 0x00, 0x00}) // half a header
	f.Close()
	before, _ := os.Stat(path)

	r := mustOpen(t, dir, Options{ReadOnly: true})
	verify(t, r, want)
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatal("read-only open modified the segment file")
	}
}

func TestCompactionCrashBeforeCommitLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, small())
	want := fill(t, s, 100)
	for i := 0; i < 50; i++ { // churn: supersede half the keys
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("fresh-%04d", i)
		put(t, s, k, v)
		want[k] = v
	}
	s.Delete("key-0099")
	delete(want, "key-0099")

	s.crashBeforeCommit = true
	if err := s.compactOnce(); !errors.Is(err, errCrashed) {
		t.Fatalf("hook not hit: %v", err)
	}
	// The uncommitted temporary is on disk, exactly as after a crash.
	tmps, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+tmpSuffix))
	if len(tmps) != 1 {
		t.Fatalf("tmp files on disk: %v", tmps)
	}
	s.closeForCrash()

	r := mustOpen(t, dir, small())
	verify(t, r, want)
	tmps, _ = filepath.Glob(filepath.Join(dir, segPrefix+"*"+tmpSuffix))
	if len(tmps) != 0 {
		t.Fatalf("tmp files survived recovery: %v", tmps)
	}
	// A later compaction completes normally.
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	verify(t, r, want)
}

func TestCompactionCrashAfterCommitLosesNothing(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, small())
	want := fill(t, s, 100)
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("key-%04d", i), fmt.Sprintf("fresh-%04d", i)
		put(t, s, k, v)
		want[k] = v
	}
	s.Delete("key-0042")
	delete(want, "key-0042")

	s.crashAfterCommit = true
	if err := s.compactOnce(); !errors.Is(err, errCrashed) {
		t.Fatalf("hook not hit: %v", err)
	}
	// Both the generation file and the segments it merged are on disk.
	cmps, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+cmpSuffix))
	if len(cmps) != 1 {
		t.Fatalf("cmp files on disk: %v", cmps)
	}
	s.closeForCrash()

	r := mustOpen(t, dir, small())
	verify(t, r, want)
	if _, ok := get(t, r, "key-0042"); ok {
		t.Fatal("dropped tombstone resurrected the deleted key")
	}
	// Recovery removed the superseded segment files.
	names, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	cmpID, _, _ := parseSegName(filepath.Base(cmps[0]))
	for _, n := range names {
		id, compacted, ok := parseSegName(filepath.Base(n))
		if !ok {
			continue
		}
		if !compacted && id <= cmpID {
			t.Fatalf("superseded segment %s survived recovery", n)
		}
	}
}

func TestTombstoneNotResurrectedByCrashyCompaction(t *testing.T) {
	// The scenario the generation scheme exists for: a key whose value
	// and tombstone live in different sealed segments, compaction drops
	// both, and the crash window leaves old segments behind. Replaying
	// old segments after the generation file must not bring it back.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{TargetSegmentSize: 1, NoAutoCompact: true}) // rotate every record
	put(t, s, "victim", "value")
	put(t, s, "keeper", "kept")
	s.Delete("victim") // tombstone lands in its own segment
	put(t, s, "pad", "x")

	s.crashAfterCommit = true
	if err := s.compactOnce(); !errors.Is(err, errCrashed) {
		t.Fatalf("hook not hit: %v", err)
	}
	s.closeForCrash()

	r := mustOpen(t, dir, Options{NoAutoCompact: true})
	if _, ok := get(t, r, "victim"); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, ok := get(t, r, "keeper"); !ok || v != "kept" {
		t.Fatalf("keeper = %q, %v", v, ok)
	}
}

func TestFailedCutBackSealsTornSegment(t *testing.T) {
	// An append that writes part of its record and whose cut-back fails
	// leaves torn bytes at the end of the active segment. No later
	// record may land after them: a Get would read the torn frame, and
	// recovery would stop there and drop every acknowledged record
	// behind it.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{NoAutoCompact: true})
	want := fill(t, s, 5)
	torn := activeSegPath(s)
	s.tornAppend = true
	if err := s.Put("lost", []byte("never acknowledged")); !errors.Is(err, errTornAppend) {
		t.Fatalf("torn append: %v", err)
	}
	for i := 0; i < 5; i++ {
		k, v := fmt.Sprintf("after-%d", i), fmt.Sprintf("value-%d", i)
		put(t, s, k, v)
		want[k] = v
	}
	verify(t, s, want)
	if activeSegPath(s) == torn {
		t.Fatal("appends continued after the torn bytes")
	}
	s.closeForCrash()

	for _, opts := range []Options{{ReadOnly: true}, {}} {
		r := mustOpen(t, dir, opts)
		verify(t, r, want)
		if r.truncations != 1 {
			t.Fatalf("read-only %v: %d truncations, want 1", opts.ReadOnly, r.truncations)
		}
		r.Close()
	}
}

// compactOnce runs one synchronous compaction owning the flag, without
// Compact's ReadOnly guard semantics (test helper).
func (s *Store) compactOnce() error {
	if !s.compacting.CompareAndSwap(false, true) {
		return errors.New("already compacting")
	}
	defer s.compacting.Store(false)
	return s.compact()
}

// closeForCrash releases the lock and file handles without the graceful
// Close path, approximating process death for reopen tests.
func (s *Store) closeForCrash() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.closeFiles()
	s.lock.release()
}
