// Package store is an embedded key-value result store: an append-only
// segment log with an in-memory index, built to replace the
// one-JSON-file-per-cell flat cache directory once the characterization
// matrix reaches service scale (millions of cached cells means millions
// of inodes and O(directory) lookups; a handful of segment files and a
// hash map do not).
//
// Design, bottom to top:
//
//   - Records are length-prefixed and CRC32-checksummed (segment.go).
//     A later record for a key supersedes earlier ones; deletions are
//     tombstone records.
//   - Segments are append-only files; only the newest (the active
//     segment) is ever written, and it rotates once it exceeds
//     Options.TargetSegmentSize.
//   - The index — key → (segment, offset, size) — lives in memory and
//     is rebuilt on Open by replaying the segments in order. Lookups
//     are one map probe plus one pread; scans walk keys in sorted
//     order.
//   - Compaction (compact.go) merges every sealed segment into a
//     single generation file (seg-N.cmp), dropping superseded and
//     tombstoned records. The rename of the .cmp.tmp output is the
//     commit point; a crash on either side of it loses nothing.
//   - Recovery truncates a torn tail (a crashed writer's partial final
//     record) and ignores uncommitted compaction temporaries.
//   - Concurrency: one writer, any number of readers. The writer is
//     guarded by a lock file (flock on unix, so a crashed writer's
//     lock dies with it); readers — both concurrent Gets in the writer
//     process and read-only Opens from other processes — never take
//     it.
//
// The runner's result cache (internal/runner) fronts this store,
// opening it read-only when another process holds the lock;
// cmd/beffstore is the inspection/compaction CLI.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors. ErrLocked wraps the lock path; match with errors.Is.
var (
	ErrLocked   = errors.New("store: locked by another writer")
	ErrReadOnly = errors.New("store: opened read-only")
	ErrClosed   = errors.New("store: closed")
)

// Options configures Open. The zero value is ready to use.
type Options struct {
	// TargetSegmentSize rotates the active segment once its size
	// reaches it; <= 0 means 64 MiB.
	TargetSegmentSize int64

	// Auto-compaction triggers after a write when the dead bytes in
	// sealed segments exceed CompactFraction of the sealed total
	// (<= 0 means 0.4) and CompactMinBytes (<= 0 means 1 MiB).
	CompactFraction float64
	CompactMinBytes int64

	// NoAutoCompact disables the background compactor; explicit
	// Compact calls still work.
	NoAutoCompact bool

	// ReadOnly opens without the writer lock: no tail truncation, no
	// temp-file cleanup, and Put/Delete/Compact fail with ErrReadOnly.
	// The view is a consistent snapshot of the log at open time.
	ReadOnly bool
}

// recLoc locates one live record.
type recLoc struct {
	seg  uint64
	off  int64
	size int64
}

// segment is one open log file. Only the active segment has a write
// handle; reads always go through the pread handle f.
type segment struct {
	id        uint64
	compacted bool
	f         *os.File // pread handle
	wf        *os.File // append handle, active segment only
	size      int64
	live      int64 // bytes of records the index currently points at
}

func (g *segment) name() string { return segName(g.id, g.compacted) }

// Store is the open store. Create with Open; all methods are safe for
// concurrent use, with mutations serialised internally (single-writer
// semantics).
type Store struct {
	dir  string
	opts Options
	lock *lockFile // nil when read-only
	m    atomic.Pointer[Metrics]

	// truncations counts the torn tails recovery dropped at open;
	// SetMetrics reports them to the RecoveryTruncations counter.
	truncations int64

	// mu guards the index, the segment table and the byte accounting.
	mu     sync.RWMutex
	closed bool
	index  map[string]recLoc
	segs   map[uint64]*segment
	active *segment // nil only in an empty read-only store

	// wmu serialises mutators (Put, Delete, rotation, the compaction
	// commit) so record append order matches index update order.
	wmu  sync.Mutex
	wbuf []byte

	compacting  atomic.Bool
	compactions atomic.Int64
	wg          sync.WaitGroup

	// Test hooks: abort a compaction at the named point, simulating a
	// crash (the exported API never sets these).
	crashBeforeCommit bool
	crashAfterCommit  bool
}

// Open opens the store rooted at dir, creating dir in writer mode.
func Open(dir string, opts Options) (*Store, error) {
	if opts.TargetSegmentSize <= 0 {
		opts.TargetSegmentSize = 64 << 20
	}
	if opts.CompactFraction <= 0 {
		opts.CompactFraction = 0.4
	}
	if opts.CompactMinBytes <= 0 {
		opts.CompactMinBytes = 1 << 20
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: map[string]recLoc{},
		segs:  map[uint64]*segment{},
	}
	// Only a writer creates dir: a read-only open of a missing
	// directory fails in recover instead of reporting an empty store.
	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
		lf, err := acquireLock(filepath.Join(dir, lockName))
		if err != nil {
			return nil, err
		}
		s.lock = lf
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		s.lock.release()
		return nil, err
	}
	s.updateGauges()
	return s, nil
}

// recover rebuilds the in-memory state from the segment files: pick
// the newest compaction generation, replay it plus every younger plain
// segment in id order, truncate a torn tail (writer mode), and choose
// or create the active segment.
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: recover: %w", err)
	}
	plains := map[uint64]bool{}
	var cmpID uint64
	haveCmp := false
	var stale []string // superseded files, removed in writer mode
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, tmpSuffix) {
			// An uncommitted compaction output. The lock guarantees no
			// live compactor owns it.
			if !s.opts.ReadOnly {
				os.Remove(filepath.Join(s.dir, name))
			}
			continue
		}
		id, compacted, ok := parseSegName(name)
		if !ok {
			continue
		}
		if compacted {
			if !haveCmp || id > cmpID {
				if haveCmp {
					stale = append(stale, segName(cmpID, true))
				}
				cmpID, haveCmp = id, true
			} else {
				stale = append(stale, segName(id, true))
			}
		} else {
			plains[id] = true
		}
	}

	// A compaction generation supersedes every segment with id <= its
	// own — including the plain segments it merged, if a crash struck
	// between the commit rename and their deletion.
	var replay []*segment
	if haveCmp {
		replay = append(replay, &segment{id: cmpID, compacted: true})
	}
	plainIDs := make([]uint64, 0, len(plains))
	maxID := cmpID
	for id := range plains {
		if haveCmp && id <= cmpID {
			stale = append(stale, segName(id, false))
			continue
		}
		plainIDs = append(plainIDs, id)
		if id > maxID {
			maxID = id
		}
	}
	sort.Slice(plainIDs, func(i, j int) bool { return plainIDs[i] < plainIDs[j] })
	for _, id := range plainIDs {
		replay = append(replay, &segment{id: id})
	}
	if !s.opts.ReadOnly {
		for _, name := range stale {
			os.Remove(filepath.Join(s.dir, name))
		}
	}

	for _, seg := range replay {
		path := filepath.Join(s.dir, seg.name())
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("store: recover: %w", err)
		}
		seg.f = f
		s.segs[seg.id] = seg // registered before the scan: a record may supersede an earlier one in this same segment
		good, torn := scanSegment(f, func(off, size int64, flags byte, key string) {
			if old, ok := s.index[key]; ok {
				s.segs[old.seg].live -= old.size
			}
			if flags&flagTombstone != 0 {
				delete(s.index, key)
			} else {
				s.index[key] = recLoc{seg: seg.id, off: off, size: size}
				seg.live += size
			}
		})
		seg.size = good
		if torn != nil {
			// A crashed writer's partial final record (or bitrot).
			// Everything before it is intact; drop the tail so the next
			// append starts on a clean frame.
			s.truncations++
			if !s.opts.ReadOnly {
				if err := os.Truncate(path, good); err != nil {
					return fmt.Errorf("store: recover: truncate torn tail: %w", err)
				}
			}
		}
	}

	if s.opts.ReadOnly {
		if len(plainIDs) > 0 {
			s.active = s.segs[plainIDs[len(plainIDs)-1]]
		}
		return nil
	}

	// Writer: append to the last plain segment while it has room,
	// otherwise start a fresh one.
	if n := len(plainIDs); n > 0 && s.segs[plainIDs[n-1]].size < s.opts.TargetSegmentSize {
		seg := s.segs[plainIDs[n-1]]
		wf, err := os.OpenFile(filepath.Join(s.dir, seg.name()), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: recover: %w", err)
		}
		seg.wf = wf
		s.active = seg
		return nil
	}
	seg, err := s.createSegment(maxID + 1)
	if err != nil {
		return err
	}
	s.segs[seg.id] = seg
	s.active = seg
	return nil
}

// createSegment creates and opens a fresh plain segment.
func (s *Store) createSegment(id uint64) (*segment, error) {
	path := filepath.Join(s.dir, segName(id, false))
	wf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		wf.Close()
		return nil, fmt.Errorf("store: create segment: %w", err)
	}
	return &segment{id: id, f: f, wf: wf}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Put stores value under key, superseding any earlier value.
func (s *Store) Put(key string, value []byte) error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if key == "" {
		return errors.New("store: empty key")
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.isClosed() {
		return ErrClosed
	}
	s.wbuf = appendRecord(s.wbuf[:0], 0, key, value)
	if err := s.append(key, s.wbuf, false); err != nil {
		return err
	}
	s.met().Puts.Inc()
	s.maybeCompact()
	s.updateGauges()
	return nil
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.isClosed() {
		return ErrClosed
	}
	s.mu.RLock()
	_, ok := s.index[key]
	s.mu.RUnlock()
	if !ok {
		return nil
	}
	s.wbuf = appendRecord(s.wbuf[:0], flagTombstone, key, nil)
	if err := s.append(key, s.wbuf, true); err != nil {
		return err
	}
	s.met().Deletes.Inc()
	s.maybeCompact()
	s.updateGauges()
	return nil
}

// append writes one encoded record to the active segment and updates
// the index. Caller holds wmu.
func (s *Store) append(key string, rec []byte, tomb bool) error {
	seg := s.active
	off := seg.size
	if _, err := seg.wf.Write(rec); err != nil {
		// A partial append poisons the tail; cut it back so the frame
		// stays parseable. Best effort — recovery would also catch it.
		os.Truncate(filepath.Join(s.dir, seg.name()), off)
		return fmt.Errorf("store: append: %w", err)
	}
	size := int64(len(rec))
	s.mu.Lock()
	seg.size += size
	if old, ok := s.index[key]; ok {
		s.segs[old.seg].live -= old.size
	}
	if tomb {
		delete(s.index, key)
	} else {
		s.index[key] = recLoc{seg: seg.id, off: off, size: size}
		seg.live += size
	}
	s.mu.Unlock()
	if seg.size >= s.opts.TargetSegmentSize {
		return s.rotate()
	}
	return nil
}

// rotate seals the active segment and starts a new one. Caller holds
// wmu.
func (s *Store) rotate() error {
	next, err := s.createSegment(s.active.id + 1)
	if err != nil {
		return err
	}
	s.active.wf.Close()
	s.mu.Lock()
	s.active.wf = nil
	s.segs[next.id] = next
	s.active = next
	s.mu.Unlock()
	return nil
}

// Get returns the value stored under key. The second result reports
// whether the key was present; an error means the store itself failed
// (I/O error, checksum mismatch), not a miss.
func (s *Store) Get(key string) ([]byte, bool, error) {
	// Compaction may close a segment's read handle between our lookup
	// and the pread; the index is always swapped first, so one retry
	// re-resolves to the compacted location.
	for {
		s.mu.RLock()
		if s.closed {
			s.mu.RUnlock()
			return nil, false, ErrClosed
		}
		loc, ok := s.index[key]
		var f *os.File
		if ok {
			f = s.segs[loc.seg].f
		}
		s.mu.RUnlock()
		s.met().Gets.Inc()
		if !ok {
			s.met().GetMisses.Inc()
			return nil, false, nil
		}
		rec := make([]byte, loc.size)
		if _, err := f.ReadAt(rec, loc.off); err != nil {
			if errors.Is(err, os.ErrClosed) {
				continue
			}
			return nil, false, fmt.Errorf("store: get %s: %w", key, err)
		}
		flags, k, v, err := decodeRecord(rec)
		if err != nil || string(k) != key || flags&flagTombstone != 0 {
			return nil, false, fmt.Errorf("store: get %s: %w", key, errBadRecord)
		}
		return v, true, nil
	}
}

// Keys returns every live key in ascending order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Len reports the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Scan calls fn for every live entry in ascending key order, stopping
// at the first error and returning it. Entries deleted between the key
// snapshot and their visit are skipped; entries written after the
// snapshot are not visited.
func (s *Store) Scan(fn func(key string, value []byte) error) error {
	for _, k := range s.Keys() {
		v, ok, err := s.Get(k)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Stats is a point-in-time reading of the store's shape.
type Stats struct {
	Segments    int    `json:"segments"`
	LiveEntries int64  `json:"live_entries"`
	LiveBytes   int64  `json:"live_bytes"`
	TotalBytes  int64  `json:"total_bytes"`
	DeadBytes   int64  `json:"dead_bytes"`
	ActiveID    uint64 `json:"active_segment"`
	Compactions int64  `json:"compactions"` // since open
}

// Stats reads the current shape.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Segments:    len(s.segs),
		LiveEntries: int64(len(s.index)),
		Compactions: s.compactions.Load(),
	}
	for _, seg := range s.segs {
		st.TotalBytes += seg.size
		st.LiveBytes += seg.live
	}
	st.DeadBytes = st.TotalBytes - st.LiveBytes
	if s.active != nil {
		st.ActiveID = s.active.id
	}
	return st
}

// SegmentStat describes one segment for inspection tools.
type SegmentStat struct {
	ID        uint64 `json:"id"`
	Compacted bool   `json:"compacted"`
	Active    bool   `json:"active"`
	Bytes     int64  `json:"bytes"`
	LiveBytes int64  `json:"live_bytes"`
}

// Segments lists the open segments in id order.
func (s *Store) Segments() []SegmentStat {
	s.mu.RLock()
	out := make([]SegmentStat, 0, len(s.segs))
	for _, seg := range s.segs {
		out = append(out, SegmentStat{
			ID:        seg.id,
			Compacted: seg.compacted,
			Active:    s.active == seg,
			Bytes:     seg.size,
			LiveBytes: seg.live,
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *Store) isClosed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Close waits for any background compaction, closes every segment and
// releases the writer lock. The store is unusable afterwards.
func (s *Store) Close() error {
	s.wmu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wmu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.wmu.Unlock()
	s.wg.Wait()
	s.closeFiles()
	return s.lock.release()
}

// closeFiles closes every open segment handle.
func (s *Store) closeFiles() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
		if seg.wf != nil {
			seg.wf.Close()
		}
	}
}
