package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// replayFile is one segment file in replay order, as the oracle sees it.
type replayFile struct {
	id        uint64
	compacted bool
	path      string
}

// replayFiles lists dir's segment files in replay order: the newest
// compaction generation, then the plain segments younger than it by id.
func replayFiles(t testing.TB, dir string) []replayFile {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cmp *replayFile
	var plains []replayFile
	for _, ent := range ents {
		id, compacted, ok := parseSegName(ent.Name())
		if !ok {
			continue
		}
		rf := replayFile{id: id, compacted: compacted, path: filepath.Join(dir, ent.Name())}
		if compacted {
			if cmp == nil || id > cmp.id {
				cmp = &rf
			}
		} else {
			plains = append(plains, rf)
		}
	}
	sort.Slice(plains, func(i, j int) bool { return plains[i].id < plains[j].id })
	var out []replayFile
	if cmp != nil {
		out = append(out, *cmp)
	}
	for _, p := range plains {
		if cmp == nil || p.id > cmp.id {
			out = append(out, p)
		}
	}
	return out
}

// oracleState is what a reopen must rebuild, computed by replaying
// whole files one record at a time.
type oracleState struct {
	values map[string]string
	stats  Stats
	good   map[string]int64 // path → bytes before the first bad record
	torn   int
}

// oracleReplay decodes the files in order and applies every valid
// record, stopping each file at its first bad one. writer says whether
// the open it models appends (and so may start a fresh segment).
func oracleReplay(t testing.TB, files []replayFile, target int64, writer bool) oracleState {
	t.Helper()
	st := oracleState{values: map[string]string{}, good: map[string]int64{}}
	sizes := map[string]int64{} // live key → its record's size
	var lastPlain *replayFile
	var lastPlainGood int64
	maxID := uint64(0)
	for i, rf := range files {
		data, err := os.ReadFile(rf.path)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for off < len(data) {
			if len(data)-off < recHdrSize {
				break
			}
			plen := int(binary.LittleEndian.Uint32(data[off:]))
			if plen < 5 || plen > len(data)-off-recHdrSize {
				break
			}
			payload := data[off+recHdrSize : off+recHdrSize+plen]
			if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
				break
			}
			klen := int(binary.LittleEndian.Uint32(payload[1:]))
			if klen > plen-5 {
				break
			}
			key := string(payload[5 : 5+klen])
			if payload[0]&flagTombstone != 0 {
				delete(st.values, key)
				delete(sizes, key)
			} else {
				st.values[key] = string(payload[5+klen:])
				sizes[key] = int64(recHdrSize + plen)
			}
			off += recHdrSize + plen
		}
		if off < len(data) {
			st.torn++
		}
		st.good[rf.path] = int64(off)
		st.stats.TotalBytes += int64(off)
		if !rf.compacted {
			lastPlain, lastPlainGood = &files[i], int64(off)
		}
		if rf.id > maxID {
			maxID = rf.id
		}
	}
	for _, n := range sizes {
		st.stats.LiveBytes += n
	}
	st.stats.LiveEntries = int64(len(st.values))
	st.stats.DeadBytes = st.stats.TotalBytes - st.stats.LiveBytes
	st.stats.Segments = len(files)
	if lastPlain != nil {
		st.stats.ActiveID = lastPlain.id
	}
	if writer && (lastPlain == nil || lastPlainGood >= target) {
		st.stats.Segments++
		st.stats.ActiveID = maxID + 1
	}
	return st
}

// checkAgainstOracle compares an open store with the oracle's replay.
func checkAgainstOracle(t *testing.T, mode string, s *Store, want oracleState) {
	t.Helper()
	got := map[string]string{}
	for _, k := range s.Keys() {
		v, ok, err := s.Get(k)
		if err != nil || !ok {
			t.Fatalf("%s: get %q: %v, %v", mode, k, ok, err)
		}
		got[k] = string(v)
	}
	if !reflect.DeepEqual(got, want.values) {
		t.Fatalf("%s: entries\n got %v\nwant %v", mode, got, want.values)
	}
	if st := s.Stats(); st != want.stats {
		t.Fatalf("%s: stats\n got %+v\nwant %+v", mode, st, want.stats)
	}
	if s.truncations != int64(want.torn) {
		t.Fatalf("%s: %d truncations, want %d", mode, s.truncations, want.torn)
	}
}

// FuzzRecover builds a multi-segment store from a fuzzed list of puts,
// overwrites, deletes and compactions, damages one segment file
// (truncation or a flipped byte, middle segments included), and checks
// that read-only and writer reopens rebuild exactly what a sequential,
// one-record-at-a-time replay of the files does.
//
// ops: each byte is one operation; its low 3 bits pick one of 8 keys,
// its high 3 bits the kind (0-5 put, 6 delete, 7 compact).
// pick chooses the damaged file, cut whether to truncate it (odd) or
// flip a byte (even), pos where, and flip the XOR mask.
func FuzzRecover(f *testing.F) {
	// Overwrites across segments: replaying segments out of order
	// resurrects the older values.
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa0, 0x01, 0x22, 0x43, 0xc1, 0x04, 0x25}, uint8(0), uint8(0), uint16(0), uint8(0))
	// A flipped byte in the first segment: later segments still replay.
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa0, 0x01, 0x22, 0x43, 0xc1, 0x04, 0x25}, uint8(0), uint8(0), uint16(20), uint8(0x40))
	// A middle segment truncated mid-record.
	f.Add([]byte{0x00, 0x21, 0x42, 0x63, 0x84, 0xa0, 0x01, 0x22, 0x43, 0xc1, 0x04, 0x25}, uint8(2), uint8(1), uint16(30), uint8(0))
	// A compaction generation, then younger segments, with the
	// generation damaged.
	f.Add([]byte{0x00, 0x21, 0x02, 0x63, 0xc0, 0xe0, 0x05, 0x26, 0x07, 0xc6, 0x21}, uint8(0), uint8(0), uint16(9), uint8(0x01))
	f.Fuzz(func(t *testing.T, ops []byte, pick, cut uint8, pos uint16, flip uint8) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		const target = 96
		opts := Options{TargetSegmentSize: target, NoAutoCompact: true}
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range ops {
			key := fmt.Sprintf("k%d", b&7)
			switch kind := b >> 5; {
			case kind <= 5:
				err = s.Put(key, []byte(fmt.Sprintf("%d:%s", i, strings.Repeat("v", int(b)%23))))
			case kind == 6:
				err = s.Delete(key)
			default:
				err = s.Compact()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		files := replayFiles(t, dir)
		victim := files[int(pick)%len(files)].path
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatal(err)
		}
		if cut%2 == 1 {
			data = data[:int(pos)%(len(data)+1)]
		} else if len(data) > 0 {
			data[int(pos)%len(data)] ^= flip | 1
		}
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatal(err)
		}

		ro, err := Open(dir, Options{ReadOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, "read-only", ro, oracleReplay(t, files, target, false))
		ro.Close()
		if fi, err := os.Stat(victim); err != nil || fi.Size() != int64(len(data)) {
			t.Fatalf("read-only open changed %s: %v", victim, err)
		}

		want := oracleReplay(t, files, target, true)
		w, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		checkAgainstOracle(t, "writer", w, want)
		for path, good := range want.good {
			if fi, err := os.Stat(path); err != nil || fi.Size() != good {
				t.Fatalf("writer open left %s other than %d bytes long (%v)", path, good, err)
			}
		}
	})
}

func TestRecoverRecordLargerThanScanBuffer(t *testing.T) {
	// Records up to the scan buffer are checked in place; a larger one
	// goes through the scan's own slice, intact or torn.
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{NoAutoCompact: true})
	big := strings.Repeat("0123456789abcdef", 2*scanBufSize/16+1)
	put(t, s, "a", "before")
	put(t, s, "big", big)
	put(t, s, "z", "after")
	path := activeSegPath(s)
	bigEnd := s.Stats().TotalBytes - int64(len(appendRecord(nil, 0, "z", []byte("after"))))
	s.Close()

	r := mustOpen(t, dir, Options{ReadOnly: true})
	verify(t, r, map[string]string{"a": "before", "big": big, "z": "after"})
	r.Close()

	if err := os.Truncate(path, bigEnd-scanBufSize/2); err != nil {
		t.Fatal(err)
	}
	w := mustOpen(t, dir, Options{NoAutoCompact: true})
	verify(t, w, map[string]string{"a": "before"})
	if w.truncations != 1 {
		t.Fatalf("%d truncations, want 1", w.truncations)
	}
}
