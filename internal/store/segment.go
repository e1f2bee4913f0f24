package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// Segment files are append-only logs of length-prefixed, checksummed
// records. Three kinds of file share the naming scheme:
//
//	seg-00000007.log      plain segment (the highest id is the active one)
//	seg-00000005.cmp      compaction generation: supersedes every
//	                      segment — plain or compacted — with id <= 5
//	seg-00000005.cmp.tmp  compaction output not yet committed; ignored
//	                      and removed on writer open
//
// A record is
//
//	uint32  payload length            (little endian)
//	uint32  CRC32 (IEEE) of payload
//	payload:
//	  byte    flags                   (bit 0: tombstone)
//	  uint32  key length
//	  key bytes
//	  value bytes
//
// Records never span segments. Replay order is: the newest .cmp file
// first, then plain segments with larger ids in ascending id order; a
// later record for the same key supersedes an earlier one, which is
// what makes both recovery and compaction correct.

const (
	segPrefix = "seg-"
	segSuffix = ".log"
	cmpSuffix = ".cmp"
	tmpSuffix = ".tmp"
	lockName  = "LOCK"

	recHdrSize = 8 // payload length + CRC32

	// flagTombstone marks a deletion record: the key's earlier records
	// are dead and the key has no value.
	flagTombstone = 1 << 0

	// maxRecordSize bounds a single record's payload; anything larger
	// during replay is treated as a torn or corrupt length prefix.
	maxRecordSize = 1 << 30
)

// errBadRecord reports a record whose framing or checksum is invalid.
var errBadRecord = errors.New("store: bad record")

// segName renders a segment file name.
func segName(id uint64, compacted bool) string {
	suffix := segSuffix
	if compacted {
		suffix = cmpSuffix
	}
	return fmt.Sprintf("%s%08d%s", segPrefix, id, suffix)
}

// parseSegName parses a segment file name; ok is false for any other
// file (lock file, tmp file, stray cache entry).
func parseSegName(name string) (id uint64, compacted bool, ok bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, false, false
	}
	rest := name[len(segPrefix):]
	switch {
	case strings.HasSuffix(rest, segSuffix):
		rest = rest[:len(rest)-len(segSuffix)]
	case strings.HasSuffix(rest, cmpSuffix):
		rest = rest[:len(rest)-len(cmpSuffix)]
		compacted = true
	default:
		return 0, false, false
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil || rest == "" {
		return 0, false, false
	}
	return id, compacted, true
}

// appendRecord appends the encoded record to buf and returns the
// extended slice.
func appendRecord(buf []byte, flags byte, key string, value []byte) []byte {
	payload := 1 + 4 + len(key) + len(value)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	start := len(buf)
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = append(buf, value...)
	binary.LittleEndian.PutUint32(buf[start-4:start], crc32.ChecksumIEEE(buf[start:]))
	return buf
}

// decodeRecord splits one full record (header included) into its
// parts, verifying framing and checksum. The returned key and value
// alias rec.
func decodeRecord(rec []byte) (flags byte, key []byte, value []byte, err error) {
	if len(rec) < recHdrSize+1+4 {
		return 0, nil, nil, errBadRecord
	}
	plen := binary.LittleEndian.Uint32(rec)
	if int(plen) != len(rec)-recHdrSize {
		return 0, nil, nil, errBadRecord
	}
	crc := binary.LittleEndian.Uint32(rec[4:])
	payload := rec[recHdrSize:]
	if crc32.ChecksumIEEE(payload) != crc {
		return 0, nil, nil, errBadRecord
	}
	flags = payload[0]
	klen := binary.LittleEndian.Uint32(payload[1:])
	if int(klen) > len(payload)-5 {
		return 0, nil, nil, errBadRecord
	}
	key = payload[5 : 5+klen]
	value = payload[5+klen:]
	return flags, key, value, nil
}

// scanBufSize is scanSegment's read buffer. A record that fits in it
// is checked where the reader holds it; a larger one is read into a
// slice the scan reuses.
const scanBufSize = 1 << 20

// scanRec is one valid record a segment scan found: its offset, total
// size (header included), flags and key.
type scanRec struct {
	off, size int64
	flags     byte
	key       string
}

// scanSegment reads records from r and returns the valid ones in file
// order, the offset of the first byte past the last of them and, when
// the scan stopped before a clean EOF (torn or corrupt tail), a
// non-nil reason. The caller decides whether to truncate.
func scanSegment(r io.Reader) (recs []scanRec, good int64, torn error) {
	br := bufio.NewReaderSize(r, scanBufSize)
	var off int64
	var big []byte
	for {
		hdr, err := br.Peek(recHdrSize)
		if err != nil {
			if err == io.EOF && len(hdr) == 0 {
				return recs, off, nil // clean end
			}
			return recs, off, fmt.Errorf("%w: torn header at %d", errBadRecord, off)
		}
		plen := binary.LittleEndian.Uint32(hdr)
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if plen < 5 || plen > maxRecordSize {
			return recs, off, fmt.Errorf("%w: implausible length %d at %d", errBadRecord, plen, off)
		}
		br.Discard(recHdrSize)
		var payload []byte
		inPlace := int(plen) <= br.Size()
		if inPlace {
			payload, err = br.Peek(int(plen))
		} else {
			// Grow big as bytes arrive rather than trusting a length
			// prefix that may be torn.
			big = big[:0]
			for len(big) < int(plen) && err == nil {
				var chunk []byte
				chunk, err = br.Peek(min(int(plen)-len(big), br.Size()))
				big = append(big, chunk...)
				br.Discard(len(chunk))
			}
			payload = big
		}
		if err != nil {
			return recs, off, fmt.Errorf("%w: torn payload at %d", errBadRecord, off)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return recs, off, fmt.Errorf("%w: checksum mismatch at %d", errBadRecord, off)
		}
		flags := payload[0]
		klen := binary.LittleEndian.Uint32(payload[1:])
		if int(klen) > len(payload)-5 {
			return recs, off, fmt.Errorf("%w: key length overruns payload at %d", errBadRecord, off)
		}
		size := int64(recHdrSize) + int64(plen)
		recs = append(recs, scanRec{off: off, size: size, flags: flags, key: string(payload[5 : 5+klen])})
		if inPlace {
			br.Discard(int(plen))
		}
		off += size
	}
}
