package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/store"
)

// DefaultCacheDir is where commands keep their result cache.
const DefaultCacheDir = ".beffcache"

// codeVersion salts every cache key. Bump it whenever a change to the
// simulator or the benchmarks alters results: old entries then miss by
// construction instead of serving stale protocols.
const codeVersion = "beff-sim-v1"

// Cache is a content-addressed result store: SHA-256 of (code-version
// salt, canonical-JSON fingerprint) names an entry, kept in an embedded
// segment-log store (internal/store) under dir. Safe for concurrent use
// by sweep workers; entries are immutable for a given key.
type Cache struct {
	dir  string
	salt string
	st   *store.Store

	// locked is why the store opened read-only: another process holds
	// its writer lock. nil when this cache persists its results.
	locked error

	// Swallowed persistence failures; nil until Instrument, and a nil
	// obs counter is a no-op.
	errs *obs.Counter

	// verified is the set of keys whose stored entry, rendered by
	// renderStored, is known to be the bytes JSONTask would render
	// through the typed value: keys this cache stored itself, and keys
	// whose first hit here rendered both ways byte-equal. A key stays
	// valid because the store changes under a cache only through store:
	// the writer lock keeps other writers out, a read-only store is a
	// snapshot, and Get checks every record's CRC.
	verified *sync.Map
}

// OpenCache creates dir (if needed) and returns a cache rooted there.
// An empty dir means DefaultCacheDir. When another process holds the
// store's writer lock, the cache opens the store read-only: hits on
// what the holder has persisted are still served, and results this
// process computes are not persisted (each failed Put counts in
// runner_cache_store_errors_total). ReadOnly reports that case; any
// other failure is returned.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	st, err := store.Open(dir, store.Options{})
	var locked error
	if errors.Is(err, store.ErrLocked) {
		locked = err
		st, err = store.Open(dir, store.Options{ReadOnly: true})
	}
	if err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{dir: dir, salt: codeVersion, st: st, locked: locked, verified: new(sync.Map)}, nil
}

// Dir reports the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// ReadOnly reports why the cache cannot persist results (another
// process holds the store's writer lock), or nil when it can.
func (c *Cache) ReadOnly() error { return c.locked }

// Close releases the store's writer lock and file handles. A nil cache
// has nothing to release.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	return c.st.Close()
}

// Instrument attaches observability: the cache's persistence-failure
// counter and the full store_* instrument set.
func (c *Cache) Instrument(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.errs = reg.Counter("runner_cache_store_errors_total")
	c.st.SetMetrics(&store.Metrics{
		Puts:                reg.Counter("store_puts_total"),
		Gets:                reg.Counter("store_gets_total"),
		GetMisses:           reg.Counter("store_get_misses_total"),
		Deletes:             reg.Counter("store_deletes_total"),
		Compactions:         reg.Counter("store_compactions_total"),
		ReclaimedBytes:      reg.Counter("store_compaction_bytes_reclaimed_total"),
		RecoveryTruncations: reg.Counter("store_recovery_truncations_total"),
		Segments:            reg.Gauge("store_segments"),
		LiveEntries:         reg.Gauge("store_entries_live"),
		LiveBytes:           reg.Gauge("store_bytes_live"),
		DeadBytes:           reg.Gauge("store_bytes_dead"),
	})
}

// withSalt returns a copy of the cache keyed under a different code
// version, sharing the store. Test hook for salt invalidation.
func (c *Cache) withSalt(salt string) *Cache {
	cp := *c
	cp.salt = salt
	return &cp
}

// keyFor hashes a fingerprint into the entry name.
func (c *Cache) keyFor(fingerprint any) (string, error) {
	return fingerprintKey(c.salt, fingerprint)
}

// taskKey is cellKey for a fingerprint whose FingerprintKey is hash.
// Under the code-version salt the two are the same SHA-256, so only a
// cache keyed under another salt (withSalt) hashes the fingerprint
// again.
func (c *Cache) taskKey(fingerprint any, hash string) string {
	if c != nil && c.salt == codeVersion {
		return hash
	}
	return c.cellKey(fingerprint)
}

// cellKey is the cache key of a cell's fingerprint, or "" when the
// cell bypasses the cache: no cache, no fingerprint, or a fingerprint
// that does not marshal.
func (c *Cache) cellKey(fingerprint any) string {
	if c == nil || fingerprint == nil {
		return ""
	}
	k, err := c.keyFor(fingerprint)
	if err != nil {
		return ""
	}
	return k
}

// FingerprintKey reports the content-addressed identity of a cell
// fingerprint under the current code version — the same hex SHA-256
// that names the fingerprint's cache entry. The service layer dedupes
// in-flight work by this key, so two requests share an execution
// exactly when they would share a cache entry.
func FingerprintKey(fingerprint any) (string, error) {
	return fingerprintKey(codeVersion, fingerprint)
}

// fingerprintKey hashes (salt, canonical JSON fingerprint).
// encoding/json is canonical enough for this: struct fields marshal
// in declaration order and map keys are sorted.
func fingerprintKey(salt string, fingerprint any) (string, error) {
	fp, err := json.Marshal(fingerprint)
	if err != nil {
		return "", fmt.Errorf("runner: fingerprint not hashable: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(salt))
	h.Write([]byte{'\n'})
	h.Write(fp)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// entry is the stored format, written by json.MarshalIndent with a
// one-space indent. Key and Fingerprint are for humans inspecting the
// cache; only Value is read back.
type entry struct {
	Key         string          `json:"key"`
	Fingerprint json.RawMessage `json:"fingerprint"`
	Value       json.RawMessage `json:"value"`
}

// load reads the entry under key, decodes its value into into (a
// pointer) and returns the stored entry. Any failure — truncated or
// corrupted JSON, a null value, a value that does not decode into
// into — reports a miss so the caller recomputes (the subsequent store
// repairs the entry).
func (c *Cache) load(key string, into any) ([]byte, bool) {
	data, ok, err := c.st.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	var e entry
	if json.Unmarshal(data, &e) != nil || len(e.Value) == 0 || string(e.Value) == "null" {
		// A JSON null would "unmarshal" successfully into a pointer
		// target by setting it to nil — a poisoned hit. Treat it as the
		// corruption it is and recompute.
		return nil, false
	}
	if json.Unmarshal(e.Value, into) != nil {
		return nil, false
	}
	return data, true
}

// verifiedValue is a verified key's stored entry rendered by
// renderStored, without load's decodes; any other key reports a miss.
func (c *Cache) verifiedValue(key string) (json.RawMessage, bool) {
	if key == "" {
		return nil, false
	}
	if _, ok := c.verified.Load(key); !ok {
		return nil, false
	}
	data, ok, err := c.st.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	return renderStored(data)
}

// Stored entries and JSONTask values, as Layouts: store writes the
// entry's three fields one space deep, and JSONTask renders a value
// the way json.MarshalIndent(v, "", "  ") does.
var (
	entryLayout = Layout{Prefix: 1, Indent: 1}
	valueLayout = Layout{Prefix: 0, Indent: 2}
)

// valueField starts the value's line in an entry laid out as store
// writes it. Every other line of that layout that starts one space
// deep is the key, the fingerprint or the fingerprint's last line, so
// the first match is the value, and the value is the last field.
var valueField = []byte("\n \"value\": ")

// renderStored renders the value of a stored entry as JSONTask renders
// the typed value, json.MarshalIndent(v, "", "  ") plus a newline: it
// re-indents the value's lines (AppendReindent) into a slice of the
// exact size. For an entry that store wrote the bytes are equal by
// construction: the entry holds json.Marshal(v) indented one space
// deep, so its lines at two spaces from the margin are
// json.MarshalIndent(v, "", "  "). An entry laid out any other way
// renders something else, or reports false, and never compares equal
// to the typed rendering. A null value reports false, as load does.
func renderStored(data []byte) (json.RawMessage, bool) {
	i := bytes.Index(data, valueField)
	if i < 0 || !bytes.HasSuffix(data, []byte("\n}")) {
		return nil, false
	}
	v := data[i+len(valueField) : len(data)-2]
	if string(v) == "null" {
		return nil, false
	}
	n, ok := ReindentLen(v, entryLayout, valueLayout)
	if !ok {
		return nil, false
	}
	out := AppendReindent(make(json.RawMessage, 0, n+1), v, entryLayout, valueLayout)
	return append(out, '\n'), true
}

// store writes an entry. Failures — including every Put on a read-only
// cache — are swallowed (and counted, once instrumented): a cache that
// cannot persist degrades to recomputation, it never fails the sweep.
func (c *Cache) store(key, cellKey string, fingerprint, value any) {
	val, err := json.Marshal(value)
	if err != nil {
		return
	}
	fp, err := json.Marshal(fingerprint)
	if err != nil {
		return
	}
	data, err := json.MarshalIndent(entry{Key: cellKey, Fingerprint: fp, Value: val}, "", " ")
	if err != nil {
		return
	}
	if err := c.st.Put(key, data); err != nil {
		c.errs.Inc()
		return
	}
	// The entry has the layout renderStored reads.
	c.verified.Store(key, struct{}{})
}
