package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

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
	return &Cache{dir: dir, salt: codeVersion, st: st, locked: locked}, nil
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

// ServedLayout starts every entry that Cache.store writes, the only
// layout it writes: a one-line compact JSON header,
// {"layout":"served-1","key":…,"fingerprint":…}, a newline, and then
// the value exactly as JSONTask serves it, json.MarshalIndent(v, "",
// "  ") plus a newline. Compact JSON holds a newline only escaped, so
// the first raw newline ends the header, and a prefix test tells the
// layouts apart. Key and Fingerprint are for humans inspecting the
// cache; only the body is read back. JSONTask serves the body as
// stored: only store writes this layout under a code version, and the
// store checks every record's CRC.
const ServedLayout = `{"layout":"served-1",`

// header is an entry's header after its layout field.
type header struct {
	Key         string `json:"key"`
	Fingerprint any    `json:"fingerprint"`
}

// legacyEntry is the layout store wrote before ServedLayout:
// json.MarshalIndent of {key, fingerprint, value} with a one-space
// indent. Entries in it are still read, and a hit rewrites them.
type legacyEntry struct {
	Value json.RawMessage `json:"value"`
}

// load reads the entry under key. An entry in the served layout
// returns its body, decoded into into (a pointer) unless raw is set.
// An entry in the legacy layout is decoded into into and returns a nil
// body: the caller rewrites it. Any failure — an entry that is neither,
// a torn header, an empty or null value, a value that does not decode
// into into — reports a miss so the caller recomputes (the subsequent
// store repairs the entry). A JSON null would "unmarshal" successfully
// into a pointer target by setting it to nil: a poisoned hit.
func (c *Cache) load(key string, into any, raw bool) (json.RawMessage, bool) {
	data, ok, err := c.st.Get(key)
	if err != nil || !ok {
		return nil, false
	}
	if !bytes.HasPrefix(data, []byte(ServedLayout)) {
		var e legacyEntry
		if json.Unmarshal(data, &e) != nil || len(e.Value) == 0 || string(e.Value) == "null" {
			return nil, false
		}
		return nil, json.Unmarshal(e.Value, into) == nil
	}
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return nil, false
	}
	body := data[i+1 : len(data) : len(data)]
	if v := bytes.TrimSpace(body); len(v) == 0 || string(v) == "null" {
		return nil, false
	}
	if !raw && json.Unmarshal(body, into) != nil {
		return nil, false
	}
	return body, true
}

// served returns value as JSONTask serves it, json.MarshalIndent(value,
// "", "  ") plus a newline, after head, in a slice of exact size. The
// compact encoding is indented straight into that slice, so the value
// is held twice (compact and indented), where MarshalIndent and a copy
// would hold it three times.
func served(head []byte, value any) ([]byte, error) {
	data, err := json.Marshal(value)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(head), len(head)+indentLen(data)+1)
	copy(out, head)
	return append(appendIndent(out, data), '\n'), nil
}

// store writes value's entry in the served layout, the only layout it
// writes, and returns the entry's body: the bytes JSONTask serves, nil
// when value does not encode. Persistence failures — including every
// Put on a read-only cache — are swallowed (and counted, once
// instrumented): a cache that cannot persist degrades to recomputation,
// it never fails the sweep.
func (c *Cache) store(key, cellKey string, fingerprint, value any) json.RawMessage {
	h, err := json.Marshal(header{Key: cellKey, Fingerprint: fingerprint})
	if err != nil {
		return nil
	}
	head := append(append([]byte(ServedLayout), h[1:]...), '\n') // h is {"key":…}
	data, err := served(head, value)
	if err != nil {
		return nil
	}
	if err := c.st.Put(key, data); err != nil {
		c.errs.Inc()
	}
	return data[len(head):]
}
