package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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

// entry is the stored format. Key and Fingerprint are for humans
// inspecting the cache; only Value is read back.
type entry struct {
	Key         string          `json:"key"`
	Fingerprint json.RawMessage `json:"fingerprint"`
	Value       json.RawMessage `json:"value"`
}

// decodeEntry unpacks a stored entry document into the pointer `into`.
// Any failure — truncated or corrupted JSON, value shape mismatch —
// reports false so the caller treats it as a miss and recomputes.
func decodeEntry(data []byte, into any) bool {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return false
	}
	if len(e.Value) == 0 || string(e.Value) == "null" {
		// A JSON null would "unmarshal" successfully into a pointer
		// target by setting it to nil — a poisoned hit. Treat it as the
		// corruption it is and recompute.
		return false
	}
	return json.Unmarshal(e.Value, into) == nil
}

// load reads an entry into the pointer `into`, reporting a miss on any
// failure so the caller recomputes (the subsequent store repairs the
// entry).
func (c *Cache) load(key string, into any) bool {
	data, ok, err := c.st.Get(key)
	return err == nil && ok && decodeEntry(data, into)
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
	}
}

// FlatEntries lists the legacy flat cache files in dir — one
// <64 hex chars>.json document per entry, the layout caches had before
// the segment store — in name order (os.ReadDir sorts).
func FlatEntries(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, ent := range ents {
		name := ent.Name()
		stem, ok := strings.CutSuffix(name, ".json")
		if ent.IsDir() || !ok || len(stem) != 64 || strings.Trim(stem, "0123456789abcdef") != "" {
			continue
		}
		out = append(out, name)
	}
	return out
}

// MigrateFlat moves dir's legacy flat entries into st, which must be
// open for writing: each file's bytes become the store record under
// its file name's key, verbatim, and the file is removed once the
// store holds it. Unreadable or damaged files are left in place and
// listed in skipped.
func MigrateFlat(st *store.Store, dir string) (moved int, skipped []string, err error) {
	for _, name := range FlatEntries(dir) {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		var raw json.RawMessage
		if err != nil || !decodeEntry(data, &raw) {
			skipped = append(skipped, name)
			continue
		}
		if err := st.Put(strings.TrimSuffix(name, ".json"), data); err != nil {
			return moved, skipped, err
		}
		os.Remove(path)
		moved++
	}
	return moved, skipped, nil
}
