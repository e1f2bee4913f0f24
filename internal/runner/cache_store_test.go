package runner

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/store"
)

// Tests for the store-backed cache: a second opener while another
// process holds the writer lock, the store's own temp-file reaping,
// poisoned entries and write races.

func TestSecondOpenerServesHitsReadOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	holder, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	var runs atomic.Int32
	held := countingCell(&runs, fp{Machine: "held", Procs: 1}, 11)
	Sweep([]Cell[int]{held}, Options{Cache: holder})

	// A second cache on the same directory cannot take the writer lock;
	// it must open read-only instead of failing.
	second, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if !errors.Is(second.ReadOnly(), store.ErrLocked) {
		t.Fatalf("second opener: ReadOnly() = %v, want ErrLocked", second.ReadOnly())
	}
	reg := obs.New()
	second.Instrument(reg)
	before := dirListing(t, dir)
	storeLen := holder.st.Len()

	fresh := countingCell(&runs, fp{Machine: "fresh", Procs: 1}, 22)
	res := Sweep([]Cell[int]{held, fresh}, Options{Cache: second})
	if !res[0].Cached || res[0].Value != 11 {
		t.Fatalf("holder's entry not served: %+v", res[0])
	}
	if res[1].Cached || res[1].Err != nil || res[1].Value != 22 || runs.Load() != 2 {
		t.Fatalf("fresh cell: runs=%d %+v", runs.Load(), res[1])
	}
	if got := reg.Counter("runner_cache_store_errors_total").Value(); got != 1 {
		t.Fatalf("failed Puts counted = %d, want 1", got)
	}
	if after := dirListing(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("second opener changed the directory:\nbefore %v\nafter  %v", before, after)
	}
	if holder.st.Len() != storeLen {
		t.Fatalf("store grew from %d to %d entries", storeLen, holder.st.Len())
	}
	if res := Sweep([]Cell[int]{fresh}, Options{Cache: holder}); res[0].Cached {
		t.Fatal("the read-only opener's result reached the store")
	}
}

// dirListing maps each file in dir to its size.
func dirListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = info.Size()
	}
	return out
}

func TestGCLeavesStoreTempFilesToTheStore(t *testing.T) {
	// seg-*.tmp is an uncommitted compaction output. Only the store,
	// under its writer lock, knows no compactor still owns it: a
	// read-only second opener must leave it alone, and the next writer
	// reaps it during recovery.
	dir := filepath.Join(t.TempDir(), "cache")
	holder, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	segTmp := filepath.Join(dir, "seg-00000009.cmp.tmp")
	if err := os.WriteFile(segTmp, []byte("merge in progress"), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	second.Close()
	if _, err := os.Stat(segTmp); err != nil {
		t.Fatalf("read-only opener touched the store's temp file: %v", err)
	}
	holder.Close()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := os.Stat(segTmp); !os.IsNotExist(err) {
		t.Fatalf("store did not reap its own temp file: %v", err)
	}
}

func TestStorePoisonedEntryRecomputedAndRepaired(t *testing.T) {
	cache := openTestCache(t)
	var runs atomic.Int32
	cell := countingCell(&runs, fp{Machine: "poisoned", Procs: 3}, 21)
	Sweep([]Cell[int]{cell}, Options{Cache: cache})
	key, err := cache.keyFor(cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	for _, poison := range []string{
		"{truncated",
		`{"key":"x","fingerprint":{},"value":null}`,
		`{"key":"x","value":"not an int"}`,
		"",
	} {
		// A partial or corrupt write inside the store: the entry document
		// is damaged even though the record framing is intact.
		if err := cache.st.Put(key, []byte(poison)); err != nil {
			t.Fatal(err)
		}
		before := runs.Load()
		res := Sweep([]Cell[int]{cell}, Options{Cache: cache})
		if res[0].Cached || res[0].Err != nil || res[0].Value != 21 {
			t.Fatalf("poisoned entry %q served: %+v", poison, res[0])
		}
		if runs.Load() != before+1 {
			t.Fatalf("poisoned entry %q: body not re-invoked", poison)
		}
		res = Sweep([]Cell[int]{cell}, Options{Cache: cache})
		if !res[0].Cached || res[0].Value != 21 {
			t.Fatalf("entry not repaired after poison %q: %+v", poison, res[0])
		}
	}
}

func TestConcurrentSameKeyWriters(t *testing.T) {
	// Sweep workers deduplicate in-flight work, but nothing stops two
	// processes' worth of goroutines racing store() on one key. Last
	// write wins; no torn reads; no errors surface.
	t.Run("store", func(t *testing.T) {
		c := openTestCache(t)
		fingerprint := fp{Machine: "race", Procs: 1}
		key, err := c.keyFor(fingerprint)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					c.store(key, "race-cell", fingerprint, 42)
					var got int
					if c.load(key, &got) && got != 42 {
						t.Errorf("torn read: %d", got)
						return
					}
				}
			}()
		}
		wg.Wait()
		var got int
		if !c.load(key, &got) || got != 42 {
			t.Fatalf("final value = %d", got)
		}
	})
}

func TestStoreErrorsCounterOnClosedBackend(t *testing.T) {
	// Persistence failures are swallowed but counted. Closing the store
	// out from under the cache makes every Put fail deterministically.
	c, err := OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	c.Instrument(reg)
	c.st.Close()
	var runs atomic.Int32
	cell := countingCell(&runs, fp{Machine: "err", Procs: 1}, 5)
	res := Sweep([]Cell[int]{cell}, Options{Cache: c})
	if res[0].Err != nil || res[0].Value != 5 {
		t.Fatalf("persistence failure leaked into the result: %+v", res[0])
	}
	if got := reg.Counter("runner_cache_store_errors_total").Value(); got == 0 {
		t.Fatal("swallowed store failure not counted")
	}
}
