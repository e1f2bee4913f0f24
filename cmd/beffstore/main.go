// Command beffstore inspects and maintains the segment-log result
// store behind the sweep cache (.beffcache/). The read commands open
// the store read-only, so they work while a beff command or beffd
// holds the writer lock; the maintenance commands need the lock and
// say so when a daemon has it.
//
// Usage:
//
//	beffstore [-cache DIR] stats                  store shape + per-segment table
//	beffstore [-cache DIR] ls [-v]                live keys (with -v: cell key, size)
//	beffstore [-cache DIR] get <key>              one raw entry document
//	beffstore [-cache DIR] verify                 replay + checksum + decode every entry
//	beffstore [-cache DIR] compact                merge sealed segments, drop dead records
//	beffstore [-cache DIR] migrate                import legacy flat *.json entries
//	beffstore [-cache DIR] bench [flags]          store-vs-flat latency benchmark
//
// The bench subcommand builds throwaway store and flat caches of
// -entries entries and measures random point lookups and whole-cache
// scans on both, reporting avg/median/p95 latencies as JSON (the
// committed BENCH_store.json is its output).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// entryDoc mirrors the cache's stored entry document (runner's
// unexported entry type): what the store keeps per key, and what each
// legacy flat file held.
type entryDoc struct {
	Key         string          `json:"key"`
	Fingerprint json.RawMessage `json:"fingerprint"`
	Value       json.RawMessage `json:"value"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("beffstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("cache", runner.DefaultCacheDir, "cache directory holding the store")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: beffstore [-cache DIR] <stats|ls|get|verify|compact|migrate|bench> [args]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	fail := func(err error) int {
		if errors.Is(err, store.ErrLocked) {
			fmt.Fprintf(stderr, "beffstore: %v (is beffd or a sweep running? read commands still work)\n", err)
		} else {
			fmt.Fprintf(stderr, "beffstore: %v\n", err)
		}
		return 1
	}

	switch cmd {
	case "stats":
		st, err := store.Open(*dir, store.Options{ReadOnly: true})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		out := struct {
			Dir      string              `json:"dir"`
			Stats    store.Stats         `json:"stats"`
			Segments []store.SegmentStat `json:"segments"`
			FlatLeft int                 `json:"flat_entries_not_migrated"`
		}{Dir: *dir, Stats: st.Stats(), Segments: st.Segments(), FlatLeft: len(runner.FlatEntries(*dir))}
		writeJSON(stdout, out)
		return 0

	case "ls":
		sub := flag.NewFlagSet("ls", flag.ContinueOnError)
		sub.SetOutput(stderr)
		verbose := sub.Bool("v", false, "also print the human cell key and entry size")
		if err := sub.Parse(rest); err != nil {
			return 2
		}
		st, err := store.Open(*dir, store.Options{ReadOnly: true})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		err = st.Scan(func(key string, value []byte) error {
			if !*verbose {
				fmt.Fprintln(stdout, key)
				return nil
			}
			var e entryDoc
			cell := "?"
			if json.Unmarshal(value, &e) == nil && e.Key != "" {
				cell = e.Key
			}
			fmt.Fprintf(stdout, "%s  %8d  %s\n", key, len(value), cell)
			return nil
		})
		if err != nil {
			return fail(err)
		}
		return 0

	case "get":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "usage: beffstore [-cache DIR] get <key>")
			return 2
		}
		st, err := store.Open(*dir, store.Options{ReadOnly: true})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		v, ok, err := st.Get(rest[0])
		if err != nil {
			return fail(err)
		}
		if !ok {
			fmt.Fprintf(stderr, "beffstore: no entry %q\n", rest[0])
			return 1
		}
		stdout.Write(v)
		if len(v) > 0 && v[len(v)-1] != '\n' {
			io.WriteString(stdout, "\n")
		}
		return 0

	case "verify":
		st, err := store.Open(*dir, store.Options{ReadOnly: true})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		// Scan re-reads every record through the CRC check; on top of
		// that, every entry document must decode and carry a value.
		entries, bytes, bad := 0, int64(0), 0
		scanErr := st.Scan(func(key string, value []byte) error {
			entries++
			bytes += int64(len(value))
			var e entryDoc
			if err := json.Unmarshal(value, &e); err != nil || len(e.Value) == 0 || string(e.Value) == "null" {
				bad++
				fmt.Fprintf(stderr, "beffstore: entry %s: damaged document\n", key)
			}
			return nil
		})
		if scanErr != nil {
			return fail(scanErr)
		}
		fmt.Fprintf(stdout, "verified %d entries, %d bytes, %d damaged\n", entries, bytes, bad)
		if bad > 0 {
			return 1
		}
		return 0

	case "compact":
		st, err := store.Open(*dir, store.Options{NoAutoCompact: true})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		before := st.Stats()
		if err := st.Compact(); err != nil {
			return fail(err)
		}
		after := st.Stats()
		fmt.Fprintf(stdout, "compacted: %d -> %d segments, %d -> %d bytes (%d reclaimed), %d live entries\n",
			before.Segments, after.Segments, before.TotalBytes, after.TotalBytes,
			before.TotalBytes-after.TotalBytes, after.LiveEntries)
		return 0

	case "migrate":
		st, err := store.Open(*dir, store.Options{NoAutoCompact: true})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		moved, skipped, err := runner.MigrateFlat(st, *dir)
		for _, name := range skipped {
			fmt.Fprintf(stderr, "beffstore: skipping unreadable or damaged flat entry %s\n", name)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "migrated %d flat entries, skipped %d; store now holds %d\n", moved, len(skipped), st.Len())
		return 0

	case "bench":
		return runBench(rest, stdout, stderr)

	default:
		fmt.Fprintf(stderr, "beffstore: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
}

func writeJSON(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// latencyStats summarises a latency sample in nanoseconds.
type latencyStats struct {
	AvgNs    float64 `json:"avg_ns"`
	MedianNs float64 `json:"median_ns"`
	P95Ns    float64 `json:"p95_ns"`
}

func summarize(samples []time.Duration) latencyStats {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	pick := func(q float64) float64 {
		i := int(q * float64(len(samples)-1))
		return float64(samples[i].Nanoseconds())
	}
	return latencyStats{
		AvgNs:    float64(sum.Nanoseconds()) / float64(len(samples)),
		MedianNs: pick(0.5),
		P95Ns:    pick(0.95),
	}
}

// benchReport is the BENCH_store.json document.
type benchReport struct {
	Generated  string `json:"generated"`
	GoVersion  string `json:"go_version"`
	Entries    int    `json:"entries"`
	ValueBytes int    `json:"value_bytes"`
	Lookups    int    `json:"lookups"`
	Scans      int    `json:"scans"`
	Backends   []struct {
		Backend     string       `json:"backend"`
		PointLookup latencyStats `json:"point_lookup"`
		FullScan    latencyStats `json:"full_scan"`
		DiskBytes   int64        `json:"disk_bytes"`
		Files       int          `json:"files"`
	} `json:"backends"`
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	entries := fs.Int("entries", 12000, "cache entries to build each backend with")
	valueBytes := fs.Int("value-bytes", 2048, "payload bytes per entry (before the JSON envelope)")
	lookups := fs.Int("lookups", 20000, "random point lookups to time (OLTP pattern)")
	scans := fs.Int("scans", 5, "whole-cache scans to time (OLAP pattern)")
	out := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, err := os.MkdirTemp("", "beffstore-bench-*")
	if err != nil {
		fmt.Fprintf(stderr, "beffstore: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Entries:    *entries,
		ValueBytes: *valueBytes,
		Lookups:    *lookups,
		Scans:      *scans,
	}

	// The entry documents are identical across layouts: the envelope
	// the runner cache writes, around an opaque payload.
	fmt.Fprintf(stderr, "beffstore: building %d-entry corpora (%d payload bytes each)...\n", *entries, *valueBytes)
	keys := make([]string, *entries)
	docs := make([][]byte, *entries)
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, *valueBytes)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15)
		rng.Read(payload)
		val, _ := json.Marshal(payload) // []byte marshals to a base64 JSON string
		doc, _ := json.MarshalIndent(entryDoc{
			Key:         fmt.Sprintf("bench:cell@%d", i),
			Fingerprint: json.RawMessage(fmt.Sprintf(`{"cell":%d}`, i)),
			Value:       val,
		}, "", " ")
		docs[i] = doc
	}

	// The two layouts compared: the segment-log store the cache uses, and
	// a flat directory of one file per entry, the layout it replaced.
	const backendStore, backendFlat = "store", "flat"
	for _, backend := range []string{backendStore, backendFlat} {
		dir := filepath.Join(work, backend)
		var get func(key string, i int) ([]byte, error)
		var scan func() (int, error)

		switch backend {
		case backendStore:
			st, err := store.Open(dir, store.Options{NoAutoCompact: true})
			if err != nil {
				fmt.Fprintf(stderr, "beffstore: %v\n", err)
				return 1
			}
			defer st.Close()
			for i, k := range keys {
				if err := st.Put(k, docs[i]); err != nil {
					fmt.Fprintf(stderr, "beffstore: %v\n", err)
					return 1
				}
			}
			get = func(key string, _ int) ([]byte, error) {
				v, ok, err := st.Get(key)
				if err == nil && !ok {
					err = fmt.Errorf("missing key %s", key)
				}
				return v, err
			}
			scan = func() (int, error) {
				n := 0
				err := st.Scan(func(_ string, v []byte) error { n += len(v); return nil })
				return n, err
			}
		case backendFlat:
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(stderr, "beffstore: %v\n", err)
				return 1
			}
			for i, k := range keys {
				if err := os.WriteFile(filepath.Join(dir, k+".json"), docs[i], 0o644); err != nil {
					fmt.Fprintf(stderr, "beffstore: %v\n", err)
					return 1
				}
			}
			get = func(key string, _ int) ([]byte, error) {
				return os.ReadFile(filepath.Join(dir, key+".json"))
			}
			scan = func() (int, error) {
				ents, err := os.ReadDir(dir)
				if err != nil {
					return 0, err
				}
				n := 0
				for _, ent := range ents {
					v, err := os.ReadFile(filepath.Join(dir, ent.Name()))
					if err != nil {
						return 0, err
					}
					n += len(v)
				}
				return n, nil
			}
		}

		fmt.Fprintf(stderr, "beffstore: timing %s backend...\n", backend)
		lookupRng := rand.New(rand.NewSource(2))
		samples := make([]time.Duration, *lookups)
		for i := range samples {
			k := keys[lookupRng.Intn(len(keys))]
			t0 := time.Now()
			if _, err := get(k, i); err != nil {
				fmt.Fprintf(stderr, "beffstore: %s lookup: %v\n", backend, err)
				return 1
			}
			samples[i] = time.Since(t0)
		}
		scanSamples := make([]time.Duration, *scans)
		for i := range scanSamples {
			t0 := time.Now()
			if _, err := scan(); err != nil {
				fmt.Fprintf(stderr, "beffstore: %s scan: %v\n", backend, err)
				return 1
			}
			scanSamples[i] = time.Since(t0)
		}

		var diskBytes int64
		files := 0
		filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if info, err := d.Info(); err == nil {
				diskBytes += info.Size()
				files++
			}
			return nil
		})
		b := struct {
			Backend     string       `json:"backend"`
			PointLookup latencyStats `json:"point_lookup"`
			FullScan    latencyStats `json:"full_scan"`
			DiskBytes   int64        `json:"disk_bytes"`
			Files       int          `json:"files"`
		}{
			Backend:     backend,
			PointLookup: summarize(samples),
			FullScan:    summarize(scanSamples),
			DiskBytes:   diskBytes,
			Files:       files,
		}
		rep.Backends = append(rep.Backends, b)
	}

	writeJSON(stdout, rep)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "beffstore: %v\n", err)
			return 1
		}
		writeJSON(f, rep)
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "beffstore: %v\n", err)
			return 1
		}
	}
	return 0
}
