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
//	beffstore [-cache DIR] get <key>              one raw entry: header line, then value
//	beffstore [-cache DIR] verify                 replay + checksum + decode every entry
//	beffstore [-cache DIR] compact                merge sealed segments, drop dead records
//	beffstore [-cache DIR] bench [flags]          store latency benchmark
//
// The bench subcommand builds a throwaway store of -entries entries and
// measures random point lookups, whole-store scans and read-only
// reopens (an index rebuild from the segments), reporting
// avg/median/p95 latencies as JSON (the committed BENCH_store.json is
// its output).
package main

import (
	"bytes"
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

// entryDoc is a cache entry as the store keeps it per key, in either
// of the runner cache's layouts: runner.ServedLayout, a one-line header
// holding the key and the fingerprint followed by the indented value,
// or the legacy one, a single document with all three fields.
type entryDoc struct {
	Key         string          `json:"key"`
	Fingerprint json.RawMessage `json:"fingerprint"`
	Value       json.RawMessage `json:"value"`
}

// parseEntry decodes an entry in either layout. The error reports a
// header or document that does not decode, or a value that is empty,
// null or not JSON; the key is set whenever the header decodes.
func parseEntry(data []byte) (entryDoc, error) {
	var e entryDoc
	served := bytes.HasPrefix(data, []byte(runner.ServedLayout))
	head, body, _ := bytes.Cut(data, []byte("\n"))
	if !served {
		head = data
	}
	if err := json.Unmarshal(head, &e); err != nil {
		return e, err
	}
	if served {
		e.Value = bytes.TrimSpace(body)
	}
	if len(e.Value) == 0 || string(e.Value) == "null" || !json.Valid(e.Value) {
		return e, errors.New("no value")
	}
	return e, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("beffstore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("cache", runner.DefaultCacheDir, "cache directory holding the store")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: beffstore [-cache DIR] <stats|ls|get|verify|compact|bench> [args]")
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
		}{Dir: *dir, Stats: st.Stats(), Segments: st.Segments()}
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
			cell := "?"
			if e, _ := parseEntry(value); e.Key != "" {
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
		// that, every entry must decode and carry a value.
		entries, bytes, bad := 0, int64(0), 0
		scanErr := st.Scan(func(key string, value []byte) error {
			entries++
			bytes += int64(len(value))
			if _, err := parseEntry(value); err != nil {
				bad++
				fmt.Fprintf(stderr, "beffstore: entry %s: damaged entry: %v\n", key, err)
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
		// A writer open creates a missing directory; compacting a
		// mistyped path must not leave an empty store behind.
		if _, err := os.Stat(*dir); err != nil {
			return fail(fmt.Errorf("store: open: %w", err))
		}
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

// benchReport is the BENCH_store.json document. Backends holds one
// "store" element; it stays a list so the committed record keeps its
// shape.
type benchReport struct {
	Generated  string          `json:"generated"`
	GoVersion  string          `json:"go_version"`
	Entries    int             `json:"entries"`
	ValueBytes int             `json:"value_bytes"`
	Lookups    int             `json:"lookups"`
	Scans      int             `json:"scans"`
	Backends   []backendReport `json:"backends"`
}

type backendReport struct {
	Backend     string       `json:"backend"`
	PointLookup latencyStats `json:"point_lookup"`
	FullScan    latencyStats `json:"full_scan"`
	Reopen      latencyStats `json:"reopen"`
	DiskBytes   int64        `json:"disk_bytes"`
	Files       int          `json:"files"`
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	entries := fs.Int("entries", 12000, "entries to build the store with")
	valueBytes := fs.Int("value-bytes", 2048, "payload bytes per entry (before the JSON envelope)")
	lookups := fs.Int("lookups", 20000, "random point lookups to time (OLTP pattern)")
	scans := fs.Int("scans", 5, "whole-store scans to time (OLAP pattern), and as many reopens")
	out := fs.String("out", "", "also write the JSON report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *entries < 1 || *lookups < 1 || *scans < 1 || *valueBytes < 0 {
		fmt.Fprintln(stderr, "beffstore: bench needs -entries, -lookups and -scans >= 1 and -value-bytes >= 0")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "beffstore: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp("", "beffstore-bench-*")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)

	// Each entry is laid out as the runner cache writes it, around an
	// opaque payload.
	fmt.Fprintf(stderr, "beffstore: building a %d-entry store (%d payload bytes each)...\n", *entries, *valueBytes)
	dir := filepath.Join(work, "store")
	st, err := store.Open(dir, store.Options{NoAutoCompact: true})
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	keys := make([]string, *entries)
	rng := rand.New(rand.NewSource(1))
	payload := make([]byte, *valueBytes)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15)
		rng.Read(payload)
		val, _ := json.Marshal(payload) // []byte marshals to a base64 JSON string
		doc := fmt.Sprintf(runner.ServedLayout+`"key":"bench:cell@%d","fingerprint":{"cell":%d}}`+"\n%s\n", i, i, val)
		if err := st.Put(keys[i], []byte(doc)); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintln(stderr, "beffstore: timing the store...")
	lookupRng := rand.New(rand.NewSource(2))
	samples := make([]time.Duration, *lookups)
	for i := range samples {
		k := keys[lookupRng.Intn(len(keys))]
		t0 := time.Now()
		_, ok, err := st.Get(k)
		if err == nil && !ok {
			err = fmt.Errorf("missing key %s", k)
		}
		if err != nil {
			return fail(fmt.Errorf("lookup: %w", err))
		}
		samples[i] = time.Since(t0)
	}
	scanSamples := make([]time.Duration, *scans)
	for i := range scanSamples {
		t0 := time.Now()
		if err := st.Scan(func(string, []byte) error { return nil }); err != nil {
			return fail(fmt.Errorf("scan: %w", err))
		}
		scanSamples[i] = time.Since(t0)
	}
	reopenSamples := make([]time.Duration, *scans)
	for i := range reopenSamples {
		t0 := time.Now()
		ro, err := store.Open(dir, store.Options{ReadOnly: true})
		if err != nil {
			return fail(fmt.Errorf("reopen: %w", err))
		}
		reopenSamples[i] = time.Since(t0)
		n := ro.Len()
		ro.Close()
		if n != len(keys) {
			return fail(fmt.Errorf("reopen: %d entries, want %d", n, len(keys)))
		}
	}

	b := backendReport{
		Backend:     "store",
		PointLookup: summarize(samples),
		FullScan:    summarize(scanSamples),
		Reopen:      summarize(reopenSamples),
	}
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if info, err := d.Info(); err == nil {
			b.DiskBytes += info.Size()
			b.Files++
		}
		return nil
	})
	rep := benchReport{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		Entries:    *entries,
		ValueBytes: *valueBytes,
		Lookups:    *lookups,
		Scans:      *scans,
		Backends:   []backendReport{b},
	}

	writeJSON(stdout, rep)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		writeJSON(f, rep)
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}
