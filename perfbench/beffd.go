package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/hpcbench/beff/internal/check"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/serve"
	"github.com/hpcbench/beff/internal/store"
	"github.com/hpcbench/beff/internal/workload"
)

// The service workload: an in-process beffd on a loopback listener,
// driven by closed-loop clients that each submit a one-cell sweep,
// block on its progress stream, and fetch its result. Most requests hit
// a pre-filled warm set; the rest are cells no earlier request asked
// for. The store also holds filler entries that no request asks for,
// so that opening it and looking keys up work over more than the warm
// set. The mix below is assumed, not measured: the repository has no
// beffd request log or hit-ratio measurement to take it from.
const (
	beffdClients  = 2
	beffdWorkers  = 2
	beffdFillers  = 5000
	coldFraction  = 0.10
	coldProcs     = 4
	coldMachine   = "bb" // grammar specs run on the burst-buffer model
	warmBeffProcs = 4
	maxWarmMPart  = 16 << 20
)

type beffdBench struct {
	dir  string // the store directory the server caches into
	rngs []*rand.Rand
	warm []warmCell

	srv    *serve.Server
	hs     *httptest.Server
	reg    *obs.Registry // the live server's registry
	client *http.Client
}

// warmCell is one pre-filled request and the result bytes every later
// request for it must return.
type warmCell struct {
	body []byte
	want []byte // compact JSON, recorded by the pre-fill
}

func openBeffd(cfg config) (bench, error) {
	b := &beffdBench{
		dir:    filepath.Join(cfg.workdir, "beffd"),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: beffdClients}},
	}
	for c := 0; c < beffdClients; c++ {
		b.rngs = append(b.rngs, rand.New(rand.NewSource(cfg.seed<<8|int64(c))))
	}
	fillers := beffdFillers
	if cfg.small {
		fillers = 50
	}
	if err := writeFillers(b.dir, fillers); err != nil {
		return nil, err
	}
	reqs, err := warmRequests(cfg)
	if err != nil {
		return nil, err
	}
	for _, r := range reqs {
		body, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		b.warm = append(b.warm, warmCell{body: body})
	}
	return b, nil
}

// writeFillers puts n entries shaped like real cache entries into the
// store at dir: a cell key, a fingerprint and a b_eff result, the value
// of a real cell. No request asks for them.
func writeFillers(dir string, n int) error {
	cell := runner.BeffCell("t3e", warmBeffProcs, core.Options{Seed: 1, MaxLooplength: 2, Reps: 1})
	res := runner.RunCell(cell, nil)
	if res.Err != nil {
		return res.Err
	}
	value, err := json.Marshal(res.Value)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		entry, err := json.MarshalIndent(map[string]any{
			"key":         fmt.Sprintf("filler:%d", i),
			"fingerprint": map[string]any{"Bench": "filler", "N": i},
			"value":       json.RawMessage(value),
		}, "", " ")
		if err != nil {
			return err
		}
		key, err := runner.FingerprintKey(i)
		if err != nil {
			return err
		}
		if err := st.Put(key, entry); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// warmRequests is the warm set: b_eff on every profile at two partition
// sizes, b_eff_io on the profiles with an I/O model, and the example
// workload specs, each small enough to pre-fill in a few seconds. It
// does not depend on the seed.
func warmRequests(cfg config) ([]serve.SweepRequest, error) {
	var reqs []serve.SweepRequest
	profiles := machine.Profiles()
	if cfg.small {
		p, err := machine.Lookup("t3e")
		if err != nil {
			return nil, err
		}
		profiles = []*machine.Profile{p}
	}
	for _, p := range profiles {
		reqs = append(reqs,
			serve.SweepRequest{Bench: "beff", Machines: []string{p.Key}, Procs: []int{warmBeffProcs}, MaxLooplength: 4},
			serve.SweepRequest{Bench: "beff", Machines: []string{p.Key}, Procs: []int{2 * warmBeffProcs}, MaxLooplength: 2})
		// b_eff_io reads allocate host buffers of up to MPart bytes, so
		// profiles with large chunks would dominate the process's memory.
		// Leaving them out is for the harness's sake; it says nothing
		// about real traffic.
		if p.FS != nil && p.MPart() <= maxWarmMPart {
			reqs = append(reqs, serve.SweepRequest{Bench: "beffio", Machines: []string{p.Key}, Procs: []int{2}, TSeconds: 0.5})
		}
	}
	paths, err := filepath.Glob(filepath.Join(cfg.root, "examples", "workloads", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no workload specs under %s", filepath.Join(cfg.root, "examples", "workloads"))
	}
	if cfg.small {
		paths = paths[:1]
	}
	for _, path := range paths {
		spec, err := workload.ParseFile(path)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, serve.SweepRequest{Bench: "workload", Workload: spec, Machines: []string{coldMachine}, Procs: []int{coldProcs}})
	}
	return reqs, nil
}

// setup starts a server over the store, replacing the previous one,
// and waits for its first healthy /healthz.
func (b *beffdBench) setup() (time.Duration, error) {
	if err := b.stopServer(); err != nil {
		return 0, err
	}
	start := time.Now()
	reg := obs.New()
	srv, err := serve.New(serve.Config{Workers: beffdWorkers, CacheDir: b.dir, Registry: reg})
	if err != nil {
		return 0, err
	}
	b.srv, b.reg, b.hs = srv, reg, httptest.NewServer(srv.Handler())
	resp, err := b.client.Get(b.hs.URL + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/healthz answered %s", resp.Status)
	}
	return time.Since(start), nil
}

func (b *beffdBench) stopServer() error {
	if b.srv == nil {
		return nil
	}
	b.hs.Close()
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := b.srv.Drain(ctx)
	b.srv, b.hs, b.reg = nil, nil, nil
	return err
}

// warmUp pre-fills the warm set, recording each cell's result, then
// lets every client make one request.
func (b *beffdBench) warmUp(t *tally) error {
	var wg sync.WaitGroup
	for c := 0; c < beffdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(b.warm); i += beffdClients {
				start := time.Now()
				got, err := b.request(c, b.warm[i].body, nil)
				t.addOp(time.Since(start), err)
				b.warm[i].want = got
			}
		}(c)
	}
	wg.Wait()
	return b.run(time.Now(), nil, t)
}

func (b *beffdBench) run(until time.Time, tr *tracer, t *tally) error {
	var before obs.Snapshot
	if tr != nil {
		before = b.reg.Snapshot()
	}
	var wg sync.WaitGroup
	for c := 0; c < beffdClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				body, verify := b.draw(c)
				start := time.Now()
				got, err := b.request(c, body, tr)
				d := time.Since(start)
				if err == nil {
					err = verify(got)
				}
				t.addOp(d, err)
				if !time.Now().Before(until) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if tr != nil {
		addDeltas(tr.reg, before, b.reg.Snapshot())
	}
	return nil
}

// draw picks client c's next request from its own seeded stream: a
// warm cell, or (coldFraction of the time) a cell no request has asked
// for, two thirds b_eff on a random profile and one third a generated
// workload spec. It returns the body and the check of the response.
func (b *beffdBench) draw(c int) ([]byte, func([]byte) error) {
	rng := b.rngs[c]
	if rng.Float64() >= coldFraction {
		w := &b.warm[rng.Intn(len(b.warm))]
		return w.body, func(got []byte) error {
			if !bytes.Equal(got, w.want) {
				return fmt.Errorf("warm cell %s: result differs from its pre-fill", w.body)
			}
			return nil
		}
	}
	var req serve.SweepRequest
	var verify func([]byte) error
	if rng.Intn(3) < 2 {
		profiles := machine.Profiles()
		key := profiles[rng.Intn(len(profiles))].Key
		// Seed 1 is the warm set's; every other seed is a new cell.
		req = serve.SweepRequest{Bench: "beff", Machines: []string{key}, Procs: []int{coldProcs}, MaxLooplength: 4, Seed: 2 + rng.Int63n(1<<40)}
		verify = func(got []byte) error {
			var res core.Result
			if err := json.Unmarshal(got, &res); err != nil {
				return fmt.Errorf("cold b_eff cell on %s: %w", key, err)
			}
			ck := check.New()
			ck.VerifyBeff(&res)
			return ck.Err()
		}
	} else {
		spec := coldSpec(rng, fmt.Sprintf("cold-%d-%d", c, rng.Int63()))
		req = serve.SweepRequest{Bench: "workload", Workload: spec, Machines: []string{coldMachine}, Procs: []int{coldProcs}}
		verify = func(got []byte) error {
			var res workload.Result
			if err := json.Unmarshal(got, &res); err != nil {
				return fmt.Errorf("cold workload %s: %w", spec.Name, err)
			}
			if res.Name != spec.Name || res.Procs != coldProcs || res.TotalBytes <= 0 || !(res.BW > 0) {
				return fmt.Errorf("cold workload %s: implausible result (name %q, procs %d, %d bytes, %g B/s)",
					spec.Name, res.Name, res.Procs, res.TotalBytes, res.BW)
			}
			return nil
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, func([]byte) error { return err }
	}
	return body, verify
}

// coldSpec draws a workload spec: a collective preload then a
// read/write mix of strided accesses, or a Zipf-skewed population of
// separate files then a hotter Zipf read of them.
func coldSpec(rng *rand.Rand, name string) *workload.Spec {
	chunk := int64(16384) << rng.Intn(3)
	count := 8 + rng.Intn(9)
	var phases []workload.Phase
	if rng.Intn(2) == 0 {
		phases = []workload.Phase{
			{Name: "preload", Pattern: &workload.Node{Op: workload.OpSegmented, Count: count, Chunk: chunk, Collective: true}},
			{Name: "analysis", Pattern: &workload.Node{Op: workload.OpMix, Count: 2 * count, ReadFraction: float64(1+rng.Intn(3)) / 4,
				Body: &workload.Node{Op: workload.OpStrided, Count: 2, Chunk: chunk, Mem: 4 * chunk}}},
		}
	} else {
		files, theta := 4+rng.Intn(5), 1.2+rng.Float64()
		phases = []workload.Phase{
			{Name: "populate", Pattern: &workload.Node{Op: workload.OpZipf, Count: count, Theta: theta, Files: files,
				Body: &workload.Node{Op: workload.OpSeparate, Count: 2, Chunk: chunk}}},
			{Name: "hot-read", Pattern: &workload.Node{Op: workload.OpZipf, Count: 2 * count, Theta: theta + 1, Files: files,
				Body: &workload.Node{Op: workload.OpSeparate, Count: 2, Chunk: chunk, Read: true}}},
		}
	}
	spec := &workload.Spec{Name: name, Seed: 1 + rng.Int63n(1<<30), Phases: phases}
	spec.Normalize()
	return spec
}

// request makes one closed-loop request as client c: submit a one-cell
// sweep, block on its progress stream until the job is done, fetch the
// result. It returns the cell's result as compact JSON.
func (b *beffdBench) request(c int, body []byte, tr *tracer) ([]byte, error) {
	base := b.hs.URL + "/api/v1"
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, base+"/sweeps", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Beff-Client", fmt.Sprintf("perfbench-%d", c))
	var job struct {
		ID string `json:"id"`
	}
	if err := b.do(req, http.StatusAccepted, &job); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	tr.end("serve.submit", start)

	start = time.Now()
	req, err = http.NewRequest(http.MethodGet, base+"/jobs/"+job.ID+"/stream?interval=0s", nil)
	if err != nil {
		return nil, err
	}
	if err := b.do(req, http.StatusOK, nil); err != nil {
		return nil, fmt.Errorf("stream %s: %w", job.ID, err)
	}
	tr.end("serve.wait", start)

	start = time.Now()
	req, err = http.NewRequest(http.MethodGet, base+"/jobs/"+job.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	var res struct {
		Cells []struct {
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		} `json:"cells"`
	}
	if err := b.do(req, http.StatusOK, &res); err != nil {
		return nil, fmt.Errorf("result %s: %w", job.ID, err)
	}
	tr.end("serve.result", start)
	if len(res.Cells) != 1 {
		return nil, fmt.Errorf("job %s: %d cells, want 1", job.ID, len(res.Cells))
	}
	if res.Cells[0].Error != "" {
		return nil, fmt.Errorf("job %s: cell failed: %s", job.ID, res.Cells[0].Error)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, res.Cells[0].Result); err != nil {
		return nil, fmt.Errorf("job %s: %w", job.ID, err)
	}
	return compact.Bytes(), nil
}

// do sends req, requires the status want, and decodes the JSON body
// into v (or discards the body when v is nil).
func (b *beffdBench) do(req *http.Request, want int, v any) error {
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// addDeltas folds what the server's instruments counted between two
// snapshots into dst: counter increments, and gauges at their final
// value. Labelled admission-reject counters sum into one.
func addDeltas(dst *obs.Registry, before, after obs.Snapshot) {
	for _, s := range after.Samples {
		switch s.Kind {
		case "counter":
			prev, _ := before.Get(s.Name)
			name, _, _ := strings.Cut(s.Name, "{")
			dst.Counter(name).Add(int64(s.Value - prev.Value))
		case "gauge":
			dst.Gauge(s.Name).Set(int64(s.Value))
		}
	}
}

// output is the warm set's results in warm-set order: they do not
// depend on the seed.
func (b *beffdBench) output() []byte {
	var out []byte
	for _, w := range b.warm {
		out = append(append(out, w.want...), '\n')
	}
	return out
}

func (b *beffdBench) close() error {
	err := b.stopServer()
	b.client.CloseIdleConnections()
	return err
}
