package cli

import (
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/mpi"
	"github.com/hpcbench/beff/internal/mpiio"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/runner"
	"github.com/hpcbench/beff/internal/simfs"
	"github.com/hpcbench/beff/internal/simnet"
)

// Obs is the per-run observability harness behind -metrics, -progress
// and -debug-addr: one registry shared by every instrumented
// subsystem, plus whichever exposure paths the flags enabled. When
// none of the flags is set the harness is disabled — Reg stays nil,
// every Instrument* helper is a no-op, and the simulation runs with
// nil metrics pointers, which the instruments treat as "off" at the
// cost of one predictable branch per hot-path site.
type Obs struct {
	// Reg is the run's registry; nil when observability is disabled.
	Reg *obs.Registry

	c        *Config
	stream   *obs.Streamer
	tick     *obs.Ticker
	live     *obs.LiveWriter
	shutdown func() error
}

// StartObs builds the harness from the parsed flags: it opens the
// -metrics stream, binds the -debug-addr HTTP endpoint (announcing the
// resolved address on stderr, useful with a ":0" port), and prepares
// the registry the Instrument* helpers bind into. Failures to open
// either path are fatal — asking for observability and silently not
// getting it would defeat the point.
func (c *Config) StartObs() *Obs {
	o := &Obs{c: c}
	if c.MetricsPath == "" && !c.Progress && c.DebugAddr == "" {
		return o
	}
	o.Reg = obs.New()
	if c.MetricsPath != "" {
		s, err := obs.OpenStream(c.MetricsPath, o.Reg, c.MetricsInterval)
		c.Fatal(err)
		o.stream = s
	}
	if c.DebugAddr != "" {
		addr, shutdown, err := obs.Serve(c.DebugAddr, o.Reg)
		c.Fatal(err)
		o.shutdown = shutdown
		fmt.Fprintf(os.Stderr, "%s: serving metrics at http://%s/metrics\n", c.Name, addr)
	}
	return o
}

// NewObs wraps an existing registry in a harness with no exposure
// paths — how tests and embedders bind the standard instrument names
// without going through flags.
func NewObs(reg *obs.Registry) *Obs { return &Obs{Reg: reg, c: New("obs")} }

// Enabled reports whether instruments bound through this harness will
// record anything.
func (o *Obs) Enabled() bool { return o != nil && o.Reg != nil }

// InstrumentWorld binds the mpi instrument set into cfg and registers
// an Observer that attaches the des scheduler instruments to the
// run's engine once it exists. Safe to call for every world of a
// multi-repetition run: instruments are create-or-get by name, so
// repetitions accumulate into the same counters.
func (o *Obs) InstrumentWorld(cfg *mpi.WorldConfig) {
	if !o.Enabled() || cfg == nil {
		return
	}
	r := o.Reg
	cfg.Metrics = &mpi.Metrics{
		EagerMessages:     r.Counter("mpi_eager_messages_total"),
		EagerBytes:        r.Counter("mpi_eager_bytes_total"),
		RendezvousMsgs:    r.Counter("mpi_rendezvous_messages_total"),
		RendezvousBytes:   r.Counter("mpi_rendezvous_bytes_total"),
		MatchesPosted:     r.Counter("mpi_matches_posted_total"),
		MatchesUnexpected: r.Counter("mpi_matches_unexpected_total"),
		MsgPoolHits:       r.Counter("mpi_msg_pool_hits_total"),
		MsgPoolMisses:     r.Counter("mpi_msg_pool_misses_total"),
		ReqPoolHits:       r.Counter("mpi_req_pool_hits_total"),
		ReqPoolMisses:     r.Counter("mpi_req_pool_misses_total"),
		BufPoolHits:       r.Counter("mpi_buf_pool_hits_total"),
		BufPoolMisses:     r.Counter("mpi_buf_pool_misses_total"),
		MessageBytes:      r.Histogram("mpi_message_bytes"),
	}
	dm := &des.Metrics{
		Dispatches:   r.Counter("des_dispatches_total"),
		Resumes:      r.Counter("des_resumes_total"),
		Advances:     r.Counter("des_clock_advances_total"),
		FastAdvances: r.Counter("des_fast_advances_total"),
		HeapDepthMax: r.Gauge("des_heap_depth_max"),
	}
	cfg.Observe(mpi.Observer{OnEngine: func(e *des.Engine) { e.SetMetrics(dm) }})
}

// InstrumentNet binds the network instrument set into n.
func (o *Obs) InstrumentNet(n *simnet.Net) {
	if !o.Enabled() || n == nil {
		return
	}
	r := o.Reg
	n.SetMetrics(&simnet.Metrics{
		Transfers:        r.Counter("simnet_transfers_total"),
		Bytes:            r.Counter("simnet_bytes_total"),
		Queued:           r.Counter("simnet_queued_transfers_total"),
		RouteCacheHits:   r.Counter("simnet_route_cache_hits_total"),
		RouteCacheMisses: r.Counter("simnet_route_cache_misses_total"),
		TransferBytes:    r.Histogram("simnet_transfer_bytes"),
	})
}

// InstrumentFS binds the filesystem instrument set into fs.
func (o *Obs) InstrumentFS(fs *simfs.FS) {
	if !o.Enabled() || fs == nil {
		return
	}
	r := o.Reg
	fs.SetMetrics(&simfs.Metrics{
		Ops:        r.Counter("simfs_server_ops_total"),
		WriteBytes: r.Counter("simfs_disk_bytes_written_total"),
		ReadBytes:  r.Counter("simfs_disk_bytes_read_total"),
		CacheHits:  r.Counter("simfs_cache_hits_total"),
	})
}

// InstrumentIO binds the collective-I/O instrument set into info.
func (o *Obs) InstrumentIO(info *mpiio.Info) {
	if !o.Enabled() || info == nil {
		return
	}
	info.Metrics = &mpiio.Metrics{
		CollectiveOps: o.Reg.Counter("mpiio_collective_ops_total"),
		ShuffleBytes:  o.Reg.Counter("mpiio_shuffle_bytes_total"),
	}
}

// RunnerMetrics returns the sweep instrument set, or nil when
// disabled (runner treats a nil Metrics as "off").
func (o *Obs) RunnerMetrics() *runner.Metrics {
	if !o.Enabled() {
		return nil
	}
	r := o.Reg
	return &runner.Metrics{
		Done:      r.Counter("runner_cells_done_total"),
		Failed:    r.Counter("runner_cells_failed_total"),
		CacheHits: r.Counter("runner_cache_hits_total"),
		InFlight:  r.Gauge("runner_workers_busy"),
	}
}

// SweepOptions wires the harness into runner sweep options: the
// runner instrument set, the cache and store instruments, and — under
// -progress — a live repainting line in place of scrolling per-cell
// progress.
func (o *Obs) SweepOptions(opt runner.Options) runner.Options {
	if o == nil || o.c == nil {
		return opt
	}
	opt.Metrics = o.RunnerMetrics()
	if o.Enabled() {
		opt.Cache.Instrument(o.Reg)
	}
	if o.c.Progress {
		w := opt.Progress
		if w == nil {
			w = os.Stderr
		}
		o.live = obs.NewLiveWriter(w)
		opt.Progress = o.live
	}
	return opt
}

// StartTicker begins the -progress live line for a single long
// simulation (as opposed to a sweep, where SweepOptions repaints
// runner's own per-cell lines). Close stops it.
func (o *Obs) StartTicker() {
	if !o.Enabled() || !o.c.Progress {
		return
	}
	o.tick = obs.NewTicker(os.Stderr, o.Reg, 500*time.Millisecond, ProgressLine)
}

// RecordNetBusy publishes the busiest network resources' busy time as
// labelled gauges — call once after the run, with the run's elapsed
// virtual time as the horizon. Capped at the top 16 resources so a
// 512-proc machine does not flood the snapshot.
func (o *Obs) RecordNetBusy(n *simnet.Net, horizon des.Time) {
	if !o.Enabled() || n == nil {
		return
	}
	for _, st := range n.HotResources(horizon, 16) {
		o.Reg.FloatGauge(fmt.Sprintf("simnet_resource_busy_seconds{resource=%q}", st.Name)).Set(st.Busy.Seconds())
	}
}

// Close flushes and releases every exposure path: it stops the
// progress ticker (painting one final line), finishes a live sweep
// line, writes the final -metrics snapshot, and shuts the debug
// server down. Call it after the run, before printing results, so the
// live line does not interleave with them. Safe on a disabled
// harness; the -metrics file failing to flush is fatal.
func (o *Obs) Close() {
	if o == nil {
		return
	}
	if o.tick != nil {
		o.tick.Stop()
		o.tick = nil
	}
	if o.live != nil {
		o.live.Done()
		o.live = nil
	}
	if o.stream != nil {
		err := o.stream.Close()
		o.stream = nil
		o.c.Fatal(err)
	}
	if o.shutdown != nil {
		o.shutdown()
		o.shutdown = nil
	}
}

// ProgressLine renders a snapshot as one status line. It shows the
// subsystems that have recorded anything, so the same renderer serves
// every command: scheduler dispatches, network traffic, MPI messages,
// disk operations, and sweep cells.
func ProgressLine(s obs.Snapshot) string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	if d, ok := s.Get("des_dispatches_total"); ok && d.Value > 0 {
		add("des %s ev", human(d.Value))
	}
	if b, ok := s.Get("simnet_bytes_total"); ok && b.Value > 0 {
		m, _ := s.Get("simnet_transfers_total")
		add("net %s msg %sB", human(m.Value), human(b.Value))
	}
	if e, ok := s.Get("mpi_eager_messages_total"); ok {
		r, _ := s.Get("mpi_rendezvous_messages_total")
		if e.Value+r.Value > 0 {
			add("mpi %s msg", human(e.Value+r.Value))
		}
	}
	if ops, ok := s.Get("simfs_server_ops_total"); ok && ops.Value > 0 {
		add("fs %s ops", human(ops.Value))
	}
	if done, ok := s.Get("runner_cells_done_total"); ok {
		cell := fmt.Sprintf("cells %.0f", done.Value)
		if hits, ok := s.Get("runner_cache_hits_total"); ok && hits.Value > 0 {
			cell += fmt.Sprintf(" (%.0f cached)", hits.Value)
		}
		if busy, ok := s.Get("runner_workers_busy"); ok && busy.Value > 0 {
			cell += fmt.Sprintf(" [%.0f busy]", busy.Value)
		}
		add("%s", cell)
	}
	if done, ok := s.Get("beffd_cells_done_total"); ok {
		line := fmt.Sprintf("served %.0f", done.Value)
		if q, ok := s.Get("beffd_queue_depth"); ok && q.Value > 0 {
			line += fmt.Sprintf(" [%.0f queued]", q.Value)
		}
		if d, ok := s.Get("beffd_dedupe_hits_total"); ok && d.Value > 0 {
			line += fmt.Sprintf(" (%.0f deduped)", d.Value)
		}
		add("%s", line)
	}
	if len(parts) == 0 {
		return "warming up"
	}
	return strings.Join(parts, " · ")
}

// human renders a count with a k/M/G suffix, keeping the progress
// line narrow.
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
