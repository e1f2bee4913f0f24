// Package simfs simulates a striped parallel filesystem: the GPFS,
// Cray tmp-fs and NEC SFS systems the paper measures b_eff_io against.
// Files are striped round-robin over I/O servers; each server has a
// disk with streaming bandwidth and a seek penalty, fronted by a
// write-behind cache that drains to disk in the background. Clients
// reach the servers through per-client I/O channels.
//
// The model is deliberately mechanistic so the phenomena in the paper's
// Fig. 4 and §5.4 *emerge* rather than being painted on:
//
//   - small chunks collapse: per-request overheads and seeks dominate;
//   - non-wellformed chunks (power-of-two + 8 bytes) collapse: every
//     request becomes block-misaligned, forcing read-modify-write and a
//     seek on the server;
//   - rewrite beats initial write: no block-allocation cost;
//   - reads right after writes run at memory speed until the cache is
//     evicted — the "benchmark measures the cache" trap of §5.4, which
//     is why b_eff_io insists on moving 20x the cache size;
//   - aggregate bandwidth saturates at the server side (T3E behaviour)
//     or scales with client count until saturation (SP/GPFS behaviour),
//     depending on the client-channel : server-bandwidth ratio.
package simfs

import (
	"fmt"
	"sort"

	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/obs"
)

// Config describes an I/O subsystem.
type Config struct {
	// Name of the filesystem for reports, e.g. "GPFS (20 VSD servers)".
	Name string

	// Servers is the number of I/O servers the stripes rotate over.
	Servers int

	// StripeUnit is the striping granularity in bytes.
	StripeUnit int64

	// BlockSize is the disk block size in bytes: the granularity of
	// read-modify-write when a request is not sector-aligned.
	BlockSize int64

	// SectorSize is the device's atomic write granularity. Requests
	// whose offset and size are sector multiples write cleanly even if
	// they are smaller than a block; sub-sector misalignment (the
	// benchmark's "+8 byte" non-wellformed chunks) forces a
	// read-modify-write of every touched block plus a positioning
	// penalty. Zero means 512 bytes.
	SectorSize int64

	// WriteBandwidth and ReadBandwidth are each server's disk streaming
	// bandwidths in bytes/second.
	WriteBandwidth float64
	ReadBandwidth  float64

	// SeekTime is the disk positioning penalty charged when a server
	// access is not sequential with the previous one on that server.
	SeekTime des.Duration

	// RequestOverhead is the per-request software cost (client syscall,
	// server dispatch).
	RequestOverhead des.Duration

	// OpenCost and CloseCost are per-file metadata operation costs.
	OpenCost  des.Duration
	CloseCost des.Duration

	// Clients is the number of client I/O channels (one per physical
	// processor that may perform I/O).
	Clients int

	// ClientBandwidth is each client channel's bandwidth to the I/O
	// subsystem in bytes/second. This is what makes aggregate I/O track
	// the number of compute nodes on GPFS-like systems. Zero means the
	// client side is never the bottleneck (T3E GigaRing behaviour).
	ClientBandwidth float64

	// CacheSizePerServer is the write-behind / read cache per server in
	// bytes. Writes are absorbed at memory speed while the backlog
	// fits; reads of recently written data hit the cache.
	CacheSizePerServer int64

	// MemoryBandwidth is the cache-hit bandwidth per server.
	MemoryBandwidth float64

	// BurstBufferPerServer adds a modern NVMe burst-buffer tier between
	// the DRAM cache and the disk: its capacity per server in bytes.
	// Writes that overflow the DRAM cache are absorbed at
	// BurstBufferBandwidth until the drain backlog also exceeds the
	// burst buffer; only then is the client throttled to the disk drain
	// rate. Reads of data recently evicted from DRAM but still within
	// the burst-buffer window are served at BurstBufferBandwidth. Zero
	// (the default) disables the tier and reproduces the paper-era
	// two-level model exactly.
	BurstBufferPerServer int64

	// BurstBufferBandwidth is the burst-buffer tier's per-server
	// absorb/serve bandwidth in bytes/second; required (and only
	// meaningful) when BurstBufferPerServer is set. Typically between
	// MemoryBandwidth and the disk bandwidths.
	BurstBufferBandwidth float64

	// AllocPerBlock is the extra metadata cost charged per newly
	// allocated block — the reason an initial write is slower than a
	// rewrite.
	AllocPerBlock des.Duration

	// BackgroundLoad models a non-dedicated system: the fraction of
	// every server's bandwidth consumed by concurrently running other
	// applications, in [0, 1). The paper runs b_eff_io in exactly this
	// mode ("it need not run on an empty system as long as concurrently
	// running other applications do not use a significant part of the
	// I/O bandwidth") — this knob lets you test when that caveat
	// breaks.
	BackgroundLoad float64
}

func (c *Config) validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("simfs: need at least one server")
	}
	if c.StripeUnit < 1 {
		return fmt.Errorf("simfs: stripe unit must be positive")
	}
	if c.BlockSize < 1 {
		return fmt.Errorf("simfs: block size must be positive")
	}
	if c.Clients < 1 {
		return fmt.Errorf("simfs: need at least one client channel")
	}
	if c.SectorSize < 0 {
		return fmt.Errorf("simfs: negative sector size")
	}
	if c.BackgroundLoad < 0 || c.BackgroundLoad >= 1 {
		if c.BackgroundLoad != 0 {
			return fmt.Errorf("simfs: background load %v outside [0,1)", c.BackgroundLoad)
		}
	}
	if c.BurstBufferPerServer < 0 {
		return fmt.Errorf("simfs: negative burst buffer size")
	}
	if c.BurstBufferPerServer > 0 && c.BurstBufferBandwidth <= 0 {
		return fmt.Errorf("simfs: burst buffer needs a positive bandwidth")
	}
	if c.BurstBufferPerServer == 0 && c.BurstBufferBandwidth != 0 {
		return fmt.Errorf("simfs: burst buffer bandwidth set without a capacity")
	}
	return nil
}

// TotalBurstBuffer reports the aggregate burst-buffer capacity of all
// servers.
func (c *Config) TotalBurstBuffer() int64 {
	return int64(c.Servers) * c.BurstBufferPerServer
}

// TotalCache reports the aggregate cache of all servers.
func (c *Config) TotalCache() int64 {
	return int64(c.Servers) * c.CacheSizePerServer
}

// FS is a simulated filesystem instance. All methods must be called
// from processes of a single des.Engine run; the engine's sequential
// execution provides the synchronisation.
type FS struct {
	cfg     Config
	servers []*server
	clients []*client
	files   map[string]*File

	totalWritten int64
	totalRead    int64
	writeClock   int64 // total bytes ever written, for cache eviction

	// serverStalls holds I/O-hiccup hooks added with AddServerPerturb.
	// Each reports extra service time a server spends unavailable
	// around a disk operation starting at the given time; durations
	// from every hook sum.
	serverStalls []func(server int, at des.Time) des.Duration

	// serverOpObs holds observers registered with ObserveServerOps,
	// fired in registration order.
	serverOpObs []func(server int, write bool, bytes int64, start, end des.Time)

	metrics *Metrics

	pieces []piece // split's scratch
}

// Metrics is the filesystem's optional observability hook-up. All
// fields may be nil; a nil *Metrics costs one branch per server
// operation. Attach with SetMetrics before the simulation starts.
type Metrics struct {
	// Ops counts disk operations (stripe pieces) reaching a server.
	Ops *obs.Counter

	// WriteBytes and ReadBytes count payload bytes through the disks
	// (cache-absorbed reads excluded from ReadBytes).
	WriteBytes *obs.Counter
	ReadBytes  *obs.Counter

	// CacheHits counts reads served from the write-behind cache at
	// memory speed.
	CacheHits *obs.Counter

	// BurstAbsorbs counts writes absorbed by the burst-buffer tier
	// after overflowing the DRAM cache; BurstHits counts reads served
	// from it. Both stay zero without a configured burst buffer.
	BurstAbsorbs *obs.Counter
	BurstHits    *obs.Counter
}

// SetMetrics attaches filesystem instruments; nil detaches them.
func (fs *FS) SetMetrics(m *Metrics) { fs.metrics = m }

type server struct {
	id int
	// diskFree is the time the disk finishes its queued work: the drain
	// frontier of the write-behind cache.
	diskFree des.Time
	// lastFile/lastEnd track sequentiality for seek accounting.
	lastFile *File
	lastEnd  int64
	busy     des.Duration
	seeks    int64
}

type client struct {
	id      int
	chanRes chanState
}

type chanState struct {
	nextFree des.Time
}

// New validates the configuration and builds the filesystem.
func New(cfg Config) (*FS, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.BackgroundLoad > 0 {
		// Competing applications steadily consume their share of every
		// server: the benchmark sees the remainder.
		share := 1 - cfg.BackgroundLoad
		cfg.WriteBandwidth *= share
		cfg.ReadBandwidth *= share
		cfg.MemoryBandwidth *= share
		cfg.BurstBufferBandwidth *= share
	}
	fs := &FS{cfg: cfg, files: make(map[string]*File)}
	for i := 0; i < cfg.Servers; i++ {
		fs.servers = append(fs.servers, &server{id: i})
	}
	for i := 0; i < cfg.Clients; i++ {
		fs.clients = append(fs.clients, &client{id: i})
	}
	return fs, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg Config) *FS {
	fs, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return fs
}

// Config returns the filesystem configuration.
func (fs *FS) Config() Config { return fs.cfg }

// ObserveServerOps registers a disk-operation observer: server,
// direction, bytes, and busy interval. Cache-absorbed traffic reports
// the queued disk work, not the memory-speed completion;
// internal/trace provides a collector. Observers compose — each call
// adds a subscriber, and all fire per operation in registration
// order. Must be called before the simulation starts.
func (fs *FS) ObserveServerOps(f func(server int, write bool, bytes int64, start, end des.Time)) {
	if f != nil {
		fs.serverOpObs = append(fs.serverOpObs, f)
	}
}

// notifyServerOp fans a disk operation out to every ObserveServerOps
// subscriber.
func (fs *FS) notifyServerOp(server int, write bool, bytes int64, start, end des.Time) {
	for _, fn := range fs.serverOpObs {
		fn(server, write, bytes, start, end)
	}
}

// AddServerPerturb registers a per-server hiccup hook: fn reports how
// much extra service time the server spends on a disk operation
// starting at the given time. Durations from every registered hook
// sum. Must be called before the simulation starts.
func (fs *FS) AddServerPerturb(fn func(server int, at des.Time) des.Duration) {
	if fn != nil {
		fs.serverStalls = append(fs.serverStalls, fn)
	}
}

// stallFor sums every registered hiccup hook for an operation on
// server id starting at the given time.
func (fs *FS) stallFor(id int, at des.Time) des.Duration {
	if len(fs.serverStalls) == 0 {
		return 0
	}
	return fs.stallSum(id, at)
}

func (fs *FS) stallSum(id int, at des.Time) des.Duration {
	var d des.Duration
	for _, fn := range fs.serverStalls {
		d += fn(id, at)
	}
	return d
}

// File is an open simulated file.
type File struct {
	fs   *FS
	name string
	size int64
	// allocated is the high-water mark of allocated bytes (block
	// granularity), distinguishing initial writes from rewrites.
	allocated int64
	// cacheStamp is fs.writeClock at this file's most recent write;
	// used to decide whether recently written data is still cached.
	cacheStamp int64
	cacheLo    int64 // lowest offset still in cache
	deleted    bool

	// shift rotates this file's stripe placement across servers.
	shift int

	// content holds actual data for requests that carry payloads
	// (tests and examples); timing-only traffic leaves it empty.
	content map[int64][]byte
}

// Open opens (creating if needed) a file, charging the metadata cost to
// the calling process.
func (fs *FS) Open(p *des.Proc, name string) *File {
	p.Sleep(fs.cfg.OpenCost)
	f, ok := fs.files[name]
	if !ok {
		f = &File{
			fs: fs, name: name,
			shift:   nameShift(name, fs.cfg.Servers),
			content: make(map[int64][]byte),
			cacheLo: -1,
		}
		fs.files[name] = f
	}
	return f
}

// Delete removes a file's metadata (its cache contents become dead).
func (fs *FS) Delete(p *des.Proc, name string) {
	p.Sleep(fs.cfg.CloseCost)
	if f, ok := fs.files[name]; ok {
		f.deleted = true
		delete(fs.files, name)
	}
}

// Exists reports whether a file exists.
func (fs *FS) Exists(name string) bool {
	_, ok := fs.files[name]
	return ok
}

// Close charges the close cost. The file object stays valid for
// re-opening (state lives in the FS).
func (f *File) Close(p *des.Proc) {
	p.Sleep(f.fs.cfg.CloseCost)
}

// Size reports the file's current size.
func (f *File) Size() int64 { return f.size }

// Name reports the file name.
func (f *File) Name() string { return f.name }

// TotalWritten and TotalRead report filesystem-wide traffic.
func (fs *FS) TotalWritten() int64 { return fs.totalWritten }
func (fs *FS) TotalRead() int64    { return fs.totalRead }

// Seeks reports the cumulative number of disk seeks across servers.
func (fs *FS) Seeks() int64 {
	var n int64
	for _, s := range fs.servers {
		n += s.seeks
	}
	return n
}

// serverOf maps a file offset to its stripe's server. Each file's
// stripes start on a different server (a stable hash of the name), the
// way real striped filesystems rotate allocation so that many small
// files do not pile onto the first disk.
func (fs *FS) serverOf(f *File, off int64) *server {
	return fs.servers[(off/fs.cfg.StripeUnit+int64(f.shift))%int64(fs.cfg.Servers)]
}

// nameShift derives a file's stripe rotation from its name (FNV-1a).
func nameShift(name string, servers int) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h % uint32(servers))
}

// serverLocal maps a file offset to the offset on its server's disk:
// consecutive stripes assigned to the same server are physically
// contiguous there, so a strided-by-stripe-count access pattern is
// sequential from each disk's point of view.
func (fs *FS) serverLocal(off int64) int64 {
	su := fs.cfg.StripeUnit
	return (off/(su*int64(fs.cfg.Servers)))*su + off%su
}

// piece is the part of an access that one stripe unit holds.
type piece struct {
	srv  *server
	off  int64
	size int64
}

// split splits [off, off+size) at stripe boundaries. It returns fs's
// scratch slice, valid until the next split: Access uses it up before
// it returns.
func (fs *FS) split(f *File, off, size int64) []piece {
	ps := fs.pieces[:0]
	for size > 0 {
		su := fs.cfg.StripeUnit
		inStripe := su - off%su
		n := size
		if n > inStripe {
			n = inStripe
		}
		ps = append(ps, piece{srv: fs.serverOf(f, off), off: off, size: n})
		off += n
		size -= n
	}
	fs.pieces = ps
	return ps
}

// capacityTime converts the cache capacity into drain time.
func (fs *FS) capacityTime() des.Duration {
	if fs.cfg.WriteBandwidth <= 0 || fs.cfg.CacheSizePerServer <= 0 {
		return 0
	}
	return des.DurationOf(float64(fs.cfg.CacheSizePerServer) / fs.cfg.WriteBandwidth)
}

// memCost is the cache/memory transfer time for size bytes.
func (fs *FS) memCost(size int64) des.Duration {
	if fs.cfg.MemoryBandwidth <= 0 {
		return 0
	}
	return des.DurationOf(float64(size) / fs.cfg.MemoryBandwidth)
}

// burstCapacityTime is the burst-buffer capacity expressed as disk
// drain time, the unit the write-behind backlog is measured in. Zero
// without a configured burst buffer.
func (fs *FS) burstCapacityTime() des.Duration {
	if fs.cfg.WriteBandwidth <= 0 || fs.cfg.BurstBufferPerServer <= 0 {
		return 0
	}
	return des.DurationOf(float64(fs.cfg.BurstBufferPerServer) / fs.cfg.WriteBandwidth)
}

// burstCost is the burst-buffer transfer time for size bytes.
func (fs *FS) burstCost(size int64) des.Duration {
	if fs.cfg.BurstBufferBandwidth <= 0 {
		return 0
	}
	return des.DurationOf(float64(size) / fs.cfg.BurstBufferBandwidth)
}

// clientChannelDelay reserves the client's I/O channel for size bytes.
func (fs *FS) clientChannelDelay(clientID int, size int64, start des.Time) des.Time {
	if fs.cfg.ClientBandwidth <= 0 {
		return start
	}
	cl := fs.clients[clientID%len(fs.clients)]
	s := start
	if cl.chanRes.nextFree > s {
		s = cl.chanRes.nextFree
	}
	end := s.Add(des.DurationOf(float64(size) / fs.cfg.ClientBandwidth))
	cl.chanRes.nextFree = end
	return end
}

// blockSpan reports how many bytes of whole disk blocks [off,off+size)
// touches.
func (fs *FS) blockSpan(off, size int64) int64 {
	bs := fs.cfg.BlockSize
	lo := off - off%bs
	hiEdge := off + size
	hi := hiEdge
	if rem := hiEdge % bs; rem != 0 {
		hi = hiEdge + bs - rem
	}
	return hi - lo
}

// sectorAligned reports whether a request can be written without
// read-modify-write: offset and size are multiples of the sector size.
func (fs *FS) sectorAligned(off, size int64) bool {
	ss := fs.cfg.SectorSize
	if ss == 0 {
		ss = 512
	}
	return off%ss == 0 && size%ss == 0
}

// WriteAt writes size bytes at offset off on behalf of clientID,
// blocking p until the filesystem accepts the data (write-behind: the
// disk may still be draining afterwards — call Sync to force it out).
// data may be nil for timing-only traffic.
func (f *File) WriteAt(p *des.Proc, clientID int, off, size int64, data []byte) {
	p.SleepUntil(f.Access(p, clientID, off, size, data, true))
}

// ReadAt reads size bytes at offset off, blocking p until the data is
// in the caller's memory. If the file region was written with payload
// data, it is returned; timing-only regions return nil.
func (f *File) ReadAt(p *des.Proc, clientID int, off, size int64) []byte {
	p.SleepUntil(f.Access(p, clientID, off, size, nil, false))
	if len(f.content) == 0 {
		return nil
	}
	return f.readContent(off, size)
}

// Access starts a write (WriteAt's arguments) or a read of size bytes
// at off at p's current time, and reports when it is over: the time
// WriteAt and ReadAt sleep until. It does not block: it books the
// client channel and the servers, and the caller must sleep until the
// reported time (des.Proc.SleepUntil) before p goes on.
func (f *File) Access(p *des.Proc, clientID int, off, size int64, data []byte, write bool) des.Time {
	fs := f.fs
	if off < 0 || size < 0 {
		p.Fail("simfs: invalid access off=%d size=%d", off, size)
	}
	if f.deleted {
		p.Fail("simfs: access to deleted file %q", f.name)
	}
	if size == 0 {
		return p.Now().Add(fs.cfg.RequestOverhead)
	}
	start := p.Now().Add(fs.cfg.RequestOverhead)
	// The client channel carries the payload to/from the I/O subsystem.
	arrival := fs.clientChannelDelay(clientID, size, start)

	done := arrival
	for _, pc := range fs.split(f, off, size) {
		var end des.Time
		if write {
			end = fs.serverWrite(f, pc, arrival)
		} else {
			end = fs.serverRead(f, pc, arrival)
		}
		if end > done {
			done = end
		}
	}
	if write {
		fs.totalWritten += size
		fs.writeClock += size
		f.cacheStamp = fs.writeClock
		if f.cacheLo < 0 || off < f.cacheLo {
			f.cacheLo = off
		}
		if off+size > f.size {
			f.size = off + size
		}
		if data != nil {
			f.writeContent(off, data[:min64(size, int64(len(data)))])
		}
	} else {
		fs.totalRead += size
	}
	return done
}

// serverWrite models one stripe piece landing on a server.
func (fs *FS) serverWrite(f *File, pc piece, arrival des.Time) des.Time {
	s := pc.srv
	span := fs.blockSpan(pc.off, pc.size)
	aligned := fs.sectorAligned(pc.off, pc.size)
	diskBytes := float64(pc.size)
	local := fs.serverLocal(pc.off)
	var seek des.Duration
	if s.lastFile != f || s.lastEnd != local {
		seek = fs.cfg.SeekTime
		s.seeks++
	}
	if !aligned {
		// Read-modify-write: the server must fetch the partial blocks,
		// merge, and write whole blocks back — double traffic on the
		// touched span plus a positioning penalty.
		diskBytes = float64(2 * span)
		if seek == 0 {
			seek = fs.cfg.SeekTime
			s.seeks++
		}
	}
	var alloc des.Duration
	if end := pc.off + pc.size; end > f.allocated {
		newBlocks := (end - f.allocated + fs.cfg.BlockSize - 1) / fs.cfg.BlockSize
		alloc = des.Duration(newBlocks) * fs.cfg.AllocPerBlock
		f.allocated = f.allocated + newBlocks*fs.cfg.BlockSize
		if f.allocated < end {
			f.allocated = end
		}
	}
	work := seek + alloc
	if fs.cfg.WriteBandwidth > 0 {
		work += des.DurationOf(diskBytes / fs.cfg.WriteBandwidth)
	}
	// Queue the work on the disk (it cannot start before the data is
	// here).
	diskStart := s.diskFree
	if arrival > diskStart {
		diskStart = arrival
	}
	work += fs.stallFor(s.id, diskStart)
	s.diskFree = diskStart.Add(work)
	s.busy += work
	s.lastFile = f
	s.lastEnd = local + pc.size
	if m := fs.metrics; m != nil {
		m.Ops.Inc()
		m.WriteBytes.Add(pc.size)
	}
	fs.notifyServerOp(s.id, true, pc.size, diskStart, s.diskFree)

	// Write-behind: accepted at memory speed while the backlog fits in
	// the cache; once the backlog exceeds the cache, the burst buffer
	// (when configured) absorbs the overflow at its own bandwidth;
	// only when that is full too is the client throttled to the drain
	// rate.
	backlog := s.diskFree.Sub(arrival)
	capT := fs.capacityTime()
	if backlog <= capT {
		return arrival.Add(fs.memCost(pc.size))
	}
	if bbT := fs.burstCapacityTime(); bbT > 0 {
		if backlog <= capT+bbT {
			if m := fs.metrics; m != nil {
				m.BurstAbsorbs.Inc()
			}
			return arrival.Add(fs.burstCost(pc.size))
		}
		return s.diskFree.Add(-capT - bbT)
	}
	return s.diskFree.Add(-capT)
}

// serverRead models one stripe piece fetched from a server.
func (fs *FS) serverRead(f *File, pc piece, arrival des.Time) des.Time {
	s := pc.srv
	// Cache hit: recently written region not yet evicted by later
	// traffic elsewhere in the filesystem.
	if fs.inCache(f, pc.off, pc.size) {
		if m := fs.metrics; m != nil {
			m.CacheHits.Inc()
		}
		return arrival.Add(fs.memCost(pc.size))
	}
	// Burst-buffer hit: evicted from DRAM but still within the (larger)
	// burst-buffer window — served at the tier's bandwidth.
	if fs.inBurstBuffer(f, pc.off, pc.size) {
		if m := fs.metrics; m != nil {
			m.BurstHits.Inc()
		}
		return arrival.Add(fs.burstCost(pc.size))
	}
	local := fs.serverLocal(pc.off)
	var seek des.Duration
	if s.lastFile != f || s.lastEnd != local {
		seek = fs.cfg.SeekTime
		s.seeks++
	}
	span := fs.blockSpan(pc.off, pc.size)
	diskBytes := float64(pc.size)
	if !fs.sectorAligned(pc.off, pc.size) {
		diskBytes = float64(span) // whole blocks come off the platter
	}
	work := seek
	if fs.cfg.ReadBandwidth > 0 {
		work += des.DurationOf(diskBytes / fs.cfg.ReadBandwidth)
	}
	start := s.diskFree
	if arrival > start {
		start = arrival
	}
	work += fs.stallFor(s.id, start)
	s.diskFree = start.Add(work)
	s.busy += work
	s.lastFile = f
	s.lastEnd = local + pc.size
	if m := fs.metrics; m != nil {
		m.Ops.Inc()
		m.ReadBytes.Add(pc.size)
	}
	fs.notifyServerOp(s.id, false, pc.size, start, s.diskFree)
	return s.diskFree
}

// inCache reports whether [off,off+size) of the file is still in the
// write-behind cache: it was among the file's most recent writes and no
// more than the total cache size has been written filesystem-wide since.
func (fs *FS) inCache(f *File, off, size int64) bool {
	return fs.inWindow(f, off, size, fs.cfg.TotalCache())
}

// inBurstBuffer reports whether the range missed the DRAM cache but
// still sits within the combined cache + burst-buffer retention window.
func (fs *FS) inBurstBuffer(f *File, off, size int64) bool {
	bb := fs.cfg.TotalBurstBuffer()
	if bb <= 0 {
		return false
	}
	return fs.inWindow(f, off, size, fs.cfg.TotalCache()+bb)
}

// inWindow is the retention test shared by the cache tiers: the range
// was among the file's most recent writes and no more than window
// bytes have been written filesystem-wide since.
func (fs *FS) inWindow(f *File, off, size, window int64) bool {
	if window <= 0 || f.cacheLo < 0 {
		return false
	}
	if fs.writeClock-f.cacheStamp > window {
		return false // evicted by later traffic
	}
	lo := f.size - window
	if lo < f.cacheLo {
		lo = f.cacheLo
	}
	if lo < 0 {
		lo = 0
	}
	return off >= lo && off+size <= f.size
}

// Sync blocks p until every server's disk queue has drained: the only
// way to know the data is really on disk, as §5.4 of the paper
// discusses at length (MPI_File_sync has consistency semantics only).
func (f *File) Sync(p *des.Proc) {
	fs := f.fs
	p.Sleep(fs.cfg.RequestOverhead)
	done := p.Now()
	for _, s := range fs.servers {
		if s.diskFree > done {
			done = s.diskFree
		}
	}
	p.SleepUntil(done)
}

// StoreContent records payload bytes at an offset without charging any
// simulated time. It exists for layers (like collective MPI-I/O) that
// account timing through their own aggregated accesses but still want
// payload fidelity for tests. It does not change the file size.
func (f *File) StoreContent(off int64, data []byte) {
	f.writeContent(off, data)
}

// ---------------------------------------------------------------------
// Content tracking (for tests and examples; benchmarks run timing-only)

func (f *File) writeContent(off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	f.content[off] = append([]byte(nil), data...)
}

func (f *File) readContent(off, size int64) []byte {
	out := make([]byte, size)
	// Overlay all stored extents that intersect, in offset order for
	// determinism.
	offs := make([]int64, 0, len(f.content))
	for o := range f.content {
		offs = append(offs, o)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, o := range offs {
		data := f.content[o]
		lo, hi := o, o+int64(len(data))
		if hi <= off || lo >= off+size {
			continue
		}
		s := max64(lo, off)
		e := min64(hi, off+size)
		copy(out[s-off:e-off], data[s-o:e-o])
	}
	return out
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
