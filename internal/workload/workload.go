// Package workload defines a composable I/O workload grammar: a small
// pattern AST that subsumes the paper's Table 2 (every b_eff_io access
// pattern is one canned instance, see Table2Spec) and extends past it
// into the what-if space modern I/O characterization needs — bursty
// phases, mixed read/write ratios, and Zipf-skewed hot-file access —
// while staying seeded and byte-deterministic.
//
// A Spec is a list of named phases; each phase holds one pattern tree.
// Leaves are the four access shapes of the paper's Fig. 2 family:
//
//	strided    collective scatter: disk chunks of Chunk bytes strided
//	           across ranks, Mem bytes handled per collective call
//	shared     ordered collective access at the shared file pointer
//	separate   noncollective access, one file per rank
//	segmented  one contiguous segment per rank in a common file
//	           (Collective selects the collective variant)
//
// Composite nodes shape the op stream around the leaves:
//
//	seq      run children in order
//	repeat   run Body Count times
//	bursty   Count bursts of Burst× Body back-to-back, each burst
//	         followed by GapMS of virtual compute time
//	mix      each leaf repetition under Body flips to a read with
//	         probability ReadFraction (seeded, identical on all ranks)
//	zipf     Count draws of a hot file from a Zipf(Theta) distribution
//	         over Files files; Body targets the drawn file
//
// Everything is deterministic: the spec's Seed drives one shared RNG
// replicated on every rank, so collective call sequences never diverge
// and the same spec always produces byte-identical results.
package workload

import (
	"fmt"
)

// Op names of the AST nodes.
const (
	OpSeq       = "seq"
	OpRepeat    = "repeat"
	OpBursty    = "bursty"
	OpMix       = "mix"
	OpZipf      = "zipf"
	OpStrided   = "strided"
	OpShared    = "shared"
	OpSeparate  = "separate"
	OpSegmented = "segmented"
)

// FillUp is the special Chunk value of the paper's segment fill-up
// pattern: "fill the rest of the segment". It is only meaningful in
// table-style specs (see Spec.TableRows); the streaming executor
// rejects it.
const FillUp = int64(-1)

// Validation bounds. They keep parsed specs small enough that
// compiling and simulating one is always cheap, and they are what the
// fuzz target leans on: any spec that passes Validate must execute
// without panics or overflow.
const (
	MaxPhases    = 16
	MaxNodes     = 256
	MaxDepth     = 12
	MaxChildren  = 64
	MaxCount     = 1 << 20
	MaxBurst     = 1 << 16
	MaxChunk     = int64(1) << 30
	MaxGapMS     = 60_000
	MaxTheta     = 16
	MaxZipfFiles = 1 << 16
	MaxTotalOps  = 1 << 21

	// MaxChunksPerCall bounds Mem/Chunk on strided leaves: every disk
	// chunk of a call is a separate file extent. Table 2 needs 1024.
	MaxChunksPerCall = 1 << 12
)

// Spec is the root of a workload description: a seed and a list of
// named phases executed in order against one filesystem. The zero
// Seed normalizes to 1. A Spec is also a cache-fingerprint component
// (runner folds it into cell fingerprints), so its canonical form —
// the result of Normalize — must marshal deterministically; plain
// encoding/json struct marshaling provides that.
type Spec struct {
	// Name identifies the workload in cell keys and reports.
	Name string `json:"name"`

	// Seed drives every random draw (mix flips, zipf file selection).
	// Zero normalizes to 1.
	Seed int64 `json:"seed,omitempty"`

	// Phases run in order; files persist across phases, so a read
	// phase can re-read (and cache-hit) what a write phase left behind.
	Phases []Phase `json:"phases"`
}

// Phase is one named stage of the workload.
type Phase struct {
	Name    string `json:"name"`
	Pattern *Node  `json:"pattern"`
}

// Node is one AST node; Op selects which fields are meaningful, and
// Validate rejects fields set on nodes that do not use them, so a spec
// cannot silently carry dead configuration.
type Node struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`

	// Nodes are the children of a seq node.
	Nodes []*Node `json:"nodes,omitempty"`

	// Body is the child of repeat, bursty, mix and zipf nodes.
	Body *Node `json:"body,omitempty"`

	// Count is the repetition count: leaf operations, repeat
	// iterations, bursty bursts, or zipf draws. Zero normalizes to 1.
	Count int `json:"count,omitempty"`

	// Chunk is l, the contiguous bytes on disk per operation (leaves).
	Chunk int64 `json:"chunk,omitempty"`

	// Mem is L, the bytes handled per call on strided leaves; it must
	// be a multiple of Chunk. Zero means Chunk (one chunk per call).
	Mem int64 `json:"mem,omitempty"`

	// Collective selects the collective variant of segmented leaves.
	Collective bool `json:"collective,omitempty"`

	// Read makes a leaf read instead of write (a mix ancestor
	// overrides this per repetition).
	Read bool `json:"read,omitempty"`

	// Burst is the operations per burst of a bursty node.
	Burst int `json:"burst,omitempty"`

	// GapMS is the virtual compute time between bursts, milliseconds.
	GapMS float64 `json:"gap_ms,omitempty"`

	// ReadFraction is the per-operation read probability of a mix node.
	ReadFraction float64 `json:"read_fraction,omitempty"`

	// Theta is the Zipf exponent (> 1) of a zipf node; Files is the
	// file population it draws from.
	Theta float64 `json:"theta,omitempty"`
	Files int     `json:"files,omitempty"`

	// U is the b_eff_io time-unit column of Table 2; only table-style
	// specs use it (the streaming executor runs count-driven).
	U int `json:"u,omitempty"`

	// Wellformed overrides the chunk-alignment classification of a
	// table row; nil derives it (power-of-two chunk ⇒ wellformed).
	Wellformed *bool `json:"wellformed,omitempty"`
}

// IsLeaf reports whether the node is an access leaf.
func (n *Node) IsLeaf() bool {
	switch n.Op {
	case OpStrided, OpShared, OpSeparate, OpSegmented:
		return true
	}
	return false
}

// Normalize applies defaults in place: Seed 1 and Count 1 where zero.
// Parse calls it; build specs in Go code through it too, so equal
// workloads always fingerprint equally.
func (s *Spec) Normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	for i := range s.Phases {
		normalizeNode(s.Phases[i].Pattern)
	}
}

func normalizeNode(n *Node) {
	if n == nil {
		return
	}
	switch n.Op {
	case OpSeq:
	default:
		if n.Count == 0 {
			n.Count = 1
		}
	}
	if n.Op == OpBursty && n.Burst == 0 {
		n.Burst = 1
	}
	for _, c := range n.Nodes {
		normalizeNode(c)
	}
	normalizeNode(n.Body)
}

// Validate checks the whole spec against the grammar and its bounds.
// A validated, normalized spec is guaranteed to execute without
// panics and within MaxTotalOps leaf operations.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: name is required")
	}
	if len(s.Name) > 64 {
		return fmt.Errorf("workload: name longer than 64 bytes")
	}
	for _, r := range s.Name {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.') {
			return fmt.Errorf("workload: name %q has characters outside [a-zA-Z0-9._-]", s.Name)
		}
	}
	if s.Seed < 1 {
		return fmt.Errorf("workload: seed must be >= 1, got %d", s.Seed)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: at least one phase is required")
	}
	if len(s.Phases) > MaxPhases {
		return fmt.Errorf("workload: %d phases exceed the limit of %d", len(s.Phases), MaxPhases)
	}
	seen := map[string]bool{}
	nodes := 0
	for i, ph := range s.Phases {
		if ph.Name == "" {
			return fmt.Errorf("workload: phase %d has no name", i)
		}
		if seen[ph.Name] {
			return fmt.Errorf("workload: duplicate phase name %q", ph.Name)
		}
		seen[ph.Name] = true
		if ph.Pattern == nil {
			return fmt.Errorf("workload: phase %q has no pattern", ph.Name)
		}
		if err := validateNode(ph.Pattern, 1, &nodes); err != nil {
			return fmt.Errorf("workload: phase %q: %w", ph.Name, err)
		}
		if ops := opsEstimate(ph.Pattern); ops > MaxTotalOps {
			return fmt.Errorf("workload: phase %q schedules %d leaf operations, limit %d", ph.Name, ops, MaxTotalOps)
		}
	}
	return nil
}

func validateNode(n *Node, depth int, nodes *int) error {
	if depth > MaxDepth {
		return fmt.Errorf("nesting deeper than %d", MaxDepth)
	}
	*nodes++
	if *nodes > MaxNodes {
		return fmt.Errorf("more than %d nodes", MaxNodes)
	}
	leafOnly := func() error {
		if n.Chunk != 0 || n.Mem != 0 || n.Collective || n.Read || n.U != 0 || n.Wellformed != nil {
			return fmt.Errorf("%s node carries leaf-only fields", n.Op)
		}
		return nil
	}
	noChildren := func() error {
		if len(n.Nodes) > 0 || n.Body != nil {
			return fmt.Errorf("%s leaf cannot have children", n.Op)
		}
		return nil
	}
	noComposite := func() error {
		if n.Burst != 0 || n.GapMS != 0 || n.ReadFraction != 0 || n.Theta != 0 || n.Files != 0 {
			return fmt.Errorf("%s node carries fields of another composite", n.Op)
		}
		return nil
	}
	switch n.Op {
	case OpSeq:
		if err := leafOnly(); err != nil {
			return err
		}
		if err := noComposite(); err != nil {
			return err
		}
		if n.Count != 0 {
			return fmt.Errorf("seq does not take count (use repeat)")
		}
		if n.Body != nil {
			return fmt.Errorf("seq uses nodes, not body")
		}
		if len(n.Nodes) == 0 {
			return fmt.Errorf("seq needs at least one child")
		}
		if len(n.Nodes) > MaxChildren {
			return fmt.Errorf("seq has %d children, limit %d", len(n.Nodes), MaxChildren)
		}
		for _, c := range n.Nodes {
			if c == nil {
				return fmt.Errorf("seq has a null child")
			}
			if err := validateNode(c, depth+1, nodes); err != nil {
				return err
			}
		}
		return nil
	case OpRepeat, OpBursty, OpMix, OpZipf:
		if err := leafOnly(); err != nil {
			return err
		}
		if len(n.Nodes) > 0 {
			return fmt.Errorf("%s uses body, not nodes", n.Op)
		}
		if n.Body == nil {
			return fmt.Errorf("%s needs a body", n.Op)
		}
		if n.Count < 1 || n.Count > MaxCount {
			return fmt.Errorf("%s count %d outside [1,%d]", n.Op, n.Count, MaxCount)
		}
		switch n.Op {
		case OpRepeat:
			if err := noComposite(); err != nil {
				return err
			}
		case OpBursty:
			if n.ReadFraction != 0 || n.Theta != 0 || n.Files != 0 {
				return fmt.Errorf("bursty node carries mix/zipf fields")
			}
			if n.Burst < 1 || n.Burst > MaxBurst {
				return fmt.Errorf("burst %d outside [1,%d]", n.Burst, MaxBurst)
			}
			if n.GapMS < 0 || n.GapMS > MaxGapMS {
				return fmt.Errorf("gap_ms %v outside [0,%d]", n.GapMS, MaxGapMS)
			}
		case OpMix:
			if n.Burst != 0 || n.GapMS != 0 || n.Theta != 0 || n.Files != 0 {
				return fmt.Errorf("mix node carries bursty/zipf fields")
			}
			if n.ReadFraction < 0 || n.ReadFraction > 1 {
				return fmt.Errorf("read_fraction %v outside [0,1]", n.ReadFraction)
			}
		case OpZipf:
			if n.Burst != 0 || n.GapMS != 0 || n.ReadFraction != 0 {
				return fmt.Errorf("zipf node carries bursty/mix fields")
			}
			if !(n.Theta > 1) || n.Theta > MaxTheta {
				return fmt.Errorf("theta %v outside (1,%d]", n.Theta, MaxTheta)
			}
			if n.Files < 2 || n.Files > MaxZipfFiles {
				return fmt.Errorf("files %d outside [2,%d]", n.Files, MaxZipfFiles)
			}
		}
		return validateNode(n.Body, depth+1, nodes)
	case OpStrided, OpShared, OpSeparate, OpSegmented:
		if err := noChildren(); err != nil {
			return err
		}
		if err := noComposite(); err != nil {
			return err
		}
		if n.Count < 1 || n.Count > MaxCount {
			return fmt.Errorf("%s count %d outside [1,%d]", n.Op, n.Count, MaxCount)
		}
		if n.Chunk == FillUp {
			if n.Op != OpSegmented {
				return fmt.Errorf("fill-up chunk is only valid on segmented leaves")
			}
		} else if n.Chunk < 1 || n.Chunk > MaxChunk {
			return fmt.Errorf("%s chunk %d outside [1,%d]", n.Op, n.Chunk, MaxChunk)
		}
		if n.Mem != 0 {
			if n.Op != OpStrided {
				return fmt.Errorf("mem is only valid on strided leaves")
			}
			if n.Chunk == FillUp {
				return fmt.Errorf("mem on a fill-up leaf")
			}
			if n.Mem < n.Chunk || n.Mem > MaxChunk || n.Mem%n.Chunk != 0 {
				return fmt.Errorf("mem %d must be a multiple of chunk %d within [chunk,%d]", n.Mem, n.Chunk, MaxChunk)
			}
			if n.Mem/n.Chunk > MaxChunksPerCall {
				return fmt.Errorf("mem %d spans %d chunks per call, limit %d", n.Mem, n.Mem/n.Chunk, MaxChunksPerCall)
			}
		}
		if n.Collective && n.Op != OpSegmented {
			return fmt.Errorf("collective flag is only valid on segmented leaves (strided and shared are always collective)")
		}
		if n.U < 0 || n.U > 64 {
			return fmt.Errorf("u %d outside [0,64]", n.U)
		}
		return nil
	case "":
		return fmt.Errorf("node has no op")
	default:
		return fmt.Errorf("unknown op %q", n.Op)
	}
}

// opsEstimate bounds the leaf operations a node schedules; saturates
// at MaxTotalOps+1 so multiplication cannot overflow.
func opsEstimate(n *Node) int64 {
	if n == nil {
		return 0
	}
	const limit = int64(MaxTotalOps) + 1
	sat := func(a, b int64) int64 {
		if a == 0 || b == 0 {
			return 0
		}
		if a > limit/b {
			return limit
		}
		return a * b
	}
	switch n.Op {
	case OpSeq:
		var sum int64
		for _, c := range n.Nodes {
			sum += opsEstimate(c)
			if sum > limit {
				return limit
			}
		}
		return sum
	case OpRepeat, OpMix, OpZipf:
		return sat(int64(n.Count), opsEstimate(n.Body))
	case OpBursty:
		return sat(sat(int64(n.Count), int64(n.Burst)), opsEstimate(n.Body))
	default: // leaves
		return int64(n.Count)
	}
}

// isPow2 reports whether v is a positive power of two.
func isPow2(v int64) bool { return v > 0 && v&(v-1) == 0 }
