package store

import "github.com/hpcbench/beff/internal/obs"

// Metrics is the store's optional observability hook-up, in the same
// nil-gated style as the simulator subsystems: every field may be nil
// (obs instruments are nil-receiver no-ops), and a nil *Metrics
// disables the whole set at the cost of one branch per operation.
//
// Gauges are refreshed after every mutating operation and on open;
// counters count from the moment the Metrics struct is attached, and
// RecoveryTruncations also includes the torn tails dropped at open.
type Metrics struct {
	// Operation counts.
	Puts      *obs.Counter
	Gets      *obs.Counter
	GetMisses *obs.Counter
	Deletes   *obs.Counter

	// Compaction activity: runs completed and bytes of dead log
	// reclaimed by them.
	Compactions    *obs.Counter
	ReclaimedBytes *obs.Counter

	// RecoveryTruncations counts torn or corrupt segment tails dropped
	// during open — each one is a crashed writer's final partial record.
	RecoveryTruncations *obs.Counter

	// Point-in-time store shape.
	Segments    *obs.Gauge
	LiveEntries *obs.Gauge
	LiveBytes   *obs.Gauge
	DeadBytes   *obs.Gauge
}

// noMetrics stands in when no Metrics is attached; its nil instrument
// fields make every update a no-op.
var noMetrics = &Metrics{}

// met returns the attached metrics set, never nil.
func (s *Store) met() *Metrics {
	if m := s.m.Load(); m != nil {
		return m
	}
	return noMetrics
}

// SetMetrics attaches (or replaces) the instrument set and seeds the
// gauges from the current store shape. Recovery runs inside Open,
// before any set can be attached, so the torn tails it dropped are
// added to RecoveryTruncations here; the other counters accumulate
// from this call on.
func (s *Store) SetMetrics(m *Metrics) {
	if m == nil {
		m = noMetrics
	}
	s.m.Store(m)
	m.RecoveryTruncations.Add(s.truncations)
	s.updateGauges()
}

// updateGauges publishes the current store shape.
func (s *Store) updateGauges() {
	m := s.met()
	if m == noMetrics {
		return
	}
	st := s.Stats()
	m.Segments.Set(int64(st.Segments))
	m.LiveEntries.Set(st.LiveEntries)
	m.LiveBytes.Set(st.LiveBytes)
	m.DeadBytes.Set(st.DeadBytes)
}
