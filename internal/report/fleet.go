package report

// Fleet rendering: the survey/taxonomy view of the whole machine
// registry — the paper's Table 1 and Fig.-1 balance chart for every
// profile at once, plus a taxonomy table in the style of the HPC
// benchmark surveys (fabric family, b_eff, b_eff/R_max, L_max,
// perturbation sensitivity) — in text, CSV and JSON.
//
// The JSON shape is the fleet's committed characterization record:
// it is rendered deterministically (no timestamps unless the caller
// stamps one), so two runs of the same fleet at any -j are
// byte-identical, and FleetDiff can gate a machine's drift against a
// prior run.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/hpcbench/beff/internal/stats"
)

// FleetPerturbed is the robustness distribution of one fleet point
// under the sweep's perturbation profile.
type FleetPerturbed struct {
	Profile string `json:"profile"`
	Reps    int    `json:"reps"`

	// Summary describes the per-repetition b_eff values (bytes/s);
	// MaxOverReps is the paper-prescribed reported value.
	Summary     stats.Robust `json:"summary"`
	MaxOverReps float64      `json:"max_over_reps"`

	// SensitivityPct is the headline fraction lost under faults:
	// 100*(1 - max_over_reps/baseline), 0 when the baseline is zero
	// (degenerate, but defined — never NaN).
	SensitivityPct float64 `json:"sensitivity_pct"`
}

// FleetPoint is one (machine, procs) measurement of the sweep.
type FleetPoint struct {
	Procs      int     `json:"procs"`
	Beff       float64 `json:"beff"`        // bytes/s
	AtLmax     float64 `json:"at_lmax"`     // bytes/s
	RingAtLmax float64 `json:"ring_at_lmax"` // bytes/s
	PingPong   float64 `json:"ping_pong,omitempty"`
	Lmax       int64   `json:"lmax_bytes"`

	Perturbed *FleetPerturbed `json:"perturbed,omitempty"`
}

// FleetMachine is one machine's characterization: its taxonomy
// identity plus the measured ladder. The headline fields repeat the
// largest-partition point so diff tooling and the taxonomy table need
// no ladder traversal.
type FleetMachine struct {
	Key          string `json:"key"`
	Name         string `json:"name"`
	Class        string `json:"class"`
	FabricFamily string `json:"fabric_family"`
	SMPNodeSize  int    `json:"smp_node_size,omitempty"`
	MaxProcs     int    `json:"max_procs"`

	Points []FleetPoint `json:"points"`

	// Headline characterization, from the largest measured partition.
	Procs       int     `json:"procs"`
	Beff        float64 `json:"beff"` // bytes/s
	BeffPerProc float64 `json:"beff_per_proc"`
	RmaxGF      float64 `json:"rmax_gf,omitempty"`
	// Balance is b_eff/R_max in bytes per flop; HasBalance is false
	// for profiles without a published R_max (Balance stays 0 — a
	// defined n/a, never ±Inf).
	Balance        float64 `json:"balance_bytes_per_flop,omitempty"`
	HasBalance     bool    `json:"has_balance"`
	SensitivityPct float64 `json:"sensitivity_pct,omitempty"`
}

// FleetReport is the whole fleet's characterization.
type FleetReport struct {
	// Generated is a caller-stamped timestamp; empty (the default)
	// keeps the report byte-deterministic.
	Generated string `json:"generated,omitempty"`

	Seed          int64  `json:"seed"`
	MaxLooplength int    `json:"max_looplength"`
	Reps          int    `json:"reps,omitempty"`
	Perturb       string `json:"perturb,omitempty"`
	ProcsLadder   []int  `json:"procs_ladder"`

	Machines []FleetMachine `json:"machines"`
}

// headline returns the largest-partition point, nil for an empty
// ladder.
func (m *FleetMachine) headline() *FleetPoint {
	if len(m.Points) == 0 {
		return nil
	}
	best := &m.Points[0]
	for i := range m.Points {
		if m.Points[i].Procs > best.Procs {
			best = &m.Points[i]
		}
	}
	return best
}

// Table1Rows flattens the fleet into the paper's Table-1 layout, one
// row per (machine, point), ping-pong quoted only on each machine's
// largest partition as the paper does.
func (r *FleetReport) Table1Rows() []Table1Row {
	var rows []Table1Row
	for i := range r.Machines {
		m := &r.Machines[i]
		head := m.headline()
		pts := append([]FleetPoint(nil), m.Points...)
		sort.Slice(pts, func(a, b int) bool { return pts[a].Procs > pts[b].Procs })
		for _, pt := range pts {
			row := Table1Row{
				System:   m.Name,
				Procs:    pt.Procs,
				Beff:     pt.Beff,
				Lmax:     pt.Lmax,
				AtLmax:   pt.AtLmax,
				RingOnly: pt.RingAtLmax,
			}
			if head != nil && pt.Procs == head.Procs {
				row.PingPong = pt.PingPong
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// BalanceRows builds the Fig.-1 rows from the headline points.
func (r *FleetReport) BalanceRows() []BalanceRow {
	rows := make([]BalanceRow, 0, len(r.Machines))
	for i := range r.Machines {
		m := &r.Machines[i]
		rows = append(rows, BalanceRow{
			System: m.Name, Procs: m.Procs, Beff: m.Beff, RmaxGF: m.RmaxGF,
		})
	}
	return rows
}

// FleetTaxonomy renders the survey-style taxonomy table: one line per
// machine with its fabric family, headline b_eff, balance factor,
// L_max and perturbation sensitivity.
func FleetTaxonomy(r *FleetReport) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "system\tclass\tfabric\tprocs\tb_eff\tper proc\tLmax\tbalance\tperturb sens.\t")
	fmt.Fprintln(tw, "\t\t\t\tMB/s\tMB/s\tMB\tB/flop\t%\t")
	for i := range r.Machines {
		m := &r.Machines[i]
		balance := "n/a"
		if m.HasBalance {
			balance = fmt.Sprintf("%.4f", m.Balance)
		}
		sens := "-"
		if m.headline() != nil && m.headline().Perturbed != nil {
			sens = fmt.Sprintf("%.1f", m.SensitivityPct)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%s\t%d\t%s\t%s\t\n",
			m.Name, m.Class, m.FabricFamily, m.Procs,
			mb(m.Beff), mb(m.BeffPerProc), lmaxOf(m)>>20, balance, sens)
	}
	tw.Flush()
	return sb.String()
}

func lmaxOf(m *FleetMachine) int64 {
	if h := m.headline(); h != nil {
		return h.Lmax
	}
	return 0
}

// FleetText renders the full fleet report: header, Table 1 for every
// machine, the balance chart, and the taxonomy table.
func FleetText(r *FleetReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Fleet characterization: %d machines, procs ladder %v, seed %d ===\n",
		len(r.Machines), r.ProcsLadder, r.Seed)
	if r.Perturb != "" {
		fmt.Fprintf(&sb, "perturbation profile %q, %d repetitions per point\n", r.Perturb, r.Reps)
	}
	if r.Generated != "" {
		fmt.Fprintf(&sb, "generated %s\n", r.Generated)
	}
	sb.WriteString("\n--- Table 1, fleet-wide ---\n")
	sb.WriteString(Table1(r.Table1Rows()))
	sb.WriteString("\n--- Balance factors (Fig. 1) ---\n")
	sb.WriteString(BalanceChart(r.BalanceRows()))
	sb.WriteString("\n--- Taxonomy ---\n")
	sb.WriteString(FleetTaxonomy(r))
	return sb.String()
}

// FleetCSV writes the machine-readable fleet table: one row per
// (machine, point), headline taxonomy columns repeated per row.
func FleetCSV(w io.Writer, r *FleetReport) error {
	header := []string{
		"key", "system", "class", "fabric", "procs",
		"beff_mbps", "beff_per_proc_mbps", "at_lmax_mbps", "ring_at_lmax_mbps",
		"pingpong_mbps", "lmax_bytes", "balance_bytes_per_flop",
		"perturb_reps", "perturb_max_mbps", "sensitivity_pct",
	}
	var rows [][]string
	for i := range r.Machines {
		m := &r.Machines[i]
		for _, pt := range m.Points {
			balance := ""
			if m.HasBalance && pt.Procs == m.Procs {
				balance = fmt.Sprintf("%.6f", m.Balance)
			}
			reps, pmax, sens := "", "", ""
			if p := pt.Perturbed; p != nil {
				reps = fmt.Sprint(p.Reps)
				pmax = fmt.Sprintf("%.3f", p.MaxOverReps/1e6)
				sens = fmt.Sprintf("%.2f", p.SensitivityPct)
			}
			rows = append(rows, []string{
				m.Key, m.Name, m.Class, m.FabricFamily, fmt.Sprint(pt.Procs),
				fmt.Sprintf("%.3f", pt.Beff/1e6),
				fmt.Sprintf("%.3f", pt.Beff/float64(pt.Procs)/1e6),
				fmt.Sprintf("%.3f", pt.AtLmax/1e6),
				fmt.Sprintf("%.3f", pt.RingAtLmax/1e6),
				fmt.Sprintf("%.3f", pt.PingPong/1e6),
				fmt.Sprint(pt.Lmax),
				balance, reps, pmax, sens,
			})
		}
	}
	return CSV(w, header, rows)
}

// FleetJSON renders the canonical indented JSON document, trailing
// newline included — the bytes a fleet JSON artifact holds on disk.
func FleetJSON(r *FleetReport) ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseFleetJSON reads a fleet JSON artifact back.
func ParseFleetJSON(data []byte) (*FleetReport, error) {
	var r FleetReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("fleet report: %w", err)
	}
	return &r, nil
}

// FleetDiff compares two fleet reports and returns one message per
// flagged machine: a headline b_eff or balance-factor move beyond
// relTol (e.g. 0.01 = 1%), a machine present in only one report, or a
// balance factor appearing/disappearing. An empty slice means the
// fleets characterize identically within tolerance.
func FleetDiff(old, cur *FleetReport, relTol float64) []string {
	var msgs []string
	oldBy := map[string]*FleetMachine{}
	for i := range old.Machines {
		oldBy[old.Machines[i].Key] = &old.Machines[i]
	}
	seen := map[string]bool{}
	for i := range cur.Machines {
		m := &cur.Machines[i]
		seen[m.Key] = true
		o, ok := oldBy[m.Key]
		if !ok {
			msgs = append(msgs, fmt.Sprintf("%s: new machine (b_eff %s MB/s)", m.Key, mb(m.Beff)))
			continue
		}
		if o.Procs != m.Procs {
			msgs = append(msgs, fmt.Sprintf("%s: headline partition moved %d -> %d procs", m.Key, o.Procs, m.Procs))
			continue
		}
		if d := relMove(o.Beff, m.Beff); d > relTol {
			msgs = append(msgs, fmt.Sprintf("%s: b_eff moved %.2f%% (%s -> %s MB/s)",
				m.Key, 100*d, mb(o.Beff), mb(m.Beff)))
		}
		switch {
		case o.HasBalance != m.HasBalance:
			msgs = append(msgs, fmt.Sprintf("%s: balance factor %s", m.Key,
				map[bool]string{true: "appeared", false: "disappeared"}[m.HasBalance]))
		case m.HasBalance:
			if d := relMove(o.Balance, m.Balance); d > relTol {
				msgs = append(msgs, fmt.Sprintf("%s: balance factor moved %.2f%% (%.4f -> %.4f B/flop)",
					m.Key, 100*d, o.Balance, m.Balance))
			}
		}
	}
	for i := range old.Machines {
		if !seen[old.Machines[i].Key] {
			msgs = append(msgs, fmt.Sprintf("%s: machine disappeared from the fleet", old.Machines[i].Key))
		}
	}
	return msgs
}

// relMove is the relative move |cur-old|/|old|, with a defined answer
// for a zero baseline: 0 when both are zero, +Inf-free 1 (100%) when
// only the old value is zero.
func relMove(old, cur float64) float64 {
	if old == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return math.Abs(cur-old) / math.Abs(old)
}
