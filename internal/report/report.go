// Package report renders benchmark results in the shapes the paper
// publishes them: Table-1 rows for b_eff, the Fig.-1 balance-factor
// chart, b_eff_io detail tables in the layout of Fig. 4, partition
// sweeps as in Figs. 3 and 5, and CSV for external plotting.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/simnet"
)

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	System   string
	Procs    int
	Beff     float64 // bytes/s
	Lmax     int64
	PingPong float64 // bytes/s (0 = not measured)
	AtLmax   float64
	RingOnly float64
}

// FromBeff builds a Table1Row from a b_eff result.
func FromBeff(system string, res *core.Result) Table1Row {
	return Table1Row{
		System:   system,
		Procs:    res.Procs,
		Beff:     res.Beff,
		Lmax:     res.Lmax,
		PingPong: res.PingPong,
		AtLmax:   res.BeffAtLmax,
		RingOnly: res.RingAtLmax,
	}
}

func mb(bps float64) string {
	if bps == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", bps/1e6)
}

// Table1 renders rows in the layout of the paper's Table 1.
func Table1(rows []Table1Row) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "System\tprocs\tb_eff\tb_eff/proc\tLmax\tping-pong\tb_eff@Lmax\tper proc@Lmax\tring pat.@Lmax\t")
	fmt.Fprintln(tw, "\t\tMB/s\tMB/s\tMB\tMB/s\tMB/s\tMB/s\tMB/s per proc\t")
	for _, r := range rows {
		perProc := r.Beff / float64(r.Procs)
		atLper := r.AtLmax / float64(r.Procs)
		ringPer := r.RingOnly / float64(r.Procs)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%d\t%s\t%s\t%s\t%s\t\n",
			r.System, r.Procs, mb(r.Beff), mb(perProc), r.Lmax>>20,
			mb(r.PingPong), mb(r.AtLmax), mb(atLper), mb(ringPer))
	}
	tw.Flush()
	return sb.String()
}

// BalanceRow is one bar of the Fig.-1 balance-factor chart.
type BalanceRow struct {
	System string
	Procs  int
	Beff   float64 // bytes/s
	RmaxGF float64 // GFlop/s
}

// HasRmax reports whether the row carries a usable Linpack R_max — a
// profile with a zero or unset R_max has no defined balance factor.
func (b BalanceRow) HasRmax() bool { return b.RmaxGF > 0 }

// BalanceFactor is b_eff per R_max in bytes per flop. The zero/unset
// R_max guard matters: dividing through would yield ±Inf (or NaN for
// 0/0), which poisons chart scaling and is unmarshalable in the fleet
// JSON report. Callers that must distinguish "no R_max" from a true
// zero use HasRmax.
func (b BalanceRow) BalanceFactor() float64 {
	if !b.HasRmax() {
		return 0
	}
	return b.Beff / (b.RmaxGF * 1e9)
}

// BalanceChart renders Fig. 1: a horizontal bar chart of the balance
// factor (communication bytes per flop) for each platform. A row
// without R_max renders as a defined "n/a" line instead of a garbage
// bar: it neither contributes to the chart scale nor masquerades as a
// measured zero.
func BalanceChart(rows []BalanceRow) string {
	var sb strings.Builder
	sb.WriteString("Balance factor b_eff / R_max (bytes communicated per flop)\n\n")
	maxBF := 0.0
	for _, r := range rows {
		if bf := r.BalanceFactor(); bf > maxBF {
			maxBF = bf
		}
	}
	if maxBF <= 0 {
		maxBF = 1
	}
	const width = 50
	for _, r := range rows {
		label := fmt.Sprintf("%s (%d procs)", r.System, r.Procs)
		if !r.HasRmax() {
			fmt.Fprintf(&sb, "%-38s %7s |\n", label, "n/a")
			continue
		}
		bf := r.BalanceFactor()
		n := int(bf / maxBF * width)
		fmt.Fprintf(&sb, "%-38s %7.4f |%s\n", label, bf, strings.Repeat("#", n))
	}
	return sb.String()
}

// BeffProtocol renders the full b_eff measurement protocol: every
// pattern, message size and method, as the original benchmark's
// output file does.
func BeffProtocol(res *core.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "b_eff protocol: %d processes, Lmax = %d bytes\n", res.Procs, res.Lmax)
	fmt.Fprintf(&sb, "b_eff        = %s MB/s  (%.1f MB/s per process)\n", mb(res.Beff), res.BeffPerProc()/1e6)
	fmt.Fprintf(&sb, "b_eff @Lmax  = %s MB/s  (%.1f per process)\n", mb(res.BeffAtLmax), res.AtLmaxPerProc()/1e6)
	fmt.Fprintf(&sb, "rings @Lmax  = %s MB/s  (%.1f per process)\n", mb(res.RingAtLmax), res.RingAtLmaxPerProc()/1e6)
	if res.PingPong > 0 {
		fmt.Fprintf(&sb, "ping-pong    = %s MB/s\n", mb(res.PingPong))
	}
	for _, group := range []struct {
		name string
		prs  []core.PatternResult
	}{{"ring patterns", res.Ring}, {"random patterns", res.Random}} {
		fmt.Fprintf(&sb, "\n%s\n", group.name)
		for _, pr := range group.prs {
			fmt.Fprintf(&sb, "  %-16s rings=%v msgs/iter=%d avg=%.1f MB/s\n",
				pr.Name, pr.RingSizes, pr.TotalMsgs, pr.SumAvg/1e6)
			tw := tabwriter.NewWriter(&sb, 2, 0, 1, ' ', tabwriter.AlignRight)
			fmt.Fprint(tw, "    L\t")
			for m := 0; m < core.NumMethods; m++ {
				fmt.Fprintf(tw, "%v\t", core.Method(m))
			}
			fmt.Fprint(tw, "best\t\n")
			for si, L := range res.Sizes {
				fmt.Fprintf(tw, "    %d\t", L)
				for m := 0; m < core.NumMethods; m++ {
					fmt.Fprintf(tw, "%.2f\t", pr.ByMethod[m][si]/1e6)
				}
				fmt.Fprintf(tw, "%.2f\t\n", pr.Best[si]/1e6)
			}
			tw.Flush()
		}
	}
	if len(res.Analysis) > 0 {
		fmt.Fprintf(&sb, "\nanalysis patterns (at Lmax, not averaged)\n")
		for _, a := range res.Analysis {
			fmt.Fprintf(&sb, "  %-32s %10.1f MB/s total  %8.1f MB/s per proc (%d procs)\n",
				a.Name, a.BW/1e6, a.PerProc/1e6, a.Involved)
		}
	}
	cs := res.Categories()
	fmt.Fprintf(&sb, "\ncategory summary (mean MB/s)\n")
	for c := core.SizeClass(0); c < 3; c++ {
		fmt.Fprintf(&sb, "  %-20v ring %10.1f   random %10.1f\n", c, cs.Ring[c]/1e6, cs.Random[c]/1e6)
	}
	for m := 0; m < core.NumMethods; m++ {
		fmt.Fprintf(&sb, "  method %-12v only: %10.1f\n", core.Method(m), cs.ByMethod[m]/1e6)
	}
	fmt.Fprintf(&sb, "  preferred method: %v\n", cs.PreferredMethod())
	return sb.String()
}

// BeffIOProtocol renders the b_eff_io detail protocol: for each access
// method, each pattern's bandwidth over its disk chunk size — the data
// behind the paper's Fig. 4 — plus the weighted summaries.
func BeffIOProtocol(res *beffio.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "b_eff_io protocol: %d processes, T = %v, M_PART = %d bytes, segment = %d bytes\n",
		res.Procs, res.T, res.MPart, res.SegmentSize)
	fmt.Fprintf(&sb, "b_eff_io = %.1f MB/s (weights: 25%% write, 25%% rewrite, 50%% read; scatter type double)\n",
		res.BeffIO/1e6)
	for _, mr := range res.Methods {
		fmt.Fprintf(&sb, "\naccess method: %v   (weighted avg %.1f MB/s)\n", mr.Method, mr.BW/1e6)
		tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "  pat\ttype\tl (disk)\tL (mem)\tU\treps\tMB moved\tseconds\tMB/s\t")
		for _, tr := range mr.Types {
			if tr.Skipped {
				fmt.Fprintf(tw, "  -\t%v\tskipped\t\t\t\t\t\t\t\n", tr.Type)
				continue
			}
			for _, pm := range tr.Patterns {
				l := fmt.Sprint(pm.Pattern.DiskChunk)
				if pm.Pattern.DiskChunk == beffio.FillUp {
					l = "fill-up"
				}
				fmt.Fprintf(tw, "  %d\t%d\t%s\t%d\t%d\t%d\t%.2f\t%.4f\t%.2f\t\n",
					pm.Pattern.Num, int(pm.Pattern.Type), l, pm.Pattern.MemChunk,
					pm.Pattern.U, pm.Reps, float64(pm.Bytes)/1e6, pm.Seconds, pm.BW/1e6)
			}
			fmt.Fprintf(tw, "  \ttype %d total\t\t\t\t\t%.2f\t%.4f\t%.2f\t\n",
				int(tr.Type), float64(tr.Bytes)/1e6, tr.Seconds, tr.BW/1e6)
		}
		tw.Flush()
	}
	return sb.String()
}

// Series is one line of a Fig.-3/5-style chart: a value per partition
// size.
type Series struct {
	Name   string
	Points map[int]float64 // procs → bytes/s
}

// SweepChart renders b_eff_io (or any bandwidth) against partition
// size for several series, the shape of Figs. 3 and 5.
func SweepChart(title string, series []Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n\n", title)
	// Collect the union of x values.
	xs := map[int]bool{}
	maxV := 0.0
	for _, s := range series {
		for x, v := range s.Points {
			xs[x] = true
			if v > maxV {
				maxV = v
			}
		}
	}
	var xlist []int
	for x := range xs {
		xlist = append(xlist, x)
	}
	sort.Ints(xlist)
	if maxV <= 0 {
		maxV = 1
	}
	const width = 44
	for _, s := range series {
		fmt.Fprintf(&sb, "%s\n", s.Name)
		for _, x := range xlist {
			v, ok := s.Points[x]
			if !ok {
				continue
			}
			bar := strings.Repeat("#", int(v/maxV*width))
			fmt.Fprintf(&sb, "  %5d procs %9.1f MB/s |%s\n", x, v/1e6, bar)
		}
	}
	return sb.String()
}

// CSV writes rows with a header; all quoting is minimal since values
// are numeric or simple names.
func CSV(w io.Writer, header []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(r, ",")); err != nil {
			return err
		}
	}
	return nil
}

// BeffIOCSV flattens a b_eff_io result to CSV rows for plotting Fig. 4
// externally.
func BeffIOCSV(w io.Writer, system string, res *beffio.Result) error {
	header := []string{"system", "procs", "method", "type", "pattern", "disk_chunk", "mem_chunk", "U", "reps", "bytes", "seconds", "mbps"}
	var rows [][]string
	for _, mr := range res.Methods {
		for _, tr := range mr.Types {
			if tr.Skipped {
				continue
			}
			for _, pm := range tr.Patterns {
				rows = append(rows, []string{
					system,
					fmt.Sprint(res.Procs),
					mr.Method.String(),
					fmt.Sprint(int(tr.Type)),
					fmt.Sprint(pm.Pattern.Num),
					fmt.Sprint(pm.Pattern.DiskChunk),
					fmt.Sprint(pm.Pattern.MemChunk),
					fmt.Sprint(pm.Pattern.U),
					fmt.Sprint(pm.Reps),
					fmt.Sprint(pm.Bytes),
					fmt.Sprintf("%.6f", pm.Seconds),
					fmt.Sprintf("%.3f", pm.BW/1e6),
				})
			}
		}
	}
	return CSV(w, header, rows)
}

// BeffCSV flattens a b_eff protocol to CSV (pattern x size x method).
func BeffCSV(w io.Writer, system string, res *core.Result) error {
	header := []string{"system", "procs", "family", "pattern", "L", "method", "mbps"}
	var rows [][]string
	emit := func(family string, prs []core.PatternResult) {
		for _, pr := range prs {
			for si, L := range res.Sizes {
				for m := 0; m < core.NumMethods; m++ {
					rows = append(rows, []string{
						system, fmt.Sprint(res.Procs), family, pr.Name,
						fmt.Sprint(L), core.Method(m).String(),
						fmt.Sprintf("%.3f", pr.ByMethod[m][si]/1e6),
					})
				}
			}
		}
	}
	emit("ring", res.Ring)
	emit("random", res.Random)
	return CSV(w, header, rows)
}

// UtilizationTable renders the busiest network resources of a run: the
// diagnostic view behind statements like "the I/O bandwidth is a
// global resource" — you can see which link, bus or adapter saturated.
func UtilizationTable(stats []simnet.ResourceStat) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 2, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "resource\tbusy\tutilization\treservations\t")
	for _, s := range stats {
		fmt.Fprintf(tw, "%s\t%v\t%.1f%%\t%d\t\n", s.Name, s.Busy, s.Utilization*100, s.Reservations)
	}
	tw.Flush()
	return sb.String()
}
