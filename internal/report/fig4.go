package report

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/workload"
)

// Fig4Chart renders a b_eff_io result the way the paper's Fig. 4 does:
// one diagram per access method, bandwidth on a logarithmic scale as a
// function of the disk chunk size (pseudo-logarithmic axis, with the
// "+8" non-wellformed points next to their power-of-two neighbours),
// one column per pattern type. Since the medium is a terminal, the
// "diagram" is a table of log-scaled bars.
func Fig4Chart(res *beffio.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig. 4 style: bandwidth per pattern type over disk chunk size (%d processes)\n", res.Procs)
	fmt.Fprintf(&sb, "bars are log-scaled: each '#' is a factor ~2 above 0.1 MB/s\n")
	for _, mr := range res.Methods {
		fmt.Fprintf(&sb, "\n%v\n", mr.Method)
		// Collect chunk → per-type bandwidth.
		type key struct {
			chunk int64
			wf    bool
		}
		rows := map[key]map[beffio.PatternType]float64{}
		for _, tr := range mr.Types {
			if tr.Skipped {
				continue
			}
			for _, pm := range tr.Patterns {
				if pm.Pattern.DiskChunk == workload.FillUp || pm.Pattern.U == 0 {
					continue
				}
				k := key{pm.Pattern.DiskChunk, pm.Pattern.Wellformed}
				if rows[k] == nil {
					rows[k] = map[beffio.PatternType]float64{}
				}
				// Several patterns can share a chunk size within a
				// type (the scatter rows); keep the best, as the
				// paper's plots do per point.
				if pm.BW > rows[k][tr.Type] {
					rows[k][tr.Type] = pm.BW
				}
			}
		}
		keys := make([]key, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].chunk != keys[j].chunk {
				return keys[i].chunk < keys[j].chunk
			}
			return keys[i].wf // wellformed before its +8 twin
		})
		for _, k := range keys {
			label := chunkLabel(k.chunk, k.wf)
			fmt.Fprintf(&sb, "  %-10s", label)
			for t := beffio.PatternType(0); t < beffio.NumTypes; t++ {
				bw, ok := rows[k][t]
				if !ok {
					fmt.Fprintf(&sb, " | type%d %-18s", int(t), "-")
					continue
				}
				fmt.Fprintf(&sb, " | type%d %-18s", int(t), logBar(bw))
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// chunkLabel formats a chunk size the way the paper's axis does:
// powers of two plainly, non-wellformed ones as "+8".
func chunkLabel(chunk int64, wellformed bool) string {
	base := chunk
	suffix := ""
	if !wellformed {
		base = chunk - 8
		suffix = "+8"
	}
	switch {
	case base >= 1<<20:
		return fmt.Sprintf("%dMB%s", base>>20, suffix)
	case base >= 1<<10:
		return fmt.Sprintf("%dkB%s", base>>10, suffix)
	default:
		return fmt.Sprintf("%dB%s", base, suffix)
	}
}

// logBar renders bandwidth as a log-scale bar: '#' per factor of ~2
// above 0.1 MB/s, annotated with the value.
func logBar(bw float64) string {
	mbps := bw / 1e6
	if mbps <= 0.1 {
		return fmt.Sprintf(". %.2f", mbps)
	}
	n := int(math.Log2(mbps/0.1) + 0.5)
	if n > 14 {
		n = 14
	}
	return fmt.Sprintf("%s %.1f", strings.Repeat("#", n), mbps)
}
