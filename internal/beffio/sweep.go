package beffio

// SystemValue applies the paper's rule: "the b_eff_io of a system is
// defined as the maximum over any b_eff_io of a single partition".
func SystemValue(results []*Result) *Result {
	var best *Result
	for _, r := range results {
		if best == nil || r.BeffIO > best.BeffIO {
			best = r
		}
	}
	return best
}
