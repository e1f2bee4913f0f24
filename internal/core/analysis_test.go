package core

import (
	"testing"

	"github.com/hpcbench/beff/internal/mpi"
)

// TestBisectionPairingsAreInvolutions checks every bisection pairing on
// every size from 2 to 1024: a rank's partner is another rank that
// pairs back with it, and at most three ranks idle. A pairing that is not an involution leaves a rank waiting
// for a partner that exchanges with someone else: a deadlock.
func TestBisectionPairingsAreInvolutions(t *testing.T) {
	for n := 2; n <= 1024; n++ {
		for k, pair := range bisectionPairings(n) {
			active := 0
			for r := 0; r < n; r++ {
				p := pair(r)
				if p == mpi.ProcNull {
					continue
				}
				active++
				if p < 0 || p >= n || p == r {
					t.Fatalf("n=%d pairing %d: rank %d pairs with %d", n, k, r, p)
				}
				if back := pair(p); back != r {
					t.Fatalf("n=%d pairing %d: %d -> %d -> %d", n, k, r, p, back)
				}
			}
			if active < n-3 {
				t.Errorf("n=%d pairing %d: only %d of %d ranks take part", n, k, active, n)
			}
		}
	}
}
