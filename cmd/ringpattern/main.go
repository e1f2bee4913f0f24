// Command ringpattern is the repository's port of the paper's
// ring_numbers.c [19]: it prints the ring partition of each of the six
// b_eff ring patterns for a given process count, or a range.
//
// Usage:
//
//	ringpattern -n 7
//	ringpattern -from 2 -to 28      # the list the paper cites for pattern 3
package main

import (
	"flag"
	"fmt"

	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/core"
)

func main() {
	c := cli.New("ringpattern")
	var (
		n    = flag.Int("n", 0, "process count (prints all six patterns)")
		from = flag.Int("from", 0, "range start (prints pattern table per count)")
		to   = flag.Int("to", 0, "range end, inclusive")
	)
	flag.Parse()

	switch {
	case *n > 0:
		printAll(*n)
	case *from > 0 && *to >= *from:
		for k := *from; k <= *to; k++ {
			printAll(k)
			fmt.Println()
		}
	default:
		c.UsageErr("need -n N or -from A -to B")
	}
}

func printAll(n int) {
	fmt.Printf("%d processes:\n", n)
	for pat := 0; pat < core.NumRingPatterns; pat++ {
		std := core.StandardRingSize(pat, n)
		sizes := core.RingSizes(n, std)
		fmt.Printf("  pattern %d (std %3d): %v\n", pat+1, std, sizes)
	}
}
