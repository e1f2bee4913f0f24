package beff_test

import (
	"testing"

	"github.com/hpcbench/beff"
	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/des"
)

func TestMachinesListed(t *testing.T) {
	keys := beff.Machines()
	if len(keys) < 9 {
		t.Fatalf("only %d machines", len(keys))
	}
	for _, want := range []string{"t3e", "sp", "sx5", "sr8000-rr", "sr8000-seq", "cluster"} {
		found := false
		for _, k := range keys {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Errorf("machine %q missing", want)
		}
	}
}

func TestMeasureBandwidthFacade(t *testing.T) {
	res, err := beff.MeasureBandwidth("cluster", 8, beff.BandwidthOptions{
		MaxLooplength: 2, Reps: 1, SkipAnalysis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Beff <= 0 || res.Procs != 8 {
		t.Errorf("res = %+v", res)
	}
	// Memory size must default from the profile: cluster has 512 MB →
	// L_max 4 MB.
	if res.Lmax != 4<<20 {
		t.Errorf("Lmax = %d, want profile default", res.Lmax)
	}
}

func TestMeasureBandwidthUnknownMachine(t *testing.T) {
	if _, err := beff.MeasureBandwidth("pdp11", 2, beff.BandwidthOptions{}); err == nil {
		t.Fatal("unknown machine should error")
	}
}

func TestMeasureIOFacade(t *testing.T) {
	res, err := beff.MeasureIO("cluster", 4, beff.IOOptions{
		T: 5 * des.Second, MaxRepsPerPattern: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BeffIO <= 0 {
		t.Error("no b_eff_io value")
	}
	// MPart must default from the profile (cluster: 512 MB/proc, 1
	// proc/node → max(2MB, 4MB) = 4 MB).
	if res.MPart != 4<<20 {
		t.Errorf("MPart = %d", res.MPart)
	}
}

func TestMeasureIONoFSMachine(t *testing.T) {
	// sr2201 has no I/O model; the error names the machine once.
	_, err := beff.MeasureIO("sr2201", 4, beff.IOOptions{T: des.Second})
	if err == nil {
		t.Fatal("machine without fs should error")
	}
	if got, want := err.Error(), "machine sr2201 has no I/O model"; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
}

func TestMeasureIOSweepFacade(t *testing.T) {
	results, err := beff.MeasureIOSweep("cluster", []int{2, 4}, beff.IOOptions{
		T: 4 * des.Second, MaxRepsPerPattern: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	best := beffio.SystemValue(results)
	if best.BeffIO <= 0 {
		t.Error("system value missing")
	}
}

func TestBalanceFactorFacade(t *testing.T) {
	p, err := beff.LookupMachine("cluster")
	if err != nil {
		t.Fatal(err)
	}
	res, err := beff.MeasureBandwidth("cluster", 4, beff.BandwidthOptions{
		MaxLooplength: 1, Reps: 1, SkipAnalysis: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	bf := beff.BalanceFactor(p, res)
	if bf <= 0 || bf > 10 {
		t.Errorf("balance factor = %v", bf)
	}
}
