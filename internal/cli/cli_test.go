package cli

import (
	"flag"
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/hpcbench/beff/internal/runner"
)

func TestFleetFlagsDefaults(t *testing.T) {
	c := New("fleet")
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	c.FleetFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := c.ParseMachines(); got != nil {
		t.Errorf("default -machines should mean all profiles (nil), got %v", got)
	}
	ladder, err := c.ParseProcsLadder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ladder, []int{4, 8}) {
		t.Errorf("default ladder = %v", ladder)
	}
}

func TestParseMachines(t *testing.T) {
	c := New("fleet")
	c.Machines = " t3e, sp ,sx5,"
	if got := c.ParseMachines(); !reflect.DeepEqual(got, []string{"t3e", "sp", "sx5"}) {
		t.Errorf("ParseMachines = %v", got)
	}
	c.Machines = "  "
	if got := c.ParseMachines(); got != nil {
		t.Errorf("blank -machines = %v, want nil", got)
	}
}

func TestParseProcsLadder(t *testing.T) {
	c := New("fleet")
	c.ProcsLadder = "4, 16,64"
	ladder, err := c.ParseProcsLadder()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ladder, []int{4, 16, 64}) {
		t.Errorf("ladder = %v", ladder)
	}
	for _, bad := range []string{"", "4,x", "4;8"} {
		c.ProcsLadder = bad
		if _, err := c.ParseProcsLadder(); err == nil {
			t.Errorf("ladder %q should fail", bad)
		}
	}
}

// TestSweepsShareOneCache: every sweep of one process goes through the
// same cache, so a second sweep over the same cells is all hits and
// the store's writer lock is never contended from inside the process.
func TestSweepsShareOneCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c := New("test")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.SweepFlags(fs)
	if err := fs.Parse([]string{"-j", "2", "-cache", dir}); err != nil {
		t.Fatal(err)
	}
	defer c.CloseCache()
	var runs atomic.Int32
	cells := make([]runner.Cell[int], 4)
	for i := range cells {
		cells[i] = runner.Cell[int]{
			Key:         fmt.Sprintf("cell-%d", i),
			Fingerprint: struct{ Cell int }{i},
			Run:         func() (int, error) { runs.Add(1); return i, nil },
		}
	}
	first := c.SweepOptions("first")
	first.Progress = nil
	runner.Sweep(cells, first)
	second := c.SweepOptions("second")
	second.Progress = nil
	if first.Cache == nil || second.Cache != first.Cache {
		t.Fatalf("sweeps got different caches: %p, %p", first.Cache, second.Cache)
	}
	if err := second.Cache.ReadOnly(); err != nil {
		t.Fatalf("shared cache is read-only: %v", err)
	}
	for i, r := range runner.Sweep(cells, second) {
		if !r.Cached || r.Value != i {
			t.Errorf("second sweep, cell %d not a hit: %+v", i, r)
		}
	}
	if runs.Load() != int32(len(cells)) {
		t.Errorf("cells ran %d times, want %d", runs.Load(), len(cells))
	}
	if flats, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(flats) != 0 {
		t.Errorf("cache directory holds flat entries: %v", flats)
	}
}

func TestNoCacheDisablesCache(t *testing.T) {
	c := New("test")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.SweepFlags(fs)
	if err := fs.Parse([]string{"-no-cache", "-cache", filepath.Join(t.TempDir(), "cache")}); err != nil {
		t.Fatal(err)
	}
	if opt := c.SweepOptions("x"); opt.Cache != nil {
		t.Fatal("-no-cache still opened a cache")
	}
	c.CloseCache()
}
