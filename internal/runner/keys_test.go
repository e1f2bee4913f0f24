package runner

import (
	"encoding/json"
	"os"
	"testing"

	"github.com/hpcbench/beff/internal/beffio"
	"github.com/hpcbench/beff/internal/core"
	"github.com/hpcbench/beff/internal/des"
	"github.com/hpcbench/beff/internal/machine"
	"github.com/hpcbench/beff/internal/perturb"
	"github.com/hpcbench/beff/internal/workload"
)

// TestCacheKeysPinned pins the on-disk cache key of one cell of every
// kind as a literal. A change to a fingerprint's shape, field names or
// JSON encoding, or to the code-version salt, moves these keys and
// orphans every cached entry. A deliberate codeVersion bump updates the
// constants; any other diff here is a bug.
func TestCacheKeysPinned(t *testing.T) {
	stormy, err := perturb.Preset("stormy")
	if err != nil {
		t.Fatal(err)
	}
	hiccup, err := perturb.Preset("io-hiccup")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workload.ParseFile("../../examples/workloads/mixed.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../cmd/sensitivity/testdata/mycluster.json")
	if err != nil {
		t.Fatal(err)
	}
	var cf machine.ConfigFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		t.Fatal(err)
	}
	beffOpt := core.Options{LmaxOverride: 65536, MaxLooplength: 2}
	ioOpt := beffio.Options{T: 2 * des.Second, MaxRepsPerPattern: 1}

	// Each case names the cell key it expects, then the cache key.
	cases := []struct {
		key  string
		cell cellIdentity
		want string
	}{
		{"beff:t3e@4", cellID(BeffCell("t3e", 4, beffOpt)),
			"0e63333683e58ef2ecf135b112798bfc9cefb700723a95dc95bb118106eeb343"},
		{"beff:t3e@4/rep1", cellID(RobustBeffCell("t3e", 4, beffOpt, stormy, 7, 1)),
			"ac80057ef6d4971fb221f950d31becd6c43e054173b59b0cd38287eaa0c0be2b"},
		{"beffio:t3e@4", cellID(BeffIOCell("t3e", 4, ioOpt)),
			"2b6218bbf7ffceef23e7c586b0bbbc9e2f9daab9d4600c61db557703d2dc5463"},
		{"beffio:t3e@4/rep0", cellID(RobustBeffIOCell("t3e", 4, ioOpt, hiccup, 7, 0)),
			"75c57c1cf1b9b626080f7651d76820f206b9091c5a887c7f17317580749968cb"},
		{"workload:mixed-ratio:bb@4", cellID(WorkloadCell(spec, "bb", 4)),
			"2f923b88234d8ede8369a72a4f374af766620f7c14b1b6354d657664f44dacec"},
		{"baseline", cellID(BeffConfigCell("baseline", cf, 16, beffOpt)),
			"08ea8c1c8f3e5e4c19aae36dee942ac35229238560121887aab5dad51bf29b80"},
	}
	for _, tc := range cases {
		if tc.cell.key != tc.key {
			t.Errorf("cell key %q, want %q", tc.cell.key, tc.key)
		}
		got, err := FingerprintKey(tc.cell.fp)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		if got != tc.want {
			t.Errorf("%s: cache key %s, pinned %s", tc.key, got, tc.want)
		}
	}
}

// cellIdentity is what names a cell: its display key and fingerprint.
type cellIdentity struct {
	key string
	fp  any
}

func cellID[T any](c Cell[T]) cellIdentity {
	return cellIdentity{c.Key, c.Fingerprint}
}
