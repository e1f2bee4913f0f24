package perturb

import (
	"encoding/json"
	"testing"

	"github.com/hpcbench/beff/internal/des"
)

// FuzzProfileJSON drives the fault-profile parser with arbitrary
// bytes. The contract: anything that unmarshals and validates must
// yield sane fault schedules — bandwidth factors in (0, 1], stalls
// that are never negative — at every point in time. (JSON cannot
// encode NaN or infinities, so Validate's range checks are exhaustive
// for parsed profiles.)
func FuzzProfileJSON(f *testing.F) {
	for _, name := range Presets() {
		p, err := Preset(name)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"links":[{"factor":0}]}`))                            // rejected: factor outside (0,1]
	f.Add([]byte(`{"noise":[{"period":1e-300,"detour":1e-308}]}`))       // extreme but valid scales
	f.Add([]byte(`{"io":[{"period":1e300,"hiccup":1e299,"prob":0.5}]}`)) // duration overflow bait
	f.Add([]byte(`{"links":[{"factor":0.5,"start":1e18,"end":2e18}]}`))  // far-future window
	f.Add([]byte(`{"stragglers":[{"count":3,"slowdown":1}]}`))           // boundary slowdown
	f.Add([]byte(`{"links":[{"flap_prob":0.5,"factor":0.5}]}`))          // rejected: prob without period
	f.Add([]byte(`not json`))

	sampleTimes := []des.Time{
		0,
		des.Time(0).Add(des.DurationOf(1e-6)),
		des.Time(0).Add(des.DurationOf(2.5e-3)),
		des.Time(0).Add(des.DurationOf(1.0)),
		des.Time(0).Add(des.DurationOf(3600)),
	}
	keys := []uint64{0, 1, 0x9e3779b97f4a7c15}

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Profile
		if json.Unmarshal(data, &p) != nil {
			return
		}
		if p.Validate() != nil {
			return
		}
		for i := range p.Links {
			for _, key := range keys {
				for _, at := range sampleTimes {
					fac := p.Links[i].factorAt(key, at)
					if !(fac > 0 && fac <= 1) {
						t.Fatalf("links[%d].factorAt(%d, %v) = %v outside (0,1]", i, key, at, fac)
					}
				}
			}
		}
		for i := range p.Noise {
			for _, key := range keys {
				for _, at := range sampleTimes {
					if s := p.Noise[i].stallAt(key, at); s < 0 {
						t.Fatalf("noise[%d].stallAt(%d, %v) = %v negative", i, key, at, s)
					}
				}
			}
		}
		for i := range p.IO {
			for _, key := range keys {
				for _, at := range sampleTimes {
					if s := p.IO[i].stallAt(key, at); s < 0 {
						t.Fatalf("io[%d].stallAt(%d, %v) = %v negative", i, key, at, s)
					}
				}
			}
		}
		for i := range p.Stragglers {
			if p.Stragglers[i].Slowdown < 1 {
				t.Fatalf("stragglers[%d] validated with slowdown %v < 1", i, p.Stragglers[i].Slowdown)
			}
		}
		// Schedules are pure functions of (key, time): re-evaluation must
		// agree — this is the property the sweep parallelism relies on.
		for i := range p.Links {
			a := p.Links[i].factorAt(keys[2], sampleTimes[2])
			if b := p.Links[i].factorAt(keys[2], sampleTimes[2]); a != b {
				t.Fatalf("links[%d].factorAt not deterministic: %v != %v", i, a, b)
			}
		}
	})
}
