package scenario

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzScenarioSpec holds the spec decoder and compiler to their contract on
// arbitrary input: ParseJSON either rejects with an error or yields a spec
// that compiles, and every compiled scenario produces bounded, pure, finite
// demand — no panics anywhere on the path.
func FuzzScenarioSpec(f *testing.F) {
	// Seed corpus: the whole shipped library plus targeted edge specs.
	for _, s := range Library() {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","phases":[{"duration_s":5}]}`))
	f.Add([]byte(`{"name":"x","soak_s":10,"repeat":3,"phases":[{"duration_s":1e-9,"benchmark":"sha"}]}`))
	f.Add([]byte(`{"name":"x","phases":[{"duration_s":1,"scale":4,"governor":"powersave","ambient_c":-40}]}`))
	f.Add([]byte(`{"name":"x","phases":[{"duration_s":1e308}]}`))
	f.Add([]byte(`{"name":"","phases":null}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJSON(data)
		if err != nil {
			return
		}
		c, err := Compile(spec)
		if err != nil {
			t.Fatalf("validated spec failed to compile: %v\nspec: %+v", err, spec)
		}
		if d := c.Duration(); !(d > 0) || d > MaxDuration {
			t.Fatalf("compiled duration %g out of (0, %d]", d, MaxDuration)
		}
		if c.Workers() < 0 || c.Workers() > 64 {
			t.Fatalf("compiled workers %d implausible", c.Workers())
		}
		// Probe demand and conditions across the scripted window, including
		// the clamped out-of-range queries the sim never issues.
		probes := []float64{-1, 0, c.Duration() / 3, c.Duration() - 1e-3, c.Duration() + 10}
		for _, tt := range probes {
			sh := c.SharedStep(tt)
			again := c.SharedStep(tt)
			if again != sh {
				t.Fatalf("SharedStep(%g) not pure: %+v then %+v", tt, sh, again)
			}
			for w := -1; w <= c.Workers(); w++ {
				d := c.WorkerDemand(&sh, w)
				if math.IsNaN(d) || d < 0 || d > 1 {
					t.Fatalf("WorkerDemand(SharedStep(%g), %d) = %g out of [0, 1]", tt, w, d)
				}
				if d != c.WorkerDemand(&again, w) {
					t.Fatalf("WorkerDemand(SharedStep(%g), %d) not pure", tt, w)
				}
			}
			cond := sh.Cond
			for name, v := range map[string]float64{
				"gpu_demand": cond.GPUDemand, "ambient": cond.AmbientC,
				"cpu_activity": cond.CPUActivity, "gpu_activity": cond.GPUActivity,
				"mem_traffic": cond.MemTraffic, "mem_bound": cond.MemBound,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("SharedStep(%g).Cond.%s = %g non-finite", tt, name, v)
				}
			}
			if cond.GPUDemand < 0 || cond.GPUDemand > 1 || cond.MemBound < 0 || cond.MemBound >= 1 {
				t.Fatalf("SharedStep(%g).Cond out of bounds: %+v", tt, cond)
			}
		}
	})
}
