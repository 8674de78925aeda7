package scenario

import (
	"math"
	"testing"
)

// scalarWorkerDemand is worker i's demand at time t evaluated in one pass
// from the phase lookup to the jitter: the per-instant form the shared
// step was split from, kept as the reference that split is checked
// against.
func scalarWorkerDemand(c *Compiled, i int, t float64) float64 {
	p := c.phaseAt(t)
	if p.idle || i < 0 || i >= p.bench.Threads {
		return 0
	}
	tl := t - p.start
	d := p.bench.Demand * p.scale
	if p.bench.PhasePeriod > 0 && p.bench.PhaseAmp > 0 {
		phase := math.Sin(2 * math.Pi * tl / p.bench.PhasePeriod)
		d *= 1 + p.bench.PhaseAmp*math.Tanh(3*phase)
	}
	d *= 1 + 0.05*jitter(c.seed, int64(p.index), int64(i), int64(tl/0.1))
	return clamp01(d)
}

// TestSharedStepMatchesScalar pins the shared-step split bit for bit over
// the whole library: for every scenario (and a perturbed copy of it, the
// form fleet cells actually run), at times on and off the control grid,
// WorkerDemand continued from SharedStep must reproduce the one-pass
// scalarWorkerDemand bitwise and AmbientAt must reproduce
// Conditions().AmbientC.
func TestSharedStepMatchesScalar(t *testing.T) {
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		variants := []Spec{spec, spec.Perturbed(9137, 4.5, 27)}
		for vi, v := range variants {
			c, err := Compile(v)
			if err != nil {
				t.Fatal(err)
			}
			for ti := 0; ti < 400; ti++ {
				// Sweep past the end too: the clamp paths must agree.
				tt := c.Duration() * 1.05 * float64(ti) / 400
				sh := c.SharedStep(tt)
				cond := c.Conditions(tt)
				if sh.Cond != cond {
					t.Fatalf("%s[v%d] t=%g: SharedStep.Cond %+v vs Conditions %+v", name, vi, tt, sh.Cond, cond)
				}
				if got := c.AmbientAt(&sh); math.Float64bits(got) != math.Float64bits(cond.AmbientC) {
					t.Fatalf("%s[v%d] t=%g: AmbientAt %v vs %v", name, vi, tt, got, cond.AmbientC)
				}
				for i := -1; i <= c.Workers(); i++ {
					want := scalarWorkerDemand(c, i, tt)
					got := c.WorkerDemand(&sh, i)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s[v%d] t=%g worker %d: %v vs %v", name, vi, tt, i, got, want)
					}
				}
			}
		}
	}
}

// TestShapeSignature pins what the signature must and must not see:
// perturbation (seed, ambient shift) preserves it — that is what lets
// fleet cells of one scenario share a batch — while any two library
// scenarios differ.
func TestShapeSignature(t *testing.T) {
	seen := map[string]string{}
	for _, name := range Names() {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		sig := c.ShapeSignature()
		if prev, dup := seen[sig]; dup {
			t.Fatalf("scenarios %s and %s share a shape signature", prev, name)
		}
		seen[sig] = name
		p, err := Compile(spec.Perturbed(424242, -6.25, 27))
		if err != nil {
			t.Fatal(err)
		}
		if p.ShapeSignature() != sig {
			t.Fatalf("%s: perturbation changed the shape signature:\n%s\nvs\n%s", name, p.ShapeSignature(), sig)
		}
	}
}
