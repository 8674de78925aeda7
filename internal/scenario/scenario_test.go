package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestLibraryValidatesAndCompiles(t *testing.T) {
	lib := Library()
	if len(lib) < 8 {
		t.Fatalf("library has %d scenarios, want >= 8", len(lib))
	}
	seen := map[string]bool{}
	for _, s := range lib {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		c, err := Compile(s)
		if err != nil {
			t.Errorf("%s: %v", s.Name, err)
			continue
		}
		if c.Duration() <= 0 || c.Duration() > MaxDuration {
			t.Errorf("%s: duration %g out of range", s.Name, c.Duration())
		}
		// Spec JSON round-trips through the strict parser.
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseJSON(data); err != nil {
			t.Errorf("%s: round-trip: %v", s.Name, err)
		}
	}
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("no-such-scenario"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}

func TestCompileFlattening(t *testing.T) {
	s := Spec{
		Name:     "flat",
		Seed:     9,
		AmbientC: 40,
		SoakS:    10,
		Repeat:   3,
		Phases: []Phase{
			{Name: "a", DurationS: 5, Benchmark: "matrixmult"},
			{Name: "b", DurationS: 3},
		},
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Duration(), 10+3*(5+3.0); got != want {
		t.Errorf("Duration = %g, want %g", got, want)
	}
	if c.Phases() != 1+3*2 {
		t.Errorf("flattened phases = %d, want 7", c.Phases())
	}
	if c.Workers() != 4 {
		t.Errorf("Workers = %d, want 4 (matrixmult threads)", c.Workers())
	}
	// Soak: idle, base ambient.
	cond := c.Conditions(1)
	if cond.AmbientC != 40 || cond.MemBound != 0 || cond.GPUDemand != 0 {
		t.Errorf("soak conditions = %+v", cond)
	}
	if d := demandAt(c, 0, 1); d != 0 {
		t.Errorf("soak demand = %g, want 0", d)
	}
	// First work phase starts at 10 s.
	if d := demandAt(c, 0, 11); d <= 0 || d > 1 {
		t.Errorf("work demand = %g, want (0, 1]", d)
	}
	// Worker index beyond the phase's thread count idles.
	if d := demandAt(c, 4, 11); d != 0 {
		t.Errorf("out-of-range worker demand = %g", d)
	}
	// Past the end, conditions clamp to the last phase.
	end := c.Conditions(c.Duration() + 5)
	if end.MemBound != 0 {
		t.Errorf("past-end conditions = %+v, want idle phase b", end)
	}
}

// demandAt is worker i's demand at t as the kernel reads it: the shared
// step, then the per-device demand continued from it.
func demandAt(c *Compiled, i int, t float64) float64 {
	sh := c.SharedStep(t)
	return c.WorkerDemand(&sh, i)
}

func TestWorkerDemandPure(t *testing.T) {
	c, err := Compile(Library()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 0.05, 17.2, 60, c.Duration() - 0.1} {
		sh := c.SharedStep(tt)
		a := c.WorkerDemand(&sh, 0)
		for k := 0; k < 3; k++ {
			again := c.SharedStep(tt)
			if again != sh {
				t.Fatalf("SharedStep(%g) not pure: %+v then %+v", tt, sh, again)
			}
			if b := c.WorkerDemand(&again, 0); b != a {
				t.Fatalf("WorkerDemand(SharedStep(%g), 0) not pure: %g then %g", tt, a, b)
			}
		}
		if a < 0 || a > 1 || math.IsNaN(a) {
			t.Fatalf("WorkerDemand(SharedStep(%g), 0) = %g out of [0,1]", tt, a)
		}
	}
}

func TestGovernorAndAmbientPersist(t *testing.T) {
	s := Spec{
		Name: "persist",
		Phases: []Phase{
			{DurationS: 10, Benchmark: "sha", Governor: "performance", AmbientC: 50},
			{DurationS: 10, Benchmark: "sha"},
		},
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if cond := c.Conditions(5); cond.Governor != "performance" || cond.AmbientC != 50 {
		t.Errorf("phase 1 conditions = %+v", cond)
	}
	// Phase 2 declares neither: the sim keeps what phase 1 set, and the
	// compiled conditions signal "keep" (empty/zero).
	if cond := c.Conditions(15); cond.Governor != "" || cond.AmbientC != 0 {
		t.Errorf("phase 2 conditions = %+v, want keep markers", cond)
	}
}

func TestValidateRejects(t *testing.T) {
	base := Spec{Name: "x", Phases: []Phase{{DurationS: 10, Benchmark: "sha"}}}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"no phases", func(s *Spec) { s.Phases = nil }},
		{"zero duration", func(s *Spec) { s.Phases[0].DurationS = 0 }},
		{"negative duration", func(s *Spec) { s.Phases[0].DurationS = -1 }},
		{"NaN duration", func(s *Spec) { s.Phases[0].DurationS = math.NaN() }},
		{"unknown benchmark", func(s *Spec) { s.Phases[0].Benchmark = "frobnicate" }},
		{"unknown governor", func(s *Spec) { s.Phases[0].Governor = "turbo" }},
		{"wild ambient", func(s *Spec) { s.Phases[0].AmbientC = 999 }},
		{"wild scale", func(s *Spec) { s.Phases[0].Scale = 100 }},
		{"negative repeat", func(s *Spec) { s.Repeat = -1 }},
		{"huge repeat", func(s *Spec) { s.Repeat = MaxRepeat + 1 }},
		{"negative soak", func(s *Spec) { s.SoakS = -5 }},
		{"total too long", func(s *Spec) { s.Repeat = MaxRepeat; s.Phases[0].DurationS = MaxDuration }},
	}
	for _, tc := range cases {
		s := base
		s.Phases = append([]Phase(nil), base.Phases...)
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, s)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("base spec should validate: %v", err)
	}
}

func TestParseJSONStrict(t *testing.T) {
	if _, err := ParseJSON([]byte(`{"name":"ok","phases":[{"duration_s":5}]}`)); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
	bad := []string{
		`{"name":"x","phases":[{"duration_s":5}],"typo_field":1}`,
		`{"name":"x","phases":[{"duration_s":5}]} trailing`,
		`{"name":"x","phases":[]}`,
		`not json`,
		``,
	}
	for _, b := range bad {
		if _, err := ParseJSON([]byte(b)); err == nil {
			t.Errorf("ParseJSON accepted %q", b)
		}
	}
}

// TestReplayReproducesRun is the core replay contract: record a scenario
// run, round-trip the trace through CSV, re-feed it as the workload via
// FromTrace, and the fresh simulation reproduces every recorded series
// sample for sample with zero mismatches.
func TestReplayReproducesRun(t *testing.T) {
	spec, err := ByName("cold-start")
	if err != nil {
		t.Fatal(err)
	}
	script, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner()
	opt := sim.Options{Policy: sim.PolicyFan, Script: script, Seed: 7, Record: true}
	orig, err := runner.Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Completed || orig.ExecTime <= 0 {
		t.Fatalf("scenario run did not complete: completed=%v exec=%g", orig.Completed, orig.ExecTime)
	}

	var buf bytes.Buffer
	if err := orig.Rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := FromTrace(parsed, "replay")
	if err != nil {
		t.Fatal(err)
	}
	if replay.Workers() != script.Workers() {
		t.Errorf("replay workers = %d, want %d", replay.Workers(), script.Workers())
	}
	if math.Abs(replay.Duration()-script.Duration()) > 1e-9 {
		t.Errorf("replay duration = %g, want %g", replay.Duration(), script.Duration())
	}

	fresh, err := runner.Run(context.Background(), sim.Options{Policy: sim.PolicyFan, Script: replay, Seed: 7, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	d := trace.DiffRecorders(parsed, fresh.Rec, 0)
	if !d.Clean() {
		t.Fatalf("replay diverged from the recorded run:\n%s", d)
	}
	if d.Samples == 0 {
		t.Fatal("diff compared zero samples")
	}
}

// TestReplayWrongSeedDiverges guards the diff itself: a replay with a
// different noise seed must NOT reproduce the trace, or the zero-mismatch
// assertion above would be vacuous.
func TestReplayWrongSeedDiverges(t *testing.T) {
	script, err := Compile(Spec{
		Name:   "tiny",
		Phases: []Phase{{DurationS: 8, Benchmark: "matrixmult"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner()
	orig, err := runner.Run(context.Background(), sim.Options{Policy: sim.PolicyNoFan, Script: script, Seed: 1, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := FromTrace(orig.Rec, "replay")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := runner.Run(context.Background(), sim.Options{Policy: sim.PolicyNoFan, Script: replay, Seed: 2, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.DiffRecorders(orig.Rec, fresh.Rec, 0); d.Clean() {
		t.Fatal("different seeds produced an identical trace — diff cannot detect drift")
	}
}

// TestReplayAtCoarsePeriod: a trace recorded at a non-default control
// period replays on its own grid (Period is inferred from the trace) and
// still reproduces exactly — the golden traces rely on this at 0.5 s.
func TestReplayAtCoarsePeriod(t *testing.T) {
	script, err := Compile(Spec{
		Name:   "coarse",
		Phases: []Phase{{DurationS: 20, Benchmark: "sha"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner()
	orig, err := runner.Run(context.Background(), sim.Options{Policy: sim.PolicyFan, Script: script, Seed: 4, ControlPeriod: 0.5, Record: true})
	if err != nil {
		t.Fatal(err)
	}
	replay, err := FromTrace(orig.Rec, "replay")
	if err != nil {
		t.Fatal(err)
	}
	if replay.Period() != 0.5 {
		t.Fatalf("inferred period = %g, want 0.5", replay.Period())
	}
	fresh, err := runner.Run(context.Background(), sim.Options{Policy: sim.PolicyFan, Script: replay, Seed: 4, ControlPeriod: replay.Period(), Record: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.DiffRecorders(orig.Rec, fresh.Rec, 0); !d.Clean() {
		t.Fatalf("coarse-period replay diverged:\n%s", d)
	}
}

// TestFromTraceBoundsDuration: a corrupt or crafted trace must be
// rejected, not turned into a multi-terabyte simulation (FromTrace
// bypasses Compile, so it needs the same MaxDuration discipline).
func TestFromTraceBoundsDuration(t *testing.T) {
	mk := func(times ...float64) *trace.Recorder {
		rec := trace.NewRecorder()
		for _, name := range append([]string{"demand_w0"}, conditionSeries...) {
			for _, tt := range times {
				rec.Record(name, tt, 0)
			}
		}
		return rec
	}
	if _, err := FromTrace(mk(0, 1e12), "x"); err == nil {
		t.Error("FromTrace accepted a 1e12-second trace")
	}
	if _, err := FromTrace(mk(0, 1e-9), "x"); err == nil {
		t.Error("FromTrace accepted a nanosecond sample period")
	}
	if _, err := FromTrace(mk(0, 0.1, 0.2), "x"); err != nil {
		t.Errorf("FromTrace rejected a plausible trace: %v", err)
	}
}

func TestFromTraceRejectsOutputOnlyTrace(t *testing.T) {
	rec := trace.NewRecorder()
	rec.Record("maxtemp", 0, 40)
	_, err := FromTrace(rec, "x")
	if err == nil {
		t.Fatal("FromTrace accepted a trace without script input series")
	}
	if !strings.Contains(err.Error(), "series") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestPerturbed(t *testing.T) {
	spec, err := ByName("mixed-cpu-gpu") // phase 2 carries an explicit 36 C override
	if err != nil {
		t.Fatal(err)
	}
	p := spec.Perturbed(999, 5, 25)
	if p.Seed != 999 {
		t.Errorf("seed %d", p.Seed)
	}
	// Base ambient was 0 (device default): the shift anchors at defaultC.
	if p.AmbientC != 30 {
		t.Errorf("base ambient %g, want 30 (25 default + 5 shift)", p.AmbientC)
	}
	// The whole ambient profile moves together; "keep" phases stay 0.
	for i, ph := range p.Phases {
		want := 0.0
		if spec.Phases[i].AmbientC != 0 {
			want = spec.Phases[i].AmbientC + 5
		}
		if ph.AmbientC != want {
			t.Errorf("phase %d ambient %g, want %g", i, ph.AmbientC, want)
		}
	}
	// The original spec is untouched (phases are copied before shifting).
	orig, _ := ByName("mixed-cpu-gpu")
	for i := range spec.Phases {
		if spec.Phases[i] != orig.Phases[i] {
			t.Fatalf("Perturbed mutated the source spec phase %d", i)
		}
	}
	// An explicit base ambient anchors the shift at itself, not defaultC.
	soak, err := ByName("soak-then-sprint") // base 45 C
	if err != nil {
		t.Fatal(err)
	}
	if got := soak.Perturbed(1, -5, 25).AmbientC; got != 40 {
		t.Errorf("shifted soak ambient %g, want 40", got)
	}
	// Zero shift only swaps the jitter seed.
	same := spec.Perturbed(7, 0, 25)
	if same.AmbientC != spec.AmbientC || same.Seed != 7 {
		t.Errorf("zero shift changed ambient: %+v", same)
	}
	// A shift landing exactly on 0 °C must not collide with the
	// 0-means-default sentinel: the requested freezing ambient survives
	// as a sub-resolution epsilon, not as "device default".
	frozen := soak.Perturbed(1, -45, 25)
	if frozen.AmbientC == 0 || frozen.AmbientC > 1e-6 {
		t.Errorf("shift to 0 C became %g (0 would mean device default)", frozen.AmbientC)
	}
	// Perturbed specs still validate and compile.
	if _, err := Compile(p); err != nil {
		t.Errorf("perturbed spec does not compile: %v", err)
	}
}
