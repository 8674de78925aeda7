package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

// The tick oracle pins the scheduler's observable output over a long,
// eventful history: every TickResult field, each task's core, WorkLeft,
// Done and FinishedAt after every tick, and the next draw of the random
// stream the workers read their demand from. The workers draw on every
// demand read, like the benchmark generators, so the digest also pins how
// many times and in what order the tick reads each live demand.
//
// Regenerate (only when a scheduling change is intended) with:
//
//	go test ./internal/kernel -run TestTickOracle -update
var update = flag.Bool("update", false, "regenerate the tick oracle digest")

const (
	tickOracleFile  = "testdata/tick-oracle.json"
	tickOracleTicks = 360
)

type tickOracle struct {
	Ticks  int    `json:"ticks"`
	Digest string `json:"digest"`
}

// oracleBgLevel is background task i's level at time t: a pure function,
// like the per-tick background levels of a simulation run.
func oracleBgLevel(i int, t float64) float64 {
	return 0.04 + 0.03*math.Sin(1.7*t+float64(i))
}

// runTickOracle drives four stream-drawing workers and four background
// tasks through hotplug, MigrateAll, frequency steps, a stretch on the
// little cluster, saturation, completion and zero-length ticks, and
// returns the digest of everything the scheduler exposed on the way. The
// background tasks carry Demand closures when liveBg is set and take their
// levels from TickWith's demands slice otherwise.
func runTickOracle(t *testing.T, liveBg bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	s := NewSched()
	tasks := make([]*Task, 0, 8)
	for i := 0; i < 4; i++ {
		base := 0.3 + 0.1*float64(i)
		phase := float64(i)
		work := (5 + 5*float64(i)) * 0.4 * workload.RefCapacity
		if i == 3 {
			work = 1e3 * workload.RefCapacity // outlives the history
		}
		tasks = append(tasks, &Task{
			Demand: func(now float64) float64 {
				return math.Max(0, base*(1+0.3*math.Sin(0.9*now+phase))+0.08*rng.NormFloat64())
			},
			MemBound: 0.1 * float64(i),
			WorkLeft: work,
		})
	}
	for i := 0; i < 4; i++ {
		bg := &Task{MemBound: 0.3, WorkLeft: math.Inf(1)}
		if liveBg {
			bg.Demand = func(now float64) float64 { return oracleBgLevel(i, now) }
		}
		tasks = append(tasks, bg)
	}
	// The workers' entries must never be read: their closures are.
	demands := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), 0, 0, 0, 0}
	for _, tk := range tasks {
		s.Add(tk)
	}

	chip := platform.NewChip()
	big, little := chip.BigCluster, chip.LittleCluster
	bigOPPs, littleOPPs := big.Domain.OPPs, little.Domain.OPPs
	if err := big.SetFreq(bigOPPs[len(bigOPPs)-1].Freq); err != nil {
		t.Fatal(err)
	}
	if err := little.SetFreq(littleOPPs[len(littleOPPs)-1].Freq); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	h := sha256.New()
	saturated, done := 0, 0
	active := big
	for k := 0; k < tickOracleTicks; k++ {
		switch k % 40 {
		case 10:
			must(big.SetCoreOnline(3, false))
		case 20: // one core left: everything piles onto core 0
			must(big.SetCoreOnline(1, false))
			must(big.SetCoreOnline(2, false))
		case 30:
			big.OnlineAll()
		}
		if k%60 == 45 {
			s.MigrateAll()
		}
		if k%17 == 0 {
			must(big.SetFreq(bigOPPs[(k/17*5)%len(bigOPPs)].Freq))
		}
		switch k {
		case 150: // cluster switch to little and back
			active = little
			s.MigrateAll()
		case 160:
			must(little.SetFreq(littleOPPs[0].Freq))
		case 170:
			active = big
			s.MigrateAll()
		}
		dt := 0.1
		if k == 200 || k == 201 {
			dt = 0
		}

		for i := 0; i < 4; i++ {
			demands[4+i] = oracleBgLevel(i, s.now)
		}
		res := s.TickWith(dt, active, demands)

		fmt.Fprintf(h, "tick %d sat=%t work=%016x util=%d", k, res.Saturated, math.Float64bits(res.WorkDone), len(res.CoreUtil))
		for _, u := range res.CoreUtil {
			fmt.Fprintf(h, " %016x", math.Float64bits(u))
		}
		fmt.Fprintln(h)
		for j, tk := range tasks {
			fmt.Fprintf(h, "task %d core=%d left=%016x done=%t at=%016x\n",
				j, tk.core, math.Float64bits(tk.WorkLeft), tk.Done, math.Float64bits(tk.FinishedAt))
		}
		if res.Saturated {
			saturated++
		}
	}
	for _, tk := range tasks {
		if tk.Done {
			done++
		}
	}
	fmt.Fprintf(h, "next draw %d\n", rng.Int63())
	// The history must keep exercising what it was built to exercise.
	if saturated == 0 || done == 0 || done == 4 {
		t.Fatalf("oracle history lost its coverage: %d saturated ticks, %d of 4 workers done", saturated, done)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTickOracle checks the tick against the committed digest, taken from
// the closure-driven tick the package had before TickWith was its only
// tick, with the background tasks fed both ways.
func TestTickOracle(t *testing.T) {
	got := tickOracle{Ticks: tickOracleTicks, Digest: runTickOracle(t, true)}
	if fed := runTickOracle(t, false); fed != got.Digest {
		t.Fatalf("background levels fed through demands digest %s, as closures %s", fed, got.Digest)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tickOracleFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(tickOracleFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want tickOracle
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("tick oracle moved: got %+v, want %+v", got, want)
	}
}
