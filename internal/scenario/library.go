package scenario

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// registered holds runtime-registered scenarios, overlaying the built-in
// library by name.
var (
	regMu      sync.RWMutex
	registered map[string]Spec
)

// Register adds or replaces a named scenario in the process-wide library,
// so everything that resolves scenarios by name sees it — fleet mixes,
// campaign axes, and the result store's content addressing. ByName returns
// the registered content, so re-registering a changed spec under the same
// name changes the store keys of exactly that scenario's cells. The spec
// must validate. No command registers scenarios; tests use it to add short
// custom ones.
func Register(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	regMu.Lock()
	defer regMu.Unlock()
	if registered == nil {
		registered = map[string]Spec{}
	}
	registered[s.Name] = s
	return nil
}

// Library returns the named scenarios shipped with the repo, in a stable
// order. They cover the situations the paper's evaluation motivates but a
// single-benchmark grid cannot express: full app sessions with menus and
// pauses, screen-off gaps between interactive bursts, hot-environment
// soaks, rapid app switching, and mixed CPU+GPU load. Durations are kept
// in the tens-of-seconds to minutes range so a full library sweep stays
// cheap.
func Library() []Spec {
	return []Spec{
		{
			Name:  "gaming-session",
			Notes: "menu browsing, a long Templerun gameplay stretch, a pause, then a second game",
			Seed:  1001,
			SoakS: 15,
			Phases: []Phase{
				{Name: "menu", DurationS: 15, Benchmark: "angrybirds", Scale: 0.4},
				{Name: "gameplay", DurationS: 60, Benchmark: "templerun"},
				{Name: "pause", DurationS: 10},
				{Name: "gameplay-2", DurationS: 40, Benchmark: "angrybirds"},
			},
		},
		{
			Name:  "video-playback",
			Notes: "sustained YouTube decode between two idle gaps",
			Seed:  1002,
			Phases: []Phase{
				{Name: "launch", DurationS: 5},
				{Name: "playback", DurationS: 120, Benchmark: "youtube"},
				{Name: "screen-off", DurationS: 10},
			},
		},
		{
			Name:   "bursty-interactive",
			Notes:  "short JPEG bursts separated by idle reading gaps, the classic interactive pattern",
			Seed:   1003,
			Repeat: 6,
			Phases: []Phase{
				{Name: "read", DurationS: 8},
				{Name: "burst", DurationS: 6, Benchmark: "jpeg"},
			},
		},
		{
			Name:     "soak-then-sprint",
			Notes:    "a device heat-soaked at 45 C (car dashboard) launches the matrix-multiply stress load",
			Seed:     1004,
			AmbientC: 45,
			SoakS:    45,
			Phases: []Phase{
				{Name: "sprint", DurationS: 45, Benchmark: "matrixmult"},
			},
		},
		{
			Name:   "app-switch-storm",
			Notes:  "rapid cycling through four unrelated apps, defeating any per-app steady state",
			Seed:   1005,
			Repeat: 3,
			Phases: []Phase{
				{Name: "crypto", DurationS: 8, Benchmark: "sha"},
				{Name: "photos", DurationS: 8, Benchmark: "jpeg"},
				{Name: "maps", DurationS: 8, Benchmark: "dijkstra"},
				{Name: "call", DurationS: 8, Benchmark: "gsm"},
			},
		},
		{
			Name:  "cold-start",
			Notes: "a cold device launches straight into gameplay: the ramp the steady-state metrics exclude",
			Seed:  1006,
			Phases: []Phase{
				{Name: "launch", DurationS: 5},
				{Name: "gameplay", DurationS: 30, Benchmark: "templerun"},
			},
		},
		{
			Name:  "sustained-matmul",
			Notes: "three minutes of multi-threaded matrix multiply under the performance governor",
			Seed:  1007,
			Phases: []Phase{
				{Name: "stress", DurationS: 180, Benchmark: "matrixmult", Governor: "performance"},
			},
		},
		{
			Name:  "mixed-cpu-gpu",
			Notes: "GPU-heavy gameplay, a CPU-only compute burst, then gameplay again in a warmer room",
			Seed:  1008,
			Phases: []Phase{
				{Name: "gameplay", DurationS: 40, Benchmark: "templerun"},
				{Name: "compute", DurationS: 30, Benchmark: "matrixmult"},
				{Name: "gameplay-warm", DurationS: 40, Benchmark: "angrybirds", AmbientC: 36},
			},
		},
	}
}

// ErrUnknown is the sentinel wrapped by every "no such scenario" error, so
// callers can distinguish a bad scenario name from a failed run with
// errors.Is instead of string matching.
var ErrUnknown = errors.New("unknown scenario")

// The built-in library is immutable, so ByName serves it from a map built
// once instead of materializing all eight Spec literals per call — ByName
// sits on the fleet's per-cell setup path. Sharing the cached Phases
// backing across callers is safe: every spec consumer that rewrites
// phases (Compile's ambient fold, Perturbed) copies the slice first.
var (
	libOnce   sync.Once
	libByName map[string]Spec
)

// ByName returns the named scenario: a runtime-registered one first, then
// the built-in library.
func ByName(name string) (Spec, error) {
	regMu.RLock()
	s, ok := registered[name]
	regMu.RUnlock()
	if ok {
		return s, nil
	}
	libOnce.Do(func() {
		l := Library()
		libByName = make(map[string]Spec, len(l))
		for _, s := range l {
			libByName[s.Name] = s
		}
	})
	if s, ok := libByName[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("scenario: %w %q (known: %v)", ErrUnknown, name, Names())
}

// Names returns the known scenario names (built-in plus registered),
// sorted.
func Names() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range Library() {
		if !seen[s.Name] {
			seen[s.Name] = true
			out = append(out, s.Name)
		}
	}
	regMu.RLock()
	for name := range registered {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}
