package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/store"
)

// Cache is the one device resolver of the campaign and fleet engines: it
// maps a platform coordinate to the runner that simulates it and that
// runner's §4 characterization, under one rule for both engines:
//
//   - the anchor — the engine's own runner, pre-seeded by NewCache — serves
//     its own platform and the empty coordinate, with the engine's injected
//     models when it has them;
//   - every other case (an anchor without injected models, every other
//     registered platform) is characterized once, at the cache's seed, on
//     first need.
//
// A platform appearing in thousands of cells is characterized exactly
// once, and a run the result store serves entirely never characterizes at
// all. The cache's own lock only guards the map; each characterization
// runs under its entry's lock, so two platforms can characterize
// concurrently without serializing on each other.
//
// The cache also names each platform's characterization provenance for
// store keys (Tag), so the two engines cannot disagree on it either.
type Cache struct {
	seed   int64
	anchor device
	// injected records that the anchor's models came from the engine
	// rather than from a characterization at seed.
	injected bool

	tagOnce sync.Once
	tag     string // "models:<digest>" of the injected models; "" = unhashable

	mu  sync.Mutex
	dev map[string]*device // every other platform, added on first use
}

// device is one platform's runner and its lazily made characterization.
type device struct {
	name   string
	mu     sync.Mutex
	runner *sim.Runner
	models *sim.Characterization
	err    error
}

// NewCache returns a cache anchored on runner (nil = sim.NewRunner()) and
// its injected models (nil = characterize the anchor on first need, like
// any other platform). seed is the characterization seed of every device
// the cache characterizes itself; the engines pass their base seed, so a
// sweep is reproducible.
func NewCache(runner *sim.Runner, models *sim.Characterization, seed int64) *Cache {
	if runner == nil {
		runner = sim.NewRunner()
	}
	name := platform.DefaultName
	if runner.Desc != nil {
		name = runner.Desc.Name
	}
	return &Cache{
		seed:     seed,
		anchor:   device{name: name, runner: runner, models: models},
		injected: models != nil,
	}
}

// Platform names the platform that serves a coordinate, without building
// or characterizing anything: the empty coordinate is the anchor's
// platform. ok=false for a name neither the anchor nor the registry knows.
func (c *Cache) Platform(name string) (string, bool) {
	if name == "" || name == c.anchor.name {
		return c.anchor.name, true
	}
	_, err := platform.ByName(name)
	return name, err == nil
}

// Device resolves a platform coordinate ("" = the anchor) to its runner
// and characterization, characterizing on first use. Characterization
// failures are cached and re-served, except transient context errors: a
// cancelled characterization caches nothing, so a later call with a live
// context retries instead of inheriting a poisoned "context canceled".
func (c *Cache) Device(ctx context.Context, name string) (*sim.Runner, *sim.Characterization, error) {
	if name == "" || name == c.anchor.name {
		return c.anchor.resolve(ctx, c.seed)
	}
	c.mu.Lock()
	if c.dev == nil {
		c.dev = make(map[string]*device)
	}
	dev, ok := c.dev[name]
	if !ok {
		dev = &device{name: name}
		c.dev[name] = dev
	}
	c.mu.Unlock()
	return dev.resolve(ctx, c.seed)
}

// resolve builds (registry platforms only; the anchor is pre-seeded) and
// characterizes the device once, under the entry's lock.
func (d *device) resolve(ctx context.Context, seed int64) (*sim.Runner, *sim.Characterization, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return nil, nil, d.err
	}
	if d.models != nil {
		return d.runner, d.models, nil
	}
	if d.runner == nil {
		desc, err := platform.ByName(d.name)
		if err != nil {
			d.err = err
			return nil, nil, err
		}
		d.runner = sim.NewRunnerFor(desc)
	}
	models, err := d.runner.Characterize(ctx, seed)
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			d.err = err
		}
		return nil, nil, err
	}
	d.models = models
	return d.runner, d.models, nil
}

// Tag names the characterization provenance of a platform's cells for
// store keys: "models:<digest>" for the anchor's injected models (the
// digest costs a full marshal, so it is computed once, on the first call),
// "charseed:<seed>" for every device the cache characterizes itself —
// a pure function of (platform, seed), so a warm cell's key needs no
// models. ok=false means the injected models cannot be hashed
// (encoding/json rejects them, e.g. a NaN): their cells are unaddressable,
// computed and never stored, so two unhashable models can never be served
// each other's cells.
func (c *Cache) Tag(name string) (string, bool) {
	if !c.injected || (name != "" && name != c.anchor.name) {
		return fmt.Sprintf("charseed:%d", c.seed), true
	}
	c.tagOnce.Do(func() {
		if d, err := store.KeyDigest("models", c.anchor.models); err == nil {
			c.tag = "models:" + d.String()
		}
	})
	return c.tag, c.tag != ""
}
