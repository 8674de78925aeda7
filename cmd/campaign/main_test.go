package main

import (
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

func TestBuildGrid(t *testing.T) {
	g, err := buildGrid("with-fan,dtpm", "dijkstra,patricia", "", "", "ondemand", "1,2", "58,63")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) != 2 || len(g.Benchmarks) != 2 || len(g.Seeds) != 2 || len(g.TMax) != 2 {
		t.Fatalf("grid axes: %+v", g)
	}
	if g.Size() != 16 {
		t.Fatalf("grid size %d, want 16", g.Size())
	}
}

func TestBuildGridRejectsBadNames(t *testing.T) {
	cases := []struct{ policies, benches, scenarios, platforms, governors, seeds, tmax string }{
		{"warp-speed", "", "", "", "", "1", ""},
		{"dtpm", "doom", "", "", "", "1", ""},
		{"dtpm", "", "no-such", "", "", "1", ""},
		{"dtpm", "", "", "no-soc", "", "1", ""},
		{"dtpm", "", "", "", "chaotic", "1", ""},
		{"dtpm", "", "", "", "", "one", ""},
		{"dtpm", "", "", "", "", "1", "hot"},
		{"dtpm", "dijkstra", "cold-start", "", "", "1", ""}, // both workload axes
	}
	for _, c := range cases {
		if _, err := buildGrid(c.policies, c.benches, c.scenarios, c.platforms, c.governors, c.seeds, c.tmax); err == nil {
			t.Errorf("buildGrid(%+v) accepted", c)
		}
	}
}

func TestBuildGridAllExpansion(t *testing.T) {
	g, err := buildGrid("dtpm", "all", "", "all", "", "1", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Benchmarks) < 16 {
		t.Errorf(`"all" benchmarks expanded to %d`, len(g.Benchmarks))
	}
	if len(g.Platforms) != len(platform.Names()) {
		t.Errorf(`"all" platforms expanded to %d, want %d`, len(g.Platforms), len(platform.Names()))
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, ,b,")
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("splitList: %v", got)
	}
	if splitList("") != nil {
		t.Fatalf("splitList(\"\") = %v", splitList(""))
	}
}

func TestPolicyRoundTrip(t *testing.T) {
	for _, p := range sim.Policies() {
		rt, err := sim.ParsePolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("policy %v round-trips to %v (%v)", p, rt, err)
		}
	}
	if _, err := sim.ParsePolicy("warp-speed"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Error("bad policy accepted")
	}
}
