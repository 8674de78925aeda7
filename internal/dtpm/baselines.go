package dtpm

import (
	"repro/internal/platform"
)

// ReactiveHeuristic is the comparison baseline of §6.2: a thermal-management
// policy that "mimics the fan control algorithm. Instead of increasing the
// fan speed, this heuristic throttles the frequency by 18% and 25% when the
// temperature passes 63 °C and 68 °C, respectively." It is purely reactive:
// it waits for the measured temperature to cross each threshold.
type ReactiveHeuristic struct {
	// MidTemp/HighTemp are the reaction thresholds (°C).
	MidTemp  float64
	HighTemp float64
	// MidCut/HighCut are the fractional frequency reductions.
	MidCut  float64
	HighCut float64
	// Hyst is the release hysteresis (°C).
	Hyst float64

	level int // 0 = none, 1 = mid cut, 2 = high cut
}

// NewReactiveHeuristic returns the paper's parameters.
func NewReactiveHeuristic() *ReactiveHeuristic {
	return &ReactiveHeuristic{MidTemp: 63, HighTemp: 68, MidCut: 0.18, HighCut: 0.25, Hyst: 3}
}

// Cap returns the frequency cap for the active cluster given the measured
// maximum core temperature: the governor's choice is clamped against it.
// A zero return means no cap.
func (r *ReactiveHeuristic) Cap(maxTemp float64, d *platform.Domain) platform.KHz {
	switch {
	case maxTemp > r.HighTemp:
		r.level = 2
	case maxTemp > r.MidTemp:
		if r.level < 1 || maxTemp < r.HighTemp-r.Hyst {
			r.level = 1
		}
	case maxTemp < r.MidTemp-r.Hyst:
		r.level = 0
	}
	switch r.level {
	case 2:
		return d.FloorFreq(platform.KHz(float64(d.MaxFreq()) * (1 - r.HighCut)))
	case 1:
		return d.FloorFreq(platform.KHz(float64(d.MaxFreq()) * (1 - r.MidCut)))
	default:
		return 0
	}
}
