// Package cli holds the conventions shared by every command in cmd/: the
// sentinel-error to exit-code mapping and the live progress observer, so
// the next sentinel (or a change to the exit conventions) is edited once.
// The run CLIs (fleet, campaign) also report through one path here
// (Output): the same progress lines, store line, summary, export files and
// exit codes whether a run executes in-process or on a reprod daemon.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/version"
	"repro/internal/workload"
)

// SignalContext returns a context cancelled on SIGINT or SIGTERM — the one
// lifecycle every command shares: runs stop between control intervals,
// partial results are still reported, and the process exits through the
// conventional codes (130 for an interrupt). Call the returned stop
// function on the way out to restore default signal handling.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ErrUsage marks a command-line usage error — a flag that failed to parse,
// a missing operand, contradictory options. Exit maps anything wrapping it
// to exit code 2, the same class as an unknown registry name.
var ErrUsage = errors.New("usage error")

// ParseFlags parses args through a ContinueOnError FlagSet and normalizes
// the outcome to the sentinel conventions: -h/-help exits 0 after the
// FlagSet has printed its usage, and any parse failure comes back wrapping
// ErrUsage so the caller's single Exit call lands on code 2. The FlagSet
// must have been constructed with flag.ContinueOnError — with ExitOnError
// the error path is dead code, which is exactly the bug class this helper
// removes.
//
// Every FlagSet routed through here also gains a -version flag that prints
// the engine version (version.Engine, the same string in every store key
// and daemon handshake) and exits 0 — one registration point instead of a
// per-command copy.
func ParseFlags(fs *flag.FlagSet, args []string) error {
	var ver *bool
	if fs.Lookup("version") == nil {
		ver = fs.Bool("version", false, "print the engine version and exit")
	}
	err := fs.Parse(args)
	if err == nil {
		if ver != nil && *ver {
			fmt.Println(version.Engine)
			os.Exit(0)
		}
		return nil
	}
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	// The FlagSet already printed the specific complaint and its usage.
	return fmt.Errorf("%w: %v", ErrUsage, err)
}

// Exit prints the error prefixed with the tool name and terminates with
// the conventional code: usage errors (ErrUsage, unknown
// benchmark/scenario/platform names) exit 2 — after printing listHint when
// non-empty for the unknown-name case — cancellation exits 130 like any
// interrupted process, and everything else is a runtime failure (exit 1).
func Exit(tool string, err error, listHint string) {
	if errors.Is(err, ErrUsage) {
		// The flag package already printed the complaint and usage.
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	switch {
	case errors.Is(err, workload.ErrUnknown) ||
		errors.Is(err, scenario.ErrUnknown) ||
		errors.Is(err, platform.ErrUnknown):
		if listHint != "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", tool, listHint)
		}
		os.Exit(2)
	case errors.Is(err, sim.ErrCancelled) || errors.Is(err, context.Canceled):
		os.Exit(130)
	}
	os.Exit(1)
}

// Cancelled reports whether the error is the cancellation of a run — the
// case where a CLI still reports partial results before exiting 130.
func Cancelled(err error) bool {
	return errors.Is(err, sim.ErrCancelled) || errors.Is(err, context.Canceled)
}

// RunPartial runs one simulation and normalizes the interrupted case for
// the CLIs: the progress line is terminated (progressDone may be nil), a
// cancelled run comes back with BOTH its partial result and the
// cancellation error — so the caller can report metrics and write the
// partial trace before exiting 130 — and any other failure returns a nil
// result.
func RunPartial(ctx context.Context, r *sim.Runner, opt sim.Options, progressDone func()) (*sim.Result, error) {
	res, err := r.Run(ctx, opt)
	if progressDone != nil {
		progressDone()
	}
	if err != nil && !(Cancelled(err) && res != nil) {
		return nil, err
	}
	return res, err
}

// Progress returns a per-interval observer that rewrites one compact
// telemetry line on w every `every` control intervals. Call Done (the
// second return) after the run to terminate the line.
func Progress(w io.Writer, every int) (func(sim.Sample), func()) {
	if every < 1 {
		every = 1
	}
	obs := func(s sim.Sample) {
		if s.Step%every == 0 {
			fmt.Fprintf(w, "\rt=%6.1fs  %5.1fC  %4.2fGHz  %5.2fW  cores=%.0f ",
				s.Time, s.MaxTemp, s.FreqGHz, s.Power, s.Cores)
		}
	}
	done := func() { fmt.Fprintln(w) }
	return obs, done
}
