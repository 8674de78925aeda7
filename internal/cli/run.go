package cli

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/client"
	"repro/internal/controlapi"
	"repro/internal/server"
	"repro/internal/store"
)

// Output is how the run CLIs (cmd/fleet, cmd/campaign) report one run of
// either engine, in-process or on a reprod daemon: the same progress lines,
// store line, summary, export files and exit codes on every path.
type Output struct {
	// Tool prefixes every stderr line ("fleet", "campaign").
	Tool string
	// JSON and CSV name the export files ("" = not written).
	JSON, CSV string
	// Quiet drops the progress lines.
	Quiet bool
	// Stdout and Stderr default to the process streams.
	Stdout, Stderr io.Writer
}

func (o Output) stdout() io.Writer {
	if o.Stdout != nil {
		return o.Stdout
	}
	return os.Stdout
}

func (o Output) stderr() io.Writer {
	if o.Stderr != nil {
		return o.Stderr
	}
	return os.Stderr
}

// Progress returns the progress printer, nil when Quiet (so an
// engine handed it skips progress bookkeeping altogether). It prints
// progress events and ignores every other event type.
func (o Output) Progress() func(controlapi.Event) {
	if o.Quiet {
		return nil
	}
	return func(ev controlapi.Event) {
		if ev.Type != controlapi.EventProgress {
			return
		}
		status := "ok"
		switch {
		case ev.Err != "":
			status = "FAILED: " + ev.Err
		case ev.Cached:
			status = "cached"
		}
		fmt.Fprintf(o.stderr(), "%s: [%d/%d] %s %s\n", o.Tool, ev.Done, ev.Total, ev.Cell, status)
	}
}

// Finish reports a finished in-process run whose engine used st (nil = no
// store): the store line, then — when the run produced a report — the
// summary on stdout and the export files. It returns the exit code: 130
// for a cancelled run (with or without a partial report), 1 when cells
// failed, 0 otherwise. A run error other than cancellation, or a failed
// export write, comes back as the error for Exit to report.
func (o Output) Finish(out server.Outcome, runErr error, st *store.Store) (int, error) {
	if st == nil {
		return o.finish(out, runErr, "", store.Stats{})
	}
	return o.finish(out, runErr, st.Dir(), st.Stats())
}

// finish is Finish with the store line given as its parts (storeDir "" =
// the run had no store): a remote run has the daemon's per-run counters,
// not a store.
func (o Output) finish(out server.Outcome, runErr error, storeDir string, st store.Stats) (int, error) {
	if storeDir != "" {
		fmt.Fprintf(o.stderr(), "%s: store %s: %s\n", o.Tool, storeDir, st.Summary())
	}
	cancelled := runErr != nil && Cancelled(runErr)
	if runErr != nil && !cancelled {
		return 0, runErr
	}
	if out.Summary != "" {
		fmt.Fprint(o.stdout(), out.Summary)
		if err := export(o.JSON, out.JSON); err != nil {
			return 0, err
		}
		if err := export(o.CSV, out.CSV); err != nil {
			return 0, err
		}
	}
	if cancelled {
		fmt.Fprintf(o.stderr(), "%s: %v\n", o.Tool, runErr)
		return 130, nil
	}
	if out.Failures > 0 {
		return 1, nil
	}
	return 0, nil
}

// Remote is the -addr thin-client path: submit spec as a run of kind
// (controlapi.KindFleet or KindCampaign) to the reprod daemon at addr,
// print progress from its event stream, fetch the requested exports, and
// finish exactly like an in-process run. Cancelling ctx (Ctrl-C) cancels the
// run server-side and keeps following: the daemon finalizes it with a
// partial report, which is still exported before the 130 exit.
func (o Output) Remote(ctx context.Context, addr, tenant, kind string, spec any, seed int64, workers int) (int, error) {
	cl := client.New(addr)
	cl.Tenant = tenant
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	submit := cl.SubmitFleet
	if kind == controlapi.KindCampaign {
		submit = cl.SubmitCampaign
	}
	// Submit outside ctx's cancellation: an interrupt that lands while the
	// POST is in flight must not abandon a run the daemon has already
	// admitted. The cancel hook below then fires at once and the run ends
	// cancelled like any other.
	info, err := submit(context.WithoutCancel(ctx), controlapi.SubmitRequest{Spec: specJSON, Seed: seed, Workers: workers})
	if err != nil {
		return 0, err
	}
	// Follow on a background context: an interrupt must not sever the
	// stream — it cancels the run server-side, and the stream then delivers
	// the partial run's done event.
	stop := context.AfterFunc(ctx, func() { cl.Cancel(context.Background(), info.ID) })
	defer stop()
	progress := o.Progress()
	done, err := cl.Follow(context.Background(), info.ID, 0, func(ev controlapi.Event) error {
		if progress != nil {
			progress(ev)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	out := server.Outcome{Summary: done.Summary, Failures: done.Failures, Completed: done.Completed}
	// A run cancelled before any cell started has no report to fetch.
	if out.Summary != "" {
		if o.JSON != "" {
			if out.JSON, err = cl.Report(context.Background(), info.ID, "json"); err != nil {
				return 0, err
			}
		}
		if o.CSV != "" {
			if out.CSV, err = cl.Report(context.Background(), info.ID, "csv"); err != nil {
				return 0, err
			}
		}
	}
	return o.finish(out, doneErr(done), done.StoreDir, store.Stats{Hits: done.Hits, Misses: done.Misses})
}

// doneErr turns a done event back into the run error the daemon rendered
// it from, classified the way Cancelled and Exit expect.
func doneErr(done controlapi.Event) error {
	switch done.State {
	case controlapi.StateCancelled:
		return remoteCancel(done.RunErr)
	case controlapi.StateFailed:
		return errors.New(done.RunErr)
	}
	return nil
}

// remoteCancel is a daemon-side cancellation: its message is the daemon's,
// and it matches context.Canceled.
type remoteCancel string

func (e remoteCancel) Error() string { return string(e) }
func (e remoteCancel) Unwrap() error { return context.Canceled }

// export writes one rendered export to path ("" = not requested).
func export(path string, b []byte) error {
	if path == "" {
		return nil
	}
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
}

// WriteFile creates path and fills it through write — the one export-file
// writer of the run CLIs.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
