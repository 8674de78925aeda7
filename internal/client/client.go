// Package client is the thin-client side of the control API: a typed HTTP
// wrapper over internal/controlapi that the run CLIs' -addr path
// (internal/cli) and the soak harness use. It owns the engine-version
// handshake, the tenant header, typed error decoding (errors.Is against
// the controlapi sentinels works on everything it returns), and the
// reattach protocol: Follow survives dropped stream connections by
// reconnecting with the last cursor it saw, so the caller observes every
// event exactly once, in order.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/controlapi"
	"repro/internal/version"
)

// Client talks to one reprod daemon. The zero value is not usable; build
// with New or fill BaseURL.
type Client struct {
	// BaseURL locates the daemon, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Tenant names the queue submissions run under ("" = the server's
	// default tenant).
	Tenant string
	// HTTP is the underlying client (nil = http.DefaultClient). Streaming
	// requests need a client without a global timeout.
	HTTP *http.Client
}

// New returns a client for a daemon address. A bare host:port gets the
// http scheme, so CLI -addr values work verbatim.
func New(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{BaseURL: strings.TrimRight(addr, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one API request: handshake headers on the way out, typed error
// decoding on the way back. A non-2xx response always comes back as a
// *controlapi.Error (matchable with errors.Is against the sentinels); a
// server speaking a different engine version is itself a version-mismatch
// error even if it did not reject us.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set(controlapi.EngineHeader, version.Engine)
	if c.Tenant != "" {
		req.Header.Set(controlapi.TenantHeader, c.Tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	// Healthz is exempt from the handshake on both sides: it is how a
	// mismatched client discovers what the server runs.
	if got := resp.Header.Get(controlapi.EngineHeader); got != "" && got != version.Engine && path != "/v1/healthz" {
		drainClose(resp)
		return nil, &controlapi.Error{
			Code:    controlapi.CodeVersionMismatch,
			Message: fmt.Sprintf("server engine %q, client engine %q", got, version.Engine),
			Engine:  got,
		}
	}
	if resp.StatusCode/100 != 2 {
		err := decodeError(resp)
		drainClose(resp)
		return nil, err
	}
	return resp, nil
}

// drainClose consumes what is left of a response body (bounded) and
// closes it, returning the close error. Reading to EOF before Close is
// what lets the transport reuse the keep-alive connection — under the
// soak harness's reconnect churn, a closed-but-undrained body per
// request turns into a new TCP connection (and its read/write
// goroutines) per request, exactly the slow leak the goroutine baseline
// would flag. Every non-streaming request path ends here.
func drainClose(resp *http.Response) error {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	return resp.Body.Close()
}

// decodeError turns a non-2xx response into the typed wire error.
func decodeError(resp *http.Response) error {
	var env controlapi.ErrorEnvelope
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&env); err != nil || env.Error == nil {
		return fmt.Errorf("client: %s (undecodable error body)", resp.Status)
	}
	return env.Error
}

// getJSON issues a GET and decodes the payload.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(out)
	if cerr := drainClose(resp); err == nil {
		err = cerr
	}
	return err
}

// Health fetches /v1/healthz. It works across engine versions — the
// handshake exemption exists so a mismatched client can learn what the
// server runs.
func (c *Client) Health(ctx context.Context) (*controlapi.Health, error) {
	var h controlapi.Health
	if err := c.getJSON(ctx, "/v1/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// SubmitFleet submits a fleet run (req.Spec is the strict-JSON fleet spec).
func (c *Client) SubmitFleet(ctx context.Context, req controlapi.SubmitRequest) (*controlapi.RunInfo, error) {
	return c.submit(ctx, "/v1/fleets", req)
}

// SubmitCampaign submits a campaign run (req.Spec is the campaign grid).
func (c *Client) SubmitCampaign(ctx context.Context, req controlapi.SubmitRequest) (*controlapi.RunInfo, error) {
	return c.submit(ctx, "/v1/campaigns", req)
}

func (c *Client) submit(ctx context.Context, path string, req controlapi.SubmitRequest) (*controlapi.RunInfo, error) {
	resp, err := c.do(ctx, http.MethodPost, path, req)
	if err != nil {
		return nil, err
	}
	var info controlapi.RunInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	if cerr := drainClose(resp); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("client: decoding run info: %w", err)
	}
	return &info, nil
}

// Run fetches one run's current state.
func (c *Client) Run(ctx context.Context, id string) (*controlapi.RunInfo, error) {
	var info controlapi.RunInfo
	if err := c.getJSON(ctx, "/v1/runs/"+url.PathEscape(id), &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Runs lists every run the daemon knows, in admission order.
func (c *Client) Runs(ctx context.Context) (*controlapi.RunList, error) {
	var list controlapi.RunList
	if err := c.getJSON(ctx, "/v1/runs", &list); err != nil {
		return nil, err
	}
	return &list, nil
}

// Cancel requests cancellation of a run (idempotent; queued runs finalize
// immediately, running ones stop between control intervals with a partial
// report).
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/runs/"+url.PathEscape(id), nil)
	if err != nil {
		return err
	}
	return drainClose(resp)
}

// Report fetches a terminal run's rendered export ("json" or "csv") — the
// exact bytes the in-process CLI would have written with -json/-csv.
func (c *Client) Report(ctx context.Context, id, format string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet,
		"/v1/runs/"+url.PathEscape(id)+"/report?format="+url.QueryEscape(format), nil)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return b, err
}

// Stream attaches one connection to a run's event stream from the cursor
// (events with Seq > cursor) and invokes fn for each event in order. It
// returns the last Seq it delivered, the done event if the stream reached
// it, and the transport error otherwise. Events at or below the cursor are
// dropped — reconnecting can never deliver a duplicate.
func (c *Client) Stream(ctx context.Context, id string, cursor int64, fn func(controlapi.Event) error) (int64, *controlapi.Event, error) {
	path := fmt.Sprintf("/v1/runs/%s/stream?cursor=%d", url.PathEscape(id), cursor)
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return cursor, nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev controlapi.Event
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				// Clean end without a done event. The close error matters
				// here: a torn connection can masquerade as EOF, and
				// surfacing it routes Follow onto its reconnect path
				// instead of the "server ended a terminal stream" path.
				return cursor, nil, resp.Body.Close()
			}
			return cursor, nil, fmt.Errorf("client: decoding stream: %w", err)
		}
		if ev.Seq <= cursor {
			continue
		}
		cursor = ev.Seq
		if fn != nil {
			if err := fn(ev); err != nil {
				return cursor, nil, err
			}
		}
		if ev.Type == controlapi.EventDone {
			return cursor, &ev, nil
		}
	}
}

// followRetries bounds consecutive no-progress reconnect attempts, and
// followBackoff paces them. A stream that keeps delivering events resets
// the budget: Follow gives up only on a daemon that stays unreachable.
const (
	followRetries = 5
	followBackoff = 500 * time.Millisecond
)

// Follow consumes a run's event stream to its terminal done event,
// transparently reconnecting from the last cursor on dropped connections —
// the detach/reattach protocol as a loop. fn sees every event with
// Seq > cursor exactly once, in order. The returned event is the run's
// done record.
func (c *Client) Follow(ctx context.Context, id string, cursor int64, fn func(controlapi.Event) error) (controlapi.Event, error) {
	retries := 0
	for {
		next, done, err := c.Stream(ctx, id, cursor, fn)
		if done != nil {
			return *done, nil
		}
		if err != nil && ctx.Err() != nil {
			return controlapi.Event{}, context.Cause(ctx)
		}
		if errors.Is(err, controlapi.ErrNotFound) {
			// The run is gone for good — never submitted, or evicted by
			// the server's bounded run-history retention. Reconnecting
			// cannot bring it back; fail fast instead of burning the
			// retry budget against a permanent 404.
			return controlapi.Event{}, err
		}
		if err == nil {
			// Clean EOF without a done event: the server ended the stream
			// at a terminal state the cursor had already passed. Re-read
			// the final event so every Follow returns the done record.
			info, ierr := c.Run(ctx, id)
			if ierr == nil && controlapi.TerminalState(info.State) && next >= info.NextSeq {
				_, done, serr := c.Stream(ctx, id, info.NextSeq-1, nil)
				if done != nil {
					return *done, nil
				}
				if serr != nil {
					err = serr
				}
			}
		}
		if next > cursor {
			cursor = next
			retries = 0
		} else {
			retries++
			if retries > followRetries {
				if err == nil {
					err = fmt.Errorf("client: stream of run %s ended %d times with no progress", id, retries)
				}
				return controlapi.Event{}, err
			}
		}
		select {
		case <-time.After(followBackoff):
		case <-ctx.Done():
			return controlapi.Event{}, context.Cause(ctx)
		}
	}
}
