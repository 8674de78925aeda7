package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from the
// tracer's creation; a mark (an instant, such as the first cell of an op)
// has End == Start.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 for a root
	Op     int64         `json:"op"`     // the root's ID; shared by client and server spans
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// root describes one traced unit: a set-up repetition or a measured op.
type root struct {
	ID     int64  `json:"id"`
	Kind   string `json:"kind"` // "setup" or "op"
	Stream string `json:"stream,omitempty"`
	Index  int    `json:"index"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is a
// disabled tracer: every method is a no-op, so untraced code paths carry no
// tracing branches of their own.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span                     // span ID i lives at spans[i-1]
	roots    []root                     // in creation order
	counters map[int64]map[string]int64 // per root: named counts
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[int64]map[string]int64{}}
}

// spanRef is a handle on an open span; the zero value belongs to the
// disabled tracer.
type spanRef struct {
	t      *tracer
	id, op int64
}

// startRoot opens the root span of one set-up repetition or op.
func (t *tracer) startRoot(kind, stream string, index int) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	now := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: id, Op: id, Name: kind, Start: now, End: -1})
	t.roots = append(t.roots, root{ID: id, Kind: kind, Stream: stream, Index: index})
	return spanRef{t: t, id: id, op: id}
}

// start opens a span under parent within op.
func (t *tracer) start(op, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: time.Since(t.t0), End: -1})
	return spanRef{t: t, id: id, op: op}
}

// child opens a span under s.
func (s spanRef) child(name string) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	return s.t.start(s.op, s.id, name)
}

// end closes the span.
func (s spanRef) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id-1].End = time.Since(s.t.t0)
	s.t.mu.Unlock()
}

// mark records an instant under s.
func (s spanRef) mark(name string) {
	if s.t == nil {
		return
	}
	m := s.child(name)
	s.t.mu.Lock()
	s.t.spans[m.id-1].End = s.t.spans[m.id-1].Start
	s.t.mu.Unlock()
}

// count adds n to the named counter of s's op.
func (s spanRef) count(name string, n int64) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	c := s.t.counters[s.op]
	if c == nil {
		c = map[string]int64{}
		s.t.counters[s.op] = c
	}
	c[name] += n
	s.t.mu.Unlock()
}

// traced reports whether s records anything.
func (s spanRef) traced() bool { return s.t != nil }

// Propagation across the daemon's HTTP boundary: the client side stamps the
// op and parent span IDs into request headers, and the server-side
// middleware opens its span under them, so the client and server spans of
// one op share the op ID.
const (
	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

type spanKey struct{}

// withSpan makes s the parent of any request issued under ctx.
func withSpan(ctx context.Context, s spanRef) context.Context {
	if s.t == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// stampTransport is the benchmark's http.RoundTripper for the daemon's
// clients: it stamps the span headers and counts stream bytes per op.
type stampTransport struct{ base http.RoundTripper }

func (s stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return s.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, strconv.FormatInt(sp.op, 10))
	req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	resp, err := s.base.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/stream") {
		resp.Body = &countingBody{ReadCloser: resp.Body, sp: sp}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	sp spanRef
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.count("stream_bytes", int64(n))
	return n, err
}

// middleware wraps the daemon's handler with one span per request that
// carries the span headers, named after the route it serves.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		op, err1 := strconv.ParseInt(req.Header.Get(opHeader), 10, 64)
		parent, err2 := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, req)
			return
		}
		sp := t.start(op, parent, routeSpan(req))
		defer sp.end()
		next.ServeHTTP(w, req)
	})
}

// routeSpan names the server span of a control-API request.
func routeSpan(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost:
		return "server.submit"
	case strings.HasSuffix(p, "/stream"):
		return "server.stream"
	case strings.HasSuffix(p, "/report"):
		return "server.report"
	default:
		return "server.status"
	}
}

// snapshot copies the recorded state.
func (t *tracer) snapshot() ([]span, []root, map[int64]map[string]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counters := make(map[int64]map[string]int64, len(t.counters))
	for op, c := range t.counters {
		cc := make(map[string]int64, len(c))
		for k, v := range c {
			cc[k] = v
		}
		counters[op] = cc
	}
	return append([]span(nil), t.spans...), append([]root(nil), t.roots...), counters
}

// write saves every span as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	spans, roots, counters := t.snapshot()
	b, err := json.Marshal(struct {
		Workload string                     `json:"workload"`
		Seed     int64                      `json:"seed"`
		Roots    []root                     `json:"roots"`
		Spans    []span                     `json:"spans"`
		Counters map[int64]map[string]int64 `json:"counters"`
	}{workload, seed, roots, spans, counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each closed span's duration minus the part of its
// interval that its children cover. Children may overlap one another (the
// daemon's server spans run inside the client spans that caused them);
// only their union counts.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		var clipped []iv
		for _, k := range kids[s.ID] {
			a, b := max(k.a, s.Start), min(k.b, s.End)
			if b > a {
				clipped = append(clipped, iv{a, b})
			}
		}
		sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
		var covered time.Duration
		var cur iv
		for i, k := range clipped {
			switch {
			case i == 0:
				cur = k
			case k.a <= cur.b:
				cur.b = max(cur.b, k.b)
			default:
				covered += cur.b - cur.a
				cur = k
			}
		}
		if len(clipped) > 0 {
			covered += cur.b - cur.a
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerRow is one line of the per-layer table: a span name's mean count,
// busy time and self time per root of one group (a stream's traced ops, or
// the set-up repetitions).
type layerRow struct {
	Name       string
	CountPerOp float64
	BusyPerOp  time.Duration
	SelfPerOp  time.Duration
}

// layerTable aggregates the spans under the given roots. The root itself
// appears as its own name ("op" or "setup") with its self time, which is
// the unattributed remainder of the root.
func layerTable(spans []span, roots []int64) []layerRow {
	if len(roots) == 0 {
		return nil
	}
	in := make(map[int64]bool, len(roots))
	for _, id := range roots {
		in[id] = true
	}
	self := selfTimes(spans)
	type acc struct {
		n          int
		busy, self time.Duration
	}
	by := map[string]*acc{}
	var order []string
	for _, s := range spans {
		if !in[s.Op] || s.End < s.Start {
			continue
		}
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.busy += s.End - s.Start
		a.self += self[s.ID]
	}
	n := time.Duration(len(roots))
	rows := make([]layerRow, 0, len(order))
	for _, name := range order {
		a := by[name]
		rows = append(rows, layerRow{
			Name:       name,
			CountPerOp: float64(a.n) / float64(len(roots)),
			BusyPerOp:  a.busy / n,
			SelfPerOp:  a.self / n,
		})
	}
	return rows
}

// row finds a span name's row (zero if absent).
func row(rows []layerRow, name string) layerRow {
	for _, r := range rows {
		if r.Name == name {
			return r
		}
	}
	return layerRow{Name: name}
}
