package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type testSpec struct {
	Platform string  `json:"platform"`
	Scenario string  `json:"scenario"`
	Seed     int64   `json:"seed"`
	Shift    float64 `json:"shift"`
}

func testKey(t *testing.T, spec testSpec) Digest {
	t.Helper()
	d, err := KeyDigest("test-cell", spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestKeyDigestDeterministicAndSensitive(t *testing.T) {
	base := testSpec{Platform: "exynos5410", Scenario: "cold-start", Seed: 42, Shift: -3.25}
	d1 := testKey(t, base)
	d2 := testKey(t, base)
	if d1 != d2 {
		t.Fatalf("same spec, different digests: %s vs %s", d1, d2)
	}
	// Any coordinate change, the kind tag included, must move the digest.
	variants := []testSpec{
		{Platform: "tablet-8big", Scenario: "cold-start", Seed: 42, Shift: -3.25},
		{Platform: "exynos5410", Scenario: "gaming-session", Seed: 42, Shift: -3.25},
		{Platform: "exynos5410", Scenario: "cold-start", Seed: 43, Shift: -3.25},
		{Platform: "exynos5410", Scenario: "cold-start", Seed: 42, Shift: -3.5},
	}
	for _, v := range variants {
		if testKey(t, v) == d1 {
			t.Errorf("variant %+v collided with base digest", v)
		}
	}
	other, err := KeyDigest("other-kind", base)
	if err != nil {
		t.Fatal(err)
	}
	if other == d1 {
		t.Error("different kind tags collided")
	}
	// The canonical bytes embed the engine version, so a version bump
	// invalidates every key without touching the store.
	kb, err := KeyBytes("test-cell", base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(kb, []byte(EngineVersion)) {
		t.Errorf("canonical key bytes %q do not pin the engine version", kb)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, testSpec{Platform: "p", Scenario: "s", Seed: 1})
	payload := []byte(`{"metrics":{"energy_j":123.456789012345}}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("empty store served an entry")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q want %q", got, payload)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Invalid != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate: %g", st.HitRate())
	}
	// Reopening the store serves the same bytes (persistence).
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry lost across reopen")
	}
}

// TestCorruptionSuite damages a stored entry every way it can go bad —
// truncation, a trailing byte, a flipped payload bit, a stale engine
// version, another key's entry under this key's name — and checks
// each is detected by verification, served as a miss (never bad bytes,
// never a crash), counted as invalid, and healed by the recompute's Put.
func TestCorruptionSuite(t *testing.T) {
	key := testKey(t, testSpec{Platform: "p", Scenario: "s", Seed: 7})
	payload := []byte(`{"n":12345,"freq_frac":0.875}`)
	damage := map[string]func(t *testing.T, s *Store){
		"truncated": func(t *testing.T, s *Store) {
			path := s.EntryPathForTest(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"trailing-byte": func(t *testing.T, s *Store) {
			path := s.EntryPathForTest(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, append(data, '}'), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"foreign-key": func(t *testing.T, s *Store) {
			other := testKey(t, testSpec{Platform: "p", Scenario: "s", Seed: 8})
			if err := s.Put(other, payload); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(s.EntryPathForTest(other))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.EntryPathForTest(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flipped": func(t *testing.T, s *Store) {
			if err := s.CorruptForTest(key); err != nil {
				t.Fatal(err)
			}
		},
		"stale-engine": func(t *testing.T, s *Store) {
			path := s.EntryPathForTest(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fresh := bytes.Replace(data, []byte(EngineVersion), []byte("repro-engine/0"), 1)
			if bytes.Equal(fresh, data) {
				t.Fatal("engine version not found in entry header")
			}
			if err := os.WriteFile(path, fresh, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty-file": func(t *testing.T, s *Store) {
			if err := os.WriteFile(s.EntryPathForTest(key), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage-header": func(t *testing.T, s *Store) {
			if err := os.WriteFile(s.EntryPathForTest(key), []byte("not json\npayload"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir() + "/store")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s)
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			st := s.Stats()
			if st.Invalid != 1 || st.Misses != 1 {
				t.Fatalf("corruption not counted: %+v", st)
			}
			// The recompute path: Put heals the entry in place.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
				t.Fatalf("healed entry not served: %q ok=%v", got, ok)
			}
		})
	}
}

// TestDecodePayloadNotRetained pins the copy contract on top of Decode's
// pooled read buffers: what Get and GetJSON into a *json.RawMessage return
// belongs to the caller and survives any number of later reads of other
// entries, concurrent ones included (run it under -race). The payload
// sizes cover a buffer that grows past its pooled capacity and one too
// large to go back to the pool.
func TestDecodePayloadNotRetained(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{0, 1, 300, 5000, maxPooledRead + 1}
	keys := make([]Digest, len(sizes))
	payloads := make([][]byte, len(sizes))
	for i, n := range sizes {
		keys[i] = testKey(t, testSpec{Scenario: "retained", Seed: int64(i)})
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, n)
		if err := s.Put(keys[i], payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				got, ok := s.Get(keys[i])
				var raw json.RawMessage
				if !ok || !s.GetJSON(keys[i], &raw) {
					t.Errorf("entry %d missed", i)
					return
				}
				for r := 0; r < 100; r++ {
					other := (i + 1 + r%(len(keys)-1)) % len(keys)
					if !s.Decode(keys[other], func([]byte) error { return nil }) {
						t.Errorf("entry %d missed", other)
						return
					}
				}
				if !bytes.Equal(got, payloads[i]) || !bytes.Equal(raw, payloads[i]) {
					t.Errorf("entry %d: Get or GetJSON result changed under later reads", i)
				}
			}
		}()
	}
	wg.Wait()
}

func TestGetJSONRejectsSchemaSkew(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, testSpec{Platform: "p"})
	if err := s.Put(key, []byte(`{"n": "not-a-number"}`)); err != nil {
		t.Fatal(err)
	}
	var out struct {
		N uint64 `json:"n"`
	}
	if s.GetJSON(key, &out) {
		t.Fatal("mistyped payload decoded")
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Invalid != 1 {
		t.Fatalf("stats after schema skew: %+v", st)
	}
}

// TestDecodeCountsExactly races Decode and GetJSON callers over a good
// entry, an undecodable one and a missing one while a reader polls Stats
// the way healthz does. The final counters are exact, and no snapshot ever
// shows more hits than good-entry calls or more hits+misses than calls:
// a decode failure is never counted as a hit, not even transiently.
func TestDecodeCountsExactly(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good := testKey(t, testSpec{Scenario: "good"})
	bad := testKey(t, testSpec{Scenario: "bad"})
	absent := testKey(t, testSpec{Scenario: "absent"})
	if err := s.Put(good, []byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(bad, []byte(`{"n":"not-a-number"}`)); err != nil {
		t.Fatal(err)
	}
	type entry struct {
		N uint64 `json:"n"`
	}
	decodeEntry := func(p []byte) error { return json.Unmarshal(p, new(entry)) }

	var goodCalls, allCalls atomic.Uint64
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Stats first: every call it counts was started before the
			// call counters are read.
			st := s.Stats()
			if g, all := goodCalls.Load(), allCalls.Load(); st.Hits > g || st.Hits+st.Misses > all {
				t.Errorf("snapshot %+v over-counts: %d good calls, %d calls started", st, g, all)
				return
			}
		}
	}()

	const workers, rounds = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out entry
			for i := 0; i < rounds; i++ {
				goodCalls.Add(2)
				allCalls.Add(2)
				if !s.Decode(good, decodeEntry) || !s.GetJSON(good, &out) {
					t.Error("good entry missed")
				}
				allCalls.Add(3)
				if s.Decode(bad, decodeEntry) || s.GetJSON(bad, &out) {
					t.Error("undecodable entry served")
				}
				if s.Decode(absent, decodeEntry) {
					t.Error("absent entry served")
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone
	st := s.Stats()
	const calls = workers * rounds
	if st.Hits != 2*calls || st.Misses != 3*calls || st.Invalid != 2*calls {
		t.Fatalf("stats %+v, want %d hits, %d misses, %d invalid", st, 2*calls, 3*calls, 2*calls)
	}
}

// TestHeaderLineMatchesJSON pins the header builder to the bytes
// json.Marshal writes for the same fields, the layout every entry on disk
// carries.
func TestHeaderLineMatchesJSON(t *testing.T) {
	for i, payload := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0, 0xff, '\n'}, 1000)} {
		key := testKey(t, testSpec{Seed: int64(i)})
		sum := sha256.Sum256(payload)
		want, err := json.Marshal(struct {
			Format  int    `json:"format"`
			Engine  string `json:"engine"`
			Key     string `json:"key"`
			Payload string `json:"payload_sha256"`
			Size    int64  `json:"size"`
		}{entryFormat, EngineVersion, key.String(), hex.EncodeToString(sum[:]), int64(len(payload))})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendHeader(nil, key, payload); !bytes.Equal(got, want) {
			t.Errorf("payload %d: header\n%s\nwant\n%s", i, got, want)
		}
	}
}

// TestRawMessageVerbatim: a json.RawMessage goes in and comes out as its
// exact bytes, JSON or not.
func TestRawMessageVerbatim(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, testSpec{Scenario: "raw"})
	payload := json.RawMessage{0x01, 0xff, '\n', 0x00}
	if err := s.PutJSON(key, payload); err != nil {
		t.Fatal(err)
	}
	var got json.RawMessage
	if !s.GetJSON(key, &got) || !bytes.Equal(got, payload) {
		t.Fatalf("raw payload round trip: %x", got)
	}
}

// TestJSONFloatRoundTrip pins the property the byte-identical warm-report
// contract rests on: a float64 stored through PutJSON/GetJSON comes back
// bit-exact (encoding/json uses shortest-round-trip formatting).
func TestJSONFloatRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, 1.0 / 3.0, 63.000000000000007, 2.2250738585072014e-308, 1e300, -17.25}
	key := testKey(t, testSpec{Scenario: "floats"})
	if err := s.PutJSON(key, vals); err != nil {
		t.Fatal(err)
	}
	var got []float64
	if !s.GetJSON(key, &got) {
		t.Fatal("miss")
	}
	a, _ := json.Marshal(vals)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("float round trip drifted: %s vs %s", a, b)
	}
}

// TestConcurrentPutGet races writers and readers of overlapping digests;
// run under -race in CI, it pins that the store is safe for the worker
// pool to use without external locking.
func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				key := testKey(t, testSpec{Seed: int64(i)})
				payload := fmt.Appendf(nil, `{"seed":%d}`, i)
				if err := s.Put(key, payload); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Errorf("entry %d: wrong bytes %q", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		key := testKey(t, testSpec{Seed: int64(i)})
		got, ok := s.Get(key)
		if !ok || !strings.Contains(string(got), fmt.Sprintf(`"seed":%d`, i)) {
			t.Fatalf("entry %d lost after the race: %q ok=%v", i, got, ok)
		}
	}
}

// TestPutCountsWriteErrors: a Put that cannot reach the disk returns its
// error AND counts it, so callers that persist best-effort (and drop the
// error) still leave a visible trace; the CLI summary names the count
// only when it is non-zero.
// TestOpenSweepsStaleTempFiles: Open removes the temp files a crashed Put
// left behind, keeps fresh ones (another process may be mid-Put), and
// leaves entries intact.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, testSpec{Platform: "p", Scenario: "s", Seed: 3})
	payload := []byte(`{"ok":true}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, tmpDir, tempPrefix+"stale")
	fresh := filepath.Join(dir, tmpDir, tempPrefix+"fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("half an entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file removed: %v", err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Errorf("entry after sweep: %q, %v", got, ok)
	}
	// Writes still fail loudly once the objects tree is unusable, and a
	// failed Put leaves no temp file of its own.
	if err := s.BreakWritesForTest(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(testKey(t, testSpec{Seed: 4}), payload); err == nil {
		t.Fatal("Put into a broken store succeeded")
	}
	if st := s.Stats(); st.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d, want 1", st.WriteErrors)
	}
	left, err := os.ReadDir(filepath.Join(dir, tmpDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 1 || left[0].Name() != tempPrefix+"fresh" {
		t.Errorf("tmp directory holds %v, want only the fresh file", left)
	}
}

func TestPutCountsWriteErrors(t *testing.T) {
	s, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, testSpec{Platform: "p", Scenario: "s", Seed: 1})
	if err := s.Put(key, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Summary(); got != "0 hits, 0 misses (0% hit rate)" {
		t.Errorf("healthy summary %q", got)
	}
	if err := s.BreakWritesForTest(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.PutJSON(key, map[string]int{"n": i}); err == nil {
			t.Fatal("Put into an unwritable store succeeded")
		}
	}
	st := s.Stats()
	if st.Writes != 1 || st.WriteErrors != 2 {
		t.Fatalf("stats after failed writes: %+v", st)
	}
	if got := st.Summary(); !strings.HasSuffix(got, ", 2 write errors") {
		t.Errorf("summary %q does not report the write errors", got)
	}
}
