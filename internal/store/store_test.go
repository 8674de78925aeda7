package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestCorruptionSuite damages a stored entry every way the ISSUE names —
// truncation, a flipped payload bit, a stale engine version — and checks
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
