// Package store is the content-addressed result store behind incremental
// re-runs: characterization and cell results are pure functions of their
// normalized configuration (the byte-exact determinism contract of the
// simulation stack), so a cell's output can be persisted once and served
// forever — a warm re-run of an identical fleet hits the store for every
// cell, identical cells across runs dedupe to one computation, and editing
// one scenario in a mix recomputes only the affected cells.
//
// The design follows kopia's content-addressed layout in miniature: a
// cell's canonical spec bytes (see KeyBytes) are hashed to a SHA-256
// digest, and the digest addresses an immutable entry file under the store
// root. The store is append-only in the content-addressed sense — entries
// are only ever added, never mutated in place (writes go through a
// temp-file + rename, so a crash can never leave a torn entry under its
// final name), and a re-Put of an existing digest rewrites bit-identical
// bytes. A crash between the temp write and the rename leaves only an
// orphaned temp file, which a later Open removes.
//
// Every entry self-verifies: a header line records the engine version,
// the key digest, and the SHA-256 of the payload, and a read re-hashes the
// payload before serving it. A truncated entry, a bit-flipped payload, or
// an entry written by a different engine version all fail verification and
// are reported as a miss — the caller recomputes and the fresh Put heals
// the entry. The store never serves bytes it cannot prove correct.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/version"
)

// EngineVersion names the simulation-engine generation whose outputs the
// store holds. It participates in every key AND is checked in every entry
// header: bump it (in internal/version, the single shared declaration —
// the control API's client handshake checks the same constant) whenever
// any change alters the byte output of a cell (simulation numerics,
// aggregation, serialization formats), and every existing entry becomes
// stale — detected on read, recomputed on demand — without a migration.
const EngineVersion = version.Engine

// entryFormat versions the on-disk entry layout itself (header framing,
// digest algorithm). Distinct from EngineVersion: a format bump invalidates
// how entries are read, an engine bump invalidates what they contain.
const entryFormat = 1

// Digest is the content address of one cell computation: SHA-256 over the
// canonical spec bytes.
type Digest [sha256.Size]byte

// String renders the digest as lowercase hex (the on-disk naming).
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// KeyBytes renders the canonical byte representation of a cell spec: a
// deterministic JSON envelope carrying the entry format, the engine
// version, the caller's kind tag (e.g. "fleet-cell", "campaign-cell",
// "fleet-trace" — two kinds never collide), and the normalized spec
// itself. Callers pass a fully normalized struct (no maps, every default
// materialized): encoding/json marshals struct fields in declaration order
// with shortest-round-trip floats, so identical configurations produce
// identical bytes and any coordinate change produces different bytes.
func KeyBytes(kind string, spec any) ([]byte, error) {
	env := struct {
		Format int    `json:"format"`
		Engine string `json:"engine"`
		Kind   string `json:"kind"`
		Spec   any    `json:"spec"`
	}{entryFormat, EngineVersion, kind, spec}
	b, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("store: canonicalizing %s key: %w", kind, err)
	}
	return b, nil
}

// KeyDigest hashes the canonical bytes of a cell spec into its content
// address.
func KeyDigest(kind string, spec any) (Digest, error) {
	b, err := KeyBytes(kind, spec)
	if err != nil {
		return Digest{}, err
	}
	return sha256.Sum256(b), nil
}

// Stats are the store's monotone counters since Open. Hits+Misses counts
// finished Decode calls (GetJSON is a Decode); Invalid counts the
// subset of misses caused by an entry that exists but failed verification
// (corruption or a stale engine version) or the caller's decode.
// WriteErrors counts failed Puts (a full disk, an unwritable directory):
// the engines persist best-effort, so a failed write costs the next run a
// recompute, never this run its result — the counter keeps it visible.
type Stats struct {
	Hits        uint64
	Misses      uint64
	Writes      uint64
	Invalid     uint64
	WriteErrors uint64
}

// HitRate returns hits/(hits+misses) in [0, 1], or 0 before any read.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Summary renders the counters for a CLI's closing store line: hits,
// misses and hit rate, plus the write-error count only when writes failed.
func (s Stats) Summary() string {
	out := fmt.Sprintf("%d hits, %d misses (%.0f%% hit rate)", s.Hits, s.Misses, 100*s.HitRate())
	if s.WriteErrors > 0 {
		out += fmt.Sprintf(", %d write errors", s.WriteErrors)
	}
	return out
}

// Store is a local content-addressed result store rooted at one directory.
// All methods are safe for concurrent use: entries are immutable, writes
// are atomic renames, and the counters are atomics.
type Store struct {
	dir string
	// objects is the shard root with a trailing separator, the prefix of
	// every entry path.
	objects string

	hits        atomic.Uint64
	misses      atomic.Uint64
	writes      atomic.Uint64
	invalid     atomic.Uint64
	writeErrors atomic.Uint64
}

// DefaultDir is the conventional store location, relative to the working
// directory of the run.
const DefaultDir = ".repro-store"

// tmpDir holds Put's in-flight temp files. It sits under the store root,
// on the same filesystem as the shards, so the rename into place stays
// atomic; and it is one directory, so sweeping it never walks the shards.
const tmpDir = "tmp"

// tempPrefix starts the name of every temp file Put creates.
const tempPrefix = ".put-"

// staleTempAge is how old a temp file must be before Open removes it as a
// crash leftover. A Put holds its temp file for milliseconds, so the age
// keeps Open from ever touching another process's in-flight write.
const staleTempAge = time.Hour

// Open opens (creating if needed) the store rooted at dir and removes the
// temp files crashed writers left behind (see staleTempAge).
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir
	}
	for _, sub := range []string{"objects", tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, objects: filepath.Join(dir, "objects") + string(filepath.Separator)}
	s.sweepTemp()
	return s, nil
}

// sweepTemp removes Put temp files last modified staleTempAge or more ago.
// Failures are ignored: a leftover only costs disk space.
func (s *Store) sweepTemp() {
	tmp := filepath.Join(s.dir, tmpDir)
	entries, err := os.ReadDir(tmp)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), tempPrefix) {
			continue
		}
		if info, err := e.Info(); err == nil && time.Since(info.ModTime()) >= staleTempAge {
			os.Remove(filepath.Join(tmp, e.Name()))
		}
	}
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Invalid:     s.invalid.Load(),
		WriteErrors: s.writeErrors.Load(),
	}
}

// entryPath shards entries by the first digest byte, kopia-style, so a
// million-entry store never puts a million names in one directory. The
// path is filepath.Join(dir, "objects", hex[:2], hex+".entry"), built in
// one allocation: the hex digits need no cleaning.
func (s *Store) entryPath(key Digest) string {
	var name [2 * len(key)]byte
	hex.Encode(name[:], key[:])
	var b strings.Builder
	b.Grow(len(s.objects) + 2 + 1 + len(name) + len(".entry"))
	b.WriteString(s.objects)
	b.Write(name[:2])
	b.WriteByte(filepath.Separator)
	b.Write(name[:])
	b.WriteString(".entry")
	return b.String()
}

// Decode hands the verified payload stored under key to decode and
// reports whether the entry was served. The payload aliases a pooled read
// buffer: it is valid only until decode returns, so a callback that keeps
// any of it must copy it. A hit is counted only once decode has succeeded:
// a missing entry counts as a miss, and an unverifiable entry or a payload
// decode rejects (schema skew inside one engine version — should not
// happen, but must not crash) as invalid plus miss, never as a hit. A miss
// is indistinguishable by design between "never computed", "corrupt
// entry", and "stale engine version" — in every case the caller recomputes
// and Puts, which heals the entry; only the Invalid counter tells the
// cases apart.
func (s *Store) Decode(key Digest, decode func(payload []byte) error) bool {
	bp := readBufs.Get().(*[]byte)
	defer putReadBuf(bp)
	data, err := readEntry(s.entryPath(key), (*bp)[:0])
	*bp = data
	if err != nil {
		s.misses.Add(1)
		return false
	}
	payload, err := verify(key, data)
	if err == nil {
		err = decode(payload)
	}
	if err != nil {
		s.invalid.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// readBufs recycles Decode's read buffers. A fleet-cell entry is well
// under a kilobyte, so a warm fleet reads every entry into a handful of
// buffers instead of allocating one per hit.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledRead caps the buffers readBufs keeps: an occasional large entry
// (a replay trace) is read into a buffer that is then dropped, so the pool
// never pins one.
const maxPooledRead = 64 << 10

func putReadBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledRead {
		readBufs.Put(bp)
	}
}

// readEntry appends the whole file at path to buf and returns it. It is
// os.ReadFile at the syscall floor: one open, reads until EOF, one close —
// no fstat, no os.File, no poller registration. Both syscalls are retried
// on EINTR. The calls have the same shape on every platform the syscall
// package serves, so this one path builds for all of them.
func readEntry(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return buf, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return buf, err
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}

// appendHeader appends the header line that opens every entry file (the
// newline excluded): the entry format, the engine version, the key, and
// the payload's SHA-256 and size. The bytes are exactly what json.Marshal
// writes for those fields (every value is plain ASCII needing no escape),
// so Put and verify share one builder and verify compares bytes instead
// of parsing JSON.
func appendHeader(dst []byte, key Digest, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(dst, `{"format":`...)
	dst = strconv.AppendInt(dst, entryFormat, 10)
	dst = append(dst, `,"engine":"`...)
	dst = append(dst, EngineVersion...)
	dst = append(dst, `","key":"`...)
	dst = hex.AppendEncode(dst, key[:])
	dst = append(dst, `","payload_sha256":"`...)
	dst = hex.AppendEncode(dst, sum[:])
	dst = append(dst, `","size":`...)
	dst = strconv.AppendInt(dst, int64(len(payload)), 10)
	return append(dst, '}')
}

// verify checks one raw entry file against the key it is addressed by and
// returns its payload. The header line must be byte-for-byte the one Put
// would write for this key and payload, so every failure mode — torn
// header, truncated payload, flipped bit, foreign key, stale engine or
// entry format — is an error.
func verify(key Digest, data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("store: entry missing header line")
	}
	payload := data[nl+1:]
	var buf [256]byte
	if !bytes.Equal(data[:nl], appendHeader(buf[:0], key, payload)) {
		return nil, fmt.Errorf("store: entry header does not match key %s and its payload (corrupt, truncated, foreign or stale entry)", key)
	}
	return payload, nil
}

// Put persists payload under key. The entry is assembled in a temp file
// under the store's tmp directory and renamed into place, so concurrent
// writers of the same digest race benignly (they write identical bytes)
// and a crash never leaves a torn entry under its final name. Every
// failure also counts in Stats.WriteErrors.
func (s *Store) Put(key Digest, payload []byte) error {
	if err := s.put(key, payload); err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	return nil
}

func (s *Store) put(key Digest, payload []byte) error {
	path := s.entryPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), tempPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	entry := append(appendHeader(make([]byte, 0, 256+len(payload)), key, payload), '\n')
	_, werr := tmp.Write(append(entry, payload...))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing entry: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetJSON is Decode with a strict JSON decode of the payload into out. A
// *json.RawMessage receives a copy of the payload verbatim: the store is
// byte-transparent, and raw bytes need no decoding.
func (s *Store) GetJSON(key Digest, out any) bool {
	return s.Decode(key, func(payload []byte) error {
		if raw, ok := out.(*json.RawMessage); ok {
			*raw = bytes.Clone(payload)
			return nil
		}
		return json.Unmarshal(payload, out)
	})
}

// PutJSON marshals v and Puts it under key. A json.RawMessage is stored
// verbatim, as GetJSON serves it.
func (s *Store) PutJSON(key Digest, v any) error {
	if raw, ok := v.(json.RawMessage); ok {
		return s.Put(key, raw)
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding payload: %w", err)
	}
	return s.Put(key, payload)
}

// CorruptForTest flips one byte of the stored entry's payload region —
// the corruption-suite hook, exported so the fleet and campaign tests can
// damage entries without knowing the layout.
func (s *Store) CorruptForTest(key Digest) error {
	path := s.entryPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return io.ErrUnexpectedEOF
	}
	data[len(data)-1] ^= 0x01
	return os.WriteFile(path, data, 0o644)
}

// BreakWritesForTest makes every later Put fail, for the write-error
// suites: the objects directory becomes a read-only file, which stops
// even a root test runner (permission bits alone would not).
func (s *Store) BreakWritesForTest() error {
	objects := filepath.Join(s.dir, "objects")
	if err := os.RemoveAll(objects); err != nil {
		return err
	}
	return os.WriteFile(objects, nil, 0o444)
}

// EntryPathForTest exposes the on-disk path of an entry for the corruption
// suite (truncation, header rewrites).
func (s *Store) EntryPathForTest(key Digest) string { return s.entryPath(key) }
