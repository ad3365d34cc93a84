package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"specctrl/internal/experiments"
	"specctrl/internal/obs"
	"specctrl/internal/replay"
)

// Store is the content-addressed result cache: one verified file per
// cell, named by the cell's canonical address (experiments.CellAddress),
// behind a resident tier of decoded cells on the shared cache substrate
// (replay.LRU, the one the trace tiers use).
//
// Because a cell's address captures everything its result is a function
// of, and experiments.CellResult round-trips exactly through JSON, a
// cell served from the store is byte-for-byte indistinguishable from a
// freshly simulated one — entries never expire. The store must be
// cleared by the operator when simulator behaviour changes (the same
// event that regenerates results_full.txt).
//
// A resident hit returns the shared decoded cell without touching the
// disk; callers must treat it as read-only (the experiments.CellCache
// contract). A miss runs once per address under the substrate's
// singleflight, however many callers want it: the one recording reads
// and verifies the file, or computes the cell and writes it. Residency
// is bounded by replay.DefaultCacheBytes, charged replay.StatsBytes per
// Stats a cell holds; an evicted cell is read from disk again.
//
// Layout: <dir>/<first two hex digits>/<address>.json, sharded to keep
// directories small. Each file is an envelope naming its address and
// the SHA-256 of its payload (see sealEnvelope). Writes go through a
// temp file + rename, so a crashed writer leaves no partial entry. An
// entry that fails verification — wrong address, payload not matching
// its digest, or a bare cell file from before the envelope — is a
// miss: it counts in specctrl_store_corrupt_total, and the recompute
// overwrites it. Verification runs only on a disk read.
type Store struct {
	dir   string
	cells *replay.LRU[experiments.CellResult]

	hits, misses, dedup, corrupt *obs.Counter
}

// NewStore opens (creating if needed) a content-addressed store rooted
// at dir. When reg is non-nil the store publishes
// specctrl_serve_cache_{hits,misses,dedup}_total,
// specctrl_store_corrupt_total, and the resident tier's substrate
// metrics under the specctrl_cell prefix.
func NewStore(dir string, reg *obs.Registry) (*Store, error) {
	return newStore(dir, reg, replay.DefaultCacheBytes)
}

// newStore is NewStore with an explicit resident-tier budget.
func newStore(dir string, reg *obs.Registry, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: store directory required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	if reg == nil {
		reg = obs.NewRegistry() // unpublished, so the counters need no nil checks
	}
	return &Store{
		dir:     dir,
		cells:   replay.NewLRU(maxBytes, reg, "specctrl_cell", cellFootprint),
		hits:    reg.Counter("specctrl_serve_cache_hits_total", nil),
		misses:  reg.Counter("specctrl_serve_cache_misses_total", nil),
		dedup:   reg.Counter("specctrl_serve_cache_dedup_total", nil),
		corrupt: reg.Counter("specctrl_store_corrupt_total", nil),
	}, nil
}

// cellFootprint charges a resident cell what its Stats hold: StatsBytes
// (which grows with the estimator count) for its headline stats and for
// each policy-sweep run, and one StatsFootprint for an extras-only
// cell, whose Stats is nil.
func cellFootprint(c experiments.CellResult) int64 {
	n := int64(replay.StatsFootprint)
	if c.Stats != nil {
		n = replay.StatsBytes(c.Stats)
	}
	for _, r := range c.Runs {
		n += replay.StatsBytes(r)
	}
	return n
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(addr string) string {
	return filepath.Join(s.dir, addr[:2], addr+".json")
}

// Lookup returns the cell stored under addr, reporting whether a valid
// entry exists: the resident copy when there is one, else the verified
// disk entry, which then becomes resident. It never computes.
func (s *Store) Lookup(addr string) (experiments.CellResult, bool) {
	if c, ok := s.cells.Get(addr); ok {
		return c, true
	}
	c, ok := s.read(addr)
	if ok {
		s.cells.Put(addr, c)
	}
	return c, ok
}

// Put stores a cell computed elsewhere (e.g. uploaded by a cluster
// worker) under addr, then makes it resident. The write is atomic and
// idempotent: the result at an address is deterministic, so a
// concurrent or repeated Put of the same address simply rewrites
// identical bytes, and the first resident copy wins.
func (s *Store) Put(addr string, c experiments.CellResult) error {
	if err := s.save(addr, c); err != nil {
		return err
	}
	s.cells.Put(addr, c)
	return nil
}

// GetOrCompute returns the cell stored under addr, computing and
// storing it on a miss. Concurrent callers with the same address are
// deduplicated: exactly one reads the file or runs compute (with its
// own context), the rest block until it finishes (or their ctx is
// cancelled) and share the outcome. Compute and write errors are
// returned to every waiter and are not cached — the next request
// retries.
func (s *Store) GetOrCompute(ctx context.Context, addr string,
	compute func(context.Context) (experiments.CellResult, error)) (experiments.CellResult, error) {
	fromDisk := false
	c, outcome, err := s.cells.GetOrRecordOutcome(ctx, addr, func() (experiments.CellResult, error) {
		if c, ok := s.read(addr); ok {
			fromDisk = true
			return c, nil
		}
		c, err := compute(ctx)
		if err != nil {
			return c, err
		}
		return c, s.save(addr, c)
	})
	if err != nil {
		return c, err
	}
	switch {
	case outcome == replay.OutcomeWait:
		s.dedup.Inc()
	case outcome == replay.OutcomeHit || fromDisk:
		s.hits.Inc()
	default:
		s.misses.Inc()
	}
	return c, nil
}

// read loads and verifies the entry stored under addr. A missing or
// unreadable file is a plain miss; an entry that fails verification is
// a miss counted as corrupt.
func (s *Store) read(addr string) (experiments.CellResult, bool) {
	data, err := os.ReadFile(s.path(addr))
	if err != nil {
		return experiments.CellResult{}, false
	}
	c, ok := openEnvelope(addr, data)
	if !ok {
		s.corrupt.Inc()
	}
	return c, ok
}

// save writes the cell's envelope atomically (temp file + rename in
// the same directory).
func (s *Store) save(addr string, c experiments.CellResult) error {
	payload, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("serve: store encode: %w", err)
	}
	dir := filepath.Dir(s.path(addr))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+addr+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	if _, err := tmp.Write(sealEnvelope(addr, payload)); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(addr)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	return nil
}

// Envelope framing. A cell file is one JSON object with a fixed field
// order,
//
//	{"addr":"<address>","sha256":"<hex SHA-256 of payload>","cell":<payload>}
//
// followed by a newline, where payload is the cell's JSON encoding.
// The fixed layout lets the reader slice the payload out and check it
// before its one full decode.
const (
	envAddr = `{"addr":"`
	envSum  = `","sha256":"`
	envCell = `","cell":`
	envEnd  = "}\n"
)

// sealEnvelope frames payload as the file stored under addr.
func sealEnvelope(addr string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, len(payload)+len(addr)+128)
	out = append(out, envAddr...)
	out = append(out, addr...)
	out = append(out, envSum...)
	out = hex.AppendEncode(out, sum[:])
	out = append(out, envCell...)
	out = append(out, payload...)
	return append(out, envEnd...)
}

// openEnvelope returns the cell in data if data is the envelope
// sealEnvelope wrote for addr: the right address, and a payload that
// matches its digest and decodes. Anything else, including a
// pre-envelope bare cell file, is rejected.
func openEnvelope(addr string, data []byte) (experiments.CellResult, bool) {
	const sumLen = 2 * sha256.Size
	var c experiments.CellResult
	rest, ok := bytes.CutPrefix(data, []byte(envAddr+addr+envSum))
	if !ok || len(rest) < sumLen {
		return c, false
	}
	want := string(rest[:sumLen])
	payload, ok := bytes.CutPrefix(rest[sumLen:], []byte(envCell))
	if !ok {
		return c, false
	}
	if payload, ok = bytes.CutSuffix(payload, []byte(envEnd)); !ok {
		return c, false
	}
	if sum := sha256.Sum256(payload); hex.EncodeToString(sum[:]) != want {
		return c, false
	}
	if err := json.Unmarshal(payload, &c); err != nil {
		return experiments.CellResult{}, false
	}
	return c, true
}
