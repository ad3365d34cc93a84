package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"specctrl/internal/isa"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// Ingest bounds on a branch trace. The replay program emits one code
// block per distinct branch site and one data word per branch, so these
// cap its code and data size.
const (
	maxTraceSites  = 4096
	maxTraceEvents = 1 << 20
)

// ErrTraceBounds means a branch trace is empty or exceeds the ingest
// bounds (at most 4096 distinct branch sites and 2^20 branches).
var ErrTraceBounds = errors.New("synth: branch trace out of ingest bounds")

// traceInput is the replay program's view of a committed branch stream:
// the distinct branch-site PCs in ascending order (the canonical site
// order) and the stream itself, packed as siteIndex<<1 | takenBit.
type traceInput struct {
	sitePCs []int64
	events  []uint32
}

// CheckTrace reports whether FromTrace can ingest at: it fails with
// ErrTraceBounds when the stream is empty or too large for the replay
// program. Recorders call it before writing a file meant for ingestion.
func CheckTrace(at *replay.ArchTrace) error {
	_, err := newTraceInput(at)
	return err
}

// newTraceInput checks the ingest bounds and assigns site indices.
func newTraceInput(at *replay.ArchTrace) (*traceInput, error) {
	if n := at.Branches(); n == 0 || n > maxTraceEvents {
		return nil, fmt.Errorf("%w: %d branches, want 1..%d", ErrTraceBounds, n, maxTraceEvents)
	}
	index := map[int64]uint32{}
	at.Each(func(pc int64, _ bool) { index[pc] = 0 })
	if len(index) > maxTraceSites {
		return nil, fmt.Errorf("%w: %d branch sites, want at most %d", ErrTraceBounds, len(index), maxTraceSites)
	}
	t := &traceInput{sitePCs: make([]int64, 0, len(index)), events: make([]uint32, 0, at.Branches())}
	for pc := range index {
		t.sitePCs = append(t.sitePCs, pc)
	}
	slices.Sort(t.sitePCs)
	for i, pc := range t.sitePCs {
		index[pc] = uint32(i)
	}
	at.Each(func(pc int64, taken bool) {
		e := index[pc] << 1
		if taken {
			e |= 1
		}
		t.events = append(t.events, e)
	})
	return t, nil
}

// Trace-replay program layout (word addresses).
const (
	traceTableAddr  = 0x2000 // per-site dispatch block addresses
	traceEventsAddr = 0x8000 // packed event words
)

// buildTraceProgram emits the replay program: an interpreter loop that
// walks the event words and dispatches (Jalr) into a per-site code
// block whose conditional branch takes the event's recorded outcome.
// Site identity maps to a distinct branch PC, which is what history
// predictors and estimators key on; the original PCs are metadata. The
// outer iters limit wraps the stream (workload Build semantics: large
// enough to never halt before MaxCommitted).
func buildTraceProgram(t *traceInput, name string, iters int) *isa.Program {
	b := isa.NewBuilder(name)
	const (
		rEv      = isa.Reg(1)  // event stream base
		rTab     = isa.Reg(2)  // dispatch table base
		rIdx     = isa.Reg(3)  // event index
		rE       = isa.Reg(4)  // event word
		rTk      = isa.Reg(5)  // taken bit (read by the site blocks)
		rS       = isa.Reg(6)  // site index
		rA       = isa.Reg(7)  // scratch address
		rNEv     = isa.Reg(8)  // event count
		rPass    = isa.Reg(9)  // stream pass counter
		rPassLim = isa.Reg(10) // iters
	)
	for i, e := range t.events {
		b.Word(traceEventsAddr+int64(i), int64(e))
	}
	b.Li(rEv, traceEventsAddr)
	b.Li(rTab, traceTableAddr)
	for i := range t.sitePCs {
		b.LiLabel(rA, fmt.Sprintf("t_site_%d", i))
		b.St(rA, rTab, int32(i))
	}
	b.Lui(rNEv, int32(len(t.events)>>16)).Ori(rNEv, rNEv, int32(len(t.events)&0xFFFF))
	b.Lui(rPassLim, int32(iters>>16)).Ori(rPassLim, rPassLim, int32(iters&0xFFFF))

	b.Label("pass")
	b.Li(rIdx, 0)
	b.Label("loop")
	b.Add(rA, rEv, rIdx)
	b.Ld(rE, rA, 0)
	b.Andi(rTk, rE, 1)
	b.Shri(rS, rE, 1)
	b.Add(rA, rTab, rS)
	b.Ld(rA, rA, 0)
	b.Jalr(isa.RA, rA, 0)
	b.Addi(rIdx, rIdx, 1)
	b.Blt(rIdx, rNEv, "loop")
	b.Addi(rPass, rPass, 1)
	b.Blt(rPass, rPassLim, "pass")
	b.Halt()

	for i := range t.sitePCs {
		b.Label(fmt.Sprintf("t_site_%d", i))
		b.Bne(rTk, isa.Zero, fmt.Sprintf("t_take_%d", i))
		b.Jalr(isa.Zero, isa.RA, 0)
		b.Label(fmt.Sprintf("t_take_%d", i))
		b.Jalr(isa.Zero, isa.RA, 0)
	}
	return b.MustBuild()
}

// FromTrace decodes an SPAT committed-branch trace (replay.DecodeArch;
// simtrace -record-branches writes one) and registers a workload that
// replays it, returning the content-addressed name "synth:t-<hash>".
// Decode errors are replay's typed errors; a stream outside the ingest
// bounds fails with ErrTraceBounds. Like Register, it is idempotent:
// the name hashes the trace's canonical encoding, so re-ingesting the
// same stream re-yields the same workload. The replay program ignores
// BuildSeeded's seed (the recorded stream is the input; there is no
// alternative input to re-derive).
func FromTrace(data []byte) (string, error) {
	at, err := replay.DecodeArch(data)
	if err != nil {
		return "", err
	}
	t, err := newTraceInput(at)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(at.Encode())
	name := workload.SynthPrefix + "t-" + hex.EncodeToString(sum[:])[:12]
	w := workload.Workload{
		Name: name,
		Description: fmt.Sprintf("ingested trace: %d sites, %d events, %.1f%% taken",
			len(t.sitePCs), len(t.events), takenPct(t)),
		Build: func(iters int) *isa.Program { return buildTraceProgram(t, name, iters) },
		BuildSeeded: func(_ uint64, iters int) *isa.Program {
			return buildTraceProgram(t, name, iters)
		},
	}
	if err := workload.Register(w); err != nil {
		var dup *workload.DuplicateError
		if !errors.As(err, &dup) {
			return "", err
		}
	}
	return name, nil
}

// takenPct is the trace's taken percentage (for registry descriptions).
func takenPct(t *traceInput) float64 {
	taken := 0
	for _, e := range t.events {
		taken += int(e & 1)
	}
	return 100 * float64(taken) / float64(len(t.events))
}
