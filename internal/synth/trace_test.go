package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/emu"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// recording is one simulated run of compress captured three ways: its
// committed branch stream (SPAT), its estimator-visible event trace
// (SPRT) and its JSONL event stream.
type recording struct {
	arch  *replay.ArchTrace
	spat  []byte
	sprt  []byte
	jsonl []byte
}

func recordCompress(t testing.TB) recording {
	t.Helper()
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	arch := replay.NewArchRecorder()
	events := replay.NewRecorder()
	var jsonl bytes.Buffer
	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = 20_000
	cfg.Estimators = []conf.Estimator{events}
	cfg.Tracer = obs.MultiSink(arch, events, obs.NewJSONL(&jsonl))
	sim, err := pipeline.New(cfg, w.Build(1<<30), bpred.NewGshare(12))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	arch.SetCommitted(st.Committed)
	tr, err := events.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return recording{arch: arch.Trace(), spat: arch.Trace().Encode(), sprt: tr.Encode(), jsonl: jsonl.Bytes()}
}

// encodeStream builds an SPAT file holding the given committed stream.
func encodeStream(pcs []int64, taken func(i int) bool) []byte {
	r := replay.NewArchRecorder()
	for i, pc := range pcs {
		r.Branch(obs.BranchEvent{PC: pc, Outcome: taken(i)})
	}
	r.SetCommitted(uint64(4 * len(pcs)))
	return r.Trace().Encode()
}

// TestFromTraceReplay ingests a recorded compress run and checks that
// the replay program's committed conditional branches reproduce the
// recorded outcome sequence exactly, wrapping around for repeated
// passes.
func TestFromTraceReplay(t *testing.T) {
	rec := recordCompress(t)
	name, err := FromTrace(rec.spat)
	if err != nil {
		t.Fatalf("FromTrace: %v", err)
	}
	if !strings.HasPrefix(name, workload.SynthPrefix+"t-") {
		t.Fatalf("FromTrace name %q lacks the synth:t- namespace", name)
	}
	// Idempotent: re-ingesting yields the same workload.
	name2, err := FromTrace(rec.spat)
	if err != nil || name2 != name {
		t.Fatalf("second FromTrace = %q, %v; want %q, nil", name2, err, name)
	}
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("workload %q: %v", name, err)
	}

	var recorded []bool
	rec.arch.Each(func(_ int64, taken bool) { recorded = append(recorded, taken) })
	const passes = 2
	m := emu.NewMachine(w.Build(passes))
	var got []bool
	for {
		in, res, err := m.Step()
		if errors.Is(err, emu.ErrHalted) {
			break
		}
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		// Site blocks branch with Bne; the interpreter loop's own
		// closing branches are Blt. Filter to the replayed sites.
		if in.Op == isa.OpBne {
			got = append(got, res.Taken)
		}
	}
	want := make([]bool, 0, passes*len(recorded))
	for pass := 0; pass < passes; pass++ {
		want = append(want, recorded...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %d outcomes, want the %d recorded ones repeated %d times (or they differ)",
			len(got), len(recorded), passes)
	}
}

// TestDecodeTraceErrors: malformed or foreign input fails FromTrace
// with replay's typed decode errors, and an empty stream with
// ErrTraceBounds.
func TestDecodeTraceErrors(t *testing.T) {
	rec := recordCompress(t)
	valid := rec.spat
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, replay.ErrBadMagic},
		{"short", []byte("SP"), replay.ErrBadMagic},
		{"bad magic", []byte("NOPE\x01\x00\x00\x00"), replay.ErrBadMagic},
		{"jsonl", rec.jsonl, replay.ErrBadMagic},
		{"event trace", rec.sprt, replay.ErrBadMagic},
		{"future version", []byte("SPAT\x02\x00\x00\x00"), replay.ErrVersion},
		{"header only", []byte("SPAT\x01\x00"), replay.ErrCorrupt},
		{"overlong varint", []byte("SPAT\x01\x00\x85\x00\x01\x02\x01\x10\x10"), replay.ErrCorrupt},
		{"truncated events", valid[:len(valid)/2], replay.ErrCorrupt},
		{"trailing bytes", append(append([]byte{}, valid...), 0), replay.ErrCorrupt},
		{"truncated tail", valid[:len(valid)-1], replay.ErrCorrupt},
		{"zero events", []byte("SPAT\x01\x00\x05\x00"), ErrTraceBounds},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FromTrace(c.data); !errors.Is(err, c.want) {
				t.Fatalf("FromTrace = %v, want %v", err, c.want)
			}
		})
	}
}

// TestFromTraceBounds: the replay program emits one code block per
// site and one data word per branch, so a stream with more than 4096
// distinct sites or 2^20 branches is refused with ErrTraceBounds, and
// one at the bounds is accepted.
func TestFromTraceBounds(t *testing.T) {
	odd := func(i int) bool { return i&1 == 1 }
	sites := func(n int) []int64 {
		pcs := make([]int64, n)
		for i := range pcs {
			pcs[i] = int64(8 * i)
		}
		return pcs
	}
	for _, c := range []struct {
		name string
		pcs  []int64
		want error
	}{
		{"4096 sites", sites(maxTraceSites), nil},
		{"4097 sites", sites(maxTraceSites + 1), ErrTraceBounds},
		{"2^20 branches", make([]int64, maxTraceEvents), nil},
		{"2^20+1 branches", make([]int64, maxTraceEvents+1), ErrTraceBounds},
	} {
		t.Run(c.name, func(t *testing.T) {
			data := encodeStream(c.pcs, odd)
			at, err := replay.DecodeArch(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckTrace(at); !errors.Is(err, c.want) {
				t.Fatalf("CheckTrace = %v, want %v", err, c.want)
			}
			if c.want == nil {
				return
			}
			if _, err := FromTrace(data); !errors.Is(err, c.want) {
				t.Fatalf("FromTrace = %v, want %v", err, c.want)
			}
		})
	}
}

// TestFromTraceNaming: the name hashes the trace's canonical encoding,
// so two recordings of one stream get one name, a different stream
// gets another, and a non-canonical encoding of the same stream is
// refused rather than named differently.
func TestFromTraceNaming(t *testing.T) {
	pcs := []int64{0x200, 0x100, 0x200, 0x300}
	taken := func(i int) bool { return i != 1 }
	a, b := encodeStream(pcs, taken), encodeStream(pcs, taken)
	na, err := FromTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := FromTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(a)
	if want := workload.SynthPrefix + "t-" + hex.EncodeToString(sum[:])[:12]; na != want || nb != want {
		t.Fatalf("names %q, %q; want both %q", na, nb, want)
	}
	other, err := FromTrace(encodeStream(pcs, func(i int) bool { return !taken(i) }))
	if err != nil {
		t.Fatal(err)
	}
	if other == na {
		t.Fatalf("different streams share the name %q", na)
	}

	// The same stream with its committed count written as an overlong
	// varint: decodable by a lax reader, refused here.
	if a[6] != 4*4 { // encodeStream's committed count, one varint byte
		t.Fatalf("unexpected header %x", a[:7])
	}
	overlong := append(append(append([]byte{}, a[:6]...), 0x90, 0x00), a[7:]...)
	if _, err := FromTrace(overlong); !errors.Is(err, replay.ErrCorrupt) {
		t.Fatalf("FromTrace(overlong) = %v, want %v", err, replay.ErrCorrupt)
	}
}
