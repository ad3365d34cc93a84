package replay

import (
	"bytes"
	"errors"
	"testing"

	"specctrl/internal/obs"
)

// archTracesEqual compares two arch traces branch by branch. (Struct
// equality is too strict: a recorder chunk holds full-capacity outcome
// words while a decoded chunk is trimmed to ⌈n/64⌉.)
func archTracesEqual(a, b *ArchTrace) bool {
	if a.branches != b.branches || a.committed != b.committed || len(a.chunks) != len(b.chunks) {
		return false
	}
	for ci := range a.chunks {
		ca, cb := a.chunks[ci], b.chunks[ci]
		if ca.n != cb.n {
			return false
		}
		for i := 0; i < ca.n; i++ {
			if ca.pc[i] != cb.pc[i] || ca.taken(i) != cb.taken(i) {
				return false
			}
		}
	}
	return true
}

// TestArchCodecRoundTrip: Decode(Encode(t)) reproduces the trace for
// streams of every interesting shape, including chunk-boundary
// crossings and the empty stream.
func TestArchCodecRoundTrip(t *testing.T) {
	cases := map[string]*ArchTrace{
		"empty":     NewArchRecorder().Trace(),
		"single":    archSynthetic(1),
		"small":     archSynthetic(300),
		"one-chunk": archSynthetic(archChunkTokens),
		"crossing":  archSynthetic(archChunkTokens + 5),
		"recorded":  nil, // filled below: a real simulator recording
	}
	cases["recorded"] = archRecordRun(t, "gshare")
	for name, tr := range cases {
		t.Run(name, func(t *testing.T) {
			enc := tr.Encode()
			dec, err := DecodeArch(enc)
			if err != nil {
				t.Fatalf("DecodeArch: %v", err)
			}
			if !archTracesEqual(dec, tr) {
				t.Fatal("decoded trace differs from original")
			}
			if !bytes.Equal(dec.Encode(), enc) {
				t.Fatal("re-encode is not the identity")
			}
		})
	}
}

// TestArchCodecCrossChunkDeltas pins the pc-delta chaining rule: the
// first pc of chunk k is a delta from the *last* pc of chunk k-1, not
// from zero — including negative deltas (a backward loop branch landing
// exactly on a chunk boundary).
func TestArchCodecCrossChunkDeltas(t *testing.T) {
	r := NewArchRecorder()
	// Fill chunk 0 with ascending pcs, then open chunk 1 with a branch
	// far *below* the previous pc.
	for i := 0; i < archChunkTokens; i++ {
		r.Branch(obs.BranchEvent{PC: int64(1<<20 + i*4), Outcome: i&1 == 0})
	}
	r.Branch(obs.BranchEvent{PC: 64, Outcome: true}) // negative cross-chunk delta
	r.Branch(obs.BranchEvent{PC: 1 << 30})
	r.SetCommitted(12345)
	tr := r.Trace()
	if len(tr.chunks) != 2 {
		t.Fatalf("got %d chunks, want 2", len(tr.chunks))
	}

	dec, err := DecodeArch(tr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got := dec.chunks[1].pc[0]; got != 64 {
		t.Errorf("first pc of second chunk = %d, want 64", got)
	}
	if got := dec.chunks[1].pc[1]; got != 1<<30 {
		t.Errorf("second pc of second chunk = %d, want %d", got, 1<<30)
	}
	if !archTracesEqual(dec, tr) {
		t.Fatal("round trip lost the cross-chunk stream")
	}
}

// TestDecodeArchErrors feeds malformed inputs and checks each is
// rejected with the right typed error — same contract as the event
// codec: no panic, no silent acceptance.
func TestDecodeArchErrors(t *testing.T) {
	truncated := archSynthetic(300).Encode()
	truncated = truncated[:len(truncated)-3]
	trailing := append(archSynthetic(10).Encode(), 0x00)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"short", []byte("SPA"), ErrBadMagic},
		{"wrong magic", []byte("XXXX\x01\x00"), ErrBadMagic},
		{"event-trace magic", []byte("SPRT\x01\x00"), ErrBadMagic},
		{"future version", []byte("SPAT\x02\x00"), ErrVersion},
		{"nonzero class byte", []byte("SPAT\x01\x01"), ErrCorrupt},
		{"truncated header", []byte("SPAT\x01\x00"), ErrCorrupt},
		{"absurd chunk count", []byte("SPAT\x01\x00\x00\xff\xff\x7f"), ErrCorrupt},
		{"zero-branch chunk", []byte("SPAT\x01\x00\x00\x01\x00"), ErrCorrupt},
		{"oversized chunk", []byte("SPAT\x01\x00\x00\x01\x81\x80\x04"), ErrCorrupt},
		{"padding outcome bits set", []byte("SPAT\x01\x00\x00\x01\x01\x02"), ErrCorrupt},
		{"truncated body", truncated, ErrCorrupt},
		{"trailing bytes", trailing, ErrCorrupt},
		// Canonical form: each trace has exactly one encoding.
		{"overlong committed", []byte("SPAT\x01\x00\x85\x00\x01\x02\x01\x10\x10"), ErrCorrupt},
		{"overlong pc delta", []byte("SPAT\x01\x00\x05\x01\x02\x01\x90\x00\x10"), ErrCorrupt},
		{"short chunk before the last", []byte("SPAT\x01\x00\x00\x02\x01\x01\x10\x01\x00\x02"), ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := DecodeArch(tc.data)
			if tr != nil {
				t.Error("got a trace back from corrupt input")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("error = %v, want %v", err, tc.want)
			}
		})
	}
}
