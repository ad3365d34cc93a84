package replay

import (
	"bytes"
	"errors"
	"testing"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
)

// FuzzDecodeArch hardens the arch-trace decoder against untrusted
// input, the same contract FuzzDecode pins for the event codec:
// DecodeArch must never panic, must fail with exactly one of the typed
// errors, and on success must return a trace that (a) arch-replays
// without panicking — every structural invariant ArchReplay relies on
// was validated — and (b) re-encodes to exactly the input bytes, the
// codec being canonical.
func FuzzDecodeArch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SPA"))
	f.Add([]byte("SPAT"))
	f.Add([]byte("SPRT\x01\x00"))                 // the event-trace format's magic
	f.Add([]byte("SPAT\x02\x00"))                 // future version
	f.Add([]byte("SPAT\x01\x01"))                 // nonzero class byte
	f.Add([]byte("SPAT\x01\x00\x00\xff\xff\x7f")) // absurd chunk count
	f.Add([]byte("SPAT\x01\x00\x00\x01\x00"))     // zero-branch chunk
	f.Add([]byte("SPAT\x01\x00\x00\x01\x01\x02")) // padding outcome bit set
	for _, n := range []int{0, 1, 7, 300, archChunkTokens + 5} {
		f.Add(archSynthetic(n).Encode())
	}
	{ // valid encode with a truncated tail
		enc := archSynthetic(50).Encode()
		f.Add(enc[:len(enc)-3])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeArch(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeArch returned an untyped error: %v", err)
			}
			return
		}
		// A decoded trace is safe to evaluate: chunk counts are in
		// range, so bitset and pc-column indexing cannot go out of
		// bounds in either replay pass.
		ArchReplay(tr, bpred.NewGshare(12), []conf.Estimator{conf.SatCounters{}})
		ArchSites(tr, bpred.NewGshare(12))

		enc := tr.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatal("re-encoding a decoded trace changed the bytes")
		}
		tr2, err := DecodeArch(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if tr2.Branches() != tr.Branches() || tr2.Committed() != tr.Committed() {
			t.Fatal("round trip changed stream counts")
		}
	})
}
