package synth

import (
	"errors"
	"strings"
	"testing"

	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

// FuzzFromTrace pins ingestion's contract on arbitrary input: it never
// panics, and either fails with one of replay's typed decode errors or
// ErrTraceBounds, or registers a workload under a synth:t- name.
func FuzzFromTrace(f *testing.F) {
	f.Add(encodeStream([]int64{0x40, 0x48, 0x100, 0x40}, func(i int) bool { return i&1 == 0 }))
	f.Add([]byte("SPAT\x01\x00\x05\x01\x02\x01\x10\x10"))
	f.Add([]byte("SPAT\x01\x00\x85\x00\x01\x02\x01\x10\x10")) // overlong varint
	f.Add([]byte("SPAT\x02\x00\x00\x00"))                     // future version
	f.Add([]byte("SPAT\x01\x00\x05\x00"))                     // empty stream
	f.Add([]byte("SPRT\x01\x00"))                             // the event-trace format's magic
	f.Add([]byte(`{"pc":64,"pred":true,"outcome":true,"hc":true,"cycle":3}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, err := FromTrace(data)
		if err != nil {
			for _, typed := range []error{replay.ErrBadMagic, replay.ErrVersion, replay.ErrCorrupt, ErrTraceBounds} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped FromTrace error: %v", err)
		}
		if !strings.HasPrefix(name, workload.SynthPrefix+"t-") {
			t.Fatalf("FromTrace name %q lacks the synth:t- namespace", name)
		}
		if _, err := workload.ByName(name); err != nil {
			t.Fatalf("ingested workload %q not registered: %v", name, err)
		}
	})
}
