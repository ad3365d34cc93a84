// Binary encoding for ArchTrace — the upstream tier's wire format, for
// shipping committed branch streams between cluster nodes and fuzzing
// as untrusted input. The in-memory arch cache stores decoded
// *ArchTrace values directly and never round-trips.
//
// Layout (all integers are encoding/binary varints unless noted):
//
//	magic     4 bytes "SPAT"
//	version   1 byte
//	class     1 byte, must be 0 // reserved: branch target-class column
//	committed uvarint           // committed instructions of the run
//	nchunks   uvarint
//	per chunk:
//	  n        uvarint             // branches in chunk, 1..archChunkTokens
//	  outcomes ⌈n/64⌉ uvarints     // direction bitset words, bit = taken
//	  pc       one zigzag varint per branch, delta from previous pc
//
// The class byte reserves space for distinguishing branch target
// classes (conditional-direct vs. indirect vs. return) without a magic
// bump; in version 1 every branch is conditional-direct and the byte is
// zero. As with the event-trace codec, Decode validates canonical form
// — minimal varints, only the last chunk short, padding bits clear, no
// trailing bytes — so each trace has exactly one encoding and
// Encode∘DecodeArch is the identity on DecodeArch's input.

package replay

import (
	"encoding/binary"
	"fmt"
)

// archMagic and archVersion identify the serialized arch-trace format.
const (
	archMagic   = "SPAT"
	archVersion = 1
)

// Encode serializes the arch trace.
func (t *ArchTrace) Encode() []byte {
	// Header + bitset words + worst-case 10-byte pc deltas; deltas only
	// shrink, so appends never grow the buffer.
	buf := make([]byte, 0, 32+t.branches/8+t.branches*10)
	buf = append(buf, archMagic...)
	buf = append(buf, archVersion, 0)
	buf = binary.AppendUvarint(buf, t.committed)
	buf = binary.AppendUvarint(buf, uint64(len(t.chunks)))
	prevPC := int64(0)
	for _, c := range t.chunks {
		buf = binary.AppendUvarint(buf, uint64(c.n))
		for w := 0; w < (c.n+63)/64; w++ {
			buf = binary.AppendUvarint(buf, c.outcomes[w])
		}
		for _, pc := range c.pc {
			buf = binary.AppendUvarint(buf, zigzag(pc-prevPC))
			prevPC = pc
		}
	}
	return buf
}

// DecodeArch parses and validates an encoded arch trace. The returned
// trace is structurally sound and canonical: varints are minimal, only
// the last chunk is short, padding bits in the last outcome word of
// each chunk are clear, and the input has no trailing bytes, so
// re-encoding a decoded trace reproduces the input bytes.
func DecodeArch(data []byte) (*ArchTrace, error) {
	if len(data) < len(archMagic)+2 {
		return nil, ErrBadMagic
	}
	if string(data[:len(archMagic)]) != archMagic {
		return nil, ErrBadMagic
	}
	if v := data[len(archMagic)]; v != archVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, v, archVersion)
	}
	if cl := data[len(archMagic)+1]; cl != 0 {
		return nil, corruptf("reserved class byte is %d, want 0", cl)
	}
	d := &decoder{buf: data, off: len(archMagic) + 2}

	committed, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	nchunks, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// A chunk encodes to at least 2 bytes; reject counts the input
	// cannot possibly hold before allocating for them.
	if nchunks > uint64(len(data)) {
		return nil, corruptf("chunk count %d exceeds input size", nchunks)
	}

	t := &ArchTrace{committed: committed, chunks: make([]*archChunk, 0, nchunks)}
	prevPC := int64(0)
	for ci := uint64(0); ci < nchunks; ci++ {
		n, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if n == 0 || n > archChunkTokens {
			return nil, corruptf("chunk %d: branch count %d out of range (1..%d)", ci, n, archChunkTokens)
		}
		// Canonical form: only the last chunk may be short, as in
		// every recording.
		if n != archChunkTokens && ci+1 < nchunks {
			return nil, corruptf("chunk %d: %d branches in a chunk before the last, want %d", ci, n, archChunkTokens)
		}
		words := (int(n) + 63) / 64
		c := &archChunk{n: int(n), outcomes: make([]uint64, words)}
		for w := 0; w < words; w++ {
			ow, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			c.outcomes[w] = ow
		}
		// Canonical form: outcome bits past the last branch must be
		// clear, otherwise two byte streams decode to the same trace.
		if tail := c.n & 63; tail != 0 {
			if c.outcomes[words-1]>>uint(tail) != 0 {
				return nil, corruptf("chunk %d: outcome bits set past branch count", ci)
			}
		}
		c.pc = make([]int64, c.n)
		for i := range c.pc {
			dv, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			prevPC += unzigzag(dv)
			c.pc[i] = prevPC
		}
		t.chunks = append(t.chunks, c)
		t.branches += c.n
	}
	if d.off != len(data) {
		return nil, corruptf("%d trailing bytes after last chunk", len(data)-d.off)
	}
	return t, nil
}
