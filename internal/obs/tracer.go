package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// BranchEvent is the structured per-branch record the simulator hands
// to a Tracer: one event per fetched conditional branch, committed and
// wrong-path alike. It mirrors the pipeline's event layout without
// importing it, so sinks (obs.JSONL, the replay recorders) can live
// below the simulator in the dependency graph.
type BranchEvent struct {
	PC        int64  `json:"pc"`
	Pred      bool   `json:"pred"`
	Outcome   bool   `json:"outcome"`
	HighConf  bool   `json:"hc"`
	WrongPath bool   `json:"wp,omitempty"`
	Cycle     uint64 `json:"cycle"`
	ConfMask  uint64 `json:"mask,omitempty"`
}

// Tracer receives the simulator's branch-event stream. The null sink
// is a nil Tracer: the hot path performs a single nil-check and pays
// nothing else when tracing is off. Branch is called from the
// simulation goroutine only; Close is called once after the run and
// reports any deferred sink error.
type Tracer interface {
	Branch(e BranchEvent)
	Close() error
}

// JSONL is a Tracer that writes one JSON object per line — the
// interchange form of the event stream (simtrace -record-jsonl, read
// back by simtrace -summarize): human-greppable and trivially consumed
// by jq or a spreadsheet.
type JSONL struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
	n   uint64
}

// NewJSONL returns a JSONL sink writing to w. The caller owns w and
// must call Close to flush.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{bw: bw, enc: json.NewEncoder(bw)}
}

// Branch encodes one event. The first encode or write error sticks and
// is reported by Close.
func (t *JSONL) Branch(e BranchEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(e)
	t.n++
}

// Count returns the number of events written.
func (t *JSONL) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close flushes buffered output and returns the first error seen.
func (t *JSONL) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); t.err == nil {
		t.err = err
	}
	return t.err
}

// multi fans events out to several sinks.
type multi struct {
	sinks []Tracer
}

// MultiSink returns a Tracer that duplicates every event to each sink
// and closes them all, returning the first Close error. Nil sinks are
// skipped; with zero (or all-nil) sinks it returns nil, the null sink.
func MultiSink(sinks ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multi{sinks: kept}
}

func (m *multi) Branch(e BranchEvent) {
	for _, s := range m.sinks {
		s.Branch(e)
	}
}

func (m *multi) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
