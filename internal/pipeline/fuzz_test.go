package pipeline

import (
	"testing"
	"testing/quick"

	"specctrl/internal/bpred"
	"specctrl/internal/conf"
	"specctrl/internal/emu"
	"specctrl/internal/isa"
	"specctrl/internal/rng"
)

// genProgram builds a random but guaranteed-terminating program: a chain
// of basic blocks with random ALU/memory bodies, random forward branches,
// and backward branches only as counted loops with small trip counts.
// Every generated program halts within a bounded instruction count.
func genProgram(seed uint64) *isa.Program {
	g := rng.New(seed)
	b := isa.NewBuilder("fuzz")

	// Seed some random data.
	for i := int64(0); i < 64; i++ {
		b.Word(500+i, int64(g.Uint64()%1000))
	}

	// r20..r25 are loop counters; r1..r9 scratch.
	reg := func() isa.Reg { return isa.Reg(1 + g.Intn(9)) }

	blocks := 3 + g.Intn(6)
	for blk := 0; blk < blocks; blk++ {
		label := "blk" + string(rune('A'+blk))
		b.Label(label)

		// Random body.
		for i, n := 0, 1+g.Intn(8); i < n; i++ {
			rd, ra, rb := reg(), reg(), reg()
			switch g.Intn(8) {
			case 0:
				b.Add(rd, ra, rb)
			case 1:
				b.Sub(rd, ra, rb)
			case 2:
				b.Xor(rd, ra, rb)
			case 3:
				b.Muli(rd, ra, int32(g.Intn(7))-3)
			case 4:
				b.Addi(rd, ra, int32(g.Intn(100)))
			case 5:
				// Bounded load from the data region.
				b.Andi(rd, ra, 63)
				b.Addi(rd, rd, 500)
				b.Ld(rd, rd, 0)
			case 6:
				// Bounded store into a scratch region.
				b.Andi(rd, ra, 63)
				b.Addi(rd, rd, 700)
				b.St(rb, rd, 0)
			default:
				b.Slt(rd, ra, rb)
			}
		}

		// A counted self-loop with a random small trip count, using a
		// dedicated counter register so it always terminates.
		if g.Bool(0.5) {
			cnt := isa.Reg(20 + blk%6)
			b.Li(cnt, int32(1+g.Intn(5)))
			loop := label + "loop"
			b.Label(loop)
			b.Add(reg(), reg(), reg())
			b.Addi(cnt, cnt, -1)
			b.Bne(cnt, isa.Zero, loop)
		}

		// A data-dependent forward branch that skips a couple of
		// instructions.
		if g.Bool(0.7) {
			skip := label + "skip"
			b.Blt(reg(), reg(), skip)
			b.Addi(reg(), reg(), 1)
			b.Xor(reg(), reg(), reg())
			b.Label(skip)
		}
	}
	b.Halt()
	return b.MustBuild()
}

// TestFuzzLockstep: for random programs, random predictors and random
// estimators, the pipeline's committed execution must exactly equal the
// functional emulator's — instruction counts, final registers, and the
// scratch memory region — and its statistics must be internally
// consistent. This is the simulator's main correctness property: wrong
// paths may do anything, but must leave no architectural trace.
func TestFuzzLockstep(t *testing.T) {
	f := func(seed uint64, predSel, estSel uint8) bool {
		prog := genProgram(seed)

		var pred bpred.Predictor
		switch predSel % 4 {
		case 0:
			pred = bpred.NewGshare(8)
		case 1:
			pred = bpred.NewMcFarling(8)
		case 2:
			pred = bpred.NewSAg(6, 8)
		default:
			pred = bpred.Static{Taken: seed&1 == 0}
		}
		var est conf.Estimator
		switch estSel % 4 {
		case 0:
			est = conf.NewJRS(conf.JRSConfig{Entries: 64, Bits: 4, Threshold: 3, Enhanced: true})
		case 1:
			est = conf.SatCounters{}
		case 2:
			est = conf.NewDistance(int(estSel % 5))
		default:
			est = conf.NewBoost(conf.SatCounters{}, 2)
		}

		cfg := DefaultConfig()
		cfg.MaxCycles = 2_000_000
		sim := newSim(cfg, prog, pred, est)
		st, err := sim.Run()
		if err != nil {
			t.Logf("seed %d: sim error: %v", seed, err)
			return false
		}

		m := emu.NewMachine(prog)
		if _, err := m.Run(2_000_000); err != nil {
			t.Logf("seed %d: emu error: %v", seed, err)
			return false
		}
		if st.Committed != m.Executed-1 { // emulator counts HALT
			t.Logf("seed %d: committed %d != emu %d-1", seed, st.Committed, m.Executed)
			return false
		}
		if sim.Registers() != m.State.Regs {
			t.Logf("seed %d: registers diverge", seed)
			return false
		}
		for addr := int64(700); addr < 764; addr++ {
			if sim.Memory().Read(addr) != m.Mem.Read(addr) {
				t.Logf("seed %d: memory diverges at %d", seed, addr)
				return false
			}
		}
		if st.CommittedBr != m.CondBranches {
			t.Logf("seed %d: branches %d != %d", seed, st.CommittedBr, m.CondBranches)
			return false
		}
		// Internal consistency.
		if st.CommittedQ.Total() != st.CommittedBr || st.AllQ.Total() != st.AllBr {
			t.Logf("seed %d: quadrant totals inconsistent", seed)
			return false
		}
		if st.Squashes != st.CommittedQ.Incorrect() {
			t.Logf("seed %d: squashes %d != mispredictions %d",
				seed, st.Squashes, st.CommittedQ.Incorrect())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFuzzGatingLockstep: gating (withholding fetch on arbitrary cycles)
// must never change architectural results either.
func TestFuzzGatingLockstep(t *testing.T) {
	f := func(seed uint64, gateMask uint8) bool {
		prog := genProgram(seed)
		cfg := DefaultConfig()
		cfg.MaxCycles = 2_000_000
		sim := newSim(cfg, prog, bpred.NewGshare(8), conf.SatCounters{})
		cycle := 0
		for {
			// Withhold fetch on a pseudo-random subset of cycles.
			allow := (uint8(cycle)^gateMask)&3 != 0
			cycle++
			done, err := sim.Tick(allow)
			if err != nil {
				return false
			}
			if done {
				break
			}
		}
		st := sim.Finish()

		m := emu.NewMachine(prog)
		if _, err := m.Run(2_000_000); err != nil {
			return false
		}
		return st.Committed == m.Executed-1 && sim.Registers() == m.State.Regs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFuzzDecodeNeverPanics: arbitrary 64-bit words either decode into a
// valid instruction or return an error — never panic.
func TestFuzzDecodeNeverPanics(t *testing.T) {
	f := func(w uint64) bool {
		in, err := isa.Decode(w)
		if err != nil {
			return true
		}
		// Valid decodes must re-encode to the same word.
		return isa.Encode(in) == w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// genCallProgram builds a random program with a two-level call structure
// (balanced call/ret with RA spills) plus the random bodies of
// genProgram's style, to fuzz the RAS/indirect machinery.
func genCallProgram(seed uint64) *isa.Program {
	g := rng.New(seed)
	b := isa.NewBuilder("fuzzcall")
	for i := int64(0); i < 64; i++ {
		b.Word(500+i, int64(g.Uint64()%1000))
	}
	reg := func() isa.Reg { return isa.Reg(1 + g.Intn(9)) }
	body := func(n int) {
		for i := 0; i < n; i++ {
			rd, ra, rb := reg(), reg(), reg()
			switch g.Intn(5) {
			case 0:
				b.Add(rd, ra, rb)
			case 1:
				b.Xor(rd, ra, rb)
			case 2:
				b.Andi(rd, ra, 63)
				b.Addi(rd, rd, 500)
				b.Ld(rd, rd, 0)
			case 3:
				b.Slt(rd, ra, rb)
			default:
				b.Addi(rd, ra, int32(g.Intn(50)))
			}
		}
	}

	funcs := 2 + g.Intn(3)
	b.Li(isa.SP, 1<<20)
	// r20/r21 hold the loop counter and limit: the random bodies only
	// write r1..r9, so the outer loop always terminates.
	b.Li(20, 0)
	b.Li(21, int32(20+g.Intn(40)))
	b.Label("main")
	for f := 0; f < funcs; f++ {
		if g.Bool(0.7) {
			b.Call("fn" + string(rune('0'+f)))
		}
	}
	// A data-dependent branch in main.
	b.Blt(reg(), reg(), "skipm")
	body(2)
	b.Label("skipm")
	b.Addi(20, 20, 1)
	b.Blt(20, 21, "main")
	b.Halt()

	for f := 0; f < funcs; f++ {
		b.Label("fn" + string(rune('0'+f)))
		if f+1 < funcs && g.Bool(0.5) {
			// Nested call: spill RA.
			b.Addi(isa.SP, isa.SP, -1)
			b.St(isa.RA, isa.SP, 0)
			body(1 + g.Intn(4))
			b.Call("fn" + string(rune('0'+f+1)))
			b.Ld(isa.RA, isa.SP, 0)
			b.Addi(isa.SP, isa.SP, 1)
		} else {
			body(1 + g.Intn(4))
			if g.Bool(0.5) {
				b.Blt(reg(), reg(), "fs"+string(rune('0'+f)))
				body(1)
				b.Label("fs" + string(rune('0'+f)))
			}
		}
		b.Ret()
	}
	return b.MustBuild()
}

// TestFuzzCallLockstepIndirect: random call/ret programs under the
// BTB/RAS front end must stay architecturally identical to the emulator.
func TestFuzzCallLockstepIndirect(t *testing.T) {
	f := func(seed uint64) bool {
		prog := genCallProgram(seed)
		cfg := DefaultConfig()
		cfg.IndirectPrediction = true
		cfg.RASDepth = 4 // small stack: force wraps and corruption repair
		cfg.MaxCycles = 2_000_000
		sim := newSim(cfg, prog, bpred.NewGshare(8), conf.NewJRS(conf.DefaultJRS))
		st, err := sim.Run()
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		m := emu.NewMachine(prog)
		if _, err := m.Run(2_000_000); err != nil {
			t.Logf("seed %d: emu: %v", seed, err)
			return false
		}
		if st.Committed != m.Executed-1 || sim.Registers() != m.State.Regs {
			t.Logf("seed %d: architectural divergence", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// walkLowConf counts the ring's lowConf entries by walking it, the way
// PendingLowConf was computed before the ring kept the count.
func (r *inflightRing) walkLowConf() int {
	n := 0
	for i := 0; i < r.n; i++ {
		if r.buf[(r.head+i)&(len(r.buf)-1)].lowConf {
			n++
		}
	}
	return n
}

// TestPendingLowConfMatchesRingWalk: on every Tick of the gating fuzz
// programs, and of the call/return programs under the BTB/RAS front end
// (whose indirect jumps enter the ring too), the ring's kept
// low-confidence count equals a walk of the ring.
func TestPendingLowConfMatchesRingWalk(t *testing.T) {
	f := func(seed uint64, gateMask uint8, calls bool) bool {
		prog := genProgram(seed)
		cfg := DefaultConfig()
		cfg.MaxCycles = 2_000_000
		if calls {
			prog = genCallProgram(seed)
			cfg.IndirectPrediction = true
			cfg.RASDepth = 4
		}
		sim := newSim(cfg, prog, bpred.NewGshare(8),
			conf.NewJRS(conf.JRSConfig{Entries: 64, Bits: 4, Threshold: 3 + int(gateMask%8)}))
		lowSeen := false
		for cycle := 0; ; cycle++ {
			done, err := sim.Tick((uint8(cycle)^gateMask)&3 != 0)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if got, want := sim.PendingLowConf(), sim.pending.walkLowConf(); got != want {
				t.Logf("seed %d cycle %d: PendingLowConf %d, ring walk %d", seed, cycle, got, want)
				return false
			}
			lowSeen = lowSeen || sim.PendingLowConf() > 0
			if done {
				break
			}
		}
		sim.Finish()
		if !lowSeen && sim.stats.CommittedQ.Clc+sim.stats.CommittedQ.Ilc > 0 {
			t.Logf("seed %d: low-confidence branches fetched but never counted in flight", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
