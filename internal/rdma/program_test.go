package rdma

import (
	"testing"

	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// progRig is a two-NIC rig plus a timer CQ on the requester side.
func progRig(t *testing.T, period sim.Duration) (*rig, *CQ) {
	t.Helper()
	r := newRig(t)
	return r, r.na.CreateTimerCQ(period)
}

func putWord(mr *MemoryRegion, off int, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	mr.Backing().WriteAt(off, b[:])
}

func getWord(mr *MemoryRegion, off int) uint64 {
	var b [8]byte
	mr.Backing().ReadAt(off, b[:])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// Timer CQs tick on a fixed virtual-time grid, only while armed by a
// waiter, and count every tick — the deterministic clock source for
// NIC-side backoff.
func TestTimerCQGridTicks(t *testing.T) {
	r, tcq := progRig(t, 10*sim.Microsecond)
	if tcq.TimerPeriod() != 10*sim.Microsecond {
		t.Fatalf("period = %v", tcq.TimerPeriod())
	}
	// No waiters: the timer stays parked.
	r.eng.RunFor(100 * sim.Microsecond)
	if n := r.na.Counters().TimerTicks; n != 0 {
		t.Fatalf("unarmed timer ticked %d times", n)
	}
	// A WAIT for 2 ticks arms it; ticks land on the absolute grid.
	if _, err := r.qa.PostSend(WQE{Opcode: OpWait, WaitCQ: tcq.ID(), WaitCount: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.qa.PostSend(WQE{Opcode: OpNop, Signaled: true, WRID: 7}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	if n := r.na.Counters().TimerTicks; n != 2 {
		t.Fatalf("ticks = %d, want 2", n)
	}
	if cqes := r.acq.Poll(4); len(cqes) != 1 || cqes[0].WRID != 7 {
		t.Fatalf("completions = %+v", cqes)
	}
	// Grid alignment: armed at t=100µs, ticks at 110µs and 120µs.
	if now := r.eng.Now(); now != sim.Time(0).Add(120*sim.Microsecond) {
		t.Fatalf("drained at %v, want the 120µs grid tick", now)
	}
}

func TestCreateTimerCQRejectsZeroPeriod(t *testing.T) {
	r := newRig(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero period accepted")
		}
	}()
	r.na.CreateTimerCQ(0)
}

// guardProgram posts GUARD → WRITE → NOP and returns (dst, obs) regions.
func guardProgram(t *testing.T, r *rig, word, want, mask uint64) (*MemoryRegion, *MemoryRegion) {
	t.Helper()
	g := r.na.RegisterRAM(16, AccessLocalWrite)
	obs := r.na.RegisterRAM(16, AccessLocalWrite)
	src := r.na.RegisterRAM(64, AccessLocalWrite)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	putWord(g, 0, word)
	src.Backing().WriteAt(0, []byte("guarded"))
	ws := []WQE{
		{Opcode: OpGuard, Signaled: true, WRID: 1, Imm: want, Swap: 0,
			ProgA: 1, ProgB: mask,
			SGEs: []SGE{{LKey: g.LKey(), Offset: 0, Length: 8}, {LKey: obs.LKey(), Offset: 0, Length: 8}}},
		{Opcode: OpWrite, Signaled: true, WRID: 2, RKey: dst.RKey(), RAddr: 0,
			SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 7}}},
		{Opcode: OpNop, Signaled: true, WRID: 3},
	}
	if _, err := r.qa.PostSendBatch(ws); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	return dst, obs
}

func TestGuardMatchExecutes(t *testing.T) {
	r := newRig(t)
	dst, obs := guardProgram(t, r, 42, 42, 0)
	cqes := r.acq.Poll(8)
	if len(cqes) != 3 {
		t.Fatalf("completions = %d, want 3", len(cqes))
	}
	if cqes[0].Status != StatusSuccess || cqes[0].Imm != 42 {
		t.Fatalf("guard CQE %+v", cqes[0])
	}
	if cqes[1].Status != StatusSuccess {
		t.Fatalf("guarded write CQE %+v", cqes[1])
	}
	got := make([]byte, 7)
	dst.Backing().ReadAt(0, got)
	if string(got) != "guarded" {
		t.Fatalf("guarded write missing: %q", got)
	}
	if v := getWord(obs, 0); v != 42 {
		t.Fatalf("observed scatter = %d", v)
	}
}

func TestGuardMismatchSkips(t *testing.T) {
	r := newRig(t)
	dst, obs := guardProgram(t, r, 41, 42, 0)
	cqes := r.acq.Poll(8)
	if len(cqes) != 3 {
		t.Fatalf("completions = %d, want 3 (skipped ops still complete)", len(cqes))
	}
	// The guard reports the mismatch with the observed value; the skipped
	// WRITE delivers PredFail (keeping downstream WAIT counts constant);
	// the op after the skip range runs normally.
	if cqes[0].Status != StatusPredFail || cqes[0].Imm != 41 {
		t.Fatalf("guard CQE %+v", cqes[0])
	}
	if cqes[1].Status != StatusPredFail || cqes[1].WRID != 2 {
		t.Fatalf("skipped write CQE %+v", cqes[1])
	}
	if cqes[2].Status != StatusSuccess || cqes[2].WRID != 3 {
		t.Fatalf("post-skip CQE %+v", cqes[2])
	}
	var probe [1]byte
	dst.Backing().ReadAt(0, probe[:])
	if probe[0] != 0 {
		t.Fatal("guarded write executed despite mismatch")
	}
	// The observed value is exported even on mismatch — that is how chained
	// programs accumulate result maps.
	if v := getWord(obs, 0); v != 41 {
		t.Fatalf("observed scatter = %d", v)
	}
}

func TestGuardMaskedCompare(t *testing.T) {
	r := newRig(t)
	// Only the low byte participates: 0xAB01 matches want 0x01 under 0xFF.
	dst, _ := guardProgram(t, r, 0xAB01, 0x01, 0xFF)
	got := make([]byte, 7)
	dst.Backing().ReadAt(0, got)
	if string(got) != "guarded" {
		t.Fatal("masked guard did not match")
	}
}

// condRearmProgram posts WAIT(timer) → CondRearm(exit, budget) and returns
// the exit and budget regions. The CondRearm falls through on exit.
func condRearmProgram(t *testing.T, r *rig, tcq *CQ, exitVal, budget uint64, cap uint64) (*MemoryRegion, *MemoryRegion) {
	t.Helper()
	exit := r.na.RegisterRAM(16, AccessLocalWrite)
	bud := r.na.RegisterRAM(16, AccessLocalWrite)
	putWord(exit, 0, exitVal)
	putWord(bud, 0, budget)
	base := r.qa.SQTable().Tail()
	ws := []WQE{
		{Opcode: OpWait, WaitCQ: tcq.ID(), WaitCount: 0, Imm: 0, Swap: cap},
		{Opcode: OpCondRearm, Signaled: true, WRID: 9, Imm: 0, Swap: 0,
			ProgA: uint64(base), ProgB: uint64(base) + 1, WaitCQ: 0,
			SGEs: []SGE{{LKey: exit.LKey(), Offset: 0, Length: 8}, {LKey: bud.LKey(), Offset: 0, Length: 8}}},
	}
	if _, err := r.qa.PostSendBatch(ws); err != nil {
		t.Fatal(err)
	}
	return exit, bud
}

// The self-rearming loop: retries silently with doubling timer backoff,
// then exits with the observed value once the exit word matches.
func TestCondRearmRetriesWithCappedBackoff(t *testing.T) {
	r, tcq := progRig(t, 10*sim.Microsecond)
	exit, bud := condRearmProgram(t, r, tcq, 1, 10, 4)
	// Attempts run at t=0 (wait 0), 10µs (1 tick), 30µs (2 ticks), 70µs
	// (4 ticks, capped). Flip the word at 35µs → the 70µs attempt exits.
	r.eng.Schedule(35*sim.Microsecond, func() { putWord(exit, 0, 0) })
	r.eng.Drain()
	cqes := r.acq.Poll(4)
	if len(cqes) != 1 {
		t.Fatalf("completions = %d, want 1 (retries are silent)", len(cqes))
	}
	if cqes[0].Status != StatusSuccess || cqes[0].Imm != 0 || cqes[0].Opcode != OpCondRearm {
		t.Fatalf("final CQE %+v", cqes[0])
	}
	if left := getWord(bud, 0); left != 7 {
		t.Fatalf("budget left = %d, want 7 (3 retries consumed)", left)
	}
	if n := r.na.Counters().TimerTicks; n != 7 {
		t.Fatalf("timer ticks = %d, want 1+2+4", n)
	}
}

func TestCondRearmExhaustsBudget(t *testing.T) {
	r, tcq := progRig(t, 10*sim.Microsecond)
	_, bud := condRearmProgram(t, r, tcq, 1, 2, 4)
	r.eng.Drain()
	cqes := r.acq.Poll(4)
	if len(cqes) != 1 || cqes[0].Status != StatusRetryExhausted || cqes[0].Imm != 1 {
		t.Fatalf("completions = %+v, want retry-exhausted with observed=1", cqes)
	}
	if left := getWord(bud, 0); left != 0 {
		t.Fatalf("budget left = %d, want 0", left)
	}
	// The queue survives exhaustion: the program exited, it didn't fault.
	if _, err := r.qa.PostSend(WQE{Opcode: OpNop, Signaled: true, WRID: 5}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	if cqes := r.acq.Poll(4); len(cqes) != 1 || cqes[0].WRID != 5 {
		t.Fatalf("post-exhaustion op: %+v", cqes)
	}
}

// A malformed program that can never reach a data op, WAIT, or gate (a
// CondRearm branching to itself with no backoff slot) must fault the QP
// instead of hanging the simulation.
func TestRunawayProgramFaultsQP(t *testing.T) {
	r := newRig(t)
	exit := r.na.RegisterRAM(16, AccessLocalWrite)
	bud := r.na.RegisterRAM(16, AccessLocalWrite)
	putWord(exit, 0, 1)            // never matches want 0
	putWord(bud, 0, uint64(1)<<40) // effectively unbounded budget
	base := r.qa.SQTable().Tail()
	if _, err := r.qa.PostSend(WQE{
		Opcode: OpCondRearm, Signaled: true, WRID: 1, Imm: 0,
		ProgA: uint64(base), ProgB: 0, WaitCQ: 0,
		SGEs: []SGE{{LKey: exit.LKey(), Offset: 0, Length: 8}, {LKey: bud.LKey(), Offset: 0, Length: 8}},
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	if _, err := r.qa.PostSend(WQE{Opcode: OpNop}); err != ErrQPState {
		t.Fatalf("post after runaway = %v, want ErrQPState", err)
	}
}

// OpMaskFAdd over the wire: the field-masked add applies atomically at the
// responder and always returns the pre-op word.
func TestMaskFAddWire(t *testing.T) {
	r := newRig(t)
	dst := r.nb.RegisterRAM(64, AccessRemoteAtomic)
	res := r.na.RegisterRAM(16, AccessLocalWrite)
	old := uint64(0xAB00_0000_0000_0005)
	putWord(dst, 0, old)

	// Unconditional masked add: low 16 bits advance, the rest is untouched.
	if _, err := r.qa.PostSend(WQE{
		Opcode: OpMaskFAdd, Signaled: true, WRID: 1,
		RKey: dst.RKey(), RAddr: 0, Imm: 3, Swap: 0xFFFF,
		SGEs: []SGE{{LKey: res.LKey(), Offset: 0, Length: 8}},
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	cqes := r.acq.Poll(4)
	if len(cqes) != 1 || cqes[0].Status != StatusSuccess || cqes[0].Imm != old {
		t.Fatalf("fadd CQE %+v, want Imm=old", cqes)
	}
	if w := getWord(dst, 0); w != old+3 {
		t.Fatalf("word = %#x, want low field advanced", w)
	}
	if v := getWord(res, 0); v != old {
		t.Fatalf("scatter = %#x, want pre-op word", v)
	}

	// Guarded: the top bit is set, so guard want=0 mask=topbit suppresses
	// the add — the word is returned unchanged.
	if _, err := r.qa.PostSend(WQE{
		Opcode: OpMaskFAdd, Signaled: true, WRID: 2,
		RKey: dst.RKey(), RAddr: 0, Imm: 1, Swap: 0xFFFF,
		ProgA: 0, ProgB: 1 << 63,
		SGEs: []SGE{{LKey: res.LKey(), Offset: 0, Length: 8}},
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	if w := getWord(dst, 0); w != old+3 {
		t.Fatalf("guard-suppressed add changed the word: %#x", w)
	}
	if v := getWord(res, 0); v != old+3 {
		t.Fatalf("guarded fadd scatter = %#x, want current word", v)
	}
}

// Determinism: the same program produces bit-identical tick counts and
// completion times across runs (the timer grid is virtual-time-anchored,
// not arrival-anchored).
func TestProgramDeterministic(t *testing.T) {
	runOnce := func() (sim.Time, uint64, uint64) {
		eng := sim.NewEngine()
		net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(1))
		na := NewNIC(eng, net, Config{})
		nb := NewNIC(eng, net, Config{})
		acq, arq := na.CreateCQ(), na.CreateCQ()
		bcq, brq := nb.CreateCQ(), nb.CreateCQ()
		qa := na.CreateQP(acq, arq, 64, 64)
		qb := nb.CreateQP(bcq, brq, 64, 64)
		Connect(qa, qb)
		r := &rig{eng: eng, net: net, na: na, nb: nb, qa: qa, qb: qb, acq: acq, bcq: bcq, arq: arq, brq: brq}
		tcq := na.CreateTimerCQ(7 * sim.Microsecond)
		exit, _ := condRearmProgram(t, r, tcq, 1, 20, 8)
		eng.Schedule(100*sim.Microsecond, func() { putWord(exit, 0, 0) })
		eng.Drain()
		return eng.Now(), na.Counters().TimerTicks, na.Counters().ProgBranches
	}
	t1, ticks1, br1 := runOnce()
	t2, ticks2, br2 := runOnce()
	if t1 != t2 || ticks1 != ticks2 || br1 != br2 {
		t.Fatalf("nondeterministic program: (%v,%d,%d) vs (%v,%d,%d)", t1, ticks1, br1, t2, ticks2, br2)
	}
}

// progTrace runs build on a fresh rig with a tracer attached and returns
// the Info strings of its "prog" events.
func progTrace(t *testing.T, build func(r *rig, tcq *CQ)) []string {
	t.Helper()
	r, tcq := progRig(t, 10*sim.Microsecond)
	var infos []string
	r.na.SetTracer(func(e TraceEvent) {
		if e.Kind == "prog" {
			infos = append(infos, e.Info)
		}
	})
	build(r, tcq)
	r.eng.Drain()
	return infos
}

// Program trace events keep their exact wording: timelines and span
// bridges render the Info string verbatim.
func TestProgTraceInfo(t *testing.T) {
	cases := []struct {
		name  string
		build func(r *rig, tcq *CQ)
		want  []string
	}{
		{"guard pass", func(r *rig, _ *CQ) { guardProgram(t, r, 42, 42, 0) },
			[]string{"pass obs=2a"}},
		{"guard skip", func(r *rig, _ *CQ) { guardProgram(t, r, 0x41, 42, 0) },
			[]string{"skip 1 obs=41"}},
		{"cond rearm retry", func(r *rig, tcq *CQ) { condRearmProgram(t, r, tcq, 1, 2, 4) },
			[]string{"retry obs=1 budget=1 target=0", "retry obs=1 budget=0 target=0"}},
	}
	for _, c := range cases {
		got := progTrace(t, c.build)
		if len(got) != len(c.want) {
			t.Fatalf("%s: prog events %q, want %q", c.name, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("%s: prog event %d = %q, want %q", c.name, i, got[i], c.want[i])
			}
		}
	}
}
