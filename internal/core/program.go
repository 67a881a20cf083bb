package core

import (
	"fmt"

	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// This file implements NIC-resident WQE programs (ROADMAP item 3): the
// client side of gATOMIC_LOOP — a pre-posted, reusable chain template whose
// CondRearm slot re-issues the replication chain until an exit condition
// holds — and the image builders for gATOMIC_LOOP and gWRITE_IF replica
// ops. Legacy primitives rebuild their client WQEs per op; the loop
// template is posted once and thereafter only *patched* (three 8-byte field
// rewrites through the registered queue memory — the same remote-WQE-
// manipulation machinery of Hyperloop §4.1, applied locally) and armed with
// a single doorbell. Retries never touch the host: the NIC evaluates the
// exit word, decrements the budget, doubles a timer-CQ backoff, and
// re-doorbells itself.

// LoopKind selects the atomic each replica executes inside a gATOMIC_LOOP.
type LoopKind int

const (
	// LoopCAS retries a compare-and-swap (Old → New).
	LoopCAS LoopKind = iota
	// LoopMaskFAdd retries a guarded masked fetch-and-add: Add is applied
	// to the field selected by FieldMask only while the guard condition
	// (old&GuardMask == GuardWant) holds — e.g. "increment the reader count
	// unless the writer bit is set" without a second round trip.
	LoopMaskFAdd
)

// LoopSpec parameterizes a gATOMIC_LOOP program.
type LoopSpec struct {
	Off  int // 8-byte target word offset in every replica store
	Kind LoopKind

	Old, New uint64 // LoopCAS operands

	Add       uint64 // LoopMaskFAdd addend
	FieldMask uint64 // LoopMaskFAdd field selector (0 = whole word)
	GuardWant uint64 // LoopMaskFAdd guard value
	GuardMask uint64 // LoopMaskFAdd guard mask (0 = unconditional)

	// ExitWant/ExitMask define success: the loop exits when the guard
	// replica's observed (pre-op) value satisfies obs&ExitMask ==
	// ExitWant&ExitMask (ExitMask 0 compares the full word).
	ExitWant uint64
	ExitMask uint64

	Exec         ExecuteMap // replicas that execute the atomic (others NOP)
	GuardReplica int        // replica whose result word drives the exit test
	Budget       int        // retries after the first attempt (0 = one shot)
}

// loopBackoffCap caps the NIC-side backoff at 64 timer ticks, mirroring the
// 64x clamp of the host-scheduled retry path it replaces.
const loopBackoffCap = 64

// Template slot roles, as offsets from the template base. The program is:
//
//	gate     NOP  (flagGate, host-owned)   — doorbelled once per op
//	backoff  WAIT (timer CQ, count 0)      — count doubled per retry by the NIC
//	send     SEND (metadata, staging slot 0) — launches one chain traversal
//	ackWait  WAIT (ack RecvCQ, count 1)    — tail ack landed, result map fresh
//	cond     COND_REARM                    — exit or rewind to backoff
//
// On retry the CondRearm re-arms [backoff, cond] and rewinds; on exit it
// re-arms the body, CLOSES the gate (flagGate), delivers its CQE, and the
// program parks until the next doorbell — zero postings per op.
const (
	tplSlotGate = iota
	tplSlotBackoff
	tplSlotSend
	tplSlotAckWait
	tplSlotCond
	tplSlots
)

// postLoopTemplate posts the gATOMIC_LOOP client program once, parked at
// its gate. Called from prime on a fresh client QP.
func (c *channel) postLoopTemplate() {
	base := c.cliQP.SQTable().Tail()
	ws := []rdma.WQE{
		{Opcode: rdma.OpNop, Gated: true},
		{Opcode: rdma.OpWait, WaitCQ: c.timerCQ.ID(), WaitCount: 0,
			Imm: 0, Swap: loopBackoffCap, HWOwned: true},
		{Opcode: rdma.OpSend, HWOwned: true,
			SGEs: []rdma.SGE{{LKey: c.cliStaging.LKey(), Offset: 0, Length: uint32(c.msgHead)}}},
		{Opcode: rdma.OpWait, WaitCQ: c.ackQP.RecvCQ().ID(), WaitCount: 1, HWOwned: true},
		{Opcode: rdma.OpCondRearm, Signaled: true, HWOwned: true,
			SGEs: []rdma.SGE{
				{LKey: c.ackMR.LKey(), Offset: 0, Length: 8},  // exit word (patched per op)
				{LKey: c.ctrlMR.LKey(), Offset: 0, Length: 8}, // retry budget
			},
			ProgA:  uint64(base + tplSlotBackoff),   // retry target
			ProgB:  uint64(base+tplSlotBackoff) + 1, // backoff slot + 1
			WaitCQ: uint32(base+tplSlotGate) + 1},   // exit target + 1
	}
	first, err := c.cliQP.PostSendBatch(ws, rdma.RawOwnership)
	if err != nil {
		panic(fmt.Sprintf("core: post loop template: %v", err))
	}
	if first != base {
		panic(fmt.Sprintf("core: loop template at slot %d, expected %d", first, base))
	}
	c.tplGate = base + tplSlotGate
	c.tplCond = base + tplSlotCond
}

// pumpLoop issues the next queued gATOMIC_LOOP. Ops serialize — the
// template is a single program instance — and an op only launches when
// every hop holds enough pre-posted chain instances for its worst-case
// attempt count (the NIC consumes one instance per attempt, autonomously,
// so the host reserves the whole budget up front).
func (c *channel) pumpLoop() {
	if len(c.pending) > 0 || len(c.waiting) == 0 {
		return
	}
	o := c.waiting[0]
	maxAttempts := uint64(o.loop.Budget) + 1
	if c.minCredit() < c.loopAttempts+maxAttempts {
		if !c.pumpArmed {
			c.pumpArmed = true
			c.g.eng.Schedule(10*sim.Microsecond, func() {
				c.pumpArmed = false
				c.pump()
			})
		}
		return
	}
	c.issueLoop(popOp(&c.waiting))
}

// issueLoop launches one gATOMIC_LOOP: stage the chain metadata, write the
// budget word, patch the template's per-op fields, top up ack RECVs, and
// ring the gate. This is the *entire* per-op host involvement; every retry
// afterwards is NIC-resident.
func (c *channel) issueLoop(o *op) {
	o.seq = c.issued
	c.issued++
	o.issued = c.g.eng.Now()
	c.pending = append(c.pending, o)
	if c.g.cfg.OpTimeout > 0 {
		seq := o.seq
		o.timeout = c.g.eng.Schedule(c.g.cfg.OpTimeout, func() {
			c.g.fail(fmt.Errorf("%w: %s op %d timed out", ErrGroupFailed, c.kind, seq))
		})
	}
	// Metadata into staging slot 0 (attempts reuse it; see stagingOff).
	msg := c.buildMetadata(nil, o, 0)
	c.cliStaging.Backing().WriteAt(0, msg)
	// Retry budget for the NIC to decrement.
	putLE64(c.word[:], uint64(o.loop.Budget))
	c.ctrlMR.Backing().WriteAt(0, c.word[:])
	// Patch the parked CondRearm: exit condition and guard-word address.
	sq := c.cliQP.SQTable()
	sq.PatchSlotU64(c.tplCond, rdma.SlotOffImm, o.loop.ExitWant)
	sq.PatchSlotU64(c.tplCond, rdma.SlotOffSwap, o.loop.ExitMask)
	sq.PatchSlotU64(c.tplCond, rdma.SlotOffSGEAddr(0), uint64(8*o.loop.GuardReplica))
	// Each attempt consumes one ack RECV; reserve the full budget.
	for c.ackQP.RQTable().Posted() < c.g.cfg.Depth {
		if _, err := c.ackQP.PostRecv(rdma.WQE{}); err != nil {
			c.g.fail(fmt.Errorf("%w: %s ack recv top-up: %v", ErrGroupFailed, c.kind, err))
			return
		}
	}
	c.cliQP.Doorbell(c.tplGate)
}

// onLoopCQE consumes the client-side completions of the loop program. Only
// the CondRearm's final CQE reports the op outcome; anything else with a
// bad status is a genuine queue failure.
func (c *channel) onLoopCQE(e rdma.CQE) {
	if e.Opcode != rdma.OpCondRearm {
		if e.Status != rdma.StatusSuccess {
			c.g.fail(fmt.Errorf("%w: client %s completion %s", ErrGroupFailed, c.kind, e.Status))
		}
		return
	}
	switch e.Status {
	case rdma.StatusSuccess:
		c.completeLoop(nil)
	case rdma.StatusRetryExhausted:
		c.completeLoop(ErrRetriesExhausted)
	default:
		c.g.fail(fmt.Errorf("%w: %s program completion %s", ErrGroupFailed, c.kind, e.Status))
	}
}

// completeLoop finishes the in-flight loop op, deriving the attempt count
// from how much budget the NIC left behind.
func (c *channel) completeLoop(err error) {
	if len(c.pending) == 0 {
		c.g.fail(fmt.Errorf("%w: %s spurious program completion", ErrGroupFailed, c.kind))
		return
	}
	o := popOp(&c.pending)
	c.ctrlMR.Backing().ReadAt(0, c.word[:])
	remaining := le64(c.word[:])
	o.attempts = o.loop.Budget - int(remaining) + 1
	c.loopAttempts += uint64(o.attempts)
	c.acked++
	c.finish(o, err)
	c.pump()
}

// loopImage is replica i's atomic for a gATOMIC_LOOP attempt (NOP when the
// execute map skips it). Like casImage, the observed value scatters into
// the hop's staging result field, which the chain accumulates into the map
// the CondRearm's exit test reads.
func (c *channel) loopImage(dst []byte, i int, o *op, k int) []byte {
	if !o.exec.Has(i) {
		return nopImage(dst)
	}
	self := c.g.replicas[i]
	resOff := c.stagingOff(i, k) + c.resultFieldOff(i)
	scatter := []rdma.SGE{{LKey: c.hops[i].staging.LKey(), Offset: uint64(resOff), Length: 8}}
	switch o.loop.Kind {
	case LoopMaskFAdd:
		return appendImage(dst, &rdma.WQE{
			Opcode: rdma.OpMaskFAdd, Signaled: true, HWOwned: true, WRID: uint64(k),
			RKey: self.Store.RKey(), RAddr: uint64(o.loop.Off),
			Imm: o.loop.Add, Swap: o.loop.FieldMask,
			ProgA: o.loop.GuardWant, ProgB: o.loop.GuardMask,
			SGEs: scatter,
		})
	default: // LoopCAS
		return appendImage(dst, &rdma.WQE{
			Opcode: rdma.OpCompSwap, Signaled: true, HWOwned: true, WRID: uint64(k),
			RKey: self.Store.RKey(), RAddr: uint64(o.loop.Off),
			Imm: o.loop.Old, Swap: o.loop.New,
			SGEs: scatter,
		})
	}
}

// guardImage is hop i's gWRITE_IF predicate: compare the local guard word,
// export the observed value into the staging result field, and on mismatch
// skip the WRITE that follows (which still delivers a PredFail CQE, keeping
// the downstream WAIT count constant).
func (c *channel) guardImage(dst []byte, i int, o *op, k int) []byte {
	self := c.g.replicas[i]
	resOff := c.stagingOff(i, k) + c.resultFieldOff(i)
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpGuard, Signaled: true, HWOwned: true, WRID: uint64(k),
		Imm: o.guardWant, ProgB: o.guardMask, ProgA: 1,
		SGEs: []rdma.SGE{
			{LKey: self.Store.LKey(), Offset: uint64(o.guardOff), Length: 8},
			{LKey: c.hops[i].staging.LKey(), Offset: uint64(resOff), Length: 8},
		},
	})
}

// writeIfImage is hop i's predicated WRITE: gather the payload carried in
// its staging area and write it into its own store at the target offset.
func (c *channel) writeIfImage(dst []byte, i int, o *op, k int) []byte {
	self := c.g.replicas[i]
	payOff := c.stagingOff(i, k) + c.payloadOff(i)
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: self.Store.RKey(), RAddr: uint64(o.off),
		SGEs: []rdma.SGE{{LKey: c.hops[i].staging.LKey(), Offset: uint64(payOff), Length: uint32(o.size)}},
	})
}

// payloadOff locates the carried payload within hop i's staging area:
// right after the images it forwards to later hops.
func (c *channel) payloadOff(i int) int {
	return (len(c.hops) - 1 - i) * c.manipLen
}
