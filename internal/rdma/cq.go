package rdma

import "hyperloop/internal/sim"

// CQE is a completion-queue entry.
type CQE struct {
	WRID    uint64
	Opcode  Opcode
	Status  Status
	QPN     uint32 // queue pair the completion belongs to
	Imm     uint64 // immediate data (WRITE_IMM / SEND), or CAS original value
	ByteLen int    // bytes transferred
}

// CQ is a completion queue. Completions can be consumed three ways, all of
// which the evaluation exercises:
//
//   - Poll, by a busy-polling CPU thread (the Naïve-Polling baseline);
//   - a callback, modelling a completion-channel event that wakes a host
//     thread (the Naïve-Event baseline and the client library);
//   - WAIT work requests on other queues (the HyperLoop datapath), which
//     observe only the monotone completion counter and consume nothing.
type CQ struct {
	id        uint32
	nic       *NIC
	entries   []CQE
	total     uint64 // completions ever pushed (monotone; WAIT watches this)
	cb        func(CQE)
	waiters   []*QP // queues stalled on a WAIT against this CQ
	autoDrain bool

	// Timer CQs (CreateTimerCQ) self-complete on a fixed virtual-time grid
	// while anything WAITs on them — the NIC-side delay source for capped
	// backoff in WQE programs. The grid is aligned to absolute virtual time
	// (tick k fires at k*period), so tick instants are a property of the
	// configuration, not of when a waiter happened to arm — which keeps
	// program interleavings bit-identical at any PartitionedEngine worker
	// count.
	timerPeriod sim.Duration
	timerArmed  bool
}

// TimerPeriod returns the tick period for a timer CQ (0 for ordinary CQs).
func (c *CQ) TimerPeriod() sim.Duration { return c.timerPeriod }

// SetAutoDrain configures the CQ to discard entries instead of retaining
// them for Poll. The monotone counter (what WAIT observes) and the callback
// still fire. HyperLoop marks its chain CQs auto-drain: no host ever polls
// them — that is the whole point — so retaining entries would just leak.
func (c *CQ) SetAutoDrain(v bool) { c.autoDrain = v }

// ID returns the CQ identifier WAIT WQEs reference.
func (c *CQ) ID() uint32 { return c.id }

// Completions returns the monotone count of completions ever delivered.
func (c *CQ) Completions() uint64 { return c.total }

// Depth returns the number of unpolled entries.
func (c *CQ) Depth() int { return len(c.entries) }

// SetCallback installs fn to run on every future completion. Passing nil
// removes the callback. The callback runs on the simulation goroutine at
// completion time; event-driven consumers are expected to model their host
// wakeup cost themselves (that cost is the paper's whole subject).
func (c *CQ) SetCallback(fn func(CQE)) { c.cb = fn }

// Poll removes and returns up to max entries.
func (c *CQ) Poll(max int) []CQE {
	if max <= 0 || len(c.entries) == 0 {
		return nil
	}
	if max > len(c.entries) {
		max = len(c.entries)
	}
	out := make([]CQE, max)
	copy(out, c.entries[:max])
	c.entries = c.entries[max:]
	return out
}

// push delivers a completion: appends, notifies the callback, and re-kicks
// any queues whose head WAIT watches this CQ.
func (c *CQ) push(e CQE) {
	if !c.autoDrain {
		c.entries = append(c.entries, e)
	}
	c.total++
	if c.cb != nil {
		c.cb(e)
	}
	if len(c.waiters) > 0 {
		ws := c.waiters
		c.waiters = nil
		for _, q := range ws {
			q.waiting = false
			q.nic.kick(q)
		}
		// Reuse the drained list unless a re-kicked queue registered anew
		// (which started a fresh list).
		if c.waiters == nil {
			clear(ws)
			c.waiters = ws[:0]
		}
	}
}

// addWaiter registers queue q, blocked on a WAIT against this CQ, for a
// re-kick on the next completion. Waiting on a timer CQ lazily arms its
// next grid tick: an idle timer (nothing waiting) costs no events at all.
func (c *CQ) addWaiter(q *QP) {
	q.waiting = true
	c.waiters = append(c.waiters, q)
	c.armTimer()
}

// armTimer schedules the next grid-aligned tick of a timer CQ. Each tick
// delivers one completion; further ticks are armed only while waiters
// remain, re-registered through addWaiter by still-unsatisfied WAITs.
func (c *CQ) armTimer() {
	if c.timerPeriod <= 0 || c.timerArmed {
		return
	}
	c.timerArmed = true
	now := c.nic.eng.Now()
	next := sim.Time(0).Add((sim.Duration(now)/c.timerPeriod + 1) * c.timerPeriod)
	c.nic.eng.ScheduleCallAt(next, timerTick, c)
}

// timerTick delivers one tick of a timer CQ.
func timerTick(a any) {
	c := a.(*CQ)
	c.timerArmed = false
	c.nic.counters.TimerTicks++
	c.push(CQE{Opcode: OpNop, Status: StatusSuccess})
}
