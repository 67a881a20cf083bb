package core

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// FanoutGroup implements the paper's §7 extension: a FaRM-style
// primary/backup topology where the client offloads coordination from the
// primary's CPU to the primary's NIC. One write replicates to the primary
// (by the client) and to every backup (by the primary's NIC), and the
// primary acks only after every backup's write — and its durability flush —
// has completed.
//
// Datapath per operation:
//
//	client:  WRITE data → primary store; [READ0 flush]; SEND metadata
//	primary: RECV scatters one descriptor image per backup into held
//	         slots on the per-backup QPs
//	         per backup QP: WAIT(recv CQ) → WRITE (manipulated) → READ0
//	         ack QP: WAIT(shared completion CQ, 2×backups) → WRITE_IMM → client
//
// The per-backup WRITE and flush completions all land on one shared CQ, so
// a single WAIT with count 2×backups acts as the all-acks barrier — no
// primary CPU involved.
//
// Fan-out width is limited to 4 backups by the RECV scatter's SGE budget
// (one descriptor image per backup per scatter entry).
type FanoutGroup struct {
	eng     *sim.Engine
	cfg     Config
	client  *cluster.Node
	primary *cluster.Node
	backups []*cluster.Node

	cliQP    *rdma.QP   // client → primary
	ackQP    *rdma.QP   // on the client, from the primary
	ackSrcQP *rdma.QP   // primary → client acks
	outQPs   []*rdma.QP // primary → each backup; share one send CQ
	inQP     *rdma.QP   // primary's receive side from the client
	sharedC  *rdma.CQ   // all backup-write completions

	cliStaging *rdma.MemoryRegion
	ackMR      *rdma.MemoryRegion

	issued  uint64
	posted  int
	pending []*op
	waiting []*op
	failed  error
}

// MaxFanout is the widest backup set a FanoutGroup supports.
const MaxFanout = rdma.MaxSGE

// NewFanout wires a fan-out group: client, primary, and up to MaxFanout
// backups.
func NewFanout(eng *sim.Engine, client, primary *cluster.Node, backups []*cluster.Node, cfg Config) *FanoutGroup {
	if len(backups) == 0 || len(backups) > MaxFanout {
		panic(fmt.Sprintf("core: fanout needs 1..%d backups", MaxFanout))
	}
	cfg.fill()
	g := &FanoutGroup{
		eng: eng, cfg: cfg,
		client: client, primary: primary, backups: backups,
	}
	depth := cfg.Depth

	cli, in := cluster.ConnectPair(client, primary, depth*4, depth)
	g.cliQP, g.inQP = cli, in
	ackSrc, ackDst := cluster.ConnectPair(primary, client, depth*2, depth)
	g.ackQP = ackDst

	// Per-backup QPs share one send CQ on the primary: the barrier WAIT
	// watches it.
	g.sharedC = primary.NIC.CreateCQ()
	g.sharedC.SetAutoDrain(true)
	for _, b := range backups {
		src := primary.NIC.CreateQP(g.sharedC, primary.NIC.CreateCQ(), depth*2, 1)
		dst := b.NIC.CreateQP(b.NIC.CreateCQ(), b.NIC.CreateCQ(), 1, depth)
		rdma.Connect(src, dst)
		src.RecvCQ().SetAutoDrain(true)
		dst.SendCQ().SetAutoDrain(true)
		dst.RecvCQ().SetAutoDrain(true)
		g.outQPs = append(g.outQPs, src)
	}
	in.RecvCQ().SetAutoDrain(true)
	in.SendCQ().SetAutoDrain(true)
	ackSrc.SendCQ().SetAutoDrain(true)
	ackSrc.RecvCQ().SetAutoDrain(true)

	g.cliStaging = client.NIC.RegisterRAM(depth*len(backups)*2*rdma.SlotSize, rdma.AccessLocalWrite)
	g.ackMR = client.NIC.RegisterRAM(depth*8, rdma.AccessLocalWrite|rdma.AccessRemoteWrite)

	g.cliQP.SendCQ().SetAutoDrain(true)
	g.cliQP.SendCQ().SetCallback(func(e rdma.CQE) {
		if e.Status != rdma.StatusSuccess {
			g.fail(fmt.Errorf("%w: fanout client completion %s", ErrGroupFailed, e.Status))
		}
	})
	g.ackQP.RecvCQ().SetAutoDrain(true)
	g.ackQP.RecvCQ().SetCallback(func(e rdma.CQE) { g.onAck(e) })
	for k := 0; k < depth; k++ {
		if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
			panic(err)
		}
	}
	g.ackSrcQP = ackSrc
	g.prime()
	g.startReplenisher()
	return g
}

// fail aborts all pending work.
func (g *FanoutGroup) fail(reason error) {
	if g.failed != nil {
		return
	}
	g.failed = reason
	for _, o := range append(g.pending, g.waiting...) {
		if o.done != nil {
			o.done(Result{Seq: o.seq, Err: reason})
		}
	}
	g.pending, g.waiting = nil, nil
}

// Failed returns the failure reason, or nil.
func (g *FanoutGroup) Failed() error { return g.failed }

// GroupSize returns the replica count (primary + backups).
func (g *FanoutGroup) GroupSize() int { return 1 + len(g.backups) }

// prime posts the initial ring of op chains on the primary.
func (g *FanoutGroup) prime() {
	for g.canPost() {
		if err := g.postOpChain(g.posted); err != nil {
			panic(fmt.Sprintf("core: fanout prime: %v", err))
		}
		g.posted++
	}
}

func (g *FanoutGroup) canPost() bool {
	if g.inQP.RQTable().Posted() >= g.cfg.Depth {
		return false
	}
	for _, q := range g.outQPs {
		if q.SQTable().Slots()-q.SQTable().Posted() < 2 {
			return false
		}
	}
	return g.ackSrcQP.SQTable().Slots()-g.ackSrcQP.SQTable().Posted() >= 2
}

// postOpChain pre-posts the WQEs for op k (primary-side CPU, off the
// critical path).
func (g *FanoutGroup) postOpChain(k int) error {
	kk := uint64(k)
	// RECV: one scatter entry per backup, each covering that backup QP's
	// held WRITE slot (the flush READ0 slot after it stays fixed).
	var sges []rdma.SGE
	for _, q := range g.outQPs {
		sges = append(sges, rdma.SGE{
			LKey:   q.SQTable().MR().LKey(),
			Offset: uint64(q.SQTable().SlotOffset(2*k + 0)),
			Length: rdma.SlotSize,
		})
	}
	if _, err := g.inQP.PostRecv(rdma.WQE{WRID: kk, SGEs: sges}); err != nil {
		return err
	}
	held := rdma.WQE{Opcode: rdma.OpNop, WRID: kk}
	for i, q := range g.outQPs {
		// Slot 2k: manipulated WRITE. It must wait for the RECV, so it is
		// held AND the queue is gated by per-QP WAITs... but the WRITE slot
		// itself is the first of the pair; gate with ownership only: the
		// scatter both rewrites and activates it, and the RECV scatter
		// happens strictly after the client's data WRITE landed (same QP,
		// in order on the client→primary connection; the backup WRITE
		// gathers from the primary's store).
		if _, err := q.PostSend(held, rdma.HoldOwnership); err != nil {
			return err
		}
		// Slot 2k+1: fixed durability flush toward this backup.
		if _, err := q.PostSend(rdma.WQE{
			Opcode: rdma.OpRead, Signaled: true, WRID: kk,
			RKey: g.backups[i].Store.RKey(),
		}); err != nil {
			return err
		}
	}
	// Ack chain: barrier on 2 completions per backup (WRITE + flush), then
	// WRITE_IMM to the client.
	if _, err := g.ackSrcQP.PostSend(rdma.WQE{
		Opcode: rdma.OpWait, WaitCQ: g.sharedC.ID(), WaitCount: uint32(2 * len(g.backups)), WRID: kk,
	}); err != nil {
		return err
	}
	_, err := g.ackSrcQP.PostSend(rdma.WQE{
		Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk,
		RKey: g.ackMR.RKey(), RAddr: uint64((k % g.cfg.Depth) * 8),
	})
	return err
}

// startReplenisher keeps the primary's rings topped up (off the critical
// path, on the primary's host CPU).
func (g *FanoutGroup) startReplenisher() {
	var tick func()
	tick = func() {
		if g.failed != nil {
			return
		}
		n := 0
		for g.canPost() {
			if err := g.postOpChain(g.posted); err != nil {
				g.fail(fmt.Errorf("%w: fanout replenish: %v", ErrGroupFailed, err))
				return
			}
			g.posted++
			n++
		}
		if n > 0 {
			g.primary.Host.Submit("hl-fanout-replenish", sim.Duration(n)*g.cfg.ChainPostCost, nil)
			g.pump() // fresh credits may unblock queued issues
		}
		g.eng.Schedule(g.cfg.ReplenishEvery, tick)
	}
	g.eng.Schedule(g.cfg.ReplenishEvery, tick)
}

func (g *FanoutGroup) onAck(e rdma.CQE) {
	if e.Status != rdma.StatusSuccess {
		g.fail(fmt.Errorf("%w: fanout ack %s", ErrGroupFailed, e.Status))
		return
	}
	if len(g.pending) == 0 {
		g.fail(fmt.Errorf("%w: fanout spurious ack", ErrGroupFailed))
		return
	}
	o := g.pending[0]
	g.pending = g.pending[1:]
	if _, err := g.ackQP.PostRecv(rdma.WQE{}); err != nil {
		g.fail(err)
		return
	}
	g.eng.Cancel(o.timeout) // no-op for ops without a timeout
	if o.done != nil {
		o.done(Result{
			Seq: o.seq, Issued: o.issued, Completed: g.eng.Now(),
			Latency: g.eng.Now().Sub(o.issued),
		})
	}
	g.pump()
}

func (g *FanoutGroup) pump() {
	for len(g.waiting) > 0 && len(g.pending) < g.cfg.MaxInflight &&
		g.issued < uint64(g.posted) {
		o := g.waiting[0]
		g.waiting = g.waiting[1:]
		g.send(o)
	}
}

// GWrite replicates [off, off+size) of the client's store to the primary
// and every backup; durable interleaves flushes so the ack implies
// durability everywhere.
func (g *FanoutGroup) GWrite(off, size int, durable bool, done func(Result)) error {
	if g.failed != nil {
		return g.failed
	}
	if off < 0 || size <= 0 || off+size > g.client.Store.Len() {
		return ErrBadArgs
	}
	g.waiting = append(g.waiting, &op{off: off, size: size, durable: durable, done: done})
	g.pump()
	return nil
}

func (g *FanoutGroup) send(o *op) {
	o.seq = g.issued
	g.issued++
	o.issued = g.eng.Now()
	g.pending = append(g.pending, o)
	k := int(o.seq)

	// Metadata: one WRITE image per backup, gathering from the primary's
	// store and targeting the backup's store at the same offset.
	slotBytes := len(g.backups) * rdma.SlotSize
	slotOff := (k % g.cfg.Depth) * 2 * rdma.SlotSize * len(g.backups)
	msg := make([]byte, 0, slotBytes)
	for _, b := range g.backups {
		msg = appendImage(msg, &rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true, HWOwned: true, WRID: o.seq,
			RKey: b.Store.RKey(), RAddr: uint64(o.off),
			SGEs: []rdma.SGE{{LKey: g.primary.Store.LKey(), Offset: uint64(o.off), Length: uint32(o.size)}},
		})
	}
	g.cliStaging.Backing().WriteAt(slotOff, msg)

	post := func(w rdma.WQE) {
		if g.failed != nil {
			return
		}
		if _, err := g.cliQP.PostSend(w); err != nil {
			g.fail(fmt.Errorf("%w: fanout post: %v", ErrGroupFailed, err))
		}
	}
	post(rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, WRID: o.seq,
		RKey: g.primary.Store.RKey(), RAddr: uint64(o.off),
		SGEs: []rdma.SGE{{LKey: g.client.Store.LKey(), Offset: uint64(o.off), Length: uint32(o.size)}},
	})
	if o.durable {
		post(rdma.WQE{Opcode: rdma.OpRead, Signaled: true, WRID: o.seq, RKey: g.primary.Store.RKey()})
	}
	post(rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq,
		SGEs: []rdma.SGE{{LKey: g.cliStaging.LKey(), Offset: uint64(slotOff), Length: uint32(len(msg))}}})

	if g.cfg.OpTimeout > 0 {
		seq := o.seq
		o.timeout = g.eng.Schedule(g.cfg.OpTimeout, func() {
			g.fail(fmt.Errorf("%w: fanout op %d timed out", ErrGroupFailed, seq))
		})
	}
}
