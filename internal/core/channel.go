package core

import (
	"fmt"
	"sync"

	"hyperloop/internal/cluster"
	"hyperloop/internal/rdma"
	"hyperloop/internal/sim"
)

// chanKind identifies a primitive's dedicated chain of queue pairs. Each
// primitive gets its own QPs, rings, and staging regions so that pre-posted
// chain shapes are uniform per channel (the paper allocates "separate
// metadata memory regions for each primitive", §4.1).
type chanKind int

const (
	chWrite chanKind = iota
	chCAS
	chMemcpy
	chFlush
	chLoop    // NIC-resident bounded atomic retry loop (template program)
	chWriteIf // predicated gWRITE: guard word gates the write on each replica
)

func (k chanKind) String() string {
	switch k {
	case chWrite:
		return "gWRITE"
	case chCAS:
		return "gCAS"
	case chMemcpy:
		return "gMEMCPY"
	case chFlush:
		return "gFLUSH"
	case chLoop:
		return "gATOMIC_LOOP"
	case chWriteIf:
		return "gWRITE_IF"
	default:
		return fmt.Sprintf("chan(%d)", int(k))
	}
}

// op is a queued primitive invocation.
type op struct {
	seq       uint64
	off       int
	src       int
	size      int
	durable   bool
	casOld    uint64
	casNew    uint64
	exec      ExecuteMap
	loop      *LoopSpec // gATOMIC_LOOP parameters
	guardOff  int       // gWRITE_IF: replica-local guard word offset
	guardWant uint64    // gWRITE_IF: value the guard must match
	guardMask uint64    // gWRITE_IF: compare mask (0 = full word)
	attempts  int       // gATOMIC_LOOP: chain traversals executed
	done      func(Result)
	issued    sim.Time
	timeout   sim.EventID
}

// hop is one replica's wiring for a channel.
type hop struct {
	node    *cluster.Node
	up      *rdma.QP // QP whose RQ receives from the previous node
	down    *rdma.QP // QP toward the next node (client for the tail)
	loop    *rdma.QP // loopback QP (gCAS / gMEMCPY local ops)
	staging *rdma.MemoryRegion
	posted  int // op chains pre-posted so far (absolute count)

	// Flow control: after replenishing, the replica CPU RDMA-WRITEs its
	// posted count to the client's credit region — off the critical path —
	// so the client never issues into an unreplenished ring slot.
	credQP *rdma.QP
	credMR *rdma.MemoryRegion // 8-byte counter staging on the replica
}

// channel is the per-primitive datapath: client-side queues plus one hop
// per replica.
type channel struct {
	kind chanKind
	g    *Group
	hops []*hop

	cliQP      *rdma.QP           // client → first replica
	ackQP      *rdma.QP           // on the client, from the tail
	cliStaging *rdma.MemoryRegion // outgoing metadata ring
	ackMR      *rdma.MemoryRegion // result/ack landing ring

	creditMR *rdma.MemoryRegion // per-hop posted counters, written by replicas

	issued     uint64
	acked      uint64
	pending    []*op // in-flight, ack order = issue order (chain + RC)
	waiting    []*op // queued behind MaxInflight / credits
	pumpArmed  bool  // retry timer scheduled for credit-starved issues
	flushArmed bool  // deferred fusion pump scheduled (FusionDepth > 1)
	ackSlot    int   // bytes per ack ring slot
	msgHead    int   // metadata message size entering hop 0
	slotsSQ    int   // downstream SQ slots per op
	slotsLQ    int   // loopback SQ slots per op
	manipLen   int   // bytes of descriptor images peeled per hop

	// gATOMIC_LOOP template state: the client-side WQE program is posted
	// once and re-armed by the NIC itself; per op the host only patches
	// fields and doorbells the gate.
	timerCQ      *rdma.CQ           // backoff tick source on the client NIC
	ctrlMR       *rdma.MemoryRegion // 8-byte retry budget word the NIC decrements
	tplGate      int                // absolute slot index of the template gate
	tplCond      int                // absolute slot index of the CondRearm
	loopAttempts uint64             // chain instances consumed by completed loops

	word [8]byte // scratch for 8-byte credit, budget and result-map accesses
}

// postScratch is the working set of one posting round (a client batch or a
// replica replenish): the descriptor lists, the SGEs they point at and the
// metadata message. The verbs layer encodes each descriptor into its queue
// slot as it posts and keeps no reference, so later rounds reuse it.
type postScratch struct {
	down, loop []rdma.WQE
	sges       []rdma.SGE
	msg        []byte
}

// sgeList copies list into the round's SGE store and returns the copy.
func (s *postScratch) sgeList(list ...rdma.SGE) []rdma.SGE {
	start := len(s.sges)
	s.sges = append(s.sges, list...)
	return s.sges[start:len(s.sges):len(s.sges)]
}

// scratchPool recycles posting scratch across rounds and groups. What a
// round takes is emptied first, so reuse cannot change what gets posted.
var scratchPool = sync.Pool{New: func() any { return new(postScratch) }}

// maxScratchEntries bounds the descriptors and SGEs a recycled postScratch
// may hold room for. Steady-state rounds fit; priming rounds (Depth chains
// per hop) share a scratch of their own that is dropped after set-up.
const maxScratchEntries = 4096

// reset empties s for the next posting round, keeping its capacity.
func (s *postScratch) reset() {
	s.down, s.loop, s.sges, s.msg = s.down[:0], s.loop[:0], s.sges[:0], s.msg[:0]
}

// takeScratch returns an empty postScratch for one posting round.
func takeScratch() *postScratch {
	s := scratchPool.Get().(*postScratch)
	s.reset()
	return s
}

// putScratch recycles s unless it grew past maxScratchEntries.
func putScratch(s *postScratch) {
	if cap(s.down)+cap(s.loop)+cap(s.sges) <= maxScratchEntries {
		scratchPool.Put(s)
	}
}

// minCredit returns the lowest replenished-op count across hops: the client
// may issue sequence numbers strictly below it.
func (c *channel) minCredit() uint64 {
	min := ^uint64(0)
	for i := range c.hops {
		c.creditMR.Backing().ReadAt(8*i, c.word[:])
		if v := le64(c.word[:]); v < min {
			min = v
		}
	}
	return min
}

// geometry returns per-kind chain shape: slots per op on the down SQ and
// loop SQ, and the image bytes peeled by each hop's RECV.
func geometry(kind chanKind) (slotsSQ, slotsLQ, manipLen int) {
	switch kind {
	case chWrite:
		return 4, 0, 2 * rdma.SlotSize // WAIT, WRITE, FLUSH/NOP, SEND
	case chCAS, chLoop:
		return 2, 2, rdma.SlotSize // down: WAIT,SEND; loop: WAIT,CAS
	case chMemcpy:
		return 2, 3, 2 * rdma.SlotSize // loop: WAIT,WRITE,FLUSH/NOP
	case chWriteIf:
		return 2, 3, 2 * rdma.SlotSize // loop: WAIT,GUARD,WRITE
	case chFlush:
		return 3, 0, 0 // WAIT, READ0, SEND
	default:
		panic("core: unknown channel kind")
	}
}

// msgSize returns the metadata message size arriving at hop i (0-indexed)
// for a group of n replicas.
func (c *channel) msgSize(i int) int {
	n := len(c.g.replicas)
	switch c.kind {
	case chWrite:
		// Images for forwarding hops i..n-2 (the tail has none).
		m := n - 1 - i
		if m < 0 {
			m = 0
		}
		return m * c.manipLen
	case chCAS, chLoop:
		// Own image + later hops' images + result map.
		return (n-i)*c.manipLen + 8*n
	case chMemcpy:
		return (n - i) * c.manipLen
	case chWriteIf:
		// Own images + later hops' images + carried payload + observed map.
		return (n-i)*c.manipLen + c.g.cfg.PredPayloadCap + 8*n
	case chFlush:
		return 0
	default:
		panic("core: unknown channel kind")
	}
}

// stagingSize returns the staging bytes per op at hop i: the message it
// forwards downstream.
func (c *channel) stagingSize(i int) int {
	switch c.kind {
	case chCAS, chLoop, chWriteIf:
		// The tail still stages the result map (and, for gWRITE_IF, the
		// payload its own WRITE gathers) it acks to the client.
		return c.msgSize(i) - c.manipLen
	}
	if i == len(c.g.replicas)-1 {
		return 0
	}
	return c.msgSize(i + 1)
}

// buildChannel creates QPs, CQs, staging regions, and client-side rings for
// one primitive.
func (g *Group) buildChannel(kind chanKind) *channel {
	c := &channel{kind: kind, g: g}
	c.slotsSQ, c.slotsLQ, c.manipLen = geometry(kind)
	n := len(g.replicas)
	depth := g.cfg.Depth

	// Chain QPs around the ring: client→R0, R0→R1, …, R(n-1)→client. Hop
	// i's upstream is pair i's receiving end; its downstream is pair i+1's
	// sending end.
	nodes := append([]*cluster.Node{g.client}, g.replicas...)
	type pair struct{ src, dst *rdma.QP }
	pairs := make([]pair, n+1)
	for i := 0; i <= n; i++ {
		src := nodes[i]
		dst := nodes[(i+1)%(n+1)]
		a, b := cluster.ConnectPair(src, dst, depth*maxInt(c.slotsSQ, 4), depth)
		pairs[i] = pair{src: a, dst: b}
	}
	c.cliQP = pairs[0].src
	c.ackQP = pairs[n].dst
	c.creditMR = g.client.NIC.RegisterRAM(8*maxInt(n, 1), rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
	for i, rep := range g.replicas {
		h := &hop{node: rep, up: pairs[i].dst, down: pairs[i+1].src}
		// Credit path: replica → client, used only by the replenisher.
		cq, _ := cluster.ConnectPair(rep, g.client, 64, 1)
		cq.SendCQ().SetAutoDrain(true)
		h.credQP = cq
		h.credMR = rep.NIC.RegisterRAM(8, rdma.AccessLocalWrite)
		if c.slotsLQ > 0 {
			h.loop = cluster.Loopback(rep, depth*c.slotsLQ)
			h.loop.SendCQ().SetAutoDrain(true)
			h.loop.RecvCQ().SetAutoDrain(true)
		}
		if s := c.stagingSize(i); s > 0 {
			h.staging = rep.NIC.RegisterRAM(depth*s, rdma.AccessLocalWrite)
		}
		// Chain CQs are WAIT-only: no host polls them.
		h.up.RecvCQ().SetAutoDrain(true)
		h.up.SendCQ().SetAutoDrain(true)
		h.down.SendCQ().SetAutoDrain(true)
		h.down.RecvCQ().SetAutoDrain(true)
		c.hops = append(c.hops, h)
	}

	// Client rings.
	c.msgHead = c.msgSize(0)
	if c.msgHead > 0 {
		c.cliStaging = g.client.NIC.RegisterRAM(depth*c.msgHead, rdma.AccessLocalWrite)
	}
	c.ackSlot = 8 * n
	if c.ackSlot < 8 {
		c.ackSlot = 8
	}
	c.ackMR = g.client.NIC.RegisterRAM(depth*c.ackSlot, rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
	c.cliQP.SendCQ().SetAutoDrain(true)
	c.ackQP.RecvCQ().SetAutoDrain(true)
	if kind == chLoop {
		// The loop program completes via its CondRearm CQE, not the tail
		// ack: ack completions only feed the template's WAIT counter.
		c.timerCQ = g.client.NIC.CreateTimerCQ(g.cfg.LoopTick)
		c.ctrlMR = g.client.NIC.RegisterRAM(8, rdma.AccessLocalWrite)
		c.cliQP.SendCQ().SetCallback(func(e rdma.CQE) { c.onLoopCQE(e) })
		return c
	}
	c.cliQP.SendCQ().SetCallback(func(e rdma.CQE) {
		if e.Status != rdma.StatusSuccess {
			g.fail(fmt.Errorf("%w: client %s completion %s", ErrGroupFailed, c.kind, e.Status))
		}
	})
	c.ackQP.RecvCQ().SetCallback(func(e rdma.CQE) { c.onAck(e) })
	return c
}

// prime pre-posts the initial rings: client ack RECVs and every hop's op
// chains, each hop's round built in s.
func (c *channel) prime(s *postScratch) {
	for k := 0; k < c.g.cfg.Depth; k++ {
		if _, err := c.ackQP.PostRecv(rdma.WQE{WRID: uint64(k)}); err != nil {
			panic(fmt.Sprintf("core: prime ack recv: %v", err))
		}
	}
	for i := range c.hops {
		c.replenishWith(s, i)
		// Setup is host-coordinated: seed the credit region directly.
		putLE64(c.word[:], uint64(c.hops[i].posted))
		c.creditMR.Backing().WriteAt(8*i, c.word[:])
	}
	if c.kind == chLoop {
		c.postLoopTemplate()
	}
}

// replenishable returns how many op chains hop ri could re-post right now.
func (c *channel) replenishable(ri int) int {
	h := c.hops[ri]
	free := c.g.cfg.Depth - h.up.RQTable().Posted()
	if dn := (h.down.SQTable().Slots() - h.down.SQTable().Posted()) / c.slotsSQ; dn < free {
		free = dn
	}
	if h.loop != nil {
		if lp := (h.loop.SQTable().Slots() - h.loop.SQTable().Posted()) / c.slotsLQ; lp < free {
			free = lp
		}
	}
	if free < 0 {
		free = 0
	}
	return free
}

// replenish tops up hop ri's rings, returning chains posted. The whole
// round's send-queue descriptors post as one fused batch per queue — one
// doorbell for the round, the replica-side counterpart of client fusion —
// then the new credit is pushed to the client (an RDMA WRITE issued by the
// replica CPU, off the critical path).
func (c *channel) replenish(ri int) int {
	s := takeScratch()
	defer putScratch(s)
	return c.replenishWith(s, ri)
}

// replenishWith is replenish building its round in s.
func (c *channel) replenishWith(s *postScratch, ri int) int {
	n := c.replenishable(ri)
	if n == 0 {
		return 0
	}
	h := c.hops[ri]
	s.reset()
	for i := 0; i < n; i++ {
		if err := c.chainWQEs(s, ri, h.posted); err != nil {
			c.g.fail(fmt.Errorf("%w: replenish %s hop %d: %v", ErrGroupFailed, c.kind, ri, err))
			return i
		}
		h.posted++
	}
	if len(s.down) > 0 {
		if _, err := h.down.PostSendBatch(s.down, rdma.RawOwnership); err != nil {
			c.g.fail(fmt.Errorf("%w: replenish %s hop %d: %v", ErrGroupFailed, c.kind, ri, err))
			return n
		}
	}
	if len(s.loop) > 0 {
		if _, err := h.loop.PostSendBatch(s.loop, rdma.RawOwnership); err != nil {
			c.g.fail(fmt.Errorf("%w: replenish %s hop %d: %v", ErrGroupFailed, c.kind, ri, err))
			return n
		}
	}
	c.pushCredit(ri)
	return n
}

// pushCredit publishes hop ri's posted count into the client's credit
// region.
func (c *channel) pushCredit(ri int) {
	h := c.hops[ri]
	putLE64(c.word[:], uint64(h.posted))
	h.credMR.Backing().WriteAt(0, c.word[:])
	if _, err := h.credQP.PostSend(rdma.WQE{
		Opcode: rdma.OpWrite, RKey: c.creditMR.RKey(), RAddr: uint64(8 * ri),
		SGEs: []rdma.SGE{{LKey: h.credMR.LKey(), Offset: 0, Length: 8}},
	}); err != nil {
		c.g.fail(fmt.Errorf("%w: credit push %s hop %d: %v", ErrGroupFailed, c.kind, ri, err))
	}
}

// stagingOff returns the staging byte offset for op k at hop i. gATOMIC_LOOP
// pins every op to slot 0: chain instances are consumed per *attempt*, so an
// instance-indexed offset would desync from the client's precomputed images;
// the program's ack-WAIT strictly serializes attempts, making reuse safe.
func (c *channel) stagingOff(i int, k int) int {
	if c.kind == chLoop {
		return 0
	}
	return (k % c.g.cfg.Depth) * c.stagingSize(i)
}

// ackOff returns the ack-ring byte offset for op k (slot 0 for gATOMIC_LOOP,
// where the CondRearm's guard SGE needs a fixed address).
func (c *channel) ackOff(k int) int {
	if c.kind == chLoop {
		return 0
	}
	return (k % c.g.cfg.Depth) * c.ackSlot
}

// chainWQEs assembles the WQE chain for absolute op index k at hop ri: the
// upstream RECV posts immediately; send-queue descriptors append to s.down
// and s.loop with their ownership bits set (held placeholders stay
// host-owned), for the caller to post as one fused batch per queue. This is
// the replica-CPU work HyperLoop keeps off the critical path.
func (c *channel) chainWQEs(s *postScratch, ri, k int) error {
	h := c.hops[ri]
	tail := ri == len(c.hops)-1
	kk := uint64(k)
	stg := c.stagingSize(ri)
	// This hop's staging slot for op k: what it forwards (or acks) next.
	var staged rdma.SGE
	if h.staging != nil {
		staged = rdma.SGE{LKey: h.staging.LKey(), Offset: uint64(c.stagingOff(ri, k)), Length: uint32(stg)}
	}

	// Held placeholder rewritten by the RECV scatter.
	held := rdma.WQE{Opcode: rdma.OpNop, WRID: kk}

	switch c.kind {
	case chWrite:
		base := k * c.slotsSQ
		var sges []rdma.SGE
		if !tail {
			slots := rdma.SGE{
				LKey:   h.down.SQTable().MR().LKey(),
				Offset: uint64(h.down.SQTable().SlotOffset(base + 1)),
				Length: uint32(c.manipLen),
			}
			if stg > 0 {
				sges = s.sgeList(slots, staged)
			} else {
				sges = s.sgeList(slots)
			}
		}
		if _, err := h.up.PostRecv(rdma.WQE{WRID: kk, SGEs: sges}); err != nil {
			return err
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.up.RecvCQ().ID(), WaitCount: 1, WRID: kk, HWOwned: true})
		if tail {
			s.down = append(s.down, rdma.WQE{
				Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk, HWOwned: true,
				RKey: c.ackMR.RKey(), RAddr: uint64(c.ackOff(k)),
			})
			return nil
		}
		s.down = append(s.down, held, held) // WRITE, FLUSH / NOP
		var fwd []rdma.SGE
		if stg > 0 {
			fwd = s.sgeList(staged)
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: kk, HWOwned: true, SGEs: fwd})
		return nil

	case chCAS, chLoop:
		lbase := k * c.slotsLQ
		sges := s.sgeList(rdma.SGE{
			LKey:   h.loop.SQTable().MR().LKey(),
			Offset: uint64(h.loop.SQTable().SlotOffset(lbase + 1)),
			Length: uint32(c.manipLen),
		}, staged)
		if _, err := h.up.PostRecv(rdma.WQE{WRID: kk, SGEs: sges}); err != nil {
			return err
		}
		s.loop = append(s.loop,
			rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.up.RecvCQ().ID(), WaitCount: 1, WRID: kk, HWOwned: true},
			held) // CAS / MaskFAdd / NOP
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.loop.SendCQ().ID(), WaitCount: 1, WRID: kk, HWOwned: true})
		ackSGE := s.sgeList(staged)
		if tail {
			s.down = append(s.down, rdma.WQE{
				Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk, HWOwned: true,
				RKey: c.ackMR.RKey(), RAddr: uint64(c.ackOff(k)),
				SGEs: ackSGE,
			})
			return nil
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: kk, HWOwned: true, SGEs: ackSGE})
		return nil

	case chWriteIf:
		lbase := k * c.slotsLQ
		// The RECV peels this hop's GUARD+WRITE images into adjacent loop
		// slots; the rest (downstream images, payload, observed map) stages.
		sges := s.sgeList(rdma.SGE{
			LKey:   h.loop.SQTable().MR().LKey(),
			Offset: uint64(h.loop.SQTable().SlotOffset(lbase + 1)),
			Length: uint32(c.manipLen),
		}, staged)
		if _, err := h.up.PostRecv(rdma.WQE{WRID: kk, SGEs: sges}); err != nil {
			return err
		}
		s.loop = append(s.loop,
			rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.up.RecvCQ().ID(), WaitCount: 1, WRID: kk, HWOwned: true},
			held, // GUARD
			held) // predicated WRITE
		// Guard and write are both signaled; a failed guard substitutes a
		// PredFail CQE for the skipped write, so the count is constant.
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.loop.SendCQ().ID(), WaitCount: 2, WRID: kk, HWOwned: true})
		if tail {
			mapOff := c.stagingOff(ri, k) + c.g.cfg.PredPayloadCap
			s.down = append(s.down, rdma.WQE{
				Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk, HWOwned: true,
				RKey: c.ackMR.RKey(), RAddr: uint64(c.ackOff(k)),
				SGEs: s.sgeList(rdma.SGE{LKey: h.staging.LKey(), Offset: uint64(mapOff), Length: uint32(8 * len(c.hops))}),
			})
			return nil
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: kk, HWOwned: true, SGEs: s.sgeList(staged)})
		return nil

	case chMemcpy:
		lbase := k * c.slotsLQ
		slots := rdma.SGE{
			LKey:   h.loop.SQTable().MR().LKey(),
			Offset: uint64(h.loop.SQTable().SlotOffset(lbase + 1)),
			Length: uint32(c.manipLen),
		}
		var sges []rdma.SGE
		if stg > 0 {
			sges = s.sgeList(slots, staged)
		} else {
			sges = s.sgeList(slots)
		}
		if _, err := h.up.PostRecv(rdma.WQE{WRID: kk, SGEs: sges}); err != nil {
			return err
		}
		s.loop = append(s.loop,
			rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.up.RecvCQ().ID(), WaitCount: 1, WRID: kk, HWOwned: true},
			held, // local WRITE (copy)
			held) // FLUSH / NOP
		// Both loop ops are signaled, so the forward waits for two CQEs.
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.loop.SendCQ().ID(), WaitCount: 2, WRID: kk, HWOwned: true})
		if tail {
			s.down = append(s.down, rdma.WQE{
				Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk, HWOwned: true,
				RKey: c.ackMR.RKey(), RAddr: uint64(c.ackOff(k)),
			})
			return nil
		}
		var fwd []rdma.SGE
		if stg > 0 {
			fwd = s.sgeList(staged)
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: kk, HWOwned: true, SGEs: fwd})
		return nil

	case chFlush:
		if _, err := h.up.PostRecv(rdma.WQE{WRID: kk}); err != nil {
			return err
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpWait, WaitCQ: h.up.RecvCQ().ID(), WaitCount: 1, WRID: kk, HWOwned: true})
		if tail {
			s.down = append(s.down, rdma.WQE{
				Opcode: rdma.OpWriteImm, Signaled: true, WRID: kk, Imm: kk, HWOwned: true,
				RKey: c.ackMR.RKey(), RAddr: uint64(c.ackOff(k)),
			})
			return nil
		}
		// Flush the next replica's store (0-byte READ), then forward.
		next := c.g.replicas[ri+1]
		s.down = append(s.down,
			rdma.WQE{Opcode: rdma.OpRead, Signaled: true, WRID: kk, HWOwned: true, RKey: next.Store.RKey()},
			rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: kk, HWOwned: true})
		return nil

	default:
		panic("core: unknown channel kind")
	}
}

// failAll errors out all in-flight and queued ops.
func (c *channel) failAll(reason error) {
	for _, o := range append(c.pending, c.waiting...) {
		c.finish(o, reason)
	}
	c.pending = nil
	c.waiting = nil
}

func (c *channel) finish(o *op, err error) {
	c.g.eng.Cancel(o.timeout) // no-op for ops without a timeout
	res := Result{
		Seq:       o.seq,
		Issued:    o.issued,
		Completed: c.g.eng.Now(),
		Err:       err,
	}
	res.Latency = res.Completed.Sub(res.Issued)
	if err == nil && (c.kind == chCAS || c.kind == chWriteIf) {
		res.CASOld = c.readResultMap(o.seq)
	}
	if c.kind == chLoop {
		res.Attempts = o.attempts
		// Exhaustion still surfaces the last attempt's observed values.
		if err == nil || err == ErrRetriesExhausted {
			res.CASOld = c.readResultMap(o.seq)
		}
	}
	if err == nil {
		c.g.opsCompleted++
	}
	if o.done != nil {
		o.done(res)
	}
}

// readResultMap copies the gCAS result map out of the ack ring before the
// slot can be reused.
func (c *channel) readResultMap(seq uint64) []uint64 {
	out := make([]uint64, len(c.g.replicas))
	off := c.ackOff(int(seq))
	for i := range out {
		c.ackMR.Backing().ReadAt(off+8*i, c.word[:])
		out[i] = le64(c.word[:])
	}
	return out
}

// onAck handles a tail WRITE_IMM arriving at the client: acks are strictly
// in issue order (chain topology + reliable-connected in-order delivery).
func (c *channel) onAck(e rdma.CQE) {
	if e.Status != rdma.StatusSuccess {
		c.g.fail(fmt.Errorf("%w: %s ack status %s", ErrGroupFailed, c.kind, e.Status))
		return
	}
	if len(c.pending) == 0 {
		c.g.fail(fmt.Errorf("%w: %s spurious ack imm=%d", ErrGroupFailed, c.kind, e.Imm))
		return
	}
	o := popOp(&c.pending)
	if e.Imm != o.seq {
		c.g.fail(fmt.Errorf("%w: %s ack order violation: imm=%d want %d", ErrGroupFailed, c.kind, e.Imm, o.seq))
		return
	}
	c.acked++
	// Re-arm the consumed ack RECV.
	if _, err := c.ackQP.PostRecv(rdma.WQE{}); err != nil {
		c.g.fail(fmt.Errorf("%w: repost ack recv: %v", ErrGroupFailed, err))
		return
	}
	c.finish(o, nil)
	c.pump()
}

// submit queues a primitive invocation and pumps the issue path. With
// FusionDepth > 1 the pump is deferred to a zero-delay event, so every op
// submitted at the same virtual instant lands in the queue before the pump
// runs once over all of them — that is what gives the fuser adjacent runs
// to batch. Determinism is untouched: the deferral is a normal engine event
// at the same timestamp, ordered by the usual (time, seq) rule.
func (c *channel) submit(o *op) error {
	if c.g.failed != nil {
		return c.g.failed
	}
	c.waiting = append(c.waiting, o)
	if c.g.cfg.FusionDepth > 1 {
		if !c.flushArmed {
			c.flushArmed = true
			c.g.eng.Schedule(0, func() {
				c.flushArmed = false
				c.pump()
			})
		}
		return nil
	}
	c.pump()
	return nil
}

// pump issues queued ops while the in-flight window and replica credits
// allow. When credit-starved it arms a retry timer: credits arrive as RDMA
// WRITEs (no completion event on the client), so a short poll is how a real
// client would notice them.
func (c *channel) pump() {
	if c.g.failed != nil {
		return
	}
	if c.kind == chLoop {
		c.pumpLoop()
		return
	}
	for len(c.waiting) > 0 && len(c.pending) < c.g.cfg.MaxInflight && c.issued < c.minCredit() {
		// Fuse up to FusionDepth adjacent ops of this primitive into one
		// posting, bounded by the inflight window and replica credits.
		n := len(c.waiting)
		if d := c.g.cfg.FusionDepth; n > d {
			n = d
		}
		if w := c.g.cfg.MaxInflight - len(c.pending); n > w {
			n = w
		}
		if cr := int(c.minCredit() - c.issued); n > cr {
			n = cr
		}
		c.sendBatch(n)
	}
	if len(c.waiting) > 0 && len(c.pending) < c.g.cfg.MaxInflight && !c.pumpArmed {
		c.pumpArmed = true
		c.g.eng.Schedule(10*sim.Microsecond, func() {
			c.pumpArmed = false
			c.pump()
		})
	}
}

// popOp removes and returns the head of queue q. A queue drained to empty
// rewinds to the start of its array, so one that keeps cycling through
// empty (a closed loop) reuses a single allocation.
func popOp(q *[]*op) *op {
	s := *q
	o := s[0]
	s[0] = nil
	if len(s) == 1 {
		*q = s[:0]
	} else {
		*q = s[1:]
	}
	return o
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putLE64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
