package rdma

import (
	"encoding/binary"
	"fmt"

	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// packetKind discriminates NIC-to-NIC messages.
type packetKind uint8

const (
	pkSend packetKind = iota + 1
	pkWrite
	pkWriteImm
	pkRead
	pkCAS
	pkMaskFAdd // masked fetch-and-add, optionally guarded
	pkAck      // completes SEND/WRITE/WRITE_IMM at the requester
	pkReadResp // carries READ data back
	pkCASResp  // carries the original value back (CAS and MaskFAdd)
)

// packet is the simulation's wire unit. Payloads travel by reference; the
// fabric charges serialization time for the declared size.
type packet struct {
	kind    packetKind
	srcQPN  uint32
	dstQPN  uint32
	rkey    uint32
	raddr   uint64
	data    []byte
	imm     uint64
	compare uint64
	swap    uint64
	gmask   uint64 // pkMaskFAdd guard mask (0 = unconditional)
	readLen int
	reqID   uint64
	status  Status
	rx      *NIC // receiving NIC, set when the packet enters its Rx pipeline
	from    *QP  // responses: the QP the response leaves through
	wire    int  // deferred responses: bytes charged on the wire
	// buf is the gather buffer, recycled with the packet. Only a gathered
	// request payload (data) aliases it, and the receiver copies that out
	// before the packet is freed; READ response data is never pooled.
	buf []byte
}

// TraceEvent is one NIC-level action, emitted to an attached Tracer. The
// stream narrates exactly what the hardware does per operation — which is
// the paper's §4 argument made visible.
type TraceEvent struct {
	At   sim.Time
	Node fabric.NodeID
	Kind string // "exec", "wait", "stall", "rx", "cqe", "prog"
	QPN  uint32
	Op   Opcode
	WRID uint64
	Info string
}

// Tracer receives trace events. Implementations must be cheap; tracing is
// disabled when no tracer is attached.
type Tracer func(TraceEvent)

// Counters aggregates NIC activity for the evaluation's CPU/offload
// accounting.
type Counters struct {
	WQEsExecuted uint64
	SendsRx      uint64
	WritesRx     uint64
	ReadsRx      uint64
	AtomicsRx    uint64
	CacheFlushes uint64
	RNRs         uint64
	AccessFaults uint64
	// Doorbells counts explicit ring operations (PostSend, PostSendBatch,
	// Doorbell) — the MMIO writes a batching client amortizes away.
	Doorbells uint64
	// ProgBranches counts OpGuard skips and OpCondRearm branches taken —
	// control transfers NIC-resident WQE programs perform without any host
	// involvement.
	ProgBranches uint64
	// TimerTicks counts timer-CQ completions delivered (NIC-side backoff).
	TimerTicks uint64
}

// NIC is one RDMA-capable network adapter: it owns memory registrations,
// queue pairs, and completion queues, executes work queues autonomously,
// and responds to inbound verbs — all without any cpusched involvement,
// which is precisely the property HyperLoop exploits.
type NIC struct {
	eng  *sim.Engine
	cfg  Config
	net  *fabric.Network
	node fabric.NodeID

	mrsByLKey map[uint32]*MemoryRegion
	mrsByRKey map[uint32]*MemoryRegion
	qps       map[uint32]*QP
	cqs       map[uint32]*CQ
	nextKey   uint32
	nextQPN   uint32
	nextCQID  uint32

	counters Counters
	tracer   Tracer

	freePkts []*packet // recycled packets (newPacket / freePacket)
	word     [8]byte   // scratch for 8-byte local reads and writes

	// Fault-injection state: stallUntil freezes pipeline starts until the
	// given instant; slowdown (>1) scales per-unit processing costs.
	stallUntil sim.Time
	slowdown   float64
}

// StallFor freezes the NIC's processing pipelines for d from now: work
// already in flight completes, but no queued WQE initiates and no inbound
// packet begins Rx processing until the stall window passes. Models a
// firmware hiccup or PFC pause storm; repeated calls extend the window
// monotonically.
func (n *NIC) StallFor(d sim.Duration) {
	until := n.eng.Now().Add(d)
	if until > n.stallUntil {
		n.stallUntil = until
	}
}

// SetSlowdown scales every subsequent processing cost (WQE initiation, Rx
// processing, DMA) by factor. Values <= 1 restore full speed. Models a
// degraded NIC (thermal throttling, cache thrash) for fault scenarios.
func (n *NIC) SetSlowdown(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	n.slowdown = factor
}

// scaledCost applies the configured slowdown to a processing cost.
func (n *NIC) scaledCost(c sim.Duration) sim.Duration {
	if n.slowdown > 1 {
		c = sim.Duration(float64(c) * n.slowdown)
	}
	return c
}

// stallStart clamps a pipeline start time to the end of any stall window.
func (n *NIC) stallStart(t sim.Time) sim.Time {
	if n.stallUntil > t {
		return n.stallUntil
	}
	return t
}

// SetTracer attaches fn to receive NIC-level trace events (nil detaches).
func (n *NIC) SetTracer(fn Tracer) { n.tracer = fn }

func (n *NIC) trace(kind string, qpn uint32, op Opcode, wrid uint64, info string) {
	if n.tracer != nil {
		n.tracer(TraceEvent{At: n.eng.Now(), Node: n.node, Kind: kind, QPN: qpn, Op: op, WRID: wrid, Info: info})
	}
}

// NewNIC attaches a NIC to the network.
func NewNIC(eng *sim.Engine, net *fabric.Network, cfg Config) *NIC {
	cfg.fill()
	n := &NIC{
		eng:       eng,
		cfg:       cfg,
		net:       net,
		mrsByLKey: make(map[uint32]*MemoryRegion),
		mrsByRKey: make(map[uint32]*MemoryRegion),
		qps:       make(map[uint32]*QP),
		cqs:       make(map[uint32]*CQ),
	}
	n.node = net.Attach(n.handleMessage)
	return n
}

// Node returns the NIC's fabric address.
func (n *NIC) Node() fabric.NodeID { return n.node }

// Engine returns the simulation engine driving this NIC.
func (n *NIC) Engine() *sim.Engine { return n.eng }

// Counters returns a snapshot of activity counters.
func (n *NIC) Counters() Counters { return n.counters }

// RegisterMemory registers backing with the given access rights and returns
// the memory region.
func (n *NIC) RegisterMemory(backing Backing, access Access) *MemoryRegion {
	n.nextKey++
	mr := &MemoryRegion{
		lkey:    n.nextKey,
		rkey:    n.nextKey | 0x8000_0000,
		access:  access,
		backing: backing,
	}
	n.mrsByLKey[mr.lkey] = mr
	n.mrsByRKey[mr.rkey] = mr
	return mr
}

// RegisterRAM is shorthand for registering a fresh volatile buffer.
func (n *NIC) RegisterRAM(size int, access Access) *MemoryRegion {
	return n.RegisterMemory(NewRAMBacking(size), access)
}

// CreateCQ allocates a completion queue.
func (n *NIC) CreateCQ() *CQ {
	n.nextCQID++
	cq := &CQ{id: n.nextCQID, nic: n}
	n.cqs[cq.id] = cq
	return cq
}

// LookupCQ resolves a CQ id (used by WAIT execution).
func (n *NIC) LookupCQ(id uint32) *CQ { return n.cqs[id] }

// CreateTimerCQ allocates a completion queue that self-completes every
// period of virtual time while WAITed on, with ticks aligned to the
// absolute-time grid (tick k at k*period). WQE programs WAIT on it for
// NIC-side capped backoff; idle timers schedule nothing.
func (n *NIC) CreateTimerCQ(period sim.Duration) *CQ {
	if period <= 0 {
		panic("rdma: timer CQ needs a positive period")
	}
	cq := n.CreateCQ()
	cq.timerPeriod = period
	cq.autoDrain = true
	return cq
}

// CreateQP allocates a queue pair with sqSlots send and rqSlots receive
// slots. The queues live in registered memory; writes into the send table
// re-kick the queue so remotely-granted ownership takes effect.
func (n *NIC) CreateQP(sendCQ, recvCQ *CQ, sqSlots, rqSlots int) *QP {
	if sqSlots <= 0 {
		sqSlots = n.cfg.MaxInlineWQ
	}
	if rqSlots <= 0 {
		rqSlots = n.cfg.MaxInlineWQ
	}
	n.nextQPN++
	qp := &QP{
		qpn:          n.nextQPN,
		nic:          n,
		sendCQ:       sendCQ,
		recvCQ:       recvCQ,
		waitConsumed: make(map[uint32]uint64),
		pending:      make(map[uint64]pendingReq),
	}
	sqMR := n.RegisterRAM(sqSlots*SlotSize, AccessLocalWrite|AccessRemoteWrite)
	rqMR := n.RegisterRAM(rqSlots*SlotSize, AccessLocalWrite|AccessRemoteWrite)
	qp.sq = newWQETable(sqMR, sqSlots)
	qp.rq = newWQETable(rqMR, rqSlots)
	// Any write landing in the send table may have granted ownership of a
	// stalled descriptor: re-evaluate the queue.
	sqMR.onWrite = func(off, len int) { n.kick(qp) }
	n.qps[qp.qpn] = qp
	return qp
}

// Connect wires two QPs (reliable connected semantics). Both ends must
// belong to NICs on the same fabric.
func Connect(a, b *QP) {
	a.peerNode, a.peerQPN = b.nic.node, b.qpn
	b.peerNode, b.peerQPN = a.nic.node, a.qpn
	a.loopback = a.nic == b.nic && a.qpn == b.qpn
	b.loopback = a.loopback
	a.state, b.state = QPReady, QPReady
}

// ConnectLoopback wires a QP to itself, giving the NIC a channel for local
// DMA operations — the paper's "local RDMA" used by gMEMCPY and gCAS (§4.2).
func ConnectLoopback(q *QP) {
	q.peerNode, q.peerQPN = q.nic.node, q.qpn
	q.loopback = true
	q.state = QPReady
}

// kick prompts the NIC to (re)evaluate a QP's send queue.
func (n *NIC) kick(q *QP) {
	if q.sqBusy || q.state != QPReady {
		return
	}
	n.advanceSQ(q)
}

// maxInlineProgSteps bounds control-op work per advanceSQ invocation. A
// well-formed WQE program always reaches a data op, a WAIT, or its gate
// within a handful of steps; only a corrupt or adversarial program (e.g. an
// unconditional CondRearm cycle of pure NOPs) can spin, and real hardware
// would wedge on it too — we fail the QP instead of hanging the simulation.
const maxInlineProgSteps = 1 << 16

// advanceSQ drains the send queue head: consumes satisfied WAITs, stalls on
// unsatisfied ones or host-owned slots, interprets program control ops
// (guard skips, conditional re-arm branches) inline, and initiates
// executable WQEs.
func (n *NIC) advanceSQ(q *QP) {
	steps := 0
	for {
		steps++
		if steps > maxInlineProgSteps {
			q.enterError()
			return
		}
		wqe, ok := q.sq.peek()
		if !ok || q.state != QPReady {
			return
		}
		if !wqe.HWOwned {
			n.trace("stall", q.qpn, wqe.Opcode, wqe.WRID, "host-owned")
			return // host-owned: wait for doorbell or remote grant
		}
		switch wqe.Opcode {
		case OpWait:
			cq := n.cqs[wqe.WaitCQ]
			if cq == nil {
				q.enterError()
				return
			}
			need := q.waitConsumed[wqe.WaitCQ] + uint64(wqe.WaitCount)
			if cq.total < need {
				if !q.waiting {
					cq.addWaiter(q)
				}
				return
			}
			if n.tracer != nil {
				n.trace("wait", q.qpn, OpWait, wqe.WRID, fmt.Sprintf("fired cq=%d count=%d", wqe.WaitCQ, wqe.WaitCount))
			}
			q.waitConsumed[wqe.WaitCQ] = need
			q.sq.advance()
			if wqe.Signaled {
				q.deliverInOrder(q.nextExec(), completion{signaled: true,
					cqe: CQE{WRID: wqe.WRID, Opcode: OpWait, Status: StatusSuccess, QPN: q.qpn}})
			}
			continue
		case OpNop:
			q.sq.advance()
			q.deliverInOrder(q.nextExec(), completion{signaled: wqe.Signaled,
				cqe: CQE{WRID: wqe.WRID, Opcode: OpNop, Status: StatusSuccess, QPN: q.qpn}})
			continue
		case OpGuard:
			if !n.execGuard(q, wqe) {
				return
			}
			continue
		case OpCondRearm:
			if !n.execCondRearm(q, wqe) {
				return
			}
			continue
		default:
			gatherLen := totalSGELen(wqe.SGEs)
			if n.tracer != nil {
				n.trace("exec", q.qpn, wqe.Opcode, wqe.WRID, fmt.Sprintf("raddr=%d len=%d", wqe.RAddr, gatherLen))
			}
			q.sq.advance()
			q.sqBusy = true
			n.counters.WQEsExecuted++
			cost := n.scaledCost(n.cfg.WQEProcess + n.cfg.dmaTime(gatherLen) + q.takeDoorbellCharge())
			// Park the WQE for initiation, with SGEs copied out of the
			// table's decode scratch.
			q.initWQE, q.initSeq = wqe, q.nextExec()
			if len(wqe.SGEs) > 0 {
				q.initWQE.SGEs = q.initSGEs[:copy(q.initSGEs[:], wqe.SGEs)]
			}
			n.eng.ScheduleCallAt(n.stallStart(n.eng.Now()).Add(cost), initiateHead, q)
			return
		}
	}
}

// initiateHead is the event that ends a send queue's WQE processing: the
// WQE parked in initWQE goes on the wire and the queue moves on.
func initiateHead(a any) {
	q := a.(*QP)
	w, seq := q.initWQE, q.initSeq
	q.initWQE = WQE{}
	q.sqBusy = false
	q.nic.initiate(q, w, seq)
	q.nic.kick(q)
}

// readLocalU64 fetches the 8-byte word addressed by w.SGEs[i] from local
// registered memory.
func (n *NIC) readLocalU64(w WQE, i int) (uint64, bool) {
	if len(w.SGEs) <= i {
		return 0, false
	}
	sge := w.SGEs[i]
	mr := n.mrsByLKey[sge.LKey]
	if mr == nil || !mr.contains(int(sge.Offset), 8) {
		return 0, false
	}
	mr.read(int(sge.Offset), n.word[:])
	return le64(n.word[:]), true
}

// writeLocalU64 stores v at the location addressed by sge.
func (n *NIC) writeLocalU64(sge SGE, v uint64) bool {
	mr := n.mrsByLKey[sge.LKey]
	if mr == nil || !mr.contains(int(sge.Offset), 8) {
		return false
	}
	putLE64(n.word[:], v)
	mr.write(int(sge.Offset), n.word[:])
	return true
}

// execGuard interprets an OpGuard slot: compare the local word at SGEs[0]
// (under the ProgB mask; 0 = full word) against Imm. On match execution
// falls through; on mismatch the next ProgA slots are skipped, with skipped
// signaled slots still delivering CQEs (StatusPredFail) so downstream WAIT
// counts stay constant either way. SGEs[1], when present, receives the
// observed word — how a predicated chain exports its evidence. Returns
// false when the QP entered error state.
func (n *NIC) execGuard(q *QP, wqe WQE) bool {
	obs, ok := n.readLocalU64(wqe, 0)
	if !ok {
		q.enterError()
		return false
	}
	if len(wqe.SGEs) > 1 && !n.writeLocalU64(wqe.SGEs[1], obs) {
		q.enterError()
		return false
	}
	mask := wqe.ProgB
	if mask == 0 {
		mask = ^uint64(0)
	}
	matched := obs&mask == wqe.Imm&mask
	q.sq.advance()
	st := StatusSuccess
	if !matched {
		st = StatusPredFail
	}
	if wqe.Signaled {
		q.deliverInOrder(q.nextExec(), completion{signaled: true,
			cqe: CQE{WRID: wqe.WRID, Opcode: OpGuard, Status: st, QPN: q.qpn, Imm: obs}})
	}
	if matched {
		if n.tracer != nil {
			n.trace("prog", q.qpn, OpGuard, wqe.WRID, fmt.Sprintf("pass obs=%x", obs))
		}
		return true
	}
	n.counters.ProgBranches++
	if n.tracer != nil {
		n.trace("prog", q.qpn, OpGuard, wqe.WRID, fmt.Sprintf("skip %d obs=%x", wqe.ProgA, obs))
	}
	for s := uint64(0); s < wqe.ProgA; s++ {
		sk, ok := q.sq.peek()
		if !ok {
			break
		}
		q.sq.advance()
		if sk.Signaled {
			q.deliverInOrder(q.nextExec(), completion{signaled: true,
				cqe: CQE{WRID: sk.WRID, Opcode: sk.Opcode, Status: StatusPredFail, QPN: q.qpn}})
		}
	}
	return true
}

// execCondRearm interprets an OpCondRearm slot — the loop primitive of
// NIC-resident programs. The local word at SGEs[0] is compared (under the
// Swap mask; 0 = full word) against Imm:
//
//   - match: the loop exits. A final CQE (StatusSuccess, Imm = observed)
//     is delivered and execution branches to the exit slot (WaitCQ-1; a
//     zero WaitCQ falls through instead).
//   - mismatch with budget (the word at SGEs[1]) > 0: the budget is
//     decremented, the backoff WAIT slot (ProgB-1, if any) has its count
//     doubled (0→1, capped at that slot's Swap) against *fresh* completions
//     of its CQ, every slot in [ProgA, here] is re-armed, and the head
//     rewinds to the retry target ProgA. No CQE: retries are silent.
//   - mismatch with budget 0: as the exit case but StatusRetryExhausted.
//
// Branching re-arms ordinary slots and CLOSES flagGate slots (ownership
// cleared), so a template program parks at its gate after the exit branch
// until the host doorbells the next operation — template reuse with zero
// re-posting. Returns false when the QP entered error state.
func (n *NIC) execCondRearm(q *QP, wqe WQE) bool {
	obs, ok := n.readLocalU64(wqe, 0)
	if !ok {
		q.enterError()
		return false
	}
	mask := wqe.Swap
	if mask == 0 {
		mask = ^uint64(0)
	}
	matched := obs&mask == wqe.Imm&mask
	condIdx := q.sq.headAbs()

	// branch re-arms [target, condIdx] (gated slots close instead) and
	// rewinds the consumer.
	branch := func(target int) bool {
		if target < 0 || target > condIdx {
			q.enterError()
			return false
		}
		n.counters.ProgBranches++
		for i := target; i <= condIdx; i++ {
			if q.sq.slotFlags(i)&flagGate != 0 {
				q.sq.setSlotOwned(i, false)
			} else {
				q.sq.setSlotOwned(i, true)
			}
		}
		q.sq.rewindTo(target)
		return true
	}
	// resetBackoff rewrites the backoff WAIT slot's count and pins its CQ
	// watermark to "completions from now on", so the wait is against fresh
	// ticks rather than history.
	resetBackoff := func(count uint32) bool {
		if wqe.ProgB == 0 {
			return true
		}
		b := int(wqe.ProgB) - 1
		if b < 0 || b > condIdx {
			q.enterError()
			return false
		}
		bw := q.sq.readSlot(b)
		cq := n.cqs[bw.WaitCQ]
		if bw.Opcode != OpWait || cq == nil {
			q.enterError()
			return false
		}
		q.sq.patchSlotU32(b, offWaitCount, count)
		q.waitConsumed[bw.WaitCQ] = cq.total
		return true
	}
	final := func(st Status) {
		if !wqe.Signaled {
			return
		}
		q.deliverInOrder(q.nextExec(), completion{signaled: true,
			cqe: CQE{WRID: wqe.WRID, Opcode: OpCondRearm, Status: st, QPN: q.qpn, Imm: obs}})
	}
	exit := func(st Status) bool {
		// Restore the backoff WAIT to its encoded base count (Imm) so the
		// next use of the template starts from the configured floor.
		if wqe.ProgB != 0 {
			base := uint32(q.sq.readSlot(int(wqe.ProgB) - 1).Imm)
			if !resetBackoff(base) {
				return false
			}
		}
		if wqe.WaitCQ == 0 {
			q.sq.advance()
			final(st)
			return true
		}
		target := int(wqe.WaitCQ) - 1
		q.sq.advance() // consume before rewinding past ourselves
		// Park the program (close gates, rewind) BEFORE delivering the final
		// CQE: delivery can synchronously re-enter the host, whose next-op
		// doorbell must land on an already-closed gate — the reverse order
		// would clobber the fresh grant and strand the next operation.
		if !branch(target) {
			return false
		}
		if n.tracer != nil {
			n.trace("prog", q.qpn, OpCondRearm, wqe.WRID, fmt.Sprintf("%s obs=%x exit=%d", st, obs, target))
		}
		final(st)
		return true
	}

	if matched {
		return exit(StatusSuccess)
	}
	budget, ok := n.readLocalU64(wqe, 1)
	if !ok {
		q.enterError()
		return false
	}
	if budget == 0 {
		return exit(StatusRetryExhausted)
	}
	if !n.writeLocalU64(wqe.SGEs[1], budget-1) {
		q.enterError()
		return false
	}
	// Double the capped backoff, then loop back to the retry target.
	if wqe.ProgB != 0 {
		b := int(wqe.ProgB) - 1
		if b < 0 || b > condIdx {
			q.enterError()
			return false
		}
		bw := q.sq.readSlot(b)
		next := bw.WaitCount * 2
		if next == 0 {
			next = 1
		}
		if cap := uint32(bw.Swap); cap > 0 && next > cap {
			next = cap
		}
		if !resetBackoff(next) {
			return false
		}
	}
	target := int(wqe.ProgA)
	if !branch(target) {
		return false
	}
	if n.tracer != nil {
		n.trace("prog", q.qpn, OpCondRearm, wqe.WRID,
			fmt.Sprintf("retry obs=%x budget=%d target=%d", obs, budget-1, target))
	}
	return true
}

// gather concatenates the WQE's scatter/gather entries from local MRs into
// pkt's payload, once every entry validates. The payload lives in the
// packet's recycled buffer, which grows to the total length when short; an
// empty gather leaves the payload nil.
func (n *NIC) gather(pkt *packet, w WQE) Status {
	total := 0
	for _, sge := range w.SGEs {
		mr := n.mrsByLKey[sge.LKey]
		if mr == nil || !mr.contains(int(sge.Offset), int(sge.Length)) {
			return StatusLocalProtErr
		}
		total += int(sge.Length)
	}
	if total == 0 {
		return StatusSuccess
	}
	if cap(pkt.buf) < total {
		pkt.buf = make([]byte, total)
	}
	pkt.data = pkt.buf[:total]
	off := 0
	for _, sge := range w.SGEs {
		n.mrsByLKey[sge.LKey].read(int(sge.Offset), pkt.data[off:off+int(sge.Length)])
		off += int(sge.Length)
	}
	return StatusSuccess
}

// initiate launches one non-WAIT WQE onto the wire (or loopback path). seq
// is the WQE's execution order for in-order completion delivery.
func (n *NIC) initiate(q *QP, w WQE, seq uint64) {
	q.nextReqID++
	reqID := q.nextReqID
	pkt := n.newPacket()
	pkt.srcQPN, pkt.dstQPN, pkt.reqID = q.qpn, q.peerQPN, reqID
	st := StatusSuccess
	switch w.Opcode {
	case OpSend:
		pkt.kind, pkt.imm = pkSend, w.Imm
		st = n.gather(pkt, w)
	case OpWrite, OpWriteImm:
		pkt.kind, pkt.rkey, pkt.raddr, pkt.imm = pkWrite, w.RKey, w.RAddr, w.Imm
		if w.Opcode == OpWriteImm {
			pkt.kind = pkWriteImm
		}
		st = n.gather(pkt, w)
	case OpRead:
		pkt.kind, pkt.rkey, pkt.raddr, pkt.readLen = pkRead, w.RKey, w.RAddr, totalSGELen(w.SGEs)
	case OpCompSwap:
		pkt.kind, pkt.rkey, pkt.raddr, pkt.compare, pkt.swap = pkCAS, w.RKey, w.RAddr, w.Imm, w.Swap
	case OpMaskFAdd:
		pkt.kind, pkt.rkey, pkt.raddr = pkMaskFAdd, w.RKey, w.RAddr
		pkt.imm, pkt.swap, pkt.compare, pkt.gmask = w.Imm, w.Swap, w.ProgA, w.ProgB
	default:
		st = StatusLocalProtErr
	}
	if st != StatusSuccess {
		n.freePacket(pkt)
		q.deliverInOrder(seq, completion{signaled: w.Signaled,
			cqe: CQE{WRID: w.WRID, Opcode: w.Opcode, Status: st, QPN: q.qpn}})
		q.enterError()
		return
	}
	p := pendingReq{wrid: w.WRID, seq: seq, opcode: w.Opcode, signaled: w.Signaled}
	p.nsge = uint8(copy(p.sges[:], w.SGEs))
	q.pending[reqID] = p
	q.inFlight++
	n.transmit(q, pkt, len(pkt.data))
}

// transmit sends pkt toward q's peer, bypassing the fabric for loopback.
func (n *NIC) transmit(q *QP, pkt *packet, size int) {
	if q.loopback {
		// Local DMA path: charge receive-side processing without wire time.
		pkt.rx = n
		n.eng.ScheduleCall(n.cfg.RxProcess, rxPacket, pkt)
		return
	}
	n.net.Send(fabric.Message{From: n.node, To: q.peerNode, Size: size, Payload: pkt})
}

// rxPacket and processPacket are the static event bodies of a packet's
// receive path: the packet names its receiving NIC, so scheduling them
// captures nothing.
func rxPacket(p any) {
	pkt := p.(*packet)
	pkt.rx.handlePacket(pkt)
}

func processPacket(p any) {
	pkt := p.(*packet)
	pkt.rx.process(pkt)
}

// handleMessage is the fabric delivery hook.
func (n *NIC) handleMessage(m fabric.Message) {
	pkt, ok := m.Payload.(*packet)
	if !ok {
		panic(fmt.Sprintf("rdma: non-packet payload %T", m.Payload))
	}
	n.handlePacket(pkt)
}

// handlePacket dispatches an inbound packet after charging Rx processing
// plus payload DMA, serialized per destination QP so requests execute in
// arrival order.
func (n *NIC) handlePacket(pkt *packet) {
	cost := n.scaledCost(n.cfg.RxProcess + n.cfg.dmaTime(len(pkt.data)))
	start := n.stallStart(n.eng.Now())
	q := n.qps[pkt.dstQPN]
	if q != nil && q.rxFree > start {
		start = q.rxFree
	}
	end := start.Add(cost)
	if q != nil {
		q.rxFree = end
	}
	pkt.rx = n
	n.eng.ScheduleCallAt(end, processPacket, pkt)
}

// process executes an inbound packet. The packet and its gather buffer are
// recycled when it returns: nothing below retains them (Backing.WriteAt
// copies payload bytes, and READ response completions keep only the
// response's own data slice).
func (n *NIC) process(pkt *packet) {
	defer n.freePacket(pkt)
	q := n.qps[pkt.dstQPN]
	if q == nil {
		return // stale packet to a destroyed QP
	}
	if n.tracer != nil {
		n.trace("rx", pkt.dstQPN, 0, 0, fmt.Sprintf("%s %dB raddr=%d", pktKindName(pkt.kind), len(pkt.data), pkt.raddr))
	}
	switch pkt.kind {
	case pkSend:
		n.counters.SendsRx++
		n.recvConsume(q, pkt, pkt.data, false)
		return
	case pkWrite:
		n.counters.WritesRx++
		st := n.remoteWrite(pkt)
		n.ack(q, pkt, st)
		if st != StatusSuccess {
			q.enterError()
		}
	case pkWriteImm:
		n.counters.WritesRx++
		st := n.remoteWrite(pkt)
		if st != StatusSuccess {
			n.ack(q, pkt, st)
			q.enterError()
			return
		}
		// WRITE_IMM additionally consumes a RECV to deliver the immediate.
		n.recvConsume(q, pkt, nil, true)
	case pkRead:
		n.counters.ReadsRx++
		mr := n.mrsByRKey[pkt.rkey]
		resp := n.response(q, pkt, pkReadResp)
		switch {
		case mr == nil:
			resp.status = StatusRemoteInvalidRkey
		case mr.access&AccessRemoteRead == 0:
			resp.status = StatusRemoteAccessErr
		case !mr.contains(int(pkt.raddr), pkt.readLen):
			resp.status = StatusRemoteAccessErr
		default:
			// A READ drains the NIC's volatile cache for the region before
			// data is returned — the property gFLUSH (a 0-byte READ) is
			// built on (§4.2, "Group RDMA flush").
			n.counters.CacheFlushes++
			if pkt.readLen == 0 {
				mr.backing.Flush(0, mr.backing.Len())
			} else {
				mr.backing.Flush(int(pkt.raddr), pkt.readLen)
			}
			resp.data = make([]byte, pkt.readLen)
			mr.read(int(pkt.raddr), resp.data)
			resp.status = StatusSuccess
		}
		if resp.status != StatusSuccess {
			n.counters.AccessFaults++
		}
		// Flush cost is charged before the response leaves.
		resp.wire = len(resp.data)
		n.eng.ScheduleCall(n.cfg.CacheFlush, sendResponse, resp)
	case pkCAS:
		n.counters.AtomicsRx++
		mr := n.mrsByRKey[pkt.rkey]
		resp := n.response(q, pkt, pkCASResp)
		switch {
		case mr == nil:
			resp.status = StatusRemoteInvalidRkey
		case mr.access&AccessRemoteAtomic == 0:
			resp.status = StatusRemoteAccessErr
		case !mr.contains(int(pkt.raddr), 8):
			resp.status = StatusRemoteAccessErr
		default:
			mr.read(int(pkt.raddr), n.word[:])
			orig := le64(n.word[:])
			if orig == pkt.compare {
				putLE64(n.word[:], pkt.swap)
				mr.write(int(pkt.raddr), n.word[:])
			}
			resp.imm = orig
			resp.status = StatusSuccess
		}
		if resp.status != StatusSuccess {
			n.counters.AccessFaults++
		}
		resp.wire = 8
		n.eng.ScheduleCall(n.cfg.AtomicOp, sendResponse, resp)
	case pkMaskFAdd:
		// Masked fetch-and-add in the style of ConnectX extended atomics:
		// the addend applies only within the field mask (swap; 0 = whole
		// word), and only when the guarded bits (old & gmask) equal the
		// expected value — a reader-register that cannot race a writer.
		// The original word always returns, applied or not.
		n.counters.AtomicsRx++
		mr := n.mrsByRKey[pkt.rkey]
		resp := n.response(q, pkt, pkCASResp)
		switch {
		case mr == nil:
			resp.status = StatusRemoteInvalidRkey
		case mr.access&AccessRemoteAtomic == 0:
			resp.status = StatusRemoteAccessErr
		case !mr.contains(int(pkt.raddr), 8):
			resp.status = StatusRemoteAccessErr
		default:
			mr.read(int(pkt.raddr), n.word[:])
			orig := le64(n.word[:])
			if pkt.gmask == 0 || orig&pkt.gmask == pkt.compare {
				field := pkt.swap
				if field == 0 {
					field = ^uint64(0)
				}
				putLE64(n.word[:], (orig+pkt.imm)&field|orig&^field)
				mr.write(int(pkt.raddr), n.word[:])
			}
			resp.imm = orig
			resp.status = StatusSuccess
		}
		if resp.status != StatusSuccess {
			n.counters.AccessFaults++
		}
		resp.wire = 8
		n.eng.ScheduleCall(n.cfg.AtomicOp, sendResponse, resp)
	case pkAck:
		n.completeRequest(q, pkt, nil)
	case pkReadResp:
		n.completeRequest(q, pkt, pkt.data)
	case pkCASResp:
		orig := make([]byte, 8) // outlives pkt until in-order delivery
		putLE64(orig, pkt.imm)
		n.completeRequest(q, pkt, orig)
	}
}

// remoteWrite applies an inbound WRITE and returns its status.
func (n *NIC) remoteWrite(pkt *packet) Status {
	mr := n.mrsByRKey[pkt.rkey]
	switch {
	case mr == nil:
		n.counters.AccessFaults++
		return StatusRemoteInvalidRkey
	case mr.access&AccessRemoteWrite == 0:
		n.counters.AccessFaults++
		return StatusRemoteAccessErr
	case !mr.contains(int(pkt.raddr), len(pkt.data)):
		n.counters.AccessFaults++
		return StatusRemoteAccessErr
	}
	mr.write(int(pkt.raddr), pkt.data)
	return StatusSuccess
}

// recvConsume consumes a RECV WQE from the QP's receive queue for an
// inbound SEND (scattering data) or WRITE_IMM (immediate only).
func (n *NIC) recvConsume(q *QP, pkt *packet, data []byte, immOnly bool) {
	rwqe, ok := q.rq.peek()
	if !ok {
		n.counters.RNRs++
		n.ack(q, pkt, StatusRNR)
		q.enterError()
		return
	}
	q.rq.advance()
	status := StatusSuccess
	if !immOnly {
		// Scatter from a copy of the SGEs: the writes can re-kick queues,
		// and a nested decode on this table would overwrite rwqe's.
		var sges [MaxSGE]SGE
		var left int
		status, left = n.scatter(sges[:copy(sges[:], rwqe.SGEs)], data)
		if status == StatusSuccess && left > 0 {
			status = StatusLengthErr
		}
	}
	byteLen := len(data)
	if immOnly {
		byteLen = len(pkt.data)
	}
	q.recvCQ.push(CQE{
		WRID:    rwqe.WRID,
		Opcode:  OpRecv,
		Status:  status,
		QPN:     q.qpn,
		Imm:     pkt.imm,
		ByteLen: byteLen,
	})
	n.ack(q, pkt, status)
	if status != StatusSuccess {
		q.enterError()
	}
}

// scatter writes data across sges in order, stopping when data runs out.
// It returns StatusLocalProtErr on a bad entry, and the count of bytes the
// entries had no room for.
func (n *NIC) scatter(sges []SGE, data []byte) (Status, int) {
	remaining := data
	for _, sge := range sges {
		if len(remaining) == 0 {
			break
		}
		mr := n.mrsByLKey[sge.LKey]
		if mr == nil || !mr.contains(int(sge.Offset), min(int(sge.Length), len(remaining))) {
			return StatusLocalProtErr, len(remaining)
		}
		chunk := remaining
		if len(chunk) > int(sge.Length) {
			chunk = chunk[:sge.Length]
		}
		mr.write(int(sge.Offset), chunk)
		remaining = remaining[len(chunk):]
	}
	return StatusSuccess, len(remaining)
}

// response starts the response packet of kind to request req on q.
func (n *NIC) response(q *QP, req *packet, kind packetKind) *packet {
	resp := n.newPacket()
	resp.kind, resp.dstQPN, resp.reqID, resp.from = kind, req.srcQPN, req.reqID, q
	return resp
}

// ack answers request req on q at once with an empty acknowledgement.
func (n *NIC) ack(q *QP, req *packet, st Status) {
	resp := n.response(q, req, pkAck)
	resp.status = st
	n.transmit(q, resp, 0)
}

// sendResponse is the event that sends a READ or atomic response once its
// execution cost has been charged.
func sendResponse(p any) {
	resp := p.(*packet)
	resp.from.nic.transmit(resp.from, resp, resp.wire)
}

// maxFreePackets bounds each NIC's packet free list, and maxPooledPayload
// the gather buffer a free packet keeps.
const (
	maxFreePackets   = 64
	maxPooledPayload = 4096
)

// newPacket takes a zeroed packet from the NIC's free list. Packets are
// freed by the NIC that receives them; since every request is answered,
// each NIC frees about as many as it takes.
func (n *NIC) newPacket() *packet {
	if k := len(n.freePkts); k > 0 {
		p := n.freePkts[k-1]
		n.freePkts = n.freePkts[:k-1]
		return p
	}
	return new(packet)
}

// freePacket recycles a packet whose receive processing has finished.
func (n *NIC) freePacket(p *packet) {
	if len(n.freePkts) >= maxFreePackets {
		return
	}
	buf := p.buf
	*p = packet{}
	if cap(buf) <= maxPooledPayload {
		p.buf = buf[:0]
	}
	n.freePkts = append(n.freePkts, p)
}

// completeRequest matches a response to its pending request and raises the
// requester-side completion.
func (n *NIC) completeRequest(q *QP, pkt *packet, scatter []byte) {
	p, ok := q.pending[pkt.reqID]
	if !ok {
		return // duplicate or post-error response
	}
	delete(q.pending, pkt.reqID)
	q.inFlight--
	c := completion{
		signaled: p.signaled,
		cqe:      CQE{WRID: p.wrid, Opcode: p.opcode, Status: pkt.status, QPN: q.qpn, ByteLen: len(scatter)},
		response: true,
		scatter:  scatter,
		nsge:     p.nsge,
		sges:     p.sges,
	}
	if (p.opcode == OpCompSwap || p.opcode == OpMaskFAdd) && len(scatter) == 8 {
		c.cqe.Imm = le64(scatter)
	}
	q.deliverInOrder(p.seq, c)
}

func totalSGELen(sges []SGE) int {
	n := 0
	for _, s := range sges {
		n += int(s.Length)
	}
	return n
}

func pktKindName(k packetKind) string {
	switch k {
	case pkSend:
		return "SEND"
	case pkWrite:
		return "WRITE"
	case pkWriteImm:
		return "WRITE_IMM"
	case pkRead:
		return "READ"
	case pkCAS:
		return "CAS"
	case pkMaskFAdd:
		return "MASK_FADD"
	case pkAck:
		return "ACK"
	case pkReadResp:
		return "READ_RESP"
	case pkCASResp:
		return "CAS_RESP"
	default:
		return "?"
	}
}

func le64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putLE64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// DestroyQP tears a queue pair down: pending work flushes with errors,
// future posts fail, and late inbound packets are dropped. The chain
// manager uses this when decommissioning a failed member's connections.
func (n *NIC) DestroyQP(q *QP) {
	if q == nil || n.qps[q.qpn] != q {
		return
	}
	q.enterError()
	delete(n.qps, q.qpn)
}
