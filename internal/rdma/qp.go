package rdma

import (
	"cmp"
	"fmt"
	"slices"

	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// QPState tracks queue-pair health.
type QPState uint8

// Queue pair states (reduced from the verbs state machine: a created QP is
// ready once connected, and any protection or RNR fault moves it to error).
const (
	QPCreated QPState = iota
	QPReady
	QPError
)

func (s QPState) String() string {
	switch s {
	case QPCreated:
		return "created"
	case QPReady:
		return "ready"
	case QPError:
		return "error"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// pendingReq tracks an initiated request awaiting its remote response. It
// stays within 128 bytes, so the pending map stores it inline.
type pendingReq struct {
	wrid     uint64
	seq      uint64 // execution order for in-order completion delivery
	opcode   Opcode
	signaled bool
	nsge     uint8
	sges     [MaxSGE]SGE // where a READ or atomic response scatters
}

// QP is a queue pair. Its send and receive queues are WQETables whose slots
// live in registered memory; HyperLoop group setup shares the send table's
// rkey so that upstream nodes can rewrite pre-posted descriptors.
type QP struct {
	qpn    uint32
	nic    *NIC
	sq     *WQETable
	rq     *WQETable
	sendCQ *CQ
	recvCQ *CQ
	state  QPState

	peerNode fabric.NodeID
	peerQPN  uint32
	loopback bool

	sqBusy       bool
	dbPending    int               // doorbell rings not yet charged into a WQE initiation
	waiting      bool              // head WAIT registered with a CQ
	waitConsumed map[uint32]uint64 // cumulative completions consumed per CQ
	pending      map[uint64]pendingReq
	nextReqID    uint64
	inFlight     int

	// Send-side completions are delivered strictly in WQE order, as real
	// RC queue pairs guarantee: a fast op (NOP, local atomic) posted after
	// a slower in-flight one must not surface its CQE first — HyperLoop's
	// WAIT chains depend on this. reorder parks completions by execution
	// sequence (slot seq & (len-1)) until every earlier one has delivered.
	execSeq    uint64
	deliverSeq uint64
	reorder    []completion

	// The WQE whose initiation is scheduled (sqBusy), its SGEs and its
	// execution sequence: at most one per send queue is in flight.
	initWQE  WQE
	initSGEs [MaxSGE]SGE
	initSeq  uint64

	// rxFree serializes responder-side processing: inbound requests on a
	// QP execute in arrival (PSN) order, so a cheap request (0-byte READ)
	// cannot overtake an expensive one (large WRITE DMA) — gFLUSH's
	// flush-after-write guarantee depends on this.
	rxFree sim.Time
}

// completion is one send-side completion awaiting in-order delivery.
type completion struct {
	ready    bool
	signaled bool // push cqe to the send CQ
	cqe      CQE
	// A response completion first scatters returned data (READ and atomic
	// responses) into the request's SGEs, and faults the QP if the
	// response or the scatter failed.
	response bool
	scatter  []byte
	nsge     uint8
	sges     [MaxSGE]SGE
}

// deliverInOrder delivers c as the completion of execution sequence seq
// once all earlier send-side completions of this QP have been delivered.
func (q *QP) deliverInOrder(seq uint64, c completion) {
	if seq-q.deliverSeq >= uint64(len(q.reorder)) {
		q.growReorder(seq - q.deliverSeq + 1)
	}
	c.ready = true
	q.reorder[seq&uint64(len(q.reorder)-1)] = c
	for {
		slot := &q.reorder[q.deliverSeq&uint64(len(q.reorder)-1)]
		if !slot.ready {
			return
		}
		next := *slot
		*slot = completion{}
		q.deliverSeq++
		q.deliver(next)
	}
}

// nextExec claims the next execution sequence number.
func (q *QP) nextExec() uint64 {
	seq := q.execSeq
	q.execSeq++
	return seq
}

// growReorder resizes the reorder ring to a power of two holding at least
// span sequences from deliverSeq on. Its size tracks the most completions
// ever outstanding on the QP.
func (q *QP) growReorder(span uint64) {
	size := uint64(max(len(q.reorder), 4))
	for size < span {
		size *= 2
	}
	grown := make([]completion, size)
	if old := uint64(len(q.reorder)); old > 0 {
		for s := q.deliverSeq; s < q.deliverSeq+old; s++ {
			grown[s&(size-1)] = q.reorder[s&(old-1)]
		}
	}
	q.reorder = grown
}

// deliver raises one completion on the send CQ.
func (q *QP) deliver(c completion) {
	if !c.response {
		if c.signaled {
			q.sendCQ.push(c.cqe)
		}
		return
	}
	if c.cqe.Status == StatusSuccess && c.scatter != nil && c.nsge > 0 {
		c.cqe.Status, _ = q.nic.scatter(c.sges[:c.nsge], c.scatter)
	}
	if c.signaled {
		q.sendCQ.push(c.cqe)
	}
	if c.cqe.Status != StatusSuccess {
		q.enterError()
	}
}

// QPN returns the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// State returns the queue pair state.
func (q *QP) State() QPState { return q.state }

// SendCQ returns the CQ receiving send-side completions.
func (q *QP) SendCQ() *CQ { return q.sendCQ }

// RecvCQ returns the CQ receiving receive-side completions.
func (q *QP) RecvCQ() *CQ { return q.recvCQ }

// SQTable exposes the send queue's slot table (registered memory) for
// HyperLoop's descriptor manipulation.
func (q *QP) SQTable() *WQETable { return q.sq }

// RQTable exposes the receive queue's slot table.
func (q *QP) RQTable() *WQETable { return q.rq }

// NIC returns the owning NIC.
func (q *QP) NIC() *NIC { return q.nic }

// PostOption modifies posting behaviour.
type PostOption uint8

// Posting options.
const (
	// HoldOwnership posts the WQE host-owned: the NIC stalls at it until
	// ownership is granted — either locally via Doorbell or remotely by a
	// write that sets the ownership flag (HyperLoop metadata scatter).
	// This models the paper's libmlx4 modification (§4.1).
	HoldOwnership PostOption = 1 << iota
	// RawOwnership takes each WQE's HWOwned field as the caller set it
	// instead of forcing it. PostSendBatch callers use it to fuse chains
	// that mix armed descriptors (WAIT, SEND) with held placeholders.
	RawOwnership
)

// ring records one doorbell: the counter ticks, and when the NIC charges a
// per-ring cost it accrues against the next WQE this send queue initiates.
func (q *QP) ring() {
	q.nic.counters.Doorbells++
	if q.nic.cfg.DoorbellCost > 0 {
		q.dbPending++
	}
	q.nic.kick(q)
}

// takeDoorbellCharge drains the accrued per-ring cost for the WQE now being
// initiated.
func (q *QP) takeDoorbellCharge() sim.Duration {
	if q.dbPending == 0 {
		return 0
	}
	d := sim.Duration(q.dbPending) * q.nic.cfg.DoorbellCost
	q.dbPending = 0
	return d
}

// PostSend appends a work request to the send queue and kicks the NIC.
// It returns the absolute slot index (use SQTable().SlotOffset to derive
// the byte offset remote manipulators must target).
func (q *QP) PostSend(w WQE, opts ...PostOption) (int, error) {
	if q.state == QPError {
		return 0, ErrQPState
	}
	if len(w.SGEs) > MaxSGE {
		return 0, ErrTooManySGEs
	}
	raw := false
	for _, o := range opts {
		if o&RawOwnership != 0 {
			raw = true
		}
	}
	if !raw {
		w.HWOwned = true
		for _, o := range opts {
			if o&HoldOwnership != 0 {
				w.HWOwned = false
			}
		}
	}
	idx, err := q.sq.post(&w)
	if err != nil {
		return 0, err
	}
	q.ring()
	return idx, nil
}

// PostSendBatch appends a run of work requests and rings the doorbell once
// for the whole run — the multi-op fusion path (Storm-style): N descriptors
// written back to back, one MMIO kick, so any configured DoorbellCost is
// paid once instead of N times. Options apply to every WQE in the batch.
// On a mid-batch post failure the already-posted prefix stays posted (and
// rung) and the error is returned; the caller sees which index failed.
func (q *QP) PostSendBatch(ws []WQE, opts ...PostOption) (first int, err error) {
	if q.state == QPError {
		return 0, ErrQPState
	}
	hwOwned, raw := true, false
	for _, o := range opts {
		if o&HoldOwnership != 0 {
			hwOwned = false
		}
		if o&RawOwnership != 0 {
			raw = true
		}
	}
	first = -1
	posted := 0
	for _, w := range ws {
		if len(w.SGEs) > MaxSGE {
			err = ErrTooManySGEs
			break
		}
		if !raw {
			w.HWOwned = hwOwned
		}
		var idx int
		idx, err = q.sq.post(&w)
		if err != nil {
			break
		}
		if first < 0 {
			first = idx
		}
		posted++
	}
	if posted > 0 {
		q.ring()
	}
	if err != nil {
		return first, fmt.Errorf("rdma: batch post failed at wqe %d: %w", posted, err)
	}
	return first, nil
}

// PostRecv appends a receive request. Its SGEs say where inbound SEND
// payloads scatter — in HyperLoop, directly into WQE table slots and
// metadata staging regions.
func (q *QP) PostRecv(w WQE) (int, error) {
	if q.state == QPError {
		return 0, ErrQPState
	}
	if len(w.SGEs) > MaxSGE {
		return 0, ErrTooManySGEs
	}
	w.Opcode = OpRecv
	w.HWOwned = true
	return q.rq.post(&w)
}

// Doorbell grants NIC ownership of the send-queue slot at absolute index
// idx (sets the ownership flag in the encoded image) and kicks the queue.
// This is what the modified driver does after the host finishes editing a
// held descriptor.
func (q *QP) Doorbell(idx int) {
	// Bookkeeping first: the flag write below re-kicks the queue via the
	// table region's onWrite hook, and the ring charge must be visible to
	// that evaluation.
	q.nic.counters.Doorbells++
	if q.nic.cfg.DoorbellCost > 0 {
		q.dbPending++
	}
	q.sq.setSlotOwned(idx, true)
	q.nic.kick(q)
}

// enterError transitions the QP to error state and flushes outstanding
// work with StatusFlushErr completions, in execution order: in-flight
// requests first, then the unexecuted send queue.
func (q *QP) enterError() {
	if q.state == QPError {
		return
	}
	q.state = QPError
	inflight := make([]pendingReq, 0, len(q.pending))
	for id, p := range q.pending {
		delete(q.pending, id)
		inflight = append(inflight, p)
	}
	slices.SortFunc(inflight, func(a, b pendingReq) int { return cmp.Compare(a.seq, b.seq) })
	for _, p := range inflight {
		if p.signaled {
			q.sendCQ.push(CQE{WRID: p.wrid, Opcode: p.opcode, Status: StatusFlushErr, QPN: q.qpn})
		}
	}
	for {
		wqe, ok := q.sq.peek()
		if !ok {
			break
		}
		q.sq.advance()
		if wqe.Signaled {
			q.sendCQ.push(CQE{WRID: wqe.WRID, Opcode: wqe.Opcode, Status: StatusFlushErr, QPN: q.qpn})
		}
	}
	for {
		wqe, ok := q.rq.peek()
		if !ok {
			break
		}
		q.rq.advance()
		q.recvCQ.push(CQE{WRID: wqe.WRID, Opcode: OpRecv, Status: StatusFlushErr, QPN: q.qpn})
	}
}
