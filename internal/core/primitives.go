package core

import (
	"fmt"

	"hyperloop/internal/rdma"
)

// sendBatch issues the first n waiting ops on channel c as one fused
// posting: each op's per-replica descriptor images (the "metadata" of §4.1,
// pre-calculated by the client) are staged, then every op's client-side work
// requests post back to back with a single doorbell (rdma.PostSendBatch).
// Everything after this — per-hop execution, forwarding, flushing, the tail
// ack — happens on NICs. A batch of one is the legacy issue path with
// identical timing when no DoorbellCost is configured.
func (c *channel) sendBatch(n int) {
	s := takeScratch()
	defer putScratch(s)
	for i := 0; i < n; i++ {
		o := popOp(&c.waiting)
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
		c.clientWQEs(s, o)
	}
	if c.g.failed != nil || len(s.down) == 0 {
		return
	}
	if _, err := c.cliQP.PostSendBatch(s.down); err != nil {
		c.g.fail(fmt.Errorf("%w: client post %s: %v", ErrGroupFailed, c.kind, err))
		return
	}
	if n > 1 {
		c.g.fusedBatches++
		c.g.fusedOps += uint64(n)
	}
}

// clientWQEs appends op o's client-side work requests to s.down and stages
// its metadata message in the outgoing ring slot for seq o.seq.
func (c *channel) clientWQEs(s *postScratch, o *op) {
	k := int(o.seq)
	s.msg = c.buildMetadata(s.msg[:0], o, k)
	slotOff := (k % c.g.cfg.Depth) * c.msgHead
	if len(s.msg) > 0 {
		c.cliStaging.Backing().WriteAt(slotOff, s.msg)
	}
	head := c.g.replicas[0]
	var metaSGE []rdma.SGE
	if c.msgHead > 0 {
		metaSGE = s.sgeList(rdma.SGE{LKey: c.cliStaging.LKey(), Offset: uint64(slotOff), Length: uint32(c.msgHead)})
	}
	switch c.kind {
	case chWrite:
		s.down = append(s.down, rdma.WQE{
			Opcode: rdma.OpWrite, Signaled: true, WRID: o.seq,
			RKey: head.Store.RKey(), RAddr: uint64(o.off),
			SGEs: s.sgeList(rdma.SGE{LKey: c.g.client.Store.LKey(), Offset: uint64(o.off), Length: uint32(o.size)}),
		})
		if o.durable {
			// gFLUSH interleave: drain the head replica's NIC cache before
			// the metadata SEND triggers its forward.
			s.down = append(s.down, rdma.WQE{Opcode: rdma.OpRead, Signaled: true, WRID: o.seq, RKey: head.Store.RKey()})
		}
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq, SGEs: metaSGE})
	case chCAS, chMemcpy, chWriteIf:
		s.down = append(s.down, rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq, SGEs: metaSGE})
	case chLoop:
		// gATOMIC_LOOP never builds per-op client WQEs: its template is
		// pre-posted and issueLoop patches + doorbells it instead.
		panic("core: gATOMIC_LOOP must issue through the template program")
	case chFlush:
		s.down = append(s.down,
			rdma.WQE{Opcode: rdma.OpRead, Signaled: true, WRID: o.seq, RKey: head.Store.RKey()},
			rdma.WQE{Opcode: rdma.OpSend, Signaled: true, WRID: o.seq})
	default:
		panic("core: unknown channel kind")
	}
}

// buildMetadata appends to msg the message entering hop 0: the
// concatenated descriptor images each hop's RECV will peel into its own
// queue slots, plus (for gCAS) the result map.
func (c *channel) buildMetadata(msg []byte, o *op, k int) []byte {
	n := len(c.hops)
	start := len(msg)
	switch c.kind {
	case chWrite:
		for i := 0; i < n-1; i++ {
			msg = c.writeImage(msg, i, o, k)
			msg = c.flushImage(msg, i+1, o)
		}
	case chCAS:
		for i := 0; i < n; i++ {
			msg = c.casImage(msg, i, o, k)
		}
		msg = appendSentinelMap(msg, n)
	case chLoop:
		for i := 0; i < n; i++ {
			msg = c.loopImage(msg, i, o, k)
		}
		msg = appendSentinelMap(msg, n)
	case chWriteIf:
		for i := 0; i < n; i++ {
			msg = c.guardImage(msg, i, o, k)
			msg = c.writeIfImage(msg, i, o, k)
		}
		// Carried payload: the client host copies the bytes out of its
		// store into the chain message (bounded by PredPayloadCap).
		pay := len(msg)
		msg = append(msg, make([]byte, c.g.cfg.PredPayloadCap)...)
		c.g.client.Store.Backing().ReadAt(o.off, msg[pay:pay+o.size])
		msg = appendSentinelMap(msg, n)
	case chMemcpy:
		for i := 0; i < n; i++ {
			msg = c.memcpyImage(msg, i, o, k)
			msg = c.selfFlushImage(msg, i, o)
		}
	case chFlush:
		// No images: the chain is fully pre-posted.
	}
	if len(msg)-start != c.msgHead {
		panic(fmt.Sprintf("core: %s metadata %dB, geometry says %dB", c.kind, len(msg)-start, c.msgHead))
	}
	return msg
}

// appendImage appends w's encoded slot image to dst.
func appendImage(dst []byte, w *rdma.WQE) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, rdma.SlotSize)...)
	w.Encode(dst[n:])
	return dst
}

// writeImage is hop i's forwarding WRITE: gather the freshly-replicated
// bytes from its own store and write them to hop i+1's store at the same
// offset.
func (c *channel) writeImage(dst []byte, i int, o *op, k int) []byte {
	self := c.g.replicas[i]
	next := c.g.replicas[i+1]
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: next.Store.RKey(), RAddr: uint64(o.off),
		SGEs: []rdma.SGE{{LKey: self.Store.LKey(), Offset: uint64(o.off), Length: uint32(o.size)}},
	})
}

// flushImage is the interleaved gFLUSH toward replica j's store (a 0-byte
// READ), or a signaled NOP when the op is not durable.
func (c *channel) flushImage(dst []byte, j int, o *op) []byte {
	if !o.durable {
		return nopImage(dst)
	}
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpRead, Signaled: true, HWOwned: true,
		RKey: c.g.replicas[j].Store.RKey(),
	})
}

// selfFlushImage drains hop i's own store via its loopback QP.
func (c *channel) selfFlushImage(dst []byte, i int, o *op) []byte {
	if !o.durable {
		return nopImage(dst)
	}
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpRead, Signaled: true, HWOwned: true,
		RKey: c.g.replicas[i].Store.RKey(),
	})
}

// casImage is hop i's local compare-and-swap (or NOP when the execute map
// skips it). The original value scatters into the hop's staging result
// field so the chain accumulates the result map (§4.2, Figure 6).
func (c *channel) casImage(dst []byte, i int, o *op, k int) []byte {
	if !o.exec.Has(i) {
		return nopImage(dst)
	}
	self := c.g.replicas[i]
	resOff := c.stagingOff(i, k) + c.resultFieldOff(i)
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpCompSwap, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: self.Store.RKey(), RAddr: uint64(o.off),
		Imm: o.casOld, Swap: o.casNew,
		SGEs: []rdma.SGE{{LKey: c.hops[i].staging.LKey(), Offset: uint64(resOff), Length: 8}},
	})
}

// resultFieldOff locates replica i's result slot within its staging area:
// after the images it forwards (and, for gWRITE_IF, the carried payload),
// 8 bytes per preceding replica.
func (c *channel) resultFieldOff(i int) int {
	n := len(c.hops)
	off := (n - 1 - i) * c.manipLen
	if c.kind == chWriteIf {
		off += c.g.cfg.PredPayloadCap
	}
	return off + 8*i
}

// appendSentinelMap appends an n-entry result map filled with
// CASNotExecuted.
func appendSentinelMap(dst []byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
		putLE64(dst[len(dst)-8:], CASNotExecuted)
	}
	return dst
}

// memcpyImage is hop i's NIC-local copy from srcOff to dstOff within its
// own store, issued over the loopback QP (§4.2, Figure 7).
func (c *channel) memcpyImage(dst []byte, i int, o *op, k int) []byte {
	self := c.g.replicas[i]
	return appendImage(dst, &rdma.WQE{
		Opcode: rdma.OpWrite, Signaled: true, HWOwned: true, WRID: uint64(k),
		RKey: self.Store.RKey(), RAddr: uint64(o.off),
		SGEs: []rdma.SGE{{LKey: self.Store.LKey(), Offset: uint64(o.src), Length: uint32(o.size)}},
	})
}

func nopImage(dst []byte) []byte {
	return appendImage(dst, &rdma.WQE{Opcode: rdma.OpNop, Signaled: true, HWOwned: true})
}
