package rdma

import (
	"bytes"
	"testing"
	"testing/quick"

	"hyperloop/internal/fabric"
	"hyperloop/internal/nvm"
	"hyperloop/internal/sim"
)

// rig wires two NICs over a fabric with one connected QP pair.
type rig struct {
	eng      *sim.Engine
	net      *fabric.Network
	na, nb   *NIC
	qa, qb   *QP
	acq, bcq *CQ // send CQs
	arq, brq *CQ // recv CQs
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine()
	net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(1))
	na := NewNIC(eng, net, Config{})
	nb := NewNIC(eng, net, Config{})
	r := &rig{eng: eng, net: net, na: na, nb: nb}
	r.acq, r.arq = na.CreateCQ(), na.CreateCQ()
	r.bcq, r.brq = nb.CreateCQ(), nb.CreateCQ()
	r.qa = na.CreateQP(r.acq, r.arq, 64, 64)
	r.qb = nb.CreateQP(r.bcq, r.brq, 64, 64)
	Connect(r.qa, r.qb)
	return r
}

func TestWriteReadRemote(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(1024, AccessLocalWrite)
	dst := r.nb.RegisterRAM(1024, AccessRemoteWrite|AccessRemoteRead)
	copy(src.Backing().(*RAMBacking).Bytes(), "hyperloop-data")

	if _, err := r.qa.PostSend(WQE{
		Opcode: OpWrite, Signaled: true, WRID: 1,
		RKey: dst.RKey(), RAddr: 100,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 14}},
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	cqes := r.acq.Poll(10)
	if len(cqes) != 1 || cqes[0].Status != StatusSuccess || cqes[0].WRID != 1 {
		t.Fatalf("write completion: %+v", cqes)
	}
	got := make([]byte, 14)
	dst.Backing().ReadAt(100, got)
	if string(got) != "hyperloop-data" {
		t.Fatalf("remote memory = %q", got)
	}

	// READ it back into a separate local buffer.
	rbuf := r.na.RegisterRAM(64, AccessLocalWrite)
	if _, err := r.qa.PostSend(WQE{
		Opcode: OpRead, Signaled: true, WRID: 2,
		RKey: dst.RKey(), RAddr: 100,
		SGEs: []SGE{{LKey: rbuf.LKey(), Offset: 0, Length: 14}},
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	cqes = r.acq.Poll(10)
	if len(cqes) != 1 || cqes[0].Status != StatusSuccess {
		t.Fatalf("read completion: %+v", cqes)
	}
	got = make([]byte, 14)
	rbuf.Backing().ReadAt(0, got)
	if string(got) != "hyperloop-data" {
		t.Fatalf("read-back = %q", got)
	}
}

func TestSendRecv(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(256, 0)
	dst := r.nb.RegisterRAM(256, AccessLocalWrite)
	copy(src.Backing().(*RAMBacking).Bytes(), "ping")

	if _, err := r.qb.PostRecv(WQE{WRID: 7, SGEs: []SGE{{LKey: dst.LKey(), Offset: 10, Length: 100}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.qa.PostSend(WQE{
		Opcode: OpSend, Signaled: true, WRID: 3, Imm: 42,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}},
	}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	rc := r.brq.Poll(10)
	if len(rc) != 1 || rc[0].Status != StatusSuccess || rc[0].WRID != 7 || rc[0].Imm != 42 || rc[0].ByteLen != 4 {
		t.Fatalf("recv completion: %+v", rc)
	}
	got := make([]byte, 4)
	dst.Backing().ReadAt(10, got)
	if string(got) != "ping" {
		t.Fatalf("scattered data = %q", got)
	}
	sc := r.acq.Poll(10)
	if len(sc) != 1 || sc[0].Status != StatusSuccess {
		t.Fatalf("send completion: %+v", sc)
	}
}

func TestRecvMultiSGEScatter(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(256, 0)
	d1 := r.nb.RegisterRAM(8, AccessLocalWrite)
	d2 := r.nb.RegisterRAM(256, AccessLocalWrite)
	copy(src.Backing().(*RAMBacking).Bytes(), "aaaabbbbccccdddd")

	r.qb.PostRecv(WQE{SGEs: []SGE{
		{LKey: d1.LKey(), Offset: 0, Length: 8},
		{LKey: d2.LKey(), Offset: 4, Length: 100},
	}})
	r.qa.PostSend(WQE{Opcode: OpSend, Signaled: true,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 16}}})
	r.eng.Drain()
	b1 := make([]byte, 8)
	d1.Backing().ReadAt(0, b1)
	b2 := make([]byte, 8)
	d2.Backing().ReadAt(4, b2)
	if string(b1) != "aaaabbbb" || string(b2) != "ccccdddd" {
		t.Fatalf("multi-sge scatter: %q %q", b1, b2)
	}
}

func TestWriteWithImmConsumesRecv(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, 0)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	copy(src.Backing().(*RAMBacking).Bytes(), "ackdata")

	r.qb.PostRecv(WQE{WRID: 99})
	r.qa.PostSend(WQE{
		Opcode: OpWriteImm, Signaled: true, Imm: 1234,
		RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 7}},
	})
	r.eng.Drain()
	rc := r.brq.Poll(10)
	if len(rc) != 1 || rc[0].Imm != 1234 || rc[0].WRID != 99 || rc[0].ByteLen != 7 {
		t.Fatalf("write_imm recv completion: %+v", rc)
	}
	got := make([]byte, 7)
	dst.Backing().ReadAt(0, got)
	if string(got) != "ackdata" {
		t.Fatalf("write_imm payload = %q", got)
	}
}

func TestCompareAndSwap(t *testing.T) {
	r := newRig(t)
	lockMR := r.nb.RegisterRAM(64, AccessRemoteAtomic)
	res := r.na.RegisterRAM(8, AccessLocalWrite)

	// CAS 0 -> 5 succeeds; original value 0 scattered back.
	r.qa.PostSend(WQE{
		Opcode: OpCompSwap, Signaled: true, WRID: 1,
		RKey: lockMR.RKey(), RAddr: 0, Imm: 0, Swap: 5,
		SGEs: []SGE{{LKey: res.LKey(), Offset: 0, Length: 8}},
	})
	r.eng.Drain()
	c := r.acq.Poll(1)
	if len(c) != 1 || c[0].Status != StatusSuccess || c[0].Imm != 0 {
		t.Fatalf("cas completion: %+v", c)
	}
	var cur [8]byte
	lockMR.Backing().ReadAt(0, cur[:])
	if le64(cur[:]) != 5 {
		t.Fatalf("lock word = %d, want 5", le64(cur[:]))
	}

	// Second CAS 0 -> 9 fails (value is 5); word unchanged, original
	// returned.
	r.qa.PostSend(WQE{
		Opcode: OpCompSwap, Signaled: true, WRID: 2,
		RKey: lockMR.RKey(), RAddr: 0, Imm: 0, Swap: 9,
		SGEs: []SGE{{LKey: res.LKey(), Offset: 0, Length: 8}},
	})
	r.eng.Drain()
	c = r.acq.Poll(1)
	if len(c) != 1 || c[0].Imm != 5 {
		t.Fatalf("cas-miss completion: %+v", c)
	}
	lockMR.Backing().ReadAt(0, cur[:])
	if le64(cur[:]) != 5 {
		t.Fatalf("lock word mutated on miss: %d", le64(cur[:]))
	}
}

func TestWaitTriggersQueuedOps(t *testing.T) {
	// The CORE-Direct pattern (paper Figure 4): a WAIT at the head of B's
	// send queue toward a third node fires only when B's recv CQ gets a
	// completion, with no host code running on B.
	eng := sim.NewEngine()
	net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(1))
	na, nb, nc := NewNIC(eng, net, Config{}), NewNIC(eng, net, Config{}), NewNIC(eng, net, Config{})

	// a -> b QP pair.
	acq, arq := na.CreateCQ(), na.CreateCQ()
	bcq, brq := nb.CreateCQ(), nb.CreateCQ()
	qab := na.CreateQP(acq, arq, 16, 16)
	qba := nb.CreateQP(bcq, brq, 16, 16)
	Connect(qab, qba)
	// b -> c QP pair.
	bcq2, brq2 := nb.CreateCQ(), nb.CreateCQ()
	ccq, crq := nc.CreateCQ(), nc.CreateCQ()
	qbc := nb.CreateQP(bcq2, brq2, 16, 16)
	qcb := nc.CreateQP(ccq, crq, 16, 16)
	Connect(qbc, qcb)

	bBuf := nb.RegisterRAM(256, AccessLocalWrite)
	cBuf := nc.RegisterRAM(256, AccessRemoteWrite)
	aBuf := na.RegisterRAM(256, 0)
	copy(aBuf.Backing().(*RAMBacking).Bytes(), "chained!")

	// B pre-posts: RECV on qba; WAIT + WRITE on qbc.
	qba.PostRecv(WQE{SGEs: []SGE{{LKey: bBuf.LKey(), Offset: 0, Length: 64}}})
	qbc.PostSend(WQE{Opcode: OpWait, WaitCQ: brq.ID(), WaitCount: 1})
	qbc.PostSend(WQE{
		Opcode: OpWrite, Signaled: true,
		RKey: cBuf.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: bBuf.LKey(), Offset: 0, Length: 8}},
	})
	eng.Drain()
	// Nothing should have reached C yet.
	probe := make([]byte, 8)
	cBuf.Backing().ReadAt(0, probe)
	if !bytes.Equal(probe, make([]byte, 8)) {
		t.Fatal("WAIT fired before its CQ condition")
	}

	// A sends to B; the recv completion fires the WAIT which fires the
	// WRITE to C.
	qab.PostSend(WQE{Opcode: OpSend, Signaled: true,
		SGEs: []SGE{{LKey: aBuf.LKey(), Offset: 0, Length: 8}}})
	eng.Drain()
	cBuf.Backing().ReadAt(0, probe)
	if string(probe) != "chained!" {
		t.Fatalf("chained write = %q", probe)
	}
}

func TestWaitCountAccumulates(t *testing.T) {
	// A WAIT with count 2 must not fire after a single completion.
	r := newRig(t)
	src := r.na.RegisterRAM(64, 0)
	sink := r.nb.RegisterRAM(64, AccessLocalWrite)
	flag := r.na.RegisterRAM(64, AccessRemoteWrite)

	// B: two RECVs; then WAIT(2) + WRITE back to A's flag region on the
	// same QP pair (qb's send side).
	r.qb.PostRecv(WQE{SGEs: []SGE{{LKey: sink.LKey(), Offset: 0, Length: 4}}})
	r.qb.PostRecv(WQE{SGEs: []SGE{{LKey: sink.LKey(), Offset: 4, Length: 4}}})
	r.qb.PostSend(WQE{Opcode: OpWait, WaitCQ: r.brq.ID(), WaitCount: 2})
	r.qb.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: flag.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: sink.LKey(), Offset: 0, Length: 8}}})

	copy(src.Backing().(*RAMBacking).Bytes(), "ab")
	r.qa.PostSend(WQE{Opcode: OpSend, SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 1}}})
	r.eng.Drain()
	probe := make([]byte, 1)
	flag.Backing().ReadAt(0, probe)
	if probe[0] != 0 {
		t.Fatal("WAIT(2) fired after one completion")
	}
	r.qa.PostSend(WQE{Opcode: OpSend, SGEs: []SGE{{LKey: src.LKey(), Offset: 1, Length: 1}}})
	r.eng.Drain()
	flag.Backing().ReadAt(0, probe)
	if probe[0] == 0 {
		t.Fatal("WAIT(2) never fired after two completions")
	}
}

func TestHoldOwnershipStallsUntilDoorbell(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, 0)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	copy(src.Backing().(*RAMBacking).Bytes(), "held")

	idx, err := r.qa.PostSend(WQE{
		Opcode: OpWrite, Signaled: true,
		RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}},
	}, HoldOwnership)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	probe := make([]byte, 4)
	dst.Backing().ReadAt(0, probe)
	if !bytes.Equal(probe, make([]byte, 4)) {
		t.Fatal("host-owned WQE executed without doorbell")
	}
	r.qa.Doorbell(idx)
	r.eng.Drain()
	dst.Backing().ReadAt(0, probe)
	if string(probe) != "held" {
		t.Fatalf("doorbelled WQE did not execute: %q", probe)
	}
}

func TestRemoteWQEManipulation(t *testing.T) {
	// The paper's key trick (§4.1, Figure 5): node A rewrites a pre-posted,
	// host-owned WQE on node B's send queue via RDMA WRITE — changing its
	// descriptor and granting ownership — and the NIC executes the new
	// descriptor with no host involvement on B.
	eng := sim.NewEngine()
	net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(1))
	na, nb, nc := NewNIC(eng, net, Config{}), NewNIC(eng, net, Config{}), NewNIC(eng, net, Config{})

	acq, arq := na.CreateCQ(), na.CreateCQ()
	bcq, brq := nb.CreateCQ(), nb.CreateCQ()
	qab := na.CreateQP(acq, arq, 16, 16)
	qba := nb.CreateQP(bcq, brq, 16, 16)
	Connect(qab, qba)
	bcq2, brq2 := nb.CreateCQ(), nb.CreateCQ()
	ccq, crq := nc.CreateCQ(), nc.CreateCQ()
	qbc := nb.CreateQP(bcq2, brq2, 16, 16)
	qcb := nc.CreateQP(ccq, crq, 16, 16)
	Connect(qbc, qcb)

	bLog := nb.RegisterRAM(256, AccessRemoteWrite)
	cLog := nc.RegisterRAM(256, AccessRemoteWrite)

	// B pre-posts a host-owned placeholder WRITE on its queue toward C.
	// The descriptor is deliberately wrong (length 0, wrong offset).
	idx, err := qbc.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: cLog.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: bLog.LKey(), Offset: 0, Length: 0}}}, HoldOwnership)
	if err != nil {
		t.Fatal(err)
	}

	// A writes payload into B's log region...
	payload := na.RegisterRAM(64, 0)
	copy(payload.Backing().(*RAMBacking).Bytes(), "manipulated")
	qab.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: bLog.RKey(), RAddr: 32,
		SGEs: []SGE{{LKey: payload.LKey(), Offset: 0, Length: 11}}})

	// ...then crafts the corrected descriptor image and writes it straight
	// into B's send-queue slot, with the ownership flag set.
	desc := (&WQE{
		Opcode: OpWrite, Signaled: true, HWOwned: true,
		RKey: cLog.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: bLog.LKey(), Offset: 32, Length: 11}},
	}).EncodeImage()
	img := na.RegisterRAM(SlotSize, 0)
	copy(img.Backing().(*RAMBacking).Bytes(), desc)
	qab.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: qbc.SQTable().MR().RKey(), RAddr: uint64(qbc.SQTable().SlotOffset(idx)),
		SGEs: []SGE{{LKey: img.LKey(), Offset: 0, Length: SlotSize}}})

	eng.Drain()
	got := make([]byte, 11)
	cLog.Backing().ReadAt(0, got)
	if string(got) != "manipulated" {
		t.Fatalf("manipulated WQE result = %q", got)
	}
}

func TestRNRWithoutRecv(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	r.qa.PostSend(WQE{Opcode: OpSend, Signaled: true, WRID: 5,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	c := r.acq.Poll(10)
	if len(c) != 1 || c[0].Status != StatusRNR {
		t.Fatalf("expected RNR completion, got %+v", c)
	}
	if r.qa.State() != QPError || r.qb.State() != QPError {
		t.Fatalf("QPs not in error after RNR: %v %v", r.qa.State(), r.qb.State())
	}
	if _, err := r.qa.PostSend(WQE{Opcode: OpSend}); err != ErrQPState {
		t.Fatalf("post on errored QP: %v", err)
	}
	if r.na.Counters().RNRs == 0 && r.nb.Counters().RNRs == 0 {
		t.Fatal("RNR not counted")
	}
}

func TestRemoteAccessViolations(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	roMR := r.nb.RegisterRAM(64, AccessRemoteRead) // no RemoteWrite

	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, WRID: 1,
		RKey: roMR.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	c := r.acq.Poll(1)
	if len(c) != 1 || c[0].Status != StatusRemoteAccessErr {
		t.Fatalf("write to read-only MR: %+v", c)
	}
	if r.nb.Counters().AccessFaults == 0 {
		t.Fatal("access fault not counted")
	}
}

func TestBadRKey(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: 0xdeadbeef, RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	c := r.acq.Poll(1)
	if len(c) != 1 || c[0].Status != StatusRemoteInvalidRkey {
		t.Fatalf("bad rkey: %+v", c)
	}
}

func TestBoundsViolation(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(8, AccessRemoteWrite)
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: dst.RKey(), RAddr: 4,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 8}}})
	r.eng.Drain()
	c := r.acq.Poll(1)
	if len(c) != 1 || c[0].Status != StatusRemoteAccessErr {
		t.Fatalf("out-of-bounds write: %+v", c)
	}
}

func TestLocalProtErr(t *testing.T) {
	r := newRig(t)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: 0xbad, Offset: 0, Length: 4}}})
	r.eng.Drain()
	c := r.acq.Poll(1)
	if len(c) != 1 || c[0].Status != StatusLocalProtErr {
		t.Fatalf("bad lkey: %+v", c)
	}
}

func TestZeroByteReadFlushesNVM(t *testing.T) {
	// The gFLUSH building block: a WRITE into NVM is volatile (NIC cache)
	// until a 0-byte READ on the same region drains it.
	r := newRig(t)
	dev := nvm.New(4096)
	nvmMR := r.nb.RegisterMemory(NewNVMBacking(dev, 0, 1024), AccessRemoteWrite|AccessRemoteRead)
	src := r.na.RegisterRAM(64, 0)
	copy(src.Backing().(*RAMBacking).Bytes(), "durable?")

	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: nvmMR.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 8}}})
	r.eng.Drain()
	r.acq.Poll(10) // consume the write completion
	if !dev.IsDirty(0, 8) {
		t.Fatal("RDMA write should land in volatile NIC cache")
	}

	// 0-byte READ = flush.
	r.qa.PostSend(WQE{Opcode: OpRead, Signaled: true, WRID: 9,
		RKey: nvmMR.RKey(), RAddr: 0})
	r.eng.Drain()
	c := r.acq.Poll(10)
	if len(c) != 1 || c[0].Status != StatusSuccess || c[0].WRID != 9 {
		t.Fatalf("flush read completion: %+v", c)
	}
	if dev.IsDirty(0, 8) {
		t.Fatal("0-byte READ did not drain the NIC cache")
	}
	dev.PowerFail()
	if got := dev.Read(0, 8); string(got) != "durable?" {
		t.Fatalf("flushed data lost: %q", got)
	}
}

func TestLoopbackLocalCopy(t *testing.T) {
	// gMEMCPY's worker: a loopback QP lets a NIC copy within its own host
	// memory (log region -> data region) with zero CPU.
	eng := sim.NewEngine()
	net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(1))
	n := NewNIC(eng, net, Config{})
	cq, rq := n.CreateCQ(), n.CreateCQ()
	lo := n.CreateQP(cq, rq, 16, 16)
	ConnectLoopback(lo)

	logMR := n.RegisterRAM(256, AccessRemoteWrite|AccessRemoteRead)
	dataMR := n.RegisterRAM(256, AccessRemoteWrite)
	copy(logMR.Backing().(*RAMBacking).Bytes(), "commit-me")

	lo.PostSend(WQE{Opcode: OpWrite, Signaled: true,
		RKey: dataMR.RKey(), RAddr: 64,
		SGEs: []SGE{{LKey: logMR.LKey(), Offset: 0, Length: 9}}})
	eng.Drain()
	c := cq.Poll(1)
	if len(c) != 1 || c[0].Status != StatusSuccess {
		t.Fatalf("loopback completion: %+v", c)
	}
	got := make([]byte, 9)
	dataMR.Backing().ReadAt(64, got)
	if string(got) != "commit-me" {
		t.Fatalf("loopback copy = %q", got)
	}
	if net.Delivered() != 0 {
		t.Fatal("loopback op crossed the fabric")
	}
}

func TestInOrderExecutionSameQP(t *testing.T) {
	// Writes posted in order on a QP land in order: a later write to the
	// same address wins.
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)
	buf := src.Backing().(*RAMBacking).Bytes()
	for i := 0; i < 10; i++ {
		buf[0] = byte(i)
		// Copy value into distinct offsets so gather at execute time sees
		// the right byte.
		src.Backing().WriteAt(i, []byte{byte(i)})
		r.qa.PostSend(WQE{Opcode: OpWrite, RKey: dst.RKey(), RAddr: 0,
			SGEs: []SGE{{LKey: src.LKey(), Offset: uint64(i), Length: 1}}})
	}
	r.eng.Drain()
	got := make([]byte, 1)
	dst.Backing().ReadAt(0, got)
	if got[0] != 9 {
		t.Fatalf("final value = %d, want 9 (in-order)", got[0])
	}
}

func TestUnsignaledNoCQE(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)
	r.qa.PostSend(WQE{Opcode: OpWrite, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	if c := r.acq.Poll(10); len(c) != 0 {
		t.Fatalf("unsignaled op produced CQE: %+v", c)
	}
}

func TestCQCallback(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)
	var got []CQE
	r.acq.SetCallback(func(e CQE) { got = append(got, e) })
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, WRID: 77,
		RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	if len(got) != 1 || got[0].WRID != 77 {
		t.Fatalf("callback CQEs: %+v", got)
	}
}

func TestQueueFull(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)
	// Hold ownership so nothing drains; 64-slot queue fills.
	var err error
	for i := 0; i < 65; i++ {
		_, err = r.qa.PostSend(WQE{Opcode: OpWrite, RKey: dst.RKey(), RAddr: 0,
			SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 1}}}, HoldOwnership)
		if err != nil {
			break
		}
	}
	if err != ErrQueueFull {
		t.Fatalf("expected queue full, got %v", err)
	}
}

func TestWQEEncodeDecodeRoundTrip(t *testing.T) {
	w := WQE{
		Opcode: OpCompSwap, Signaled: true, HWOwned: true,
		RKey: 0xAABBCCDD, RAddr: 0x1122334455667788,
		Imm: 42, Swap: 43, WRID: 99,
		WaitCQ: 7, WaitCount: 3,
		SGEs: []SGE{{LKey: 1, Offset: 2, Length: 3}, {LKey: 4, Offset: 5, Length: 6}},
	}
	img := w.EncodeImage()
	got := DecodeWQE(img)
	if got.Opcode != w.Opcode || got.Signaled != w.Signaled || got.HWOwned != w.HWOwned ||
		got.RKey != w.RKey || got.RAddr != w.RAddr || got.Imm != w.Imm || got.Swap != w.Swap ||
		got.WRID != w.WRID || got.WaitCQ != w.WaitCQ || got.WaitCount != w.WaitCount ||
		len(got.SGEs) != 2 || got.SGEs[0] != w.SGEs[0] || got.SGEs[1] != w.SGEs[1] {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", w, got)
	}
}

func TestLatencyScalesWithMessageSize(t *testing.T) {
	lat := func(size int) sim.Duration {
		r := newRig(t)
		src := r.na.RegisterRAM(size, 0)
		dst := r.nb.RegisterRAM(size, AccessRemoteWrite)
		start := r.eng.Now()
		var end sim.Time
		r.acq.SetCallback(func(CQE) { end = r.eng.Now() })
		r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: dst.RKey(), RAddr: 0,
			SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: uint32(size)}}})
		r.eng.Drain()
		return end.Sub(start)
	}
	small, large := lat(128), lat(65536)
	if large <= small {
		t.Fatalf("latency did not grow with size: %v vs %v", small, large)
	}
	if small < 2*sim.Microsecond || small > 20*sim.Microsecond {
		t.Fatalf("128B write RTT %v outside plausible µs range", small)
	}
}

func TestSendTableWriteKicksStalledQP(t *testing.T) {
	// Granting ownership by writing the flags byte locally (not via
	// Doorbell) must also wake the queue, because the table region's
	// onWrite hook fires.
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)
	copy(src.Backing().(*RAMBacking).Bytes(), "kick")
	idx, _ := r.qa.PostSend(WQE{Opcode: OpWrite, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}}, HoldOwnership)
	r.eng.Drain()

	tbl := r.qa.SQTable()
	off := tbl.SlotOffset(idx) + 1 // flags byte
	var b [1]byte
	tbl.MR().Backing().ReadAt(off, b[:])
	b[0] |= 0x02
	tbl.MR().write(off, b[:]) // NIC-path write into the table
	r.eng.Drain()
	got := make([]byte, 4)
	dst.Backing().ReadAt(0, got)
	if string(got) != "kick" {
		t.Fatalf("table write did not wake queue: %q", got)
	}
}

// Property: DecodeWQE tolerates arbitrary slot images (a remote writer can
// place any bytes in a registered queue) without panicking, and clamps the
// SGE count.
func TestPropertyDecodeWQERobust(t *testing.T) {
	f := func(raw [SlotSize]byte) bool {
		w := DecodeWQE(raw[:])
		return len(w.SGEs) <= MaxSGE
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A garbage descriptor granted to the NIC must fail the op (and error the
// QP), never crash the NIC.
func TestGarbageDescriptorFailsGracefully(t *testing.T) {
	r := newRig(t)
	idx, err := r.qa.PostSend(WQE{Opcode: OpWrite}, HoldOwnership)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the slot with hostile bytes (valid-enough opcode, absurd
	// fields), then grant ownership.
	tbl := r.qa.SQTable()
	junk := make([]byte, SlotSize)
	for i := range junk {
		junk[i] = byte(0xA5 ^ i)
	}
	junk[0] = byte(OpWrite)
	junk[1] = flagHWOwned | flagSignaled
	junk[2] = 3 // SGEs with garbage keys
	tbl.MR().Backing().WriteAt(tbl.SlotOffset(idx), junk)
	r.qa.Doorbell(idx)
	r.eng.Drain()
	c := r.acq.Poll(4)
	if len(c) != 1 || c[0].Status == StatusSuccess {
		t.Fatalf("garbage descriptor outcome: %+v", c)
	}
	if r.qa.State() != QPError {
		t.Fatalf("QP state %v after garbage descriptor", r.qa.State())
	}
}

func TestTracerEmitsEvents(t *testing.T) {
	r := newRig(t)
	var kinds []string
	r.na.SetTracer(func(e TraceEvent) { kinds = append(kinds, e.Kind) })
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	sawExec, sawRx := false, false
	for _, k := range kinds {
		if k == "exec" {
			sawExec = true
		}
		if k == "rx" {
			sawRx = true
		}
	}
	if !sawExec || !sawRx {
		t.Fatalf("tracer events: %v", kinds)
	}
	// Detaching stops the stream.
	r.na.SetTracer(nil)
	n := len(kinds)
	r.qa.PostSend(WQE{Opcode: OpWrite, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	if len(kinds) != n {
		t.Fatal("detached tracer still firing")
	}
}

// A QP entering error with requests in flight flushes them in post order:
// RC completes in WQE order even on the error path, and the run must not
// depend on map iteration order.
func TestErrorFlushInPostOrder(t *testing.T) {
	for run := 0; run < 50; run++ {
		r := newRig(t)
		src := r.na.RegisterRAM(64, 0)
		dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
		r.net.Cut(r.na.Node(), r.nb.Node())
		const n = 6
		for i := 1; i <= n; i++ {
			if _, err := r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, WRID: uint64(i),
				RKey: dst.RKey(), RAddr: uint64(8 * i),
				SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 8}}}); err != nil {
				t.Fatal(err)
			}
		}
		r.eng.Drain() // every request initiated and lost on the severed link
		r.na.DestroyQP(r.qa)
		cqes := r.acq.Poll(2 * n)
		if len(cqes) != n {
			t.Fatalf("run %d: %d flushed completions, want %d", run, len(cqes), n)
		}
		for i, c := range cqes {
			if c.WRID != uint64(i+1) || c.Status != StatusFlushErr {
				t.Fatalf("run %d: completion %d = WRID %d %s, want WRID %d %s",
					run, i, c.WRID, c.Status, i+1, StatusFlushErr)
			}
		}
	}
}

func TestDestroyQP(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(16, 0)
	dst := r.nb.RegisterRAM(16, AccessRemoteWrite)

	// In-flight op at destroy time flushes with an error completion.
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, WRID: 9,
		RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	r.na.DestroyQP(r.qa)
	r.eng.Drain()
	// Post after destroy fails.
	if _, err := r.qa.PostSend(WQE{Opcode: OpWrite}); err != ErrQPState {
		t.Fatalf("post after destroy: %v", err)
	}
	// Late packets to the destroyed QPN are dropped silently (no panic).
	r.qb.PostRecv(WQE{})
	bsrc := r.nb.RegisterRAM(8, 0)
	r.qb.PostSend(WQE{Opcode: OpSend, SGEs: []SGE{{LKey: bsrc.LKey(), Offset: 0, Length: 4}}})
	r.eng.Drain()
	// Destroying twice or destroying a foreign QP is a no-op.
	r.na.DestroyQP(r.qa)
	r.na.DestroyQP(nil)
}

func TestPipelinedMixedLatencyCompletionOrder(t *testing.T) {
	// Stress the per-QP reorder buffer: a big WRITE (slow DMA), a CAS
	// (round trip + atomic delay), and a 0-byte READ posted back to back
	// must complete in post order.
	r := newRig(t)
	src := r.na.RegisterRAM(64<<10, AccessLocalWrite)
	dst := r.nb.RegisterRAM(64<<10, AccessRemoteWrite|AccessRemoteRead|AccessRemoteAtomic)
	var order []uint64
	r.acq.SetCallback(func(e CQE) {
		if e.Status != StatusSuccess {
			t.Fatalf("completion %v", e.Status)
		}
		order = append(order, e.WRID)
	})
	r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, WRID: 1, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 64 << 10}}})
	r.qa.PostSend(WQE{Opcode: OpCompSwap, Signaled: true, WRID: 2, RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 8}}})
	r.qa.PostSend(WQE{Opcode: OpRead, Signaled: true, WRID: 3, RKey: dst.RKey()})
	r.eng.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("completion order %v, want [1 2 3]", order)
	}
}

func TestSharedSendCQAcrossQPs(t *testing.T) {
	// Multiple QPs feeding one send CQ (the fan-out barrier pattern): the
	// CQ's monotone counter sums completions across queues.
	eng := sim.NewEngine()
	net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(1))
	a := NewNIC(eng, net, Config{})
	b := NewNIC(eng, net, Config{})
	shared := a.CreateCQ()
	shared.SetAutoDrain(true)
	src := a.RegisterRAM(64, 0)
	dst := b.RegisterRAM(64, AccessRemoteWrite)
	for i := 0; i < 3; i++ {
		qa := a.CreateQP(shared, a.CreateCQ(), 8, 1)
		qb := b.CreateQP(b.CreateCQ(), b.CreateCQ(), 1, 8)
		Connect(qa, qb)
		qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: dst.RKey(), RAddr: 0,
			SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 4}}})
	}
	eng.Drain()
	if shared.Completions() != 3 {
		t.Fatalf("shared CQ total = %d, want 3", shared.Completions())
	}
}

func TestWaitOnUnknownCQErrorsQP(t *testing.T) {
	r := newRig(t)
	r.qa.PostSend(WQE{Opcode: OpWait, WaitCQ: 9999, WaitCount: 1})
	r.eng.Drain()
	if r.qa.State() != QPError {
		t.Fatalf("QP state %v after WAIT on unknown CQ", r.qa.State())
	}
}

// writeLatency measures one signaled 8B WRITE end to end on a fresh drain.
func writeLatency(t *testing.T, r *rig, src, dst *MemoryRegion) sim.Duration {
	t.Helper()
	start := r.eng.Now()
	if _, err := r.qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, WRID: 99,
		RKey: dst.RKey(), RAddr: 0,
		SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 8}}}); err != nil {
		t.Fatal(err)
	}
	r.eng.Drain()
	cqes := r.acq.Poll(10)
	if len(cqes) != 1 || cqes[0].Status != StatusSuccess {
		t.Fatalf("write completion: %+v", cqes)
	}
	return r.eng.Now().Sub(start)
}

func TestStallForDelaysExecution(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, 0)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	base := writeLatency(t, r, src, dst)

	stall := 500 * sim.Microsecond
	r.na.StallFor(stall)
	stalled := writeLatency(t, r, src, dst)
	if stalled < stall || stalled > stall+2*base {
		t.Fatalf("stalled write took %v, want ~stall(%v)+%v", stalled, stall, base)
	}
	// The window has passed: next op runs at full speed again.
	after := writeLatency(t, r, src, dst)
	if after != base {
		t.Fatalf("post-stall write took %v, want %v", after, base)
	}
}

func TestStallForDelaysInbound(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, 0)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	base := writeLatency(t, r, src, dst)

	// Stalling the RECEIVING NIC delays Rx processing of the request.
	stall := 300 * sim.Microsecond
	r.nb.StallFor(stall)
	stalled := writeLatency(t, r, src, dst)
	if stalled < stall-base || stalled > stall+2*base {
		t.Fatalf("rx-stalled write took %v, want ~%v", stalled, stall)
	}
}

func TestSetSlowdownScalesCosts(t *testing.T) {
	r := newRig(t)
	src := r.na.RegisterRAM(64, 0)
	dst := r.nb.RegisterRAM(64, AccessRemoteWrite)
	base := writeLatency(t, r, src, dst)

	r.na.SetSlowdown(8)
	r.nb.SetSlowdown(8)
	slow := writeLatency(t, r, src, dst)
	if slow <= base {
		t.Fatalf("slowdown had no effect: %v vs %v", slow, base)
	}
	r.na.SetSlowdown(1)
	r.nb.SetSlowdown(1)
	restored := writeLatency(t, r, src, dst)
	if restored != base {
		t.Fatalf("slowdown did not restore: %v vs %v", restored, base)
	}
}

func TestStallDeterministic(t *testing.T) {
	run := func() sim.Duration {
		eng := sim.NewEngine()
		net := fabric.New(eng, fabric.Config{JitterFrac: -1}, sim.NewRand(7))
		na, nb := NewNIC(eng, net, Config{}), NewNIC(eng, net, Config{})
		acq := na.CreateCQ()
		qa := na.CreateQP(acq, na.CreateCQ(), 8, 1)
		qb := nb.CreateQP(nb.CreateCQ(), nb.CreateCQ(), 1, 8)
		Connect(qa, qb)
		src := na.RegisterRAM(64, 0)
		dst := nb.RegisterRAM(64, AccessRemoteWrite)
		na.StallFor(123 * sim.Microsecond)
		qa.PostSend(WQE{Opcode: OpWrite, Signaled: true, RKey: dst.RKey(), RAddr: 0,
			SGEs: []SGE{{LKey: src.LKey(), Offset: 0, Length: 8}}})
		eng.Drain()
		return sim.Duration(eng.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("stalled runs diverged: %v vs %v", a, b)
	}
}

// BenchmarkWQETablePostPeek is the WQE-codec rung of the benchmark ladder:
// encode and post one descriptor, then peek (decode) and consume it. The
// table stages both directions through its slot scratch, so this reports 0
// allocs/op.
func BenchmarkWQETablePostPeek(b *testing.B) {
	eng := sim.NewEngine()
	nic := NewNIC(eng, fabric.New(eng, fabric.Config{}, sim.NewRand(1)), Config{})
	tbl := newWQETable(nic.RegisterRAM(64*SlotSize, AccessLocalWrite), 64)
	w := WQE{Opcode: OpWrite, Signaled: true, HWOwned: true, RKey: 7, RAddr: 4096, WRID: 1,
		SGEs: []SGE{{LKey: 1, Offset: 0, Length: 1024}, {LKey: 2, Offset: 64, Length: 64}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.WRID = uint64(i)
		if _, err := tbl.post(&w); err != nil {
			b.Fatal(err)
		}
		got, ok := tbl.peek()
		if !ok || got.WRID != w.WRID || len(got.SGEs) != 2 {
			b.Fatalf("peek = %+v, %v", got, ok)
		}
		tbl.advance()
	}
}
