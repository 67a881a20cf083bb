package hyperloop

import (
	"testing"

	"hyperloop/internal/rdma"
)

// Ceilings on steady-state heap allocations per modeled primitive on a
// NewTestbed group (client plus three replicas). When set, a durable gWRITE
// averaged 2.07 allocations and a gCAS 6.2 (its result map and 8-byte atomic
// responses among them); the ceilings are those plus ~15%, in the whole
// counts testing.AllocsPerRun reports.
// The NIC datapath (sim, fabric, rdma, nvm and core's chain assembly) is
// meant to stay allocation-free per packet; a change that reintroduces
// per-event closures, per-slot buffers or eager trace formatting trips
// these.
const (
	gwriteAllocCeiling = 2
	gcasAllocCeiling   = 7
)

// allocTestbed builds a 3-replica testbed and runs enough warm-up ops that
// rings, free lists and scratch buffers have reached their steady size.
func allocTestbed(t *testing.T, op func(tb *Testbed, i int, done func(Result))) (*Testbed, func() float64) {
	t.Helper()
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	t.Cleanup(tb.Group.Close)
	tb.Client().StoreWrite(0, make([]byte, 1024))
	completed, issued := 0, 0
	done := func(r Result) {
		if r.Err != nil {
			t.Errorf("op %d: %v", issued, r.Err)
		}
		completed++
	}
	step := func() {
		op(tb, issued, done)
		issued++
		target := issued
		eng.RunUntil(func() bool { return completed >= target }, eng.Now().Add(Second))
	}
	for i := 0; i < 500; i++ {
		step()
	}
	return tb, func() float64 { return testing.AllocsPerRun(2000, step) }
}

func gwriteOp(tb *Testbed, _ int, done func(Result)) {
	tb.Group.GWrite(0, 1024, true, done)
}

func gcasOp(tb *Testbed, i int, done func(Result)) {
	old, new := uint64(i%2), uint64((i+1)%2)
	tb.Group.GCAS(0, old, new, AllReplicas(3), done)
}

func TestAllocsPerPrimitive(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	for _, c := range []struct {
		name    string
		op      func(*Testbed, int, func(Result))
		ceiling float64
	}{
		{"gWRITE", gwriteOp, gwriteAllocCeiling},
		{"gCAS", gcasOp, gcasAllocCeiling},
	} {
		_, measure := allocTestbed(t, c.op)
		if got := measure(); got > c.ceiling {
			t.Errorf("%s: %.1f allocs per op, ceiling %.0f", c.name, got, c.ceiling)
		} else {
			t.Logf("%s: %.1f allocs per op (ceiling %.0f)", c.name, got, c.ceiling)
		}
	}
}

// A NIC with no tracer attached must not pay for tracing: detaching every
// tracer leaves the per-op count exactly where a never-traced testbed has
// it, while an attached tracer visibly costs (the trace sites format their
// Info strings only then).
func TestTracerOffCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not deterministic under -race")
	}
	_, plain := allocTestbed(t, gwriteOp)
	base := plain()

	tb, detached := allocTestbed(t, gwriteOp)
	for _, n := range tb.Cluster.Nodes {
		n.NIC.SetTracer(func(rdma.TraceEvent) {})
		n.NIC.SetTracer(nil)
	}
	if got := detached(); got != base {
		t.Fatalf("tracer detached: %.2f allocs per gWRITE, never attached: %.2f", got, base)
	}

	tb, traced := allocTestbed(t, gwriteOp)
	for _, n := range tb.Cluster.Nodes {
		n.NIC.SetTracer(func(rdma.TraceEvent) {})
	}
	if got := traced(); got <= base {
		t.Fatalf("tracer attached: %.2f allocs per gWRITE, not above the untraced %.2f", got, base)
	}
}
