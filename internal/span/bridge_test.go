package span

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/sim"
)

// attachAll installs a bridge tracer on every node, naming node 0 "client"
// and the rest "replicaN".
func attachAll(b *Bridge, cl *cluster.Cluster) {
	for i, n := range cl.Nodes {
		role := fmt.Sprintf("replica%d", i-1)
		if i == 0 {
			role = "client"
		}
		n.NIC.SetTracer(b.Tracer(role))
	}
}

func TestBridgeTimeline(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: 4, StoreSize: 1 << 20, Fabric: fabric.Config{JitterFrac: -1}})
	g := core.New(cl, core.Config{Depth: 16})
	defer g.Close()
	eng.RunFor(sim.Millisecond) // let setup traffic drain

	b := NewBridge(0)
	attachAll(b, cl)
	cl.Client().StoreWrite(0, []byte("trace-me"))
	start := eng.Now()
	done := false
	g.GWrite(0, 8, true, func(core.Result) { done = true })
	eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
	if !done {
		t.Fatal("op stalled")
	}
	if len(b.Events()) == 0 {
		t.Fatal("no events collected")
	}
	// The chain's anatomy must be visible: execs on the client, rx + wait
	// on every replica.
	sawClientExec, sawWait, sawWrite := false, false, false
	replicasSeen := map[string]bool{}
	for _, e := range b.Window(start.Add(-1), eng.Now()) {
		if e.Role == "client" && e.Kind == "exec" {
			sawClientExec = true
		}
		if e.Kind == "wait" {
			sawWait = true
		}
		if e.Op != 0 && strings.Contains(e.Op.String(), "WRITE") {
			sawWrite = true
		}
		if strings.HasPrefix(e.Role, "replica") && e.Kind == "rx" {
			replicasSeen[e.Role] = true
		}
	}
	if !sawClientExec || !sawWait || !sawWrite || len(replicasSeen) != 3 {
		t.Fatalf("anatomy incomplete: clientExec=%v wait=%v write=%v replicas=%d",
			sawClientExec, sawWait, sawWrite, len(replicasSeen))
	}
	if !replicasSeen["replica2"] {
		t.Fatalf("last replica missing: %v", replicasSeen)
	}

	// Reset and detach stop collection.
	b.Reset()
	if len(b.Events()) != 0 {
		t.Fatal("reset did not clear")
	}
	for _, n := range cl.Nodes {
		n.NIC.SetTracer(nil)
	}
	done = false
	g.GWrite(0, 8, false, func(core.Result) { done = true })
	eng.RunUntil(func() bool { return done }, eng.Now().Add(sim.Second))
	if len(b.Events()) != 0 {
		t.Fatal("detached bridge still collecting")
	}
}

func TestBridgeLimit(t *testing.T) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{Nodes: 3, StoreSize: 1 << 20})
	g := core.New(cl, core.Config{Depth: 16})
	defer g.Close()
	b := NewBridge(5)
	attachAll(b, cl)
	cl.Client().StoreWrite(0, []byte("x"))
	done := 0
	for i := 0; i < 10; i++ {
		g.GWrite(0, 1, false, func(core.Result) { done++ })
	}
	eng.RunUntil(func() bool { return done >= 10 }, eng.Now().Add(sim.Second))
	if len(b.Events()) != 5 {
		t.Fatalf("limit not enforced: %d", len(b.Events()))
	}
}
