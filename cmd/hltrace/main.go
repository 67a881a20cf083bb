// Command hltrace narrates one durable gWRITE through a 3-replica
// HyperLoop chain at NIC-event granularity: every WQE execution, WAIT
// firing, ownership stall, and inbound message on every NIC, with virtual
// timestamps — §4's Figures 4-5 as a live timeline. Note which node column
// each event sits in: after the client's initial three sends, every event
// happens on replica NICs with no host code anywhere.
//
// Usage:
//
//	hltrace [-size N] [-durable=true] [-seed N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"

	"hyperloop"
	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/sim"
	"hyperloop/internal/span"
)

var (
	size    = flag.Int("size", 256, "payload bytes")
	durable = flag.Bool("durable", true, "interleave gFLUSH")
	seed    = flag.Int64("seed", 1, "simulation seed")
)

func main() {
	flag.Parse()
	out, err := run(*size, *durable, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
}

// run traces one gWRITE of size bytes and returns the rendered timeline.
func run(size int, durable bool, seed int64) (string, error) {
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     4,
		StoreSize: 1 << 20,
		Seed:      seed,
		Host:      cpusched.Config{Seed: seed},
	})
	g := core.New(cl, core.Config{Depth: 16})
	defer g.Close()

	// Let setup traffic (priming, credit seeds) drain before tracing.
	eng.RunFor(hyperloop.Millisecond)

	bridge := span.NewBridge(0)
	for i, n := range cl.Nodes {
		role := fmt.Sprintf("replica%d", i-1)
		if i == 0 {
			role = "client"
		}
		n.NIC.SetTracer(bridge.Tracer(role))
	}

	cl.Client().StoreWrite(0, make([]byte, size))
	start := eng.Now()
	done := false
	var lat sim.Duration
	if err := g.GWrite(0, size, durable, func(r core.Result) {
		lat = r.Latency
		done = true
	}); err != nil {
		return "", err
	}
	eng.RunUntil(func() bool { return done }, eng.Now().Add(hyperloop.Second))
	if !done {
		return "", errors.New("gWRITE stalled")
	}

	var b strings.Builder
	fmt.Fprintf(&b, "durable gWRITE of %dB across 3 replicas: %v end to end\n", size, lat)
	// Bridge windows are (start, end]; shift the start back one tick so the
	// op's issue instant is included.
	b.WriteString(render(bridge.Window(start.Add(-1), start.Add(lat)), start))
	b.WriteString("\nevery row after the client's three posts runs on a replica NIC;\n")
	b.WriteString("no replica host CPU appears anywhere in this timeline.\n")
	return b.String(), nil
}

// render formats events as an aligned timeline relative to base.
func render(events []span.RoleEvent, base sim.Time) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-9s %-6s %-10s %s\n", "t(+ns)", "node", "kind", "op", "detail")
	b.WriteString(strings.Repeat("-", 60))
	b.WriteByte('\n')
	for _, e := range events {
		op := ""
		if e.Op != 0 {
			op = e.Op.String()
		}
		fmt.Fprintf(&b, "%-10d %-9s %-6s %-10s %s\n", e.At.Sub(base), e.Role, e.Kind, op, e.Info)
	}
	return b.String()
}
