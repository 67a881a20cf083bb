package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/cpusched"
	"hyperloop/internal/naive"
	"hyperloop/internal/sim"
	"hyperloop/internal/ycsb"
)

// gwrite-colo and naive-colo: the paper's §6.1 microbenchmark. A client
// and a 3-replica chain; every replica core carries 10 always-on CPU-hog
// tenants (the paper's 10:1 co-location); a closed loop with one op
// outstanding issues durable 1 KiB gWRITEs over a 256 KiB range. The two
// workloads differ only in who replicates: the HyperLoop group's NICs, or
// the Naive-RDMA baseline's replica CPUs (event mode), which wait in the
// hogs' run queues on every hop.
const (
	microReplicas = 3
	microValue    = 1024
	microSlots    = 256
	// microOps is enough ops for write_p999_us (>= 10,000) and for the
	// baseline's millisecond tail to average over many hog time slices.
	// At 36,000 ops the baseline's goodput still spread 7% (interquartile
	// range over median) across ten seeds; 72,000 halves its variance.
	microOps    = 72000
	microWarmup = sim.Second
	hogsPerCore = 10
	microStore  = 1 << 20
)

func runGWriteColo(c runCfg) (*rep, error) { return runMicro(c, false) }
func runNaiveColo(c runCfg) (*rep, error)  { return runMicro(c, true) }

func runMicro(c runCfg, useNaive bool) (*rep, error) {
	r := newRep()
	m := r.begin(c.traced)
	eng := sim.NewEngine()
	cl := cluster.New(eng, cluster.Config{
		Nodes:     microReplicas + 1,
		StoreSize: microStore,
		Host:      cpusched.Config{Seed: c.seed},
		Seed:      c.seed,
	})
	var stops []func()
	for _, n := range cl.Replicas() {
		stops = append(stops, cpusched.AddTenants(eng, n.Host, hogsPerCore*n.Host.Cores(),
			cpusched.TenantConfig{AlwaysOn: true}, cl.Rand.Fork()))
	}
	defer func() {
		for _, s := range stops {
			s()
		}
	}()

	// write issues one gWRITE; flush a group-wide gFLUSH.
	name, call := "gwrite-colo", "core.Group.GWrite"
	if useNaive {
		name, call = "naive-colo", "naive.Group.GWrite"
	}
	var write func(off int, done func(error)) error
	var flush func(done func(error)) error
	var failed func() error
	var g *core.Group
	if useNaive {
		ng := naive.New(cl, naive.Config{Mode: naive.Event, MaxInflight: 256})
		defer ng.Close()
		write = func(off int, done func(error)) error {
			return ng.GWrite(off, microValue, true, func(res naive.Result) { done(res.Err) })
		}
		flush = func(done func(error)) error { return ng.GFlush(func(res naive.Result) { done(res.Err) }) }
		failed = ng.Failed
	} else {
		g = core.New(cl, core.Config{Depth: 2048, MaxInflight: 256})
		defer g.Close()
		write = func(off int, done func(error)) error {
			return g.GWrite(off, microValue, true, func(res core.Result) { done(res.Err) })
		}
		flush = func(done func(error)) error { return g.GFlush(func(res core.Result) { done(res.Err) }) }
		failed = g.Failed
	}
	// Hog warm-up: every hog starts within its first time slice; a modeled
	// second of them alone lets the run queues reach their steady state
	// before the first timed op, so the timed phase does not start on a
	// seed-dependent transient.
	eng.RunFor(microWarmup)

	ops := c.n(microOps, 200)
	// One seed-derived value per slot; each op stamps its index into the
	// first 8 bytes, so every write changes the slot's bytes.
	vals := ycsb.NewValueGenerator(microValue, c.seed*7919+11)
	slotVals := make([][]byte, microSlots)
	for i := range slotVals {
		slotVals[i] = vals.Next(int64(i))
	}
	var tr tracer
	lat := make(samples, 0, ops)
	issued, acked := 0, 0
	var opErr error
	client := cl.Client()
	var issue func()
	issue = func() {
		if issued == ops || opErr != nil {
			return
		}
		i := issued
		issued++
		off := (i % microSlots) * microValue
		start := eng.Now()
		val := slotVals[i%microSlots]
		binary.LittleEndian.PutUint64(val, uint64(i))
		client.StoreWrite(off, val)
		var err error
		timeIssue(c.traced, &r.issueNs, &r.issues, func() {
			err = write(off, func(err error) {
				if err != nil {
					opErr = fmt.Errorf("gWRITE %d: %w", i, err)
					return
				}
				end := eng.Now()
				lat = append(lat, end.Sub(start))
				acked++
				if c.traced {
					root := tr.add(0, uint64(i), 0, "op", "", start, end)
					tr.add(0, uint64(i), root, call, fmt.Sprintf("off=%d", off), start, end)
				}
				issue()
			})
		})
		if err != nil {
			opErr = fmt.Errorf("gWRITE %d issue: %w", i, err)
		}
	}

	nodes := cl.Nodes
	if err := m.start(); err != nil {
		return nil, err
	}
	resetHosts(nodes)
	before := readCounters(nodes)
	ev0 := eng.Fired()
	t0 := eng.Now()
	issue()
	eng.RunUntil(func() bool { return acked == ops || opErr != nil || failed() != nil },
		t0.Add(sim.Duration(ops)*100*sim.Millisecond))
	elapsed := eng.Now().Sub(t0)
	events := eng.Fired() - ev0
	m.stop(acked, events)
	cnt := readCounters(nodes).since(before)
	var prims, batches, fused uint64
	if g != nil {
		prims = g.OpsCompleted()
		batches, fused = g.FusionStats()
	}

	// Output checks: every op completed, and after a final gFLUSH every
	// replica's durable bytes over the written range equal the client's.
	if err := errors.Join(opErr, failed()); err != nil {
		return nil, err
	}
	if acked != ops || issued != ops {
		return nil, fmt.Errorf("%d of %d ops acked (%d issued)", acked, ops, issued)
	}
	flushed := false
	if err := flush(func(err error) {
		if err != nil {
			opErr = fmt.Errorf("final gFLUSH: %w", err)
		}
		flushed = true
	}); err != nil {
		return nil, fmt.Errorf("final gFLUSH: %w", err)
	}
	eng.RunUntil(func() bool { return flushed }, eng.Now().Add(10*sim.Second))
	if !flushed || opErr != nil {
		return nil, fmt.Errorf("final gFLUSH did not complete: %v", opErr)
	}
	span := microSlots * microValue
	want := client.Dev.Read(0, span)
	for i, n := range cl.Replicas() {
		if got := n.Dev.DurableRead(0, span); !bytes.Equal(got, want) {
			return nil, fmt.Errorf("replica %d durable image differs from the client's written range", i)
		}
	}

	r.attempted, r.failed = ops, 0
	r.model.latency("write", lat)
	r.model["goodput_kops"] = float64(ops) / elapsed.Seconds() / 1e3
	r.model["failed_frac"] = 0
	r.model.perOp(cnt, events, ops, int64(ops)*microValue)
	r.model["core.prims_per_op"] = float64(prims) / float64(ops)
	if batches > 0 {
		r.model["core.fused_ops_per_batch"] = float64(fused) / float64(batches)
	}
	r.model["modeled_ms"] = float64(elapsed) / 1e6
	r.report = append(r.report, fmt.Sprintf("%s: %d durable 1 KiB writes in %.1f modeled ms, p50 %.2f us, p99 %.2f us, p999 %.2f us (%d samples)",
		name, ops, float64(elapsed)/1e6,
		r.model["write_p50_us"], r.model["write_p99_us"], r.model["write_p999_us"], len(lat)))
	if c.traced {
		r.spans = tr.spans
	}
	return r, nil
}
