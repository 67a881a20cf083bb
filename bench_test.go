package hyperloop

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the DESIGN.md ablations. Each runs a reduced
// parameter set of the corresponding experiment (the cmd/ binaries run the
// full sweeps) and reports the regenerated statistics as custom metrics:
//
//	ns/op           wall-clock cost of simulating one run (not a paper metric)
//	hl-*-ns, nv-*   virtual-time latencies for HyperLoop / Naïve-RDMA
//	*-ratio         Naïve/HyperLoop — the paper's headline comparisons
//
// Run with: go test -bench=. -benchmem

import (
	"testing"
	"time"

	"hyperloop/internal/experiments"
	"hyperloop/internal/sim"
	"hyperloop/internal/ycsb"
)

const (
	benchOps    = 1000
	benchSeed   = 42
	benchHogs   = 10
	benchRecs   = 200
	benchAppOps = 1500
)

// BenchmarkFigure2a regenerates Figure 2(a): MongoDB-like latency and
// context switches vs co-located replica-set count.
func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.MotivationSweep([]experiments.MotivationParams{
			{ReplicaSets: 9, OpsPerSet: 300, Records: 100, Seed: benchSeed},
			{ReplicaSets: 27, OpsPerSet: 300, Records: 100, Seed: benchSeed},
		})
		if err != nil {
			b.Fatal(err)
		}
		few, many := rs[0], rs[1]
		b.ReportMetric(float64(few.Latency.P99), "sets9-p99-ns")
		b.ReportMetric(float64(many.Latency.P99), "sets27-p99-ns")
		b.ReportMetric(float64(many.ContextSwitches)/float64(few.ContextSwitches), "ctxsw-growth")
	}
}

// BenchmarkFigure2b regenerates Figure 2(b): latency vs cores per server at
// 18 replica-sets.
func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.MotivationSweep([]experiments.MotivationParams{
			{ReplicaSets: 18, Cores: 4, OpsPerSet: 200, Records: 100, Seed: benchSeed},
			{ReplicaSets: 18, Cores: 16, OpsPerSet: 200, Records: 100, Seed: benchSeed},
		})
		if err != nil {
			b.Fatal(err)
		}
		small, large := rs[0], rs[1]
		b.ReportMetric(float64(small.Latency.Mean), "cores4-avg-ns")
		b.ReportMetric(float64(large.Latency.Mean), "cores16-avg-ns")
	}
}

// BenchmarkFigure8aGWrite regenerates Figure 8(a): gWRITE latency,
// HyperLoop vs Naïve-RDMA under 10:1 co-location.
func BenchmarkFigure8aGWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencySweep("gwrite", []int{1024},
			[]experiments.System{experiments.HyperLoop, experiments.NaiveEvent},
			experiments.MicroParams{Ops: benchOps, TenantsPerCore: benchHogs, Durable: true, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		hl, nv := rows[0].ByName["HyperLoop"], rows[0].ByName["Naive-Event"]
		b.ReportMetric(float64(hl.P99), "hl-p99-ns")
		b.ReportMetric(float64(nv.P99), "nv-p99-ns")
		b.ReportMetric(float64(nv.P99)/float64(hl.P99), "p99-ratio")
	}
}

// BenchmarkFigure8bGMemcpy regenerates Figure 8(b): gMEMCPY latency.
func BenchmarkFigure8bGMemcpy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencySweep("gmemcpy", []int{1024},
			[]experiments.System{experiments.HyperLoop, experiments.NaiveEvent},
			experiments.MicroParams{Ops: benchOps, TenantsPerCore: benchHogs, Durable: true, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		hl, nv := rows[0].ByName["HyperLoop"], rows[0].ByName["Naive-Event"]
		b.ReportMetric(float64(hl.P99), "hl-p99-ns")
		b.ReportMetric(float64(nv.P99), "nv-p99-ns")
		b.ReportMetric(float64(nv.P99)/float64(hl.P99), "p99-ratio")
	}
}

// BenchmarkTable2GCAS regenerates Table 2: gCAS latency statistics.
func BenchmarkTable2GCAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hl, err := experiments.GCASLatency(experiments.MicroParams{
			System: experiments.HyperLoop, Ops: benchOps,
			TenantsPerCore: benchHogs, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		nv, err := experiments.GCASLatency(experiments.MicroParams{
			System: experiments.NaiveEvent, Ops: benchOps,
			TenantsPerCore: benchHogs, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(nv.Mean)/float64(hl.Mean), "avg-ratio")
		b.ReportMetric(float64(nv.P95)/float64(hl.P95), "p95-ratio")
		b.ReportMetric(float64(nv.P99)/float64(hl.P99), "p99-ratio")
	}
}

// BenchmarkFigure9Throughput regenerates Figure 9: gWRITE throughput and
// replica CPU.
func BenchmarkFigure9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ThroughputSweep(
			[]experiments.System{experiments.HyperLoop, experiments.NaiveEvent},
			[]int{4096}, 8<<20, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		hl, nv := rows[0].ByName["HyperLoop"], rows[0].ByName["Naive-Event"]
		b.ReportMetric(hl.KopsSec, "hl-kops")
		b.ReportMetric(nv.KopsSec, "nv-kops")
		b.ReportMetric(hl.CPUCorePct, "hl-cpu-pct")
		b.ReportMetric(nv.CPUCorePct, "nv-cpu-pct")
	}
}

// BenchmarkFigure10GroupScaling regenerates Figure 10: gWRITE p99 vs group
// size.
func BenchmarkFigure10GroupScaling(b *testing.B) {
	base := experiments.MicroParams{Ops: 600, TenantsPerCore: benchHogs, Durable: true, Seed: benchSeed}
	for i := 0; i < b.N; i++ {
		hl, err := experiments.GroupScaling(experiments.HyperLoop, []int{3, 5, 7}, []int{1024}, base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(hl[0].P99), "hl-g3-p99-ns")
		b.ReportMetric(float64(hl[2].P99), "hl-g7-p99-ns")
		b.ReportMetric(float64(hl[2].P99)/float64(hl[0].P99), "hl-growth")
	}
}

// BenchmarkFigure11RocksDB regenerates Figure 11: replicated RocksDB update
// latency, three variants.
func BenchmarkFigure11RocksDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mk := func(sys experiments.System) experiments.AppParams {
			return experiments.AppParams{System: sys, Records: benchRecs, Ops: benchAppOps,
				TenantsPerCore: benchHogs, Seed: benchSeed}
		}
		rs, err := experiments.RocksDBSweep([]experiments.AppParams{
			mk(experiments.HyperLoop), mk(experiments.NaiveEvent), mk(experiments.NaivePolling),
		})
		if err != nil {
			b.Fatal(err)
		}
		hl, ev, pl := rs[0], rs[1], rs[2]
		b.ReportMetric(float64(hl.Latency.P99), "hl-p99-ns")
		b.ReportMetric(float64(ev.Latency.P99)/float64(hl.Latency.P99), "event-ratio")
		b.ReportMetric(float64(pl.Latency.P99)/float64(hl.Latency.P99), "polling-ratio")
	}
}

// BenchmarkFigure12MongoDB regenerates Figure 12 for YCSB-A (the cmd binary
// sweeps all five workloads).
func BenchmarkFigure12MongoDB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.MongoDBSweep([]experiments.AppParams{
			{System: experiments.HyperLoop, Workload: ycsb.WorkloadA,
				Records: benchRecs, Ops: benchAppOps, TenantsPerCore: benchHogs, Seed: benchSeed},
			{System: experiments.NaivePolling, Workload: ycsb.WorkloadA,
				Records: benchRecs, Ops: benchAppOps, TenantsPerCore: benchHogs, Seed: benchSeed},
		})
		if err != nil {
			b.Fatal(err)
		}
		hl, nv := rs[0], rs[1]
		b.ReportMetric(100*(1-float64(hl.Latency.Mean)/float64(nv.Latency.Mean)), "avg-reduction-pct")
		gapRatio := float64(hl.Latency.P99-hl.Latency.Mean) / float64(nv.Latency.P99-nv.Latency.Mean)
		b.ReportMetric(100*(1-gapRatio), "gap-reduction-pct")
	}
}

// BenchmarkAblationFlush measures the durability interleave's cost.
func BenchmarkAblationFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		vol, dur, err := experiments.AblationFlush(1024, benchOps, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(vol.Mean), "volatile-avg-ns")
		b.ReportMetric(float64(dur.Mean), "durable-avg-ns")
	}
}

// BenchmarkAblationForwarding isolates the NIC-vs-CPU forwarding mechanism
// on idle hosts.
func BenchmarkAblationForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nic, cpu, err := experiments.AblationForwarding(1024, benchOps, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(nic.Mean), "nic-avg-ns")
		b.ReportMetric(float64(cpu.Mean), "cpu-avg-ns")
	}
}

// BenchmarkAblationReplenishBatch sweeps the replenisher period.
func BenchmarkAblationReplenishBatch(b *testing.B) {
	periods := []sim.Duration{10 * sim.Microsecond, 100 * sim.Microsecond, 1000 * sim.Microsecond}
	for i := 0; i < b.N; i++ {
		pts, err := experiments.AblationReplenishBatch(periods, 2000, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].CPUCorePct, "fast-cpu-pct")
		b.ReportMetric(pts[len(pts)-1].CPUCorePct, "slow-cpu-pct")
	}
}

// BenchmarkAblationWakeupBonus quantifies the scheduler model's
// sleeper-fairness contribution to the Naïve baseline.
func BenchmarkAblationWakeupBonus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with, without, err := experiments.AblationWakeupBonus(1024, 500, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(with.Mean), "cfs-avg-ns")
		b.ReportMetric(float64(without.Mean), "fifo-avg-ns")
	}
}

// BenchmarkGWriteHot measures the simulator's own speed on the hot path
// (how many simulated gWRITEs per wall-clock second) — an engineering
// metric, not a paper figure.
func BenchmarkGWriteHot(b *testing.B) {
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	tb.Client().StoreWrite(0, make([]byte, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		tb.Group.GWrite(0, 1024, true, func(Result) { done++ })
		target := i + 1
		eng.RunUntil(func() bool { return done >= target }, eng.Now().Add(Second))
	}
	if done != b.N {
		b.Fatalf("completed %d/%d", done, b.N)
	}
}

// BenchmarkAblationChainVsFanout compares the chain against the §7
// fan-out topology.
func BenchmarkAblationChainVsFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chain, fanout, err := experiments.AblationChainVsFanout(4, 500, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(chain.Mean), "chain-avg-ns")
		b.ReportMetric(float64(fanout.Mean), "fanout-avg-ns")
	}
}

// BenchmarkAblationFixedVsManipulated compares the fixed-replication
// strawman against remote WQE manipulation.
func BenchmarkAblationFixedVsManipulated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed, manip, err := experiments.AblationFixedVsManipulated(1024, 500, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(fixed.Mean), "fixed-avg-ns")
		b.ReportMetric(float64(manip.Mean), "manipulated-avg-ns")
	}
}

// BenchmarkMultiGroupCoLocation measures probe-group latency with 16
// replication groups sharing three servers — the multi-tenant deployment
// HyperLoop targets.
func BenchmarkMultiGroupCoLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hl, err := experiments.MultiGroupCoLocation(experiments.HyperLoop, 16, 400, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		nv, err := experiments.MultiGroupCoLocation(experiments.NaiveEvent, 16, 400, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(hl.Probe.Mean), "hl-avg-ns")
		b.ReportMetric(float64(nv.Probe.Mean), "nv-avg-ns")
	}
}

// BenchmarkGCASHot and BenchmarkGMemcpyHot measure simulator speed for the
// remaining primitives (engineering metrics).
func BenchmarkGCASHot(b *testing.B) {
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		old, new := uint64(0), uint64(1)
		if i%2 == 1 {
			old, new = 1, 0
		}
		tb.Group.GCAS(0, old, new, AllReplicas(3), func(Result) { done++ })
		target := i + 1
		eng.RunUntil(func() bool { return done >= target }, eng.Now().Add(Second))
	}
}

func BenchmarkGMemcpyHot(b *testing.B) {
	eng := NewEngine()
	tb := NewTestbed(eng, 3)
	defer tb.Group.Close()
	tb.Client().StoreWrite(0, make([]byte, 1024))
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for i := 0; i < b.N; i++ {
		tb.Group.GMemcpy(1<<20, 0, 1024, true, func(Result) { done++ })
		target := i + 1
		eng.RunUntil(func() bool { return done >= target }, eng.Now().Add(Second))
	}
}

// BenchmarkPartitionedEngine measures the parallel simulation core: one
// 8-shard partitioned cell per iteration at full worker count, checked
// against a serial reference run whose wall-clock cost is reported alongside
// so the multi-core payoff shows up in benchmark output (engineering
// metric — the simulated results are byte-identical by construction).
func BenchmarkPartitionedEngine(b *testing.B) {
	run := func(workers int) experiments.PartitionedScalingResult {
		return experiments.RunPartitionedScaling(experiments.PartitionedScalingParams{
			Shards: 8, Workers: workers, Seed: benchSeed, OpsPerShard: 50,
		})
	}
	serialStart := time.Now()
	ref := run(1)
	serialNs := float64(time.Since(serialStart).Nanoseconds())
	if !ref.Skew.Pass() {
		b.Fatal(ref.Skew.Err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := run(0)
		if r.Acked != ref.Acked || r.Lat != ref.Lat {
			b.Fatalf("parallel run diverged from serial reference:\n%+v\n%+v", r.Lat, ref.Lat)
		}
	}
	b.ReportMetric(serialNs, "serial-ns/op")
	b.ReportMetric(ref.TputKops, "sim-kops")
}

// BenchmarkReadScaling measures aggregate replica-read throughput as reads
// spread across chain members (§5's higher-read-throughput claim).
func BenchmarkReadScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.ReadScaling([]int{1, 3}, 2000, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pts[0].KopsSec, "reads-1rep-kops")
		b.ReportMetric(pts[1].KopsSec, "reads-3rep-kops")
	}
}
