package load

import (
	"bytes"
	"fmt"
	"testing"

	"hyperloop/internal/qos"
	"hyperloop/internal/sim"
)

// tinyConfig is a fast two-group cell shared by the package tests.
func tinyConfig(system string) Config {
	return Config{
		System:         system,
		Groups:         2,
		ShardsPerGroup: 1,
		HostsPerGroup:  3,
		Replicas:       3,
		RegionSize:     1 << 18,
		Seed:           1,
		Clients:        100_000,
		ActivePerGroup: 1024,
		OfferedLoad:    400_000,
		Duration:       2 * sim.Millisecond,
		Admission:      AdmissionConfig{Enabled: true},
	}
}

func summary(r Result) string {
	return fmt.Sprintf("v=%+v lat=%v p999=%v good=%.2f tput=%.2f peak=%d conns=%d/%d fused=%d/%d db=%d",
		r.Verdicts, r.Lat, r.P999, r.GoodputKops, r.TputKops, r.QueuePeak,
		r.ConnsOpened, r.ConnsClosed, r.FusedBatches, r.FusedOps, r.Doorbells)
}

// The HyperLoop arm must serve the open-loop plane with clean accounting, a
// churned million-scale client space, and bit-identical results at any
// engine worker count.
func TestRunHyperLoopDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) Result {
		cfg := tinyConfig("hyperloop")
		cfg.Workers = workers
		cfg.Metrics = true
		return Run(cfg)
	}
	r1 := run(1)
	if err := r1.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if r1.Verdicts.Acked == 0 {
		t.Fatalf("nothing acked: %s", summary(r1))
	}
	if !r1.Skew.Pass() {
		t.Fatalf("skew check failed: %v", r1.Skew.Err)
	}
	if r1.ClientsModeled != 100_000 {
		t.Fatalf("modeled %d clients, want the configured space", r1.ClientsModeled)
	}
	// Churn must sweep the active window across most of the id space.
	if r1.ConnsOpened < 80_000 {
		t.Fatalf("churn opened only %d conns over a 100k space", r1.ConnsOpened)
	}

	r2 := run(2)
	s1, s2 := summary(r1), summary(r2)
	if s1 != s2 {
		t.Fatalf("results diverged across workers:\n  w1: %s\n  w2: %s", s1, s2)
	}
	d1, err := r1.MergedRegistry().ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r2.MergedRegistry().ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Fatal("metrics dumps differ across worker counts")
	}
}

// With QoS on — per-tenant buckets, shard-scoped keysets, and a live
// controller per group — the accounting contract must still balance
// exactly, per class and in aggregate, on either replication backend.
func TestRunQoSAccountingBalances(t *testing.T) {
	for _, system := range []string{"hyperloop", "naive"} {
		t.Run(system, func(t *testing.T) {
			cfg := tinyConfig(system)
			cfg.ShardsPerGroup = 2
			cfg.HostsPerGroup = 5
			cfg.Tenants = []TenantClass{
				{Name: "steady", Weight: 1},
				{Name: "metered", Weight: 1, RatePerSec: 50_000,
					SLO: qos.SLO{Budget: qos.Budget{Escrow: 1, StepCost: 1, SpendCap: 1}}},
			}
			cfg.Admission.PerTenantQueues = true
			cfg.QoS = true
			r := Run(cfg)
			if err := r.CheckAccounting(); err != nil {
				t.Fatal(err)
			}
			var arrivals, admitted, throttled, acked uint64
			for _, ts := range r.Tenants {
				if ts.Admitted+ts.Throttled > ts.Arrivals {
					t.Errorf("class %s: admitted %d + throttled %d > arrivals %d",
						ts.Name, ts.Admitted, ts.Throttled, ts.Arrivals)
				}
				arrivals += ts.Arrivals
				admitted += ts.Admitted
				throttled += ts.Throttled
				acked += ts.Acked
			}
			v := r.Verdicts
			if arrivals != v.Arrivals || admitted != v.Admitted ||
				throttled != v.ShedThrottled || acked != v.Acked {
				t.Fatalf("class sums (%d/%d/%d/%d) disagree with verdicts %+v",
					arrivals, admitted, throttled, acked, v)
			}
			if v.ShedThrottled == 0 {
				t.Fatal("metered class was never throttled: the QoS bucket is not engaged")
			}
		})
	}
}

// The Naive arm serves the same keyspace through the baseline datapath.
func TestRunNaiveBackend(t *testing.T) {
	cfg := tinyConfig("naive")
	cfg.OfferedLoad = 200_000
	r := Run(cfg)
	if err := r.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	if r.Verdicts.Acked == 0 {
		t.Fatalf("nothing acked: %s", summary(r))
	}
	if b, o := r.FusedBatches, r.FusedOps; b != 0 || o != 0 {
		t.Fatalf("naive arm reported fusion (%d, %d)", b, o)
	}
}

// Past saturation, admission control must hold goodput while the disabled
// baseline's hidden queue pushes open-loop latency through the SLO.
func TestAdmissionProtectsGoodputPastSaturation(t *testing.T) {
	base := Config{
		System:         "hyperloop",
		Groups:         2,
		ShardsPerGroup: 1,
		HostsPerGroup:  3,
		Replicas:       3,
		RegionSize:     1 << 18,
		FusionDepth:    4,
		DoorbellCost:   200 * sim.Nanosecond,
		Seed:           1,
		Clients:        100_000,
		OfferedLoad:    1_000_000, // ~5x the measured two-group capacity
		Duration:       2 * sim.Millisecond,
		SLO:            500 * sim.Microsecond,
	}
	// A shallow bounded queue keeps admitted-op sojourn under the SLO at the
	// measured ~100 kops/s per-group service rate; everything beyond it sheds.
	adm := AdmissionConfig{
		QueueDepth: 12, MaxInflight: 8, DispatchBatch: 8,
		DispatchEvery: 2 * sim.Microsecond,
	}

	on := base
	on.Admission = adm
	on.Admission.Enabled = true
	rOn := Run(on)
	if err := rOn.CheckAccounting(); err != nil {
		t.Fatal(err)
	}

	off := base
	off.Admission = adm
	off.Admission.Enabled = false
	rOff := Run(off)
	if err := rOff.CheckAccounting(); err != nil {
		t.Fatal(err)
	}

	if rOn.Verdicts.ShedQueueFull == 0 {
		t.Fatalf("overload but no queue-full sheds: %s", summary(rOn))
	}
	if rOff.Verdicts.ShedQueueFull != 0 || rOff.Verdicts.ShedThrottled != 0 {
		t.Fatalf("disabled admission shed load: %s", summary(rOff))
	}
	if rOn.GoodputKops < 1.5*rOff.GoodputKops {
		t.Fatalf("admission-on goodput %.1f not >> admission-off %.1f",
			rOn.GoodputKops, rOff.GoodputKops)
	}
	if rOff.P999 < 2*rOn.P999 {
		t.Fatalf("hidden queue p99.9 %v not >> bounded-queue %v", rOff.P999, rOn.P999)
	}
	// Same-instant dispatch batches must engage the WQE fusion path.
	if rOn.FusedBatches == 0 || rOn.FusedOps <= rOn.FusedBatches {
		t.Fatalf("fusion never engaged: batches=%d ops=%d", rOn.FusedBatches, rOn.FusedOps)
	}
}
