package load

import (
	"fmt"

	"hyperloop/internal/check"
	"hyperloop/internal/cluster"
	"hyperloop/internal/metrics"
	"hyperloop/internal/qos"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/stats"
	"hyperloop/internal/ycsb"
)

// Config sizes one open-loop serving-plane run.
type Config struct {
	// System selects the data plane: "hyperloop" (default) or "naive".
	System string
	// Topology — mirrors ServerConfig.
	Groups         int
	ShardsPerGroup int
	HostsPerGroup  int
	Replicas       int
	RegionSize     int
	FusionDepth    int
	DoorbellCost   sim.Duration
	Workers        int
	Seed           int64

	// Clients is the modeled connection-id space across all groups
	// (default 1<<20). Ids cost nothing per se — the population is a
	// sampling space, not a goroutine army — so a million-client run is the
	// normal case, not a stress test.
	Clients int
	// ActivePerGroup is each group's concurrently-open connection count
	// (default 4096); churn slides this window across the group's id slice
	// so the whole space is touched over the run.
	ActivePerGroup int
	// Arrival selects the process: "poisson" (default) or "bmodel".
	Arrival string
	// BModelBias is the b-model's burstiness knob (default 0.7).
	BModelBias float64
	// OfferedLoad is the total arrival rate across groups, puts/second
	// (default 400k).
	OfferedLoad float64
	// ValueSize is the put payload (default 128).
	ValueSize int
	// Duration is the arrival horizon in virtual time (default 20ms);
	// admitted ops are allowed a drain window of 3x afterward before being
	// counted unserved.
	Duration sim.Duration
	// SLO bounds the open-loop latency (arrival to ack) an op may take and
	// still count toward goodput (default 150µs).
	SLO sim.Duration

	// Tenants partitions the client population into rate classes (default:
	// one unthrottled class).
	Tenants []TenantClass
	// Admission tunes the per-group controller; Admission.Enabled is the
	// on/off axis the experiments sweep.
	Admission AdmissionConfig

	// HostTiers labels each group's host pool for tiered placement and
	// TierNIC gives tiers their own NIC profiles (see ServerConfig).
	HostTiers []shard.Tier
	TierNIC   map[shard.Tier]rdma.Config
	// QoS starts one qos.Controller per group: tenant keysets become
	// shard-scoped, verdicts flow into per-tenant metric series, and
	// sustained saturation can fund migration-backed scale-out within each
	// tenant's budget. Forces Metrics on.
	QoS bool
	// QoSConfig tunes the controllers (zero fields take qos defaults).
	QoSConfig qos.Config

	// Metrics attaches per-group registries; WithSpans per-group op spans.
	Metrics   bool
	WithSpans bool
}

func (c *Config) fill() {
	if c.System == "" {
		c.System = "hyperloop"
	}
	if c.Clients <= 0 {
		c.Clients = 1 << 20
	}
	if c.ActivePerGroup <= 0 {
		c.ActivePerGroup = 4096
	}
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.BModelBias == 0 {
		c.BModelBias = 0.7
	}
	if c.OfferedLoad <= 0 {
		c.OfferedLoad = 400_000
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 128
	}
	if c.Duration <= 0 {
		c.Duration = 20 * sim.Millisecond
	}
	if c.SLO <= 0 {
		c.SLO = 150 * sim.Microsecond
	}
	if len(c.Tenants) == 0 {
		c.Tenants = DefaultTenants
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// TenantStat is one rate class's merged outcome.
type TenantStat struct {
	Name      string
	Arrivals  uint64
	Admitted  uint64
	Throttled uint64
	Acked     uint64
	P99       sim.Duration
	// Credits is the class's leftover bucket credit summed across groups at
	// cut-off (burst headroom it never spent).
	Credits float64
}

// Result is one serving-plane run, merged across groups in group order so
// every field is bit-identical at any engine worker count.
type Result struct {
	System   string
	Offered  float64 // puts/second across groups
	Workers  int
	Elapsed  sim.Duration // the arrival horizon
	Verdicts Verdicts

	// Open-loop latency (arrival to ack, queueing included) over all acked
	// ops; P999 is the tail the curve plots.
	Lat  stats.Summary
	P999 sim.Duration
	// TputKops counts every ack; GoodputKops only acks within SLO. Both are
	// normalized by the arrival horizon, so shed or unserved load shows up
	// as the gap against the offered rate.
	TputKops    float64
	GoodputKops float64

	QueuePeak int

	// Client-population accounting.
	ClientsModeled int
	ConnsOpened    uint64
	ConnsClosed    uint64

	// Data-plane counters.
	FusedBatches uint64
	FusedOps     uint64
	Doorbells    uint64

	Tenants []TenantStat

	// QoSEvents is every group controller's decision log concatenated in
	// group order; QoSTenants the per-tenant controller ledgers merged in
	// group order (steps/spend summed, Degraded OR-ed). Both empty unless
	// Config.QoS.
	QoSEvents  []qos.Event
	QoSTenants []qos.TenantState

	// Placements is, per group in group order, the final shard→hosts map —
	// the audit trail tier-placement checks read after the run.
	Placements [][][]int

	// SpansStarted/Ended report the op-span ledger when WithSpans is set.
	SpansStarted uint64
	SpansEnded   uint64

	// Skew is the conservative-lookahead invariant verdict.
	Skew check.Result
	// Regs are the per-group registries in group order (nil unless
	// Config.Metrics).
	Regs []*metrics.Registry
}

// MergedRegistry merges the per-group registries in group order — the
// bit-reproducible dump the determinism gates compare.
func (r Result) MergedRegistry() *metrics.Registry {
	merged := metrics.NewRegistry()
	for _, reg := range r.Regs {
		merged.Merge(reg)
	}
	return merged
}

// CheckAccounting verifies the no-hidden-hole identity: every arrival ended
// in exactly one verdict bucket.
func (r Result) CheckAccounting() error {
	v := r.Verdicts
	if v.Arrivals != v.Admitted+v.ShedQueueFull+v.ShedThrottled {
		return fmt.Errorf("load: %d arrivals != %d admitted + %d shed-queue + %d shed-throttled",
			v.Arrivals, v.Admitted, v.ShedQueueFull, v.ShedThrottled)
	}
	if v.Admitted != v.Acked+v.Failed+v.Unserved {
		return fmt.Errorf("load: %d admitted != %d acked + %d failed + %d unserved",
			v.Admitted, v.Acked, v.Failed, v.Unserved)
	}
	return nil
}

// keysetSize is the per-group bounded key footprint (the workload pattern
// the population samples; the modeled scale lives in the client-id space).
const keysetSize = 128

// Run executes one open-loop serving run and returns the merged result.
func Run(cfg Config) Result {
	cfg.fill()
	if cfg.QoS {
		// The controllers observe tenant series living in the per-group
		// registries; without them there is nothing to window.
		cfg.Metrics = true
	}
	var regs []*metrics.Registry
	scfg := ServerConfig{
		Groups:         cfg.Groups,
		ShardsPerGroup: cfg.ShardsPerGroup,
		HostsPerGroup:  cfg.HostsPerGroup,
		Replicas:       cfg.Replicas,
		RegionSize:     cfg.RegionSize,
		FusionDepth:    cfg.FusionDepth,
		DoorbellCost:   cfg.DoorbellCost,
		HostTiers:      cfg.HostTiers,
		TierNIC:        cfg.TierNIC,
		Workers:        cfg.Workers,
		Seed:           cfg.Seed,
		WithSpans:      cfg.WithSpans,
	}
	scfg.fill()
	if cfg.Metrics {
		regs = make([]*metrics.Registry, scfg.Groups)
		for g := range regs {
			regs[g] = metrics.NewRegistry()
		}
		scfg.Metrics = regs
	}
	if cfg.System != "hyperloop" && cfg.System != "naive" {
		panic(fmt.Sprintf("load: unknown system %q", cfg.System))
	}
	srv, err := open(scfg, cfg.System == "naive")
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	groups := srv.Groups()

	// Per-group plumbing, every slot touched only by its own partition.
	type groupState struct {
		adm      *Admission
		clients  *Clients
		hist     *stats.Histogram
		classH   []*stats.Histogram
		classAck []uint64
		good     uint64
		act      *groupActuator // nil unless cfg.QoS
		ctrl     *qos.Controller
	}
	gs := make([]*groupState, groups)

	// Common absolute start: the latest any partition has reached after
	// open, so every group's arrival clock is anchored at one instant.
	var start sim.Time
	for g := 0; g < groups; g++ {
		if t := srv.PE().Partition(g).Now(); t > start {
			start = t
		}
	}
	horizon := start.Add(cfg.Duration)

	rateG := cfg.OfferedLoad / float64(groups)
	spaceG := cfg.Clients / groups
	if spaceG < 1 {
		spaceG = 1
	}
	expArrivals := rateG * cfg.Duration.Seconds()
	churn := 0.0
	if expArrivals > 0 && spaceG > cfg.ActivePerGroup {
		churn = float64(spaceG-cfg.ActivePerGroup) / expArrivals
	}

	for g := 0; g < groups; g++ {
		g := g
		eng := srv.PE().Partition(g)
		st := &groupState{
			clients:  NewClients(spaceG, cfg.ActivePerGroup, churn, cfg.Tenants),
			hist:     stats.NewHistogram(),
			classH:   make([]*stats.Histogram, len(cfg.Tenants)),
			classAck: make([]uint64, len(cfg.Tenants)),
		}
		for i := range st.classH {
			st.classH[i] = stats.NewHistogram()
		}
		gs[g] = st

		rng := sim.NewRand(cfg.Seed + 77*int64(g) + 13)
		var arr Arrivals
		switch cfg.Arrival {
		case "poisson":
			arr = NewPoisson(rateG, rng.Fork())
		case "bmodel":
			arr = NewBModel(rateG, cfg.BModelBias, rng.Fork())
		default:
			panic(fmt.Sprintf("load: unknown arrival process %q", cfg.Arrival))
		}

		// Bounded per-group keyset, filtered to keys homed here — puts stay
		// partition-local, and both backends agree on the filter.
		var keys []string
		for i := 0; len(keys) < keysetSize; i++ {
			k := fmt.Sprintf("ld/g%d/%06d", g, i)
			if srv.HomeGroup(k) == g {
				keys = append(keys, k)
			}
		}
		vals := ycsb.NewValueGenerator(cfg.ValueSize, cfg.Seed+int64(g)*1013+7)

		st.adm = NewAdmission(eng, cfg.Admission, cfg.Tenants,
			func(key string, val []byte, done func(error)) { srv.Put(g, key, val, done) },
			func(o *Op, err error) {
				if err != nil {
					return
				}
				lat := eng.Now().Sub(o.arrived)
				st.hist.Record(lat)
				st.classH[o.class].Record(lat)
				st.classAck[o.class]++
				if lat <= cfg.SLO {
					st.good++
				}
			})

		if cfg.Metrics {
			reg := regs[g]
			lbl := fmt.Sprintf("lg%d", g)
			cluster.Instrument(reg, srv.Cluster(g), lbl)
			v := &st.adm.v
			reg.GaugeFunc("load", "arrivals", lbl, func() float64 { return float64(v.Arrivals) })
			reg.GaugeFunc("load", "admitted", lbl, func() float64 { return float64(v.Admitted) })
			reg.GaugeFunc("load", "shed_queue_full", lbl, func() float64 { return float64(v.ShedQueueFull) })
			reg.GaugeFunc("load", "shed_throttled", lbl, func() float64 { return float64(v.ShedThrottled) })
			reg.GaugeFunc("load", "backpressure", lbl, func() float64 { return float64(v.Backpressure) })
			reg.GaugeFunc("load", "acked", lbl, func() float64 { return float64(v.Acked) })
			reg.GaugeFunc("load", "queue_depth", lbl, func() float64 {
				return float64(st.adm.Pending() - st.adm.inflight)
			})
			reg.GaugeFunc("load", "conns_opened", lbl, func() float64 {
				o, _ := st.clients.Conns()
				return float64(o)
			})
		}

		if cfg.QoS {
			names := make([]string, len(cfg.Tenants))
			classes := make([]qos.Class, len(cfg.Tenants))
			for i, tc := range cfg.Tenants {
				names[i] = tc.Name
				classes[i] = qos.Class{Name: tc.Name, ContractRate: tc.RatePerSec, SLO: tc.SLO}
			}
			src := qos.NewRegistrySource(regs[g], names)
			st.adm.InstrumentQoS(src)

			pl := srv.Plane(g)
			shardCache := map[int][]string{}
			shardKeys := func(sid int) []string {
				ks, ok := shardCache[sid]
				if !ok {
					ks = shardKeyset(srv, pl, g, sid)
					shardCache[sid] = ks
				}
				return ks
			}
			// Tenant i starts on shard i mod ShardsPerGroup; shards past the
			// tenant count are the spares scale-out recruits.
			keysets := make([][]string, len(cfg.Tenants))
			for i := range keysets {
				keysets[i] = shardKeys(i % pl.Shards())
			}
			spare := len(cfg.Tenants)
			if spare > pl.Shards() {
				spare = pl.Shards()
			}
			st.act = &groupActuator{
				adm: st.adm, pl: pl,
				hosts: scfg.HostsPerGroup, replicas: scfg.Replicas,
				keysets: keysets, spare: spare, shardKeys: shardKeys,
			}
			st.ctrl = qos.NewController(eng, cfg.QoSConfig, classes, src, st.act)
			// Decisions stop at the arrival horizon; in-flight scale-outs
			// still settle their ledgers during the drain window.
			ctrl := st.ctrl
			eng.Schedule(horizon.Sub(eng.Now()), func() { ctrl.Stop() })
		}

		// The open-loop arrival pump: offer, then schedule the next arrival
		// if it still lands inside the horizon.
		var tick func()
		tick = func() {
			// A client keeps its key across the run (session working set);
			// the keyset stays bounded while the id space is huge. With QoS
			// on, the class's live keyset aims the op at the shards the
			// tenant owns right now.
			id, class := st.clients.Sample(rng)
			var key string
			if st.act != nil {
				ks := st.act.keysets[class]
				key = ks[id%len(ks)]
			} else {
				key = keys[id%len(keys)]
			}
			st.adm.Offer(key, vals.Next(0), class)
			gap := arr.Next()
			if eng.Now().Add(gap) <= horizon {
				eng.Schedule(gap, tick)
			}
		}
		first := arr.Next()
		at := start.Add(first)
		if at <= horizon {
			eng.Schedule(at.Sub(eng.Now()), tick)
		}
		if sp := srv.Spans(g); sp != nil {
			sp.Annotate("load", fmt.Sprintf("open-loop start g%d rate=%.0f/s", g, rateG))
		}
	}

	var samplers []*metrics.Sampler
	if cfg.Metrics {
		for g := 0; g < groups; g++ {
			samplers = append(samplers, metrics.NewSampler(srv.PE().Partition(g), regs[g], sim.Millisecond))
		}
	}

	// Drive to the horizon, then give admitted ops a bounded drain window;
	// whatever is still pending after it is counted unserved, never hidden.
	drainLimit := horizon.Add(3 * cfg.Duration).Add(10 * sim.Millisecond)
	deadline := start
	for {
		deadline = deadline.Add(500 * sim.Microsecond)
		if deadline > drainLimit {
			deadline = drainLimit
		}
		srv.PE().Run(deadline)
		if deadline.Sub(horizon) >= 0 {
			pending := 0
			for _, st := range gs {
				pending += st.adm.Pending()
			}
			if pending == 0 || deadline == drainLimit {
				break
			}
		}
	}
	for _, s := range samplers {
		s.Stop()
	}
	if cfg.Metrics {
		for g := range regs {
			regs[g].Sample(srv.PE().Partition(g).Now())
		}
	}
	skew := check.PartitionSkew(srv.PE())

	// Merge in group order.
	res := Result{
		System:         cfg.System,
		Offered:        cfg.OfferedLoad,
		Workers:        cfg.Workers,
		Elapsed:        cfg.Duration,
		QueuePeak:      0,
		ClientsModeled: spaceG * groups,
		Skew:           skew,
		Regs:           regs,
	}
	agg := stats.NewHistogram()
	var good uint64
	classH := make([]*stats.Histogram, len(cfg.Tenants))
	for i := range classH {
		classH[i] = stats.NewHistogram()
	}
	res.Tenants = make([]TenantStat, len(cfg.Tenants))
	for i, tc := range cfg.Tenants {
		res.Tenants[i].Name = tc.Name
	}
	for g, st := range gs {
		st.adm.CutOff()
		res.Verdicts.Add(st.adm.Verdicts())
		if qp := st.adm.QueuePeak(); qp > res.QueuePeak {
			res.QueuePeak = qp
		}
		agg.Merge(st.hist)
		good += st.good
		o, c := st.clients.Conns()
		res.ConnsOpened += o
		res.ConnsClosed += c
		for i := range cfg.Tenants {
			arrivals, admitted, throttled, _ := st.adm.ClassStats(i)
			res.Tenants[i].Arrivals += arrivals
			res.Tenants[i].Admitted += admitted
			res.Tenants[i].Throttled += throttled
			res.Tenants[i].Acked += st.classAck[i]
			res.Tenants[i].Credits += st.adm.Credits(i)
			classH[i].Merge(st.classH[i])
		}
		if st.ctrl != nil {
			res.QoSEvents = append(res.QoSEvents, st.ctrl.Events()...)
			states := st.ctrl.States()
			if res.QoSTenants == nil {
				res.QoSTenants = make([]qos.TenantState, len(states))
			}
			for i, s := range states {
				res.QoSTenants[i].Name = s.Name
				res.QoSTenants[i].Steps += s.Steps
				res.QoSTenants[i].Spent += s.Spent
				res.QoSTenants[i].EscrowLeft += s.EscrowLeft
				res.QoSTenants[i].FundedRate += s.FundedRate
				res.QoSTenants[i].Degraded = res.QoSTenants[i].Degraded || s.Degraded
			}
		}
		res.Placements = append(res.Placements, srv.Plane(g).Map.Placements())
		if sp := srv.Spans(g); sp != nil {
			started, ended, _, _ := sp.Counts()
			res.SpansStarted += started
			res.SpansEnded += ended
		}
	}
	for i := range res.Tenants {
		res.Tenants[i].P99 = classH[i].P99()
	}
	res.Lat = agg.Summarize()
	res.P999 = agg.Percentile(99.9)
	res.TputKops = float64(res.Verdicts.Acked) / cfg.Duration.Seconds() / 1e3
	res.GoodputKops = float64(good) / cfg.Duration.Seconds() / 1e3
	res.FusedBatches, res.FusedOps = srv.FusionStats()
	for g := 0; g < groups; g++ {
		cl := srv.Cluster(g)
		res.Doorbells += cl.Client().NIC.Counters().Doorbells
		for _, n := range cl.Replicas() {
			res.Doorbells += n.NIC.Counters().Doorbells
		}
	}
	return res
}
