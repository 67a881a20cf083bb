package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"hyperloop/internal/cluster"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/load"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// serve-open: the open-loop serving plane. Poisson arrivals over 2^20
// client ids feed, per group, a load.Admission controller in front of a
// load.OpenHyperLoop plane, with the load-curve cell's configuration
// (internal/experiments/loadcurve.go): 2 groups x 3 hosts, 3 replicas,
// 256 KiB region, fusion depth 4, 200 ns doorbells, admission queue 8 /
// inflight 16 / batch 8 every 2 us, 128 B puts. Each rung of a fixed ladder
// of offered rates runs a 100 ms arrival horizon on a fresh plane. A put is
// timed from its arrival, queueing included. Arrivals fire exactly when due
// on the modeled clock, so the generator is never late.
var (
	serveLadder = []float64{40e3, 80e3, 90e3, 100e3, 140e3}
	// serveAdmission mirrors the load-curve cell's curveAdmission.
	serveAdmission = load.AdmissionConfig{
		Enabled:       true,
		QueueDepth:    8,
		MaxInflight:   16,
		DispatchBatch: 8,
		DispatchEvery: 2 * sim.Microsecond,
	}
)

const (
	serveGroups  = 2
	serveClients = 1 << 20
	serveActive  = 4096
	serveKeys    = 128
	serveValue   = 128
	serveHorizon = 100 * sim.Millisecond
	// serveLatencyRate is the rung whose latency the benchmark reports, just
	// past the knee, where puts queue in admission behind WAL ring-full
	// backpressure. Below the knee a put's latency is the same at every
	// seed: an arrival to an idle controller waits exactly one dispatch
	// tick and the serving fabric has no jitter, so p50 and p99 would not
	// depend on the input at all. Past the knee the queue makes p50 vary
	// from seed to seed, so the rung runs serveLatencyRuns times with
	// derived seeds and pools the puts (over 70,000, so p999 is reported
	// too).
	serveLatencyRate = 100e3
	serveLatencyRuns = 8
	// serveOverloadRate is the fixed overload rung, where goodput equals
	// the plane's capacity.
	serveOverloadRate = 140e3
)

// serveGroup is one group's partition-local load-generator state.
type serveGroup struct {
	g   int
	eng *sim.Engine
	srv load.Server
	db  *kvstore.DB
	adm *load.Admission

	// arrived is each arrival's time, indexed by op id; state is 0 before
	// dispatch, 1 in flight, 2 acked.
	arrived []sim.Time
	state   []uint8
	// lastAcked maps a key to the op id of its latest acked put.
	lastAcked map[string]uint64

	lat             samples
	puts, forwarded int
	pendingPeak     int
	err             error

	traced          bool
	tr              tracer
	tag             string
	issueNs, issues int64
}

// dispatch is the Admission controller's put hook: it hands one op to the
// serving plane through Server.Put and times the call.
func (s *serveGroup) dispatch(key string, val []byte, done func(error)) {
	id := binary.LittleEndian.Uint64(val)
	called := s.eng.Now()
	s.state[id] = 1
	s.puts++
	if s.srv.HomeGroup(key) != s.g {
		s.forwarded++
	}
	timeIssue(s.traced, &s.issueNs, &s.issues, func() {
		s.srv.Put(s.g, key, val, func(err error) {
			switch {
			case err == nil:
				now := s.eng.Now()
				s.state[id] = 2
				s.lastAcked[key] = id
				s.lat = append(s.lat, now.Sub(s.arrived[id]))
				if p := s.db.PendingCommits(); p > s.pendingPeak {
					s.pendingPeak = p
				}
				if s.traced {
					root := s.tr.add(0, id, 0, "op", s.tag, s.arrived[id], now)
					s.tr.add(0, id, root, "load.Admission", s.tag, s.arrived[id], called)
					s.tr.add(0, id, root, "load.Server.Put", s.tag, called, now)
				}
			case errors.Is(err, wal.ErrLogFull):
				// Ring-full backpressure: the controller re-queues the op.
				s.state[id] = 0
			default:
				s.state[id] = 0
				if s.err == nil {
					s.err = fmt.Errorf("group %d put %s: %w", s.g, key, err)
				}
			}
			done(err)
		})
	})
}

// rung is one offered rate's outcome, summed over groups.
type rung struct {
	rate            float64
	v               load.Verdicts
	lat             samples
	queuePeak       int
	pendingPeak     int
	puts, forwarded int
	cnt             counters
	events          uint64
	prims           uint64
	batches, fused  uint64
	spans           []span
	wall            time.Duration
}

func (g *rung) failedOps() uint64 {
	return g.v.Failed + g.v.Unserved + g.v.ShedQueueFull + g.v.ShedThrottled
}

// runRung runs one rate on a fresh plane and checks its outputs; index
// numbers the rung within the repetition, keeping span ids unique.
func runRung(c runCfg, r *rep, index int, rate float64, seed int64) (*rung, error) {
	m := r.begin(c.traced)
	srv, err := load.OpenHyperLoop(load.ServerConfig{
		Groups:         serveGroups,
		ShardsPerGroup: 1,
		HostsPerGroup:  3,
		Replicas:       3,
		RegionSize:     1 << 18,
		FusionDepth:    4,
		DoorbellCost:   200 * sim.Nanosecond,
		Workers:        c.workers,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	pe := srv.PE()
	horizon := c.duration(serveHorizon)
	var start sim.Time
	for g := 0; g < serveGroups; g++ {
		start = max(start, pe.Partition(g).Now())
	}
	end := start.Add(horizon)

	rateG := rate / serveGroups
	spaceG := serveClients / serveGroups
	churn := float64(spaceG-serveActive) / (rateG * horizon.Seconds())
	groups := make([]*serveGroup, serveGroups)
	var nodes []*cluster.Node
	for g := range groups {
		g := g
		eng := pe.Partition(g)
		s := &serveGroup{
			g: g, eng: eng, srv: srv, db: srv.Plane(g).Shard(0).DB(),
			lastAcked: map[string]uint64{},
			traced:    c.traced,
			tag:       fmt.Sprintf("rate=%.0f", rate),
			tr:        tracer{next: uint64(index)<<40 | uint64(g)<<36},
		}
		groups[g] = s
		nodes = append(nodes, srv.Cluster(g).Nodes...)
		s.adm = load.NewAdmission(eng, serveAdmission, load.DefaultTenants, s.dispatch, nil)
		rng := sim.NewRand(seed*7907 + int64(g)*104729 + 3)
		arrivals := load.NewPoisson(rateG, rng.Fork())
		clients := load.NewClients(spaceG, serveActive, churn, load.DefaultTenants)
		vals := ycsb.NewValueGenerator(serveValue, seed*7919+int64(g))
		var keys []string
		for i := 0; len(keys) < serveKeys; i++ {
			if key := fmt.Sprintf("so%d/%06d", g, i); srv.HomeGroup(key) == g {
				keys = append(keys, key)
			}
		}
		var tick func()
		tick = func() {
			client, class := clients.Sample(rng)
			id := len(s.arrived)
			s.arrived = append(s.arrived, eng.Now())
			s.state = append(s.state, 0)
			val := vals.Next(int64(id))
			binary.LittleEndian.PutUint64(val, uint64(id))
			s.adm.Offer(keys[client%len(keys)], val, class)
			if gap := arrivals.Next(); eng.Now().Add(gap) <= end {
				eng.Schedule(gap, tick)
			}
		}
		if at := start.Add(arrivals.Next()); at <= end {
			eng.Schedule(at.Sub(eng.Now()), tick)
		}
	}

	if err := m.start(); err != nil {
		return nil, err
	}
	resetHosts(nodes)
	before := readCounters(nodes)
	ev0 := pe.TotalFired()
	var prims0 uint64
	for g := range groups {
		prims0 += srv.Plane(g).Shard(0).Group().OpsCompleted()
	}
	// Drive to the horizon, then give admitted ops a drain window; what is
	// still pending after it is counted unserved.
	drainLimit := end.Add(3 * horizon).Add(10 * sim.Millisecond)
	for deadline := start; ; {
		deadline = min(deadline.Add(500*sim.Microsecond), drainLimit)
		pe.Run(deadline)
		if deadline < end {
			continue
		}
		pending := 0
		for _, s := range groups {
			pending += s.adm.Pending()
		}
		if pending == 0 || deadline == drainLimit {
			break
		}
	}
	res := &rung{rate: rate}
	acked := 0
	for _, s := range groups {
		s.adm.CutOff()
		acked += len(s.lat)
	}
	res.events = pe.TotalFired() - ev0
	res.wall = m.stop(acked, res.events)
	res.cnt = readCounters(nodes).since(before)
	for g, s := range groups {
		if s.err != nil {
			return nil, s.err
		}
		v := s.adm.Verdicts()
		res.v.Add(v)
		res.queuePeak = max(res.queuePeak, s.adm.QueuePeak())
		res.pendingPeak = max(res.pendingPeak, s.pendingPeak)
		res.lat = append(res.lat, s.lat...)
		res.puts += s.puts
		res.forwarded += s.forwarded
		grp := srv.Plane(g).Shard(0).Group()
		res.prims += grp.OpsCompleted()
		b, f := grp.FusionStats()
		res.batches += b
		res.fused += f
		res.spans = append(res.spans, s.tr.spans...)
		r.issueNs += s.issueNs
		r.issues += s.issues
		// Output checks, per group: the verdict identities, and agreement
		// with the load generator's own count of arrivals and acks.
		if v.Arrivals != v.Admitted+v.ShedQueueFull+v.ShedThrottled ||
			v.Admitted != v.Acked+v.Failed+v.Unserved {
			return nil, fmt.Errorf("rate %.0f group %d: verdicts do not balance: %+v", rate, g, v)
		}
		if v.Arrivals != uint64(len(s.arrived)) || v.Acked != uint64(len(s.lat)) {
			return nil, fmt.Errorf("rate %.0f group %d: %d arrivals and %d acks driven, controller counted %d and %d",
				rate, g, len(s.arrived), len(s.lat), v.Arrivals, v.Acked)
		}
	}
	res.prims -= prims0
	if err := serveDurable(pe, srv, groups); err != nil {
		return nil, fmt.Errorf("rate %.0f: %w", rate, err)
	}
	return res, nil
}

// serveDurable commits every group's WAL and checks that each acked key's
// latest acked value is what every replica's rebuilt durable image holds.
// A put still in flight at cut-off (unserved) may land after the latest
// acked one, so its value is accepted too.
func serveDurable(pe *sim.PartitionedEngine, srv load.Server, groups []*serveGroup) error {
	planes := make([]*shard.Plane, len(groups))
	for g := range planes {
		planes[g] = srv.Plane(g)
	}
	if err := commit(pe, planes); err != nil {
		return err
	}
	for g, s := range groups {
		pl := srv.Plane(g)
		for _, h := range pl.Shard(0).Replicas() {
			image, err := kvstore.Rebuild(pl.Pool()[h].Dev.DurableRead, pl.RegionConfig(0))
			if err != nil {
				return fmt.Errorf("group %d replica host %d: rebuild: %w", g, h, err)
			}
			for key, id := range s.lastAcked {
				val, ok := image[key]
				if !ok || len(val) != serveValue {
					return fmt.Errorf("group %d replica host %d: acked key %s missing from the durable image", g, h, key)
				}
				if got := binary.LittleEndian.Uint64(val); got != id && (got >= uint64(len(s.state)) || s.state[got] != 1) {
					return fmt.Errorf("group %d replica host %d: durable %s holds put %d, latest acked is %d", g, h, key, got, id)
				}
			}
		}
	}
	return nil
}

func runServeOpen(c runCfg) (*rep, error) {
	r := newRep()
	// rungs is the ladder; latency the latency rung's runs, the first of
	// them shared with the ladder; all every run.
	var rungs, latency, all []*rung
	for _, rate := range serveLadder {
		g, err := runRung(c, r, len(all), rate, c.seed)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, g)
		all = append(all, g)
		if rate == serveLatencyRate {
			latency = append(latency, g)
			for i := 1; i < serveLatencyRuns; i++ {
				extra, err := runRung(c, r, len(all), rate, c.seed+int64(i)*1_000_003)
				if err != nil {
					return nil, err
				}
				latency = append(latency, extra)
				all = append(all, extra)
			}
		}
	}
	horizon := c.duration(serveHorizon)

	// The latency rung, pooled over its runs.
	var lat samples
	var queuePeak, pendingPeak int
	var spans []span
	for _, g := range latency {
		lat = append(lat, g.lat...)
		queuePeak = max(queuePeak, g.queuePeak)
		pendingPeak = max(pendingPeak, g.pendingPeak)
		spans = append(spans, g.spans...)
	}
	r.model.latency("write", lat)
	r.model["load.queue_peak"] = float64(queuePeak)
	r.model["wal.pending_peak"] = float64(pendingPeak)

	// The whole ladder, for rates, fractions and per-op counters.
	var v load.Verdicts
	var cnt counters
	var events, prims, batches, fused uint64
	var puts, forwarded int
	var failed uint64
	for _, g := range all {
		v.Add(g.v)
		cnt = cnt.add(g.cnt)
		events += g.events
		prims += g.prims
		batches += g.batches
		fused += g.fused
		puts += g.puts
		forwarded += g.forwarded
		failed += g.failedOps()
		r.attempted += int(g.v.Arrivals)
		r.failed += int(g.v.Failed + g.v.Unserved)
	}
	sloRate := 0.0
	for _, g := range rungs {
		if g.failedOps() == 0 && g.lat.pct(99) <= slo && g.rate/1e3 > sloRate {
			sloRate = g.rate / 1e3
		}
		good := rungGoodput(g, horizon)
		if g.rate == serveOverloadRate {
			r.model["goodput_kops"] = good
		}
		r.report = append(r.report, fmt.Sprintf("serve-open rung %6.0f/s: arrivals %d admitted %d shed %d throttled %d acked %d failed %d unserved %d ring-full %d; p50 %.1f us p99 %.1f us p999 %.1f us; goodput %.1f kops/s; host %.2f s",
			g.rate, g.v.Arrivals, g.v.Admitted, g.v.ShedQueueFull, g.v.ShedThrottled, g.v.Acked, g.v.Failed, g.v.Unserved,
			g.v.Backpressure, us(g.lat.pct(50)), us(g.lat.pct(99)), us(g.lat.pct(99.9)), good, g.wall.Seconds()))
	}
	ops := int(v.Acked)
	r.model["slo_rate_kops"] = sloRate
	r.model["failed_frac"] = float64(failed) / float64(v.Arrivals)
	r.model["load.admit_frac"] = float64(v.Admitted) / float64(v.Arrivals)
	r.model["wal.backpressure_per_op"] = float64(v.Backpressure) / float64(ops)
	r.model["shard.forwarded_frac"] = float64(forwarded) / float64(puts)
	r.model.perOp(cnt, events, ops, int64(ops)*serveValue)
	r.model["core.prims_per_op"] = float64(prims) / float64(ops)
	if batches > 0 {
		r.model["core.fused_ops_per_batch"] = float64(fused) / float64(batches)
	}
	r.report = append(r.report, fmt.Sprintf("serve-open: latency at %.0f/s over %d runs (%d puts): p50 %.2f us p99 %.2f us p999 %.2f us; goodput at %.0f/s %.1f kops/s; highest rung within the SLO %.0f kops/s; generator lateness 0 (arrivals fire when due on the modeled clock)",
		serveLatencyRate, len(latency), len(lat), r.model["write_p50_us"], r.model["write_p99_us"], r.model["write_p999_us"],
		serveOverloadRate, r.model["goodput_kops"], sloRate))
	if c.traced {
		s, err := splitLatency(spans)
		if err != nil {
			return nil, err
		}
		r.spanMetrics["write_mean_us"] = s.mean
		r.spanMetrics["load.queue_wait_us"] = s.queue
		r.spanMetrics["shard.put_mean_us"] = s.put
		r.spanMetrics["shard.put_p99_us"] = s.putP99
		for _, g := range all {
			r.spans = append(r.spans, g.spans...)
		}
		for _, g := range rungs {
			s, err := splitLatency(g.spans)
			if err != nil {
				return nil, err
			}
			r.report = append(r.report, fmt.Sprintf("trace rung %6.0f/s: mean write %.3f us = load queue wait %.3f us + shard put %.3f us",
				g.rate, s.mean, s.queue, s.put))
		}
	}
	return r, nil
}

// rungGoodput is a rung's acks within the SLO per modeled second of its
// arrival horizon.
func rungGoodput(g *rung, horizon sim.Duration) float64 {
	return float64(g.lat.within(slo)) / horizon.Seconds() / 1e3
}

// split is a mean write latency split by layer, in microseconds.
type split struct{ mean, queue, put, putP99 float64 }

// splitLatency splits the mean write latency of the ops whose spans are
// given into the admission queue wait and the Server.Put time, and checks
// that the two children of every op tile its root exactly.
func splitLatency(spans []span) (split, error) {
	type op struct{ root, queue, put int64 }
	ops := map[uint64]*op{}
	for _, s := range spans {
		if s.Name == "op" {
			ops[s.ID] = &op{root: s.End - s.Start}
		}
	}
	for _, s := range spans {
		o := ops[s.Parent]
		switch {
		case o == nil:
		case s.Name == "load.Admission":
			o.queue += s.End - s.Start
		case s.Name == "load.Server.Put":
			o.put += s.End - s.Start
		}
	}
	if len(ops) == 0 {
		return split{}, errors.New("trace: no op spans")
	}
	var sum op
	puts := make(samples, 0, len(ops))
	for _, o := range ops {
		if o.queue+o.put != o.root {
			return split{}, fmt.Errorf("trace: queue wait %d ns + put %d ns != op %d ns", o.queue, o.put, o.root)
		}
		sum.root += o.root
		sum.queue += o.queue
		sum.put += o.put
		puts = append(puts, sim.Duration(o.put))
	}
	n := float64(len(ops)) * 1e3
	return split{
		mean:   float64(sum.root) / n,
		queue:  float64(sum.queue) / n,
		put:    float64(sum.put) / n,
		putP99: us(puts.pct(99)),
	}, nil
}
