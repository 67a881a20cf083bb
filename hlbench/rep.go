package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"hyperloop/internal/cluster"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
)

// slo is the latency bound an arrival must meet to count toward an open
// loop's goodput: the serving plane's load-curve SLO (curveSLO in
// internal/experiments). A closed loop has no arrival schedule to hold an
// SLO against; its goodput is the ops it completes per modeled second and
// its latency is reported as percentiles.
const slo = 500 * sim.Microsecond

// model holds a repetition's modeled results: end-to-end metrics, counters
// and output-check figures. It is exact for a seed and identical at any
// engine worker count, which the digest lets a reader verify.
type model map[string]float64

// digest hashes every modeled value, so a change that only speeds up the
// simulator can show that what it simulates did not change.
func (m model) digest() string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rep is one repetition of a workload.
type rep struct {
	// setups holds the wall set-up time of each timed phase: from workload
	// start (cluster build, group or plane open, preload, hog stagger) to
	// the first timed op.
	setups []time.Duration
	// timed is the wall time of the timed phases; done the modeled ops they
	// completed and events the engine events they fired.
	timed  time.Duration
	done   int
	events uint64
	// allocs and allocBytes count heap allocations in the timed phases;
	// liveHeap is the largest live heap after a forced GC at their end.
	allocs, allocBytes uint64
	liveHeap           uint64
	// gcCPU and cpu are the runtime's GC and busy CPU seconds in the timed
	// phases.
	gcCPU, cpu float64

	attempted, failed int
	model             model
	report            []string

	// Traced repetitions only: host time spent inside the issue calls the
	// benchmark makes into the layer stack, the recorded spans, the metrics
	// computed from them, and the CPU profiles of the timed phases.
	issueNs, issues int64
	spans           []span
	spanMetrics     map[string]float64
	profiles        [][]byte
}

func newRep() *rep {
	return &rep{model: model{}, spanMetrics: map[string]float64{}}
}

// meter times one timed phase of a repetition.
type meter struct {
	r       *rep
	traced  bool
	begun   time.Time
	started time.Time
	ms      runtime.MemStats
	cpu     [2]float64
	prof    bytes.Buffer
}

// begin marks the start of a workload's set-up.
func (r *rep) begin(traced bool) *meter {
	return &meter{r: r, traced: traced, begun: time.Now()}
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCPU() [2]float64 {
	metrics.Read(cpuSamples)
	gc := cpuSamples[0].Value.Float64()
	busy := cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64()
	return [2]float64{gc, busy}
}

// start ends set-up and starts the timed phase. The forced GC between them
// belongs to neither.
func (m *meter) start() error {
	m.r.setups = append(m.r.setups, time.Since(m.begun))
	runtime.GC()
	m.cpu = readCPU()
	runtime.ReadMemStats(&m.ms)
	if m.traced {
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	m.started = time.Now()
	return nil
}

// stop ends the timed phase, which completed done modeled ops and fired
// events engine events, and returns its wall time.
func (m *meter) stop(done int, events uint64) time.Duration {
	elapsed := time.Since(m.started)
	if m.traced {
		pprof.StopCPUProfile()
		m.r.profiles = append(m.r.profiles, append([]byte(nil), m.prof.Bytes()...))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	cpu := readCPU()
	r := m.r
	r.timed += elapsed
	r.done += done
	r.events += events
	r.allocs += ms.Mallocs - m.ms.Mallocs
	r.allocBytes += ms.TotalAlloc - m.ms.TotalAlloc
	if after.HeapAlloc > r.liveHeap {
		r.liveHeap = after.HeapAlloc
	}
	r.gcCPU += cpu[0] - m.cpu[0]
	r.cpu += cpu[1] - m.cpu[1]
	return elapsed
}

// timeIssue runs one synchronous issue call into the layer stack. In
// traced repetitions it adds the call's host time to *ns and counts it in
// *n.
func timeIssue(traced bool, ns, n *int64, call func()) {
	if !traced {
		call()
		return
	}
	t0 := time.Now()
	call()
	*ns += int64(time.Since(t0))
	*n++
}

// span is one traced interval on the modeled clock. Spans of one op share
// Op; a child names its parent.
type span struct {
	Op     uint64 `json:"op"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans for one partition.
type tracer struct {
	spans []span
	next  uint64
}

// id allocates a span id, for a parent whose children end before it does.
func (t *tracer) id() uint64 {
	t.next++
	return t.next
}

// add records a span under id (0 allocates one) and returns the id.
func (t *tracer) add(id, op, parent uint64, name, tag string, start, end sim.Time) uint64 {
	if id == 0 {
		id = t.id()
	}
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Tag: tag, Start: int64(start), End: int64(end)})
	return id
}

// samples is a list of modeled latencies.
type samples []sim.Duration

// pct is the nearest-rank percentile p (0 < p <= 100).
func (s samples) pct(p float64) sim.Duration {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, v := range s {
		sum += v
	}
	return float64(sum) / float64(len(s))
}

func (s samples) within(bound sim.Duration) int {
	n := 0
	for _, v := range s {
		if v <= bound {
			n++
		}
	}
	return n
}

func us(d sim.Duration) float64 { return float64(d) / 1e3 }

// latency records a latency distribution's percentiles into m under prefix
// (write or read). p999 needs ten samples beyond it, so it is recorded only
// with at least 10,000 samples; the sample count is always recorded.
func (m model) latency(prefix string, s samples) {
	m[prefix+"_samples"] = float64(len(s))
	if len(s) == 0 {
		return
	}
	m[prefix+"_p50_us"] = us(s.pct(50))
	m[prefix+"_p99_us"] = us(s.pct(99))
	m[prefix+"_mean_us"] = s.mean() / 1e3
	if len(s) >= 10000 {
		m[prefix+"_p999_us"] = us(s.pct(99.9))
	}
}

// counters sums the layer counters of a set of nodes. Everything in it is
// read through the nodes' public accounting: NIC.Counters, Dev.Stats and
// the Host scheduler's accounting.
type counters struct {
	wqes, doorbells, readsRx, rnrs uint64
	nvmBytes, flushes              uint64
	ctxSwitches                    uint64
	// queueWait sums the hosts' mean run-queue waits over the hosts that
	// dispatched anything; waitHosts counts them.
	queueWait sim.Duration
	waitHosts int
}

func readCounters(nodes []*cluster.Node) counters {
	var c counters
	for _, n := range nodes {
		nc := n.NIC.Counters()
		c.wqes += nc.WQEsExecuted
		c.doorbells += nc.Doorbells
		c.readsRx += nc.ReadsRx
		c.rnrs += nc.RNRs
		ds := n.Dev.Stats()
		c.nvmBytes += ds.BytesDirty
		c.flushes += ds.Flushes
		c.ctxSwitches += n.Host.ContextSwitches()
		if w := n.Host.MeanQueueWait(); w > 0 {
			c.queueWait += w
			c.waitHosts++
		}
	}
	return c
}

// resetHosts starts a measurement window on every host's accounting.
func resetHosts(nodes []*cluster.Node) {
	for _, n := range nodes {
		n.Host.ResetAccounting()
	}
}

// since returns c minus an earlier snapshot for the cumulative counters;
// host accounting is windowed by resetHosts, so it is kept as is.
func (c counters) since(old counters) counters {
	c.wqes -= old.wqes
	c.doorbells -= old.doorbells
	c.readsRx -= old.readsRx
	c.rnrs -= old.rnrs
	c.nvmBytes -= old.nvmBytes
	c.flushes -= old.flushes
	return c
}

func (c counters) add(o counters) counters {
	c.wqes += o.wqes
	c.doorbells += o.doorbells
	c.readsRx += o.readsRx
	c.rnrs += o.rnrs
	c.nvmBytes += o.nvmBytes
	c.flushes += o.flushes
	c.ctxSwitches += o.ctxSwitches
	c.queueWait += o.queueWait
	c.waitHosts += o.waitHosts
	return c
}

// perOp records the counter-derived per-layer metrics for ops modeled ops
// that wrote userBytes of payload.
func (m model) perOp(c counters, events uint64, ops int, userBytes int64) {
	n := float64(ops)
	m["sim.events_per_op"] = float64(events) / n
	m["rdma.wqes_per_op"] = float64(c.wqes) / n
	m["rdma.doorbells_per_op"] = float64(c.doorbells) / n
	m["rdma.reads_per_op"] = float64(c.readsRx) / n
	m["rdma.rnrs_per_op"] = float64(c.rnrs) / n
	m["nvm.flushes_per_op"] = float64(c.flushes) / n
	m["nvm.write_bytes_per_user_byte"] = float64(c.nvmBytes) / float64(userBytes)
	m["cpusched.ctx_switches_per_op"] = float64(c.ctxSwitches) / n
	m["cpusched.queue_wait_us"] = 0
	if c.waitHosts > 0 {
		m["cpusched.queue_wait_us"] = us(c.queueWait / sim.Duration(c.waitHosts))
	}
}

// drive runs a partitioned engine in deterministic 500 µs chunks until
// cond holds; cond is read only between chunks, when no worker runs.
func drive(pe *sim.PartitionedEngine, cond func() bool) error {
	deadline := pe.Partition(0).Now()
	limit := deadline.Add(60 * sim.Second)
	for !cond() {
		deadline = deadline.Add(500 * sim.Microsecond)
		if deadline >= limit {
			return errors.New("simulation stalled")
		}
		pe.Run(deadline)
	}
	return nil
}

// commit drains the WAL executor of every group's plane, each on its own
// partition.
func commit(pe *sim.PartitionedEngine, planes []*shard.Plane) error {
	errs := make([]error, len(planes))
	done := make([]bool, len(planes))
	for g, pl := range planes {
		g, pl := g, pl
		pe.Partition(g).Schedule(0, func() {
			pl.Commit(func(err error) { errs[g], done[g] = err, true })
		})
	}
	if err := drive(pe, func() bool { return !slices.Contains(done, false) }); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	return nil
}
