package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
	"hyperloop/internal/wal"
	"hyperloop/internal/ycsb"
)

// kv-craq: YCSB-B (95/5 zipfian read/update, 128 B values) on two groups
// of 3-replica chains, each group one kvstore.DB on its own sim partition,
// with CRAQ reads spread round-robin over the chain (the read-offload
// cell). A closed loop of 16 strands per group. Reads are one-sided RDMA
// READs of a replica's committed slot, or of the tail for a dirty key;
// updates go through the WAL, whose ring (a quarter of the 1 MiB region)
// holds every in-flight record.
const (
	kvGroups    = 2
	kvReplicas  = 3
	kvRegion    = 1 << 20
	kvKeyset    = 256
	kvValue     = 128
	kvStrands   = 16
	kvOpsPerGrp = 105000 // 5% updates: ~10,500 writes across both groups
	kvRetry     = 2 * sim.Microsecond
)

// kvGroup is one group's partition-local state.
type kvGroup struct {
	g    int
	eng  *sim.Engine
	pl   *shard.Plane
	db   *kvstore.DB
	keys []string
	gen  *ycsb.Generator
	vals *ycsb.ValueGenerator

	// acked lists each key's acked write ids in ack order; nextID numbers
	// this group's writes.
	acked  map[string][]uint64
	nextID uint64

	target, started  int
	done, rr         int
	writes, reads    samples
	retries          int
	pendingPeak      int
	start, finish    sim.Time
	err              error
	traced           bool
	tr               tracer
	issueNs, issues  int64
	primsAtStart     uint64
	cleanAt, dirtyAt uint64
}

// value returns a fresh 128 B value whose first 8 bytes name the write.
func (k *kvGroup) value(key int64) ([]byte, uint64) {
	k.nextID++
	id := uint64(k.g)<<48 | k.nextID
	v := k.vals.Next(key)
	binary.LittleEndian.PutUint64(v, id)
	return v, id
}

func (k *kvGroup) fail(err error) {
	if k.err == nil {
		k.err = fmt.Errorf("group %d: %w", k.g, err)
	}
}

// put writes key until the WAL accepts it; done fires once it is acked.
// Traced, each attempt's DB.Put call is a child span of the op's root.
func (k *kvGroup) put(op, root uint64, key string, val []byte, id uint64, done func()) {
	called := k.eng.Now()
	var err error
	k.timeIssue(func() {
		err = k.db.Put(key, val, func(err error) {
			if err != nil {
				k.fail(fmt.Errorf("put %s: %w", key, err))
				return
			}
			k.acked[key] = append(k.acked[key], id)
			if k.traced {
				k.tr.add(0, op, root, "kvstore.DB.Put", key, called, k.eng.Now())
			}
			done()
		})
	})
	if errors.Is(err, wal.ErrLogFull) {
		k.retries++
		k.eng.Schedule(kvRetry, func() { k.put(op, root, key, val, id, done) })
		return
	}
	if err != nil {
		k.fail(fmt.Errorf("put %s: %w", key, err))
	}
}

func (k *kvGroup) timeIssue(call func()) {
	timeIssue(k.traced, &k.issueNs, &k.issues, call)
}

// next issues one strand's next op, if the group has ops left.
func (k *kvGroup) next() {
	if k.started >= k.target || k.err != nil {
		return
	}
	k.started++
	op := uint64(k.started)
	y := k.gen.Next()
	key := k.keys[y.Key]
	start := k.eng.Now()
	var root uint64
	if k.traced {
		root = k.tr.id()
	}
	finish := func(lat *samples, name string) {
		end := k.eng.Now()
		*lat = append(*lat, end.Sub(start))
		if k.traced {
			k.tr.add(root, op, 0, name, key, start, end)
		}
		if p := k.db.PendingCommits(); p > k.pendingPeak {
			k.pendingPeak = p
		}
		k.done++
		if k.done == k.target {
			k.finish = end
		}
		k.next()
	}
	if y.Type != ycsb.Read {
		val, id := k.value(y.Key)
		k.put(op, root, key, val, id, func() { finish(&k.writes, "update") })
		return
	}
	replica := k.rr % kvReplicas
	k.rr++
	floor := len(k.acked[key]) - 1 // the newest version acked at issue
	k.timeIssue(func() {
		k.db.GetCRAQ(key, replica, func(val []byte, clean bool, err error) {
			if err != nil {
				k.fail(fmt.Errorf("read %s from replica %d: %w", key, replica, err))
				return
			}
			if err := k.checkRead(key, val, floor); err != nil {
				k.fail(err)
				return
			}
			if k.traced {
				tag := "dirty"
				if clean {
					tag = "clean"
				}
				k.tr.add(0, op, root, "kvstore.DB.GetCRAQ", tag, start, k.eng.Now())
			}
			finish(&k.reads, "read")
		})
	})
}

// checkRead verifies a read returned an acked version of key no older than
// the newest one acked when the read was issued.
func (k *kvGroup) checkRead(key string, val []byte, floor int) error {
	if len(val) != kvValue {
		return fmt.Errorf("read %s: %d-byte value", key, len(val))
	}
	id := binary.LittleEndian.Uint64(val)
	versions := k.acked[key]
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] != id {
			continue
		}
		if i < floor {
			return fmt.Errorf("read %s: stale version %d of %d", key, i, len(versions))
		}
		return nil
	}
	return fmt.Errorf("read %s: value of write %#x was never acked", key, id)
}

func runKVCRAQ(c runCfg) (*rep, error) {
	r := newRep()
	m := r.begin(c.traced)
	pp := shard.NewPartitionedPlane(shard.PartitionedConfig{
		Groups:         kvGroups,
		ShardsPerGroup: 1,
		HostsPerGroup:  kvReplicas,
		Replicas:       kvReplicas,
		RegionSize:     kvRegion,
		CommitEvery:    2,
		Group:          core.Config{Depth: 512},
		CRAQ:           true,
		Seed:           c.seed,
		Workers:        c.workers,
	})
	defer pp.Close()
	if err := pp.WaitOpen(sim.Time(sim.Second)); err != nil {
		return nil, err
	}
	groups := make([]*kvGroup, kvGroups)
	planes := make([]*shard.Plane, kvGroups)
	var nodes []*cluster.Node
	for g := range groups {
		pl := pp.Group(g)
		planes[g] = pl
		k := &kvGroup{
			g: g, eng: pp.PE.Partition(g), pl: pl, db: pl.Shard(0).DB(),
			gen:    ycsb.NewGenerator(ycsb.WorkloadB, kvKeyset, c.seed*1009+int64(g)),
			vals:   ycsb.NewValueGenerator(kvValue, c.seed*1013+int64(g)),
			acked:  map[string][]uint64{},
			target: c.n(kvOpsPerGrp, 400),
			tr:     tracer{next: uint64(g) << 40},
		}
		for i := 0; len(k.keys) < kvKeyset; i++ {
			if key := fmt.Sprintf("kv%d/%s", g, ycsb.KeyName(int64(i))); pp.HomeGroup(key) == g {
				k.keys = append(k.keys, key)
			}
		}
		groups[g] = k
		nodes = append(nodes, pl.Cl.Nodes...)
	}

	// Preload every key, then commit so the timed phase starts clean.
	loaded := make([]int, kvGroups)
	for _, k := range groups {
		k := k
		var load func(i int)
		load = func(i int) {
			if i >= kvKeyset {
				return
			}
			val, id := k.value(int64(i))
			k.put(0, 0, k.keys[i], val, id, func() {
				loaded[k.g]++
				load(i + kvStrands)
			})
		}
		k.eng.Schedule(0, func() {
			for i := 0; i < kvStrands; i++ {
				load(i)
			}
		})
	}
	if err := drive(pp.PE, func() bool { return loaded[0] == kvKeyset && loaded[1] == kvKeyset }); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := commit(pp.PE, planes); err != nil {
		return nil, err
	}
	for _, k := range groups {
		if k.err != nil {
			return nil, k.err
		}
		k.retries = 0
		k.primsAtStart = k.pl.Shard(0).Group().OpsCompleted()
		k.cleanAt, k.dirtyAt = k.db.CRAQStats()
		k.traced = c.traced
	}

	if err := m.start(); err != nil {
		return nil, err
	}
	resetHosts(nodes)
	before := readCounters(nodes)
	ev0 := pp.PE.TotalFired()
	for _, k := range groups {
		k := k
		k.eng.Schedule(0, func() {
			k.start = k.eng.Now()
			for i := 0; i < kvStrands; i++ {
				k.next()
			}
		})
	}
	err := drive(pp.PE, func() bool {
		for _, k := range groups {
			if k.done < k.target && k.err == nil {
				return false
			}
		}
		return true
	})
	events := pp.PE.TotalFired() - ev0
	total := 0
	for _, k := range groups {
		total += k.done
	}
	m.stop(total, events)
	if err != nil {
		return nil, err
	}
	cnt := readCounters(nodes).since(before)

	// Output checks: every read was checked as it completed; after a full
	// commit, every replica's rebuilt durable image equals the head's
	// contents, which hold each key's newest acked value.
	var writes, reads samples
	var elapsed sim.Duration
	var retries, pendingPeak int
	var prims, clean, dirty uint64
	var dataUsed, liveBytes int64
	for _, k := range groups {
		if k.err != nil {
			return nil, k.err
		}
		writes = append(writes, k.writes...)
		reads = append(reads, k.reads...)
		elapsed = max(elapsed, k.finish.Sub(k.start))
		retries += k.retries
		pendingPeak = max(pendingPeak, k.pendingPeak)
		prims += k.pl.Shard(0).Group().OpsCompleted() - k.primsAtStart
		cl, di := k.db.CRAQStats()
		clean += cl - k.cleanAt
		dirty += di - k.dirtyAt
		r.issueNs += k.issueNs
		r.issues += k.issues
		if c.traced {
			r.spans = append(r.spans, k.tr.spans...)
		}
	}
	if err := commit(pp.PE, planes); err != nil {
		return nil, err
	}
	for _, k := range groups {
		head := k.db.Scan("", kvKeyset+1)
		if len(head) != kvKeyset {
			return nil, fmt.Errorf("group %d: head holds %d keys, want %d", k.g, len(head), kvKeyset)
		}
		for _, kv := range head {
			versions := k.acked[kv.Key]
			if len(kv.Value) != kvValue || len(versions) == 0 || binary.LittleEndian.Uint64(kv.Value) != versions[len(versions)-1] {
				return nil, fmt.Errorf("group %d: head value of %s is not its newest acked write", k.g, kv.Key)
			}
			liveBytes += int64(len(kv.Key) + len(kv.Value))
		}
		base, next := k.db.DataUsed()
		dataUsed += int64(next - base)
		sh := k.pl.Shard(0)
		for _, h := range sh.Replicas() {
			node := k.pl.Pool()[h]
			image, err := kvstore.Rebuild(node.Dev.DurableRead, k.pl.RegionConfig(0))
			if err != nil {
				return nil, fmt.Errorf("group %d replica host %d: rebuild: %w", k.g, h, err)
			}
			if len(image) != len(head) {
				return nil, fmt.Errorf("group %d replica host %d: rebuilt %d keys, head has %d", k.g, h, len(image), len(head))
			}
			for _, kv := range head {
				if !bytes.Equal(image[kv.Key], kv.Value) {
					return nil, fmt.Errorf("group %d replica host %d: durable %s differs from the head", k.g, h, kv.Key)
				}
			}
		}
	}

	ops := len(writes) + len(reads)
	r.attempted, r.failed = ops, 0
	r.model.latency("write", writes)
	r.model.latency("read", reads)
	r.model["goodput_kops"] = float64(ops) / elapsed.Seconds() / 1e3
	r.model["failed_frac"] = 0
	r.model.perOp(cnt, events, ops, int64(len(writes))*kvValue)
	r.model["core.prims_per_op"] = float64(prims) / float64(ops)
	r.model["wal.backpressure_per_op"] = float64(retries) / float64(ops)
	r.model["wal.pending_peak"] = float64(pendingPeak)
	r.model["kvstore.space_per_live_byte"] = float64(dataUsed) / float64(liveBytes)
	r.model["kvstore.craq_clean_frac"] = float64(clean) / float64(clean+dirty)
	r.model["modeled_ms"] = float64(elapsed) / 1e6
	r.report = append(r.report, fmt.Sprintf("kv-craq: %d reads (%d clean, %d dirty), %d writes in %.1f modeled ms; read p50 %.2f us p99 %.2f us; write p50 %.2f us p99 %.2f us p999 %.2f us",
		len(reads), clean, dirty, len(writes), float64(elapsed)/1e6,
		r.model["read_p50_us"], r.model["read_p99_us"], r.model["write_p50_us"], r.model["write_p99_us"], r.model["write_p999_us"]))
	return r, nil
}
