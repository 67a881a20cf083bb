package shard

import (
	"fmt"
	"strings"
	"testing"

	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/kvstore"
	"hyperloop/internal/sim"
)

// --- map: routing + placement ---

func TestHashRoutingCoversAllShards(t *testing.T) {
	m := NewHashMap(8)
	hits := make([]int, 8)
	for i := 0; i < 4096; i++ {
		s := m.Route(fmt.Sprintf("key-%05d", i))
		if s < 0 || s >= 8 {
			t.Fatalf("key routed to shard %d", s)
		}
		hits[s]++
	}
	for s, n := range hits {
		if n == 0 {
			t.Fatalf("shard %d got no keys", s)
		}
	}
	// Routing is a pure function.
	if m.Route("stable-key") != m.Route("stable-key") {
		t.Fatal("routing not deterministic")
	}
}

func TestRangeRouting(t *testing.T) {
	m := NewRangeMap([]string{"g", "p"})
	cases := map[string]int{"a": 0, "f": 0, "g": 1, "o": 1, "p": 2, "z": 2}
	for k, want := range cases {
		if got := m.Route(k); got != want {
			t.Fatalf("Route(%q) = %d, want %d", k, got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted boundaries accepted")
		}
	}()
	NewRangeMap([]string{"p", "g"})
}

func TestPlacementAntiAffinity(t *testing.T) {
	m := NewHashMap(6)
	if err := m.PlaceAll(8, 3); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		p := m.Placement(s)
		if len(p) != 3 {
			t.Fatalf("shard %d placed on %d hosts", s, len(p))
		}
		seen := map[int]bool{}
		for _, h := range p {
			if seen[h] {
				t.Fatalf("shard %d placed twice on host %d", s, h)
			}
			seen[h] = true
		}
	}
	if err := m.Place(0, []int{1, 1, 2}); err == nil {
		t.Fatal("duplicate host accepted")
	}
	// Placement is deterministic: same inputs, same table.
	m2 := NewHashMap(6)
	if err := m2.PlaceAll(8, 3); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		if fmt.Sprint(m.Placement(s)) != fmt.Sprint(m2.Placement(s)) {
			t.Fatalf("placement of shard %d not deterministic", s)
		}
	}
}

// --- plane: end-to-end over the simulated cluster ---

// forEachBackend runs body once per replication backend as a subtest.
func forEachBackend(t *testing.T, body func(t *testing.T, naive bool)) {
	for _, b := range []struct {
		name  string
		naive bool
	}{{"hyperloop", false}, {"naive", true}} {
		t.Run(b.name, func(t *testing.T) { body(t, b.naive) })
	}
}

func testPlane(t *testing.T, cfg Config) (*sim.Engine, *Plane) {
	t.Helper()
	eng := sim.NewEngine()
	if cfg.Fabric.JitterFrac == 0 {
		cfg.Fabric = fabric.Config{JitterFrac: -1}
	}
	if cfg.Group.Depth == 0 {
		cfg.Group = core.Config{Depth: 256}
	}
	ready := false
	p := New(eng, cfg, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		ready = true
	})
	if !eng.RunUntil(func() bool { return ready }, eng.Now().Add(sim.Second)) {
		t.Fatal("plane never opened")
	}
	return eng, p
}

func putAll(t *testing.T, eng *sim.Engine, p *Plane, keys []string, val func(string) []byte) {
	t.Helper()
	acked := 0
	for _, k := range keys {
		if _, err := p.Put(k, val(k), func(err error) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			acked++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !eng.RunUntil(func() bool { return acked >= len(keys) }, eng.Now().Add(10*sim.Second)) {
		t.Fatalf("acked %d/%d", acked, len(keys))
	}
}

// Both replication backends serve the same plane: routing, puts, head
// reads, and one-sided replica reads are backend-independent.
func TestPlanePutGetAcrossShards(t *testing.T) {
	forEachBackend(t, func(t *testing.T, naive bool) {
		eng, p := testPlane(t, Config{Shards: 4, Replicas: 3, Hosts: 6, Seed: 7, naive: naive})
		defer p.Close()
		if (p.Shard(0).Group() == nil) != naive {
			t.Fatalf("naive=%v plane built shard 0 over %T", naive, p.Shard(0).rep)
		}

		var keys []string
		for i := 0; i < 120; i++ {
			keys = append(keys, fmt.Sprintf("key-%04d", i))
		}
		putAll(t, eng, p, keys, func(k string) []byte { return []byte("v:" + k) })

		shardsHit := map[int]bool{}
		for _, k := range keys {
			v, ok := p.Get(k)
			if !ok || string(v) != "v:"+k {
				t.Fatalf("Get(%q) = %q, %v", k, v, ok)
			}
			shardsHit[p.Route(k).ID] = true
		}
		if len(shardsHit) != 4 {
			t.Fatalf("keys landed on %d shards, want 4", len(shardsHit))
		}

		// One-sided replica reads see committed values with correct epochs.
		done := false
		p.Commit(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			done = true
		})
		if !eng.RunUntil(func() bool { return done }, eng.Now().Add(10*sim.Second)) {
			t.Fatal("commit stalled")
		}
		var got []byte
		read := false
		p.GetFromReplica("key-0000", func(v []byte, err error) {
			if err != nil {
				t.Fatal(err)
			}
			got, read = v, true
		})
		if !eng.RunUntil(func() bool { return read }, eng.Now().Add(sim.Second)) {
			t.Fatal("replica read stalled")
		}
		if string(got) != "v:key-0000" {
			t.Fatalf("replica read = %q", got)
		}
		if p.StaleServed() != 0 {
			t.Fatalf("stale serves = %d", p.StaleServed())
		}
	})
}

// keysFor returns n keys that all route to shard sid.
func keysFor(p *Plane, sid, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		k := fmt.Sprintf("sk-%d-%05d", sid, i)
		if p.Map.Route(k) == sid {
			out = append(out, k)
		}
	}
	return out
}

// freeHosts returns `want` pool hosts not currently carrying shard sid.
func freeHosts(p *Plane, sid, want int) []int {
	cur := p.Map.Placement(sid)
	var out []int
	for h := 0; h < len(p.Pool()) && len(out) < want; h++ {
		if !contains(cur, h) {
			out = append(out, h)
		}
	}
	return out
}

func TestLiveMigrationPreservesKeys(t *testing.T) {
	forEachBackend(t, func(t *testing.T, naive bool) {
		eng, p := testPlane(t, Config{
			Shards: 2, Replicas: 3, Hosts: 8,
			ChunkBytes: 2048, Seed: 11, naive: naive,
		})
		defer p.Close()

		const sid = 0
		before := keysFor(p, sid, 80)
		putAll(t, eng, p, before, func(k string) []byte { return []byte("pre:" + k) })

		dest := freeHosts(p, sid, 3)
		oldHosts := p.Shard(sid).Replicas()
		var migErr error
		migDone := false
		if err := p.Migrate(sid, dest, func(err error) {
			migErr = err
			migDone = true
		}); err != nil {
			t.Fatal(err)
		}

		// Writes racing the migration: issued while the quiesce/copy is in
		// flight, they append to the source chain and must survive the cutover
		// via WAL catch-up on the destination.
		during := keysFor(p, sid, 100)[80:]
		ackedDuring := 0
		for _, k := range during {
			if _, err := p.Put(k, []byte("mid:"+k), func(err error) {
				if err != nil {
					t.Errorf("racing put: %v", err)
				}
				ackedDuring++
			}); err != nil {
				t.Fatal(err)
			}
		}
		if !eng.RunUntil(func() bool { return migDone && ackedDuring >= len(during) },
			eng.Now().Add(10*sim.Second)) {
			t.Fatalf("migration stalled: done=%v acked=%d/%d", migDone, ackedDuring, len(during))
		}
		if migErr != nil {
			t.Fatalf("migration failed: %v", migErr)
		}

		s := p.Shard(sid)
		if s.Epoch() != 1 || s.Migrations() != 1 {
			t.Fatalf("epoch=%d migrations=%d, want 1/1", s.Epoch(), s.Migrations())
		}
		if fmt.Sprint(s.Replicas()) != fmt.Sprint(dest) {
			t.Fatalf("replicas %v, want %v", s.Replicas(), dest)
		}
		if fmt.Sprint(p.Map.Placement(sid)) != fmt.Sprint(dest) {
			t.Fatalf("map placement %v, want %v", p.Map.Placement(sid), dest)
		}

		// Every key — preloaded and racing — still reads back.
		for _, k := range before {
			if v, ok := p.Get(k); !ok || string(v) != "pre:"+k {
				t.Fatalf("lost preloaded key %q (%q,%v)", k, v, ok)
			}
		}
		for _, k := range during {
			if v, ok := p.Get(k); !ok || string(v) != "mid:"+k {
				t.Fatalf("lost racing key %q (%q,%v)", k, v, ok)
			}
		}

		// Drain commits, then rebuild the shard's region from a destination
		// replica's bytes: the moved data must be physically present there.
		committed := false
		p.Commit(func(err error) {
			if err != nil {
				t.Fatal(err)
			}
			committed = true
		})
		if !eng.RunUntil(func() bool { return committed }, eng.Now().Add(10*sim.Second)) {
			t.Fatal("commit stalled")
		}
		regionCfg := kvstore.Config{
			LogBase:  sid*(1<<20) + regionHdr,
			LogSize:  1 << 18,
			DataBase: sid*(1<<20) + regionHdr + 1<<18,
			DataSize: 1<<20 - regionHdr - 1<<18,
		}
		destNode := p.Pool()[dest[0]]
		got, err := kvstore.Rebuild(func(off, size int) []byte {
			return destNode.StoreBytes(off, size)
		}, regionCfg)
		if err != nil {
			t.Fatalf("rebuild on destination: %v", err)
		}
		for _, k := range append(append([]string{}, before...), during...) {
			if _, ok := got[k]; !ok {
				t.Fatalf("key %q missing from destination replica", k)
			}
		}

		// Epoch fencing: the new owners carry epoch 1, the former owners the
		// stale epoch 0.
		for _, h := range dest {
			if e := epochWord(p, h, sid); e != 1 {
				t.Fatalf("dest host %d epoch word = %d, want 1", h, e)
			}
		}
		for _, h := range oldHosts {
			if contains(dest, h) {
				continue
			}
			if e := epochWord(p, h, sid); e != 0 {
				t.Fatalf("former host %d epoch word = %d, want 0", h, e)
			}
		}
		if fmt.Sprint(s.FormerOwners()) == fmt.Sprint([]int{}) {
			t.Fatal("no former owners recorded")
		}
		if p.StaleServed() != 0 {
			t.Fatalf("stale serves = %d", p.StaleServed())
		}
	})
}

// epochWord reads host h's epoch word for shard sid.
func epochWord(p *Plane, h, sid int) uint64 {
	b := p.Pool()[h].StoreBytes(sid*(1<<20)+epochOff, 8)
	var e uint64
	for i := 7; i >= 0; i-- {
		e = e<<8 | uint64(b[i])
	}
	return e
}

func TestMigrationAbortsOnDestFailure(t *testing.T) {
	eng, p := testPlane(t, Config{
		Shards: 2, Replicas: 3, Hosts: 8,
		ChunkBytes: 1024, Seed: 13,
		Group: core.Config{Depth: 256, OpTimeout: 2 * sim.Millisecond},
	})
	defer p.Close()

	const sid = 1
	keys := keysFor(p, sid, 60)
	putAll(t, eng, p, keys, func(k string) []byte { return []byte("v:" + k) })

	oldHosts := p.Shard(sid).Replicas()
	dest := freeHosts(p, sid, 3)
	var migErr error
	migDone := false
	if err := p.Migrate(sid, dest, func(err error) {
		migErr = err
		migDone = true
	}); err != nil {
		t.Fatal(err)
	}
	// Kill a destination host while the copy is in flight.
	victim := p.Pool()[dest[1]]
	p.Cl.Net.Isolate(victim.NIC.Node())

	if !eng.RunUntil(func() bool { return migDone }, eng.Now().Add(10*sim.Second)) {
		t.Fatal("migration neither completed nor aborted")
	}
	if migErr == nil {
		t.Fatal("migration to a dead destination reported success")
	}
	s := p.Shard(sid)
	if s.Epoch() != 0 || s.Migrations() != 0 {
		t.Fatalf("epoch=%d migrations=%d after abort, want 0/0", s.Epoch(), s.Migrations())
	}
	if fmt.Sprint(s.Replicas()) != fmt.Sprint(oldHosts) {
		t.Fatalf("replicas %v after abort, want %v", s.Replicas(), oldHosts)
	}

	// The shard keeps serving on the source chain.
	more := keysFor(p, sid, 70)[60:]
	putAll(t, eng, p, more, func(k string) []byte { return []byte("v:" + k) })
	for _, k := range append(append([]string{}, keys...), more...) {
		if v, ok := p.Get(k); !ok || string(v) != "v:"+k {
			t.Fatalf("key %q lost after abort (%q,%v)", k, v, ok)
		}
	}
}

func TestRebalancerMovesHotShard(t *testing.T) {
	eng, p := testPlane(t, Config{
		Shards: 4, Replicas: 3, Hosts: 8, Seed: 17,
		RegionSize: 4 << 20, LogSize: 1 << 20, // room for the burst before drain
	})
	defer p.Close()

	reb := p.StartRebalancer(RebalanceConfig{
		Every:         200 * sim.Microsecond,
		MinOps:        32,
		Imbalance:     1.5,
		MaxMigrations: 1,
	})

	// Concentrate the workload on one shard: its hosts become hot while the
	// rest of the pool idles.
	const hot = 2
	before := fmt.Sprint(p.Map.Placement(hot))
	keys := keysFor(p, hot, 400)
	acked := 0
	for _, k := range keys {
		if _, err := p.Put(k, []byte("hot"), func(err error) {
			if err != nil {
				t.Errorf("put: %v", err)
			}
			acked++
		}); err != nil {
			t.Fatal(err)
		}
	}
	migrated := func() bool { return reb.Moves() >= 1 && !p.Shard(hot).Migrating() }
	if !eng.RunUntil(func() bool { return acked >= len(keys) && migrated() },
		eng.Now().Add(10*sim.Second)) {
		t.Fatalf("acked=%d moves=%d: rebalancer never triggered", acked, reb.Moves())
	}
	if got := fmt.Sprint(p.Map.Placement(hot)); got == before {
		t.Fatalf("hot shard placement unchanged: %v", got)
	}
	if p.Shard(hot).Epoch() != 1 {
		t.Fatalf("hot shard epoch = %d, want 1", p.Shard(hot).Epoch())
	}
	for _, k := range keys {
		if v, ok := p.Get(k); !ok || string(v) != "hot" {
			t.Fatalf("key %q lost across rebalance (%q,%v)", k, v, ok)
		}
	}
	hasNote := false
	for _, e := range p.Timeline() {
		if strings.Contains(e.What, "rebalance: host") {
			hasNote = true
		}
	}
	if !hasNote {
		t.Fatal("rebalance decision not recorded in timeline")
	}
}

// runMigrationOnce drives a fixed preload + migration + racing writes and
// returns the full timeline plus final state fingerprint.
func runMigrationOnce(t *testing.T, seed int64) string {
	eng, p := testPlane(t, Config{
		Shards: 2, Replicas: 3, Hosts: 8,
		ChunkBytes: 2048, Seed: seed,
	})
	defer p.Close()
	// Workload size depends on the seed so distinct seeds yield distinct
	// timelines (the fabric is jitter-free here, so timing alone won't).
	keys := keysFor(p, 0, 50+int(seed%7))
	putAll(t, eng, p, keys, func(k string) []byte { return []byte("v:" + k) })
	dest := freeHosts(p, 0, 3)
	migDone := false
	if err := p.Migrate(0, dest, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		migDone = true
	}); err != nil {
		t.Fatal(err)
	}
	if !eng.RunUntil(func() bool { return migDone }, eng.Now().Add(10*sim.Second)) {
		t.Fatal("migration stalled")
	}
	return fmt.Sprintf("%v | epoch=%d ops=%d now=%v",
		p.Timeline(), p.Shard(0).Epoch(), p.Shard(0).Ops(), eng.Now())
}

func TestMigrationDeterministic(t *testing.T) {
	a := runMigrationOnce(t, 23)
	b := runMigrationOnce(t, 23)
	if a != b {
		t.Fatalf("same seed, different timelines:\n%s\n%s", a, b)
	}
	c := runMigrationOnce(t, 24)
	if a == c {
		t.Fatal("different seeds produced identical timelines (suspicious)")
	}
}
