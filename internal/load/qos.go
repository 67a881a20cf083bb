package load

import (
	"errors"
	"fmt"

	"hyperloop/internal/qos"
	"hyperloop/internal/shard"
)

// QoS wiring for the serving plane.
//
// With Config.QoS set, each group runs a qos.Controller on its own
// partition, closing the observe→decide→act loop entirely group-locally:
//
//   observe — the admission controller mirrors per-tenant verdicts and ack
//     latencies into the group registry (qos.RegistrySource series), which
//     the controller windows on the virtual clock.
//   decide  — sustained saturation (throttled share over the threshold for
//     consecutive windows) arms a funding decision bounded by the tenant's
//     escrow, spend cap, and step limit — the Nil-Store user-funded
//     elasticity contract.
//   act     — a funded step migrates the group's next spare shard onto
//     hint-preferred (edge-tier) hosts via the live migration path, extends
//     the tenant's keyset onto it so new load lands there, and raises the
//     tenant's admission bucket rate by FundFrac of the contract.
//
// Tenancy is shard-scoped: tenant i's keyset initially routes to shard
// i mod ShardsPerGroup, and shards beyond the tenant count are spares the
// actuator may recruit. Everything — metric reads, migration, bucket
// retuning — happens on the group's own partition, so runs stay
// byte-identical at any worker count.

// errNoSpareShard is the scale-out refusal when every spare is recruited;
// the controller refunds the step on seeing it.
var errNoSpareShard = errors.New("load: no spare shard left for scale-out")

// groupActuator executes one group's QoS decisions. At most one ScaleOut
// per class is in flight (the controller guarantees it), but different
// classes may migrate different spares concurrently — each spare is
// consumed at submit time.
type groupActuator struct {
	adm      *Admission
	pl       *shard.Plane
	hosts    int
	replicas int
	// keysets[i] is tenant i's live keyset; the arrival pump indexes it, so
	// an extension shifts new load onto the recruited shard immediately.
	keysets   [][]string
	spare     int // next unrecruited spare shard
	shardKeys func(sid int) []string
}

func (ga *groupActuator) SetRate(i int, rate float64) { ga.adm.SetRate(i, rate) }

func (ga *groupActuator) ScaleOut(i int, hint qos.Hint, done func(error)) {
	if ga.spare >= ga.pl.Shards() {
		done(errNoSpareShard)
		return
	}
	sid := ga.spare
	dest := shard.PickTiered(sid, ga.hosts, ga.replicas, ga.pl.Tiers(), hint)
	err := ga.pl.Migrate(sid, dest, func(err error) {
		if err == nil {
			ga.keysets[i] = append(ga.keysets[i], ga.shardKeys(sid)...)
		}
		done(err)
	})
	if err != nil {
		done(err)
		return
	}
	ga.spare++
}

// shardKeyset generates the bounded keyset group g's tenants aim at shard
// sid: keys homed on g whose shard route is sid, so every put stays
// partition-local and lands exactly where the tenant's capacity lives. A
// pure function of (g, sid) — identical across runs and worker counts.
func shardKeyset(srv Server, pl *shard.Plane, g, sid int) []string {
	keys := make([]string, 0, keysetSize)
	for i := 0; len(keys) < keysetSize; i++ {
		k := fmt.Sprintf("ld/g%d/t%06d", g, i)
		if srv.HomeGroup(k) == g && pl.Map.Route(k) == sid {
			keys = append(keys, k)
		}
	}
	return keys
}
