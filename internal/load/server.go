package load

import (
	"fmt"

	"hyperloop/internal/cluster"
	"hyperloop/internal/core"
	"hyperloop/internal/fabric"
	"hyperloop/internal/metrics"
	"hyperloop/internal/rdma"
	"hyperloop/internal/shard"
	"hyperloop/internal/sim"
)

// Server is the replicated data plane a load driver feeds: the sharded
// plane, one group per sim partition, replicating over HyperLoop groups or
// the Naive-RDMA baseline. Both arms route the same keyspace with the same
// salted group hash, so a driver's per-group keysets are identical across
// systems and every Put issued at a key's home group stays partition-local.
type Server struct {
	*shard.PartitionedPlane
}

// ServerConfig sizes either backend identically: the topology fields mirror
// shard.PartitionedConfig so the two systems differ only in their datapath.
type ServerConfig struct {
	Groups         int // default 2
	ShardsPerGroup int // default 2
	HostsPerGroup  int // default 3
	Replicas       int // default 3
	RegionSize     int // default 1 MiB
	// FusionDepth is the HyperLoop WQE-chain fusion bound (default 1 =
	// legacy one-op-per-doorbell issue; the Naive arm has no fusion path).
	FusionDepth int
	// DoorbellCost charges per-MMIO-ring NIC time on every node of either
	// arm (default 0 = free doorbells, the legacy model).
	DoorbellCost sim.Duration
	// HostTiers labels every group's host pool (nil = untiered legacy pool;
	// length HostsPerGroup otherwise) and TierNIC gives each tier its own
	// NIC profile. Both arms place and migrate by tier.
	HostTiers []shard.Tier
	TierNIC   map[shard.Tier]rdma.Config
	Workers   int
	Seed      int64
	// Metrics optionally attaches one registry per group (nil, or length
	// Groups).
	Metrics []*metrics.Registry
	// WithSpans turns on per-group op-span recording.
	WithSpans bool
}

func (c *ServerConfig) fill() {
	if c.Groups <= 0 {
		c.Groups = 2
	}
	if c.ShardsPerGroup <= 0 {
		c.ShardsPerGroup = 2
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.HostsPerGroup <= 0 {
		c.HostsPerGroup = 3
	}
	if c.HostsPerGroup < c.Replicas {
		c.HostsPerGroup = c.Replicas
	}
	if c.RegionSize <= 0 {
		c.RegionSize = 1 << 20
	}
	if c.FusionDepth <= 0 {
		c.FusionDepth = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// openLimit bounds WaitOpen for either backend.
const openLimit = sim.Time(sim.Second)

// OpenHyperLoop builds the HyperLoop serving backend and drives it open.
func OpenHyperLoop(cfg ServerConfig) (Server, error) { return open(cfg, false) }

// open builds the serving plane over HyperLoop groups, or over the
// Naive-RDMA baseline when naive is set, and drives it open.
func open(cfg ServerConfig, naive bool) (Server, error) {
	cfg.fill()
	pp := shard.NewPartitionedPlane(shard.PartitionedConfig{
		Groups:         cfg.Groups,
		ShardsPerGroup: cfg.ShardsPerGroup,
		HostsPerGroup:  cfg.HostsPerGroup,
		Replicas:       cfg.Replicas,
		RegionSize:     cfg.RegionSize,
		Group:          core.Config{Depth: 512, FusionDepth: cfg.FusionDepth},
		Fabric:         fabric.Config{JitterFrac: -1},
		NIC:            rdma.Config{DoorbellCost: cfg.DoorbellCost},
		Naive:          naive,
		HostTiers:      cfg.HostTiers,
		TierNIC:        cfg.TierNIC,
		Seed:           cfg.Seed,
		Workers:        cfg.Workers,
		Metrics:        cfg.Metrics,
		WithSpans:      cfg.WithSpans,
	})
	if err := pp.WaitOpen(openLimit); err != nil {
		return Server{}, fmt.Errorf("load: open: %w", err)
	}
	return Server{pp}, nil
}

// PE returns the partitioned engine the plane runs on.
func (s Server) PE() *sim.PartitionedEngine { return s.PartitionedPlane.PE }

// Cluster returns group g's cluster (for instrumentation).
func (s Server) Cluster(g int) *cluster.Cluster { return s.Group(g).Cl }

// Plane returns group g's shard plane for control-plane actuation
// (migration-backed scale-out).
func (s Server) Plane(g int) *shard.Plane { return s.Group(g) }

// FusionStats sums (batches, fused ops) across every HyperLoop shard; Naive
// shards have no fusion path and count nothing.
func (s Server) FusionStats() (uint64, uint64) {
	var batches, ops uint64
	for g := 0; g < s.Groups(); g++ {
		pl := s.Group(g)
		for sid := 0; sid < pl.Shards(); sid++ {
			if grp := pl.Shard(sid).Group(); grp != nil {
				b, o := grp.FusionStats()
				batches += b
				ops += o
			}
		}
	}
	return batches, ops
}
