package server

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNotOwned reports a mutation or streaming operation on a trajectory
// whose global shard a partitioned engine does not serve: the caller (in
// practice the cluster router) routed the request to the wrong node, or
// the cluster's shard map disagrees with this node's. The HTTP layer
// answers 421 with code "not_owned".
var ErrNotOwned = errors.New("shard not owned by this node")

// Trajectories are assigned to shards by a fixed hash of their ID, so
// placement is a pure function of (ID, shard count): bulk loads, live
// inserts and snapshot reloads all agree on where a trajectory lives, and
// Lookup/Delete route straight to the owning shard instead of scanning.
// The hash is part of the snapshot format — changing it requires bumping
// snapshotVersion, because shard files written under the old placement
// would answer Lookup/Delete wrongly under the new one.

// shardIndex returns the shard owning trajectory id among n shards.
// A finalising 64-bit mix (splitmix64's) stands between the ID and the
// modulo so that the sequential IDs real corpora use spread evenly
// instead of striping.
func shardIndex(id, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(int64(id))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// ShardOf returns the global shard owning trajectory id among n
// hash-placed shards — the placement function, exported for the cluster
// router, which must route mutations to the node owning the ID's shard.
func ShardOf(id, n int) int { return shardIndex(id, n) }

// Partition declares that an engine owns only a subset of a wider
// cluster placement: trajectories hash into Total global shards exactly
// as a Total-shard single-process engine would place them, but this
// engine builds, serves and persists only the Owned global shard
// indices. Everything else — a Lookup of a foreign ID, an Insert placed
// elsewhere — answers "not owned" instead of wrong data, and the
// cluster router (internal/cluster) is what stitches the owned subsets
// of several such engines back into one logical index.
//
// The placement function is unchanged (shardIndex over Total), which is
// the whole point: a shard node's tree for global shard g holds exactly
// the members a single-process Total-shard engine's shard g holds, so
// per-shard answers — and per-shard snapshot files — are byte-identical
// across deployment shapes.
type Partition struct {
	// Total is the cluster-wide shard count every node must agree on.
	Total int
	// Owned lists the global shard indices this engine serves, in any
	// order; it is normalised (sorted, deduplicated) at boot.
	Owned []int
}

// placement is the engine's resolved view of where trajectories live:
// the global hash modulus plus the owned-global-to-local-slot mapping.
// A standalone engine is the identity placement (every global shard is
// local, local slot == global index).
type placement struct {
	total int   // global hash modulus
	owned []int // owned global indices, ascending; len == local shard count
	local []int // dense global -> local slot, -1 when foreign; nil for identity
}

// resolvePlacement validates and normalises opt's partition (nil means
// the identity placement over opt.Shards).
func resolvePlacement(opt Options) (placement, error) {
	p := opt.Partition
	if p == nil {
		return placement{total: opt.Shards}, nil
	}
	if p.Total < 1 {
		return placement{}, fmt.Errorf("server: partition: total shard count %d < 1", p.Total)
	}
	if len(p.Owned) == 0 {
		return placement{}, fmt.Errorf("server: partition: no owned shards")
	}
	local := make([]int, p.Total)
	for i := range local {
		local[i] = -1
	}
	owned := append([]int(nil), p.Owned...)
	sort.Ints(owned)
	out := owned[:0]
	for _, g := range owned {
		if g < 0 || g >= p.Total {
			return placement{}, fmt.Errorf("server: partition: shard %d out of range [0,%d)", g, p.Total)
		}
		if local[g] != -1 {
			continue // duplicate
		}
		local[g] = len(out)
		out = append(out, g)
	}
	if len(out) == p.Total {
		// Owning every shard is the identity placement; drop the maps so
		// the common standalone fast paths stay branch-free.
		return placement{total: p.Total}, nil
	}
	return placement{total: p.Total, owned: out, local: local}, nil
}

// partitioned reports whether the engine owns a strict subset of the
// cluster's shards.
func (p placement) partitioned() bool { return p.local != nil }

// numLocal is the number of shards this engine actually holds.
func (p placement) numLocal() int {
	if p.local == nil {
		return p.total
	}
	return len(p.owned)
}

// localShard maps a trajectory ID to its local shard slot, or -1 when
// the owning global shard lives on another node.
func (p placement) localShard(id int) int {
	g := shardIndex(id, p.total)
	if p.local == nil {
		return g
	}
	return p.local[g]
}

// globalOf returns the global shard index behind local slot i.
func (p placement) globalOf(i int) int {
	if p.local == nil {
		return i
	}
	return p.owned[i]
}

// ownedShards returns the owned global indices, ascending (all of them
// for the identity placement).
func (p placement) ownedShards() []int {
	if p.local == nil {
		out := make([]int, p.total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return append([]int(nil), p.owned...)
}

// partitionOwned hash-places db into the placement's local groups,
// dropping foreign trajectories: group i holds exactly what global
// shard globalOf(i) of a Total-shard engine would hold, in input order.
func partitionOwned[T any](db []T, p placement, id func(T) int) [][]T {
	groups := make([][]T, p.numLocal())
	for _, t := range db {
		if s := p.localShard(id(t)); s >= 0 {
			groups[s] = append(groups[s], t)
		}
	}
	return groups
}
