package server

import (
	"fmt"
	"io"
	"log"
	"sync"

	"trajmatch/internal/backend"
	"trajmatch/internal/par"
	"trajmatch/internal/traj"
	"trajmatch/internal/trajtree"
)

// treeOf is the single place the engine recognises a persistent backend:
// today that means the concrete tree type, because the snapshot format
// (trajtree.Save files + manifest tree options) is tree-specific. A
// future second persistent backend generalises this helper — and the
// manifest — rather than scattering assertions.
func treeOf(be backend.Backend) (*trajtree.Tree, bool) {
	tree, ok := be.(*trajtree.Tree)
	return tree, ok
}

// shard is one independently locked partition of a metric's index: a
// backend.Backend plus the RWMutex that serialises its updates against
// its readers. Queries fan out across shards taking each shard's read
// lock individually, so an Insert/Delete on one shard stalls only the 1/N
// of the search space it owns while the other shards keep answering; a
// rebuild stalls nothing but the swap at its end.
//
// The optional operations — sub-trajectory search, mutation, persistence
// — are capability-gated: the shard type-asserts the corresponding
// interface and degrades to backend.ErrNotSupported when the backend
// lacks it, so the engine above stays metric-agnostic.
type shard struct {
	mu sync.RWMutex
	be backend.Backend
}

// buildSpecShards builds one backend per pre-partitioned group on the
// worker pool.
func buildSpecShards(groups [][]*traj.Trajectory, spec backend.Spec, opt Options) ([]*shard, error) {
	shards := make([]*shard, len(groups))
	err := par.ForErr(opt.Workers, len(groups), func(i int) error {
		be, err := spec.Build(groups[i])
		if err != nil {
			return err
		}
		shards[i] = &shard{be: be}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("server: build metric %q: %w", spec.Name, err)
	}
	return shards, nil
}

// searchKNN runs the bound-seeded k-NN search under the shard's read
// lock; bound may be nil for a self-contained single-shard search, and
// ctl may be nil for an uncancellable, unbudgeted one.
func (s *shard) searchKNN(q *traj.Trajectory, k int, bound *backend.SharedBound, ctl *backend.Ctl) ([]backend.Result, backend.Stats, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.SearchKNN(q, k, bound, ctl)
}

// searchKNNIn runs the candidate-restricted k-NN verification under the
// read lock, degrading to ErrNotSupported on backends without the
// CandidateSearcher capability.
func (s *shard) searchKNNIn(q *traj.Trajectory, ids []int, k int, bound *backend.SharedBound, ctl *backend.Ctl) ([]backend.Result, backend.Stats, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cs, ok := s.be.(backend.CandidateSearcher)
	if !ok {
		return nil, backend.Stats{}, false, fmt.Errorf("prefilter %w", backend.ErrNotSupported)
	}
	return cs.SearchKNNIn(q, ids, k, bound, ctl)
}

// searchSub runs the bounded sub-trajectory scan under the read lock,
// degrading to ErrNotSupported on backends whose metric has no
// sub-trajectory form.
func (s *shard) searchSub(q *traj.Trajectory, k int, bound *backend.SharedBound, ctl *backend.Ctl) ([]backend.Result, backend.Stats, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sub, ok := s.be.(backend.SubSearcher)
	if !ok {
		return nil, backend.Stats{}, false, fmt.Errorf("sub-trajectory search %w", backend.ErrNotSupported)
	}
	return sub.SearchSub(q, k, bound, ctl)
}

func (s *shard) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Size()
}

// height returns the shard's index height for tree-backed shards and 0
// for flat ones; it is a shape statistic, not part of the contract.
func (s *shard) height() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tree, ok := treeOf(s.be); ok {
		return tree.Height()
	}
	return 0
}

func (s *shard) lookup(id int) *traj.Trajectory {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.be.Lookup(id)
}

// update runs fn on the shard's mutable backend under the write lock and
// bumps the engine generation, still under it, when fn reports a change —
// so any query that observes the change also observes the new generation
// (the result-cache consistency argument in engine.go depends on this
// ordering). A tree adopts a finished background rebuild inside such a
// call; update logs it once the lock is released.
func (s *shard) update(op string, gen *engineGen, fn func(backend.Mutable) (bool, error)) (bool, error) {
	s.mu.Lock()
	m, ok := s.be.(backend.Mutable)
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("%s %w", op, backend.ErrNotSupported)
	}
	tree, _ := treeOf(s.be)
	var before, after trajtree.MemStats
	if tree != nil {
		before = tree.MemStats()
	}
	changed, err := fn(m)
	if changed {
		gen.bump()
	}
	if tree != nil {
		after = tree.MemStats()
	}
	size := s.be.Size()
	s.mu.Unlock()
	if after.FoldIns != before.FoldIns {
		log.Printf("rebuild adopted during %s: %d members, built in %.0f ms, %.2f ms under the lock replaying %d",
			op, size, after.BuildMs, after.AdoptMs, after.Replayed)
	}
	return changed, err
}

func (s *shard) insert(tr *traj.Trajectory, gen *engineGen) error {
	_, err := s.update("insert", gen, func(m backend.Mutable) (bool, error) {
		err := m.Insert(tr)
		return err == nil, err
	})
	return err
}

func (s *shard) delete(id int, gen *engineGen) (bool, error) {
	return s.update("delete", gen, func(m backend.Mutable) (bool, error) {
		return m.Delete(id), nil
	})
}

// rebuild holds the write lock only to start the tree's background build
// and, once that has finished, to adopt it; in between the shard answers
// and takes updates as usual. An update may adopt the build first, and
// then nothing is left to do here.
func (s *shard) rebuild(gen *engineGen) error {
	var tree *trajtree.Tree
	var done <-chan struct{}
	_, err := s.update("rebuild", gen, func(m backend.Mutable) (bool, error) {
		var ok bool
		if tree, ok = treeOf(s.be); !ok {
			err := m.Rebuild()
			return err == nil, err
		}
		tree.StartRebuild()
		done = tree.RebuildDone()
		return false, nil
	})
	if err != nil || tree == nil {
		return err
	}
	<-done
	_, err = s.update("rebuild", gen, func(backend.Mutable) (bool, error) {
		return tree.AdoptRebuild()
	})
	return err
}

// rebuildDone returns the channel a tree-backed shard's background build
// closes when it has finished, nil when none is running.
func (s *shard) rebuildDone() <-chan struct{} {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tree, ok := treeOf(s.be); ok {
		return tree.RebuildDone()
	}
	return nil
}

// snapshot writes a tree-backed shard's file under the read lock, so a
// snapshot write runs concurrently with queries and only briefly
// excludes updates to this one shard. The returned size and checksum
// are captured under the same lock hold as the write, so the manifest
// records exactly what the file contains even while writers land on
// this shard between calls.
func (s *shard) snapshot(w io.Writer) (size int, sum uint32, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tree, ok := treeOf(s.be)
	if !ok {
		return 0, 0, fmt.Errorf("snapshot %w", backend.ErrNotSupported)
	}
	sum, err = tree.SaveCRC(w)
	return tree.Size(), sum, err
}

// memStats returns a tree-backed shard's memory-layout counters (nil
// otherwise); the stats endpoint reports them per shard.
func (s *shard) memStats() *trajtree.MemStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tree, ok := treeOf(s.be); ok {
		ms := tree.MemStats()
		return &ms
	}
	return nil
}

// options returns the tree options of a tree-backed shard (the zero
// value otherwise); the snapshot manifest records them.
func (s *shard) options() trajtree.Options {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tree, ok := treeOf(s.be); ok {
		return tree.Options()
	}
	return trajtree.Options{}
}

// all returns the shard's members (tree-backed shards only; the snapshot
// loader uses it to rebuild non-persistent metric sets from a loaded
// corpus).
func (s *shard) all() []*traj.Trajectory {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if tree, ok := treeOf(s.be); ok {
		return tree.All()
	}
	return nil
}
