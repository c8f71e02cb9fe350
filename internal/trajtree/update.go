package trajtree

import (
	"fmt"
	"math"

	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
	"trajmatch/internal/vantage"
)

// Insert adds a trajectory to the index following Section IV-F: the new
// trajectory descends to the child whose tBoxSeq expands the least, every
// node on the path absorbs it into its summary (existing pivots are
// reused), the root appends its descriptor under the existing vantage
// points, and overflowing leaves are re-partitioned. When accumulated
// modifications exceed RebuildRatio × size the whole index is rebuilt,
// approximating the paper's "poor node" policy.
func (t *Tree) Insert(tr *traj.Trajectory) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trajtree: %w", err)
	}
	if t.Lookup(tr.ID) != nil {
		return fmt.Errorf("trajtree: duplicate trajectory ID %d", tr.ID)
	}
	t.gen++
	if t.root == nil {
		t.root = &node{
			seq:     tbox.FromTrajectory(tr, t.opt.MaxBoxes),
			members: []*traj.Trajectory{tr},
			maxLen:  tr.Length(),
		}
		t.size = 1
		t.overlay++
		return nil
	}
	t.insertAt(t.root, tr)
	t.size++
	t.mods++
	// The new member lives on the heap until a rebuild folds it into
	// fresh arena slabs; until then the leaf screen skips it.
	t.overlay++
	t.maybeRebuild()
	return nil
}

func (t *Tree) insertAt(n *node, tr *traj.Trajectory) {
	n.seq.Insert(tr)
	n.members = append(n.members, tr)
	if l := tr.Length(); l > n.maxLen {
		n.maxLen = l
	}
	if n.vps != nil {
		// A mapped slab is capped at its length, so the append moved it
		// to the heap.
		n.descs = vantage.AppendDescriptor(n.descs, tr, n.vps)
		n.descsMapped = false
	}
	if n.leaf() {
		if len(n.members) > t.opt.LeafSize {
			t.splitLeaf(n)
		}
		return
	}
	best, bestCost := 0, math.Inf(1)
	for i, c := range n.children {
		if cost := c.seq.ExpansionCost(tr); cost < bestCost {
			bestCost, best = cost, i
		}
	}
	t.insertAt(n.children[best], tr)
}

// splitLeaf re-partitions an overflowing leaf in place, turning it into an
// internal node when Algorithm 1 finds at least two pivots.
func (t *Tree) splitLeaf(n *node) {
	groups, seqs := t.partition(n.members)
	if len(groups) < 2 {
		return // stays an oversized leaf
	}
	n.children = make([]*node, len(groups))
	for i := range groups {
		n.children[i] = t.build(groups[i], seqs[i], false)
	}
	if n == t.root {
		t.seedVantage()
	}
}

// Delete removes the trajectory with the given ID from every node on its
// path, and its descriptor from the root's table, while leaving the
// tBoxSeqs unchanged (Section IV-F). It reports whether the ID was
// present.
func (t *Tree) Delete(id int) bool {
	if t.root == nil {
		return false
	}
	if !t.deleteFrom(t.root, id) {
		return false
	}
	t.gen++
	t.size--
	t.mods++
	if _, ok := t.arenaIndex(id); !ok {
		t.overlay--
	}
	t.maybeRebuild()
	return true
}

func (t *Tree) deleteFrom(n *node, id int) bool {
	idx := -1
	for i, m := range n.members {
		if m.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	if !n.leaf() {
		found := false
		for _, c := range n.children {
			if t.deleteFrom(c, id) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	n.members = append(n.members[:idx], n.members[idx+1:]...)
	if n.descs != nil {
		w := len(n.vps)
		head, tail := n.descs[:idx*w], n.descs[(idx+1)*w:]
		if n.descsMapped {
			// Closing the gap in place would write to the snapshot
			// mapping, which is read-only: build the shortened slab on
			// the heap instead.
			head = append(make([]float64, 0, len(head)+len(tail)), head...)
			n.descsMapped = false
		}
		n.descs = append(head, tail...)
	}
	return true
}

// Lookup returns the indexed trajectory with the given ID, or nil.
func (t *Tree) Lookup(id int) *traj.Trajectory {
	n := t.root
	if n == nil {
		return nil
	}
	for _, m := range n.members {
		if m.ID == id {
			return m
		}
	}
	return nil
}

// All returns all indexed trajectories (the root's member list).
func (t *Tree) All() []*traj.Trajectory {
	if t.root == nil {
		return nil
	}
	out := make([]*traj.Trajectory, len(t.root.members))
	copy(out, t.root.members)
	return out
}

// Rebuild reconstructs the index from its current members, restoring tight
// summaries after many updates.
func (t *Tree) Rebuild() error {
	members := t.All()
	// Current members have escaped to readers through query results, and
	// arena.Build re-points each trajectory's Points at its new slab —
	// a write no lock covers once a result is out. Rebuild therefore
	// hands Build fresh headers over the same (read-only) point slices:
	// the escaped headers are never touched, they just keep aliasing the
	// previous slabs until their holders drop them.
	for i, m := range members {
		h := traj.New(m.ID, m.Points)
		h.Label = m.Label
		members[i] = h
	}
	fresh, err := New(members, t.opt)
	if err != nil {
		return err
	}
	t.root = fresh.root
	t.size = fresh.size
	t.mods = 0
	t.gen++
	// The rebuild folded every live member — overlay included — into
	// the fresh tree's arena slabs.
	t.ar = fresh.ar
	t.overlay = 0
	t.foldIns++
	return nil
}

func (t *Tree) maybeRebuild() {
	if t.opt.RebuildRatio < 0 || t.size == 0 {
		return
	}
	if float64(t.mods) > t.opt.RebuildRatio*float64(t.size) {
		// Rebuild over current members cannot fail validation: they were
		// validated on entry.
		_ = t.Rebuild()
	}
}
