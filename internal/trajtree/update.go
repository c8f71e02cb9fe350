package trajtree

import (
	"fmt"
	"slices"

	"trajmatch/internal/arena"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// Insert adds a trajectory to the index following Section IV-F: the new
// trajectory descends to the child whose tBoxSeq expands the least, every
// node on the path absorbs it into its summary (existing pivots are
// reused), and overflowing leaves are re-partitioned. The trajectory gets
// its own screen summary (arena.Summarize), so every screen treats it as
// a built member. When accumulated modifications exceed RebuildRatio ×
// size the whole index is rebuilt in the background (rebuild.go),
// approximating the paper's "poor node" policy.
func (t *Tree) Insert(tr *traj.Trajectory) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trajtree: %w", err)
	}
	if t.byID[tr.ID] != nil {
		return fmt.Errorf("trajtree: duplicate trajectory ID %d", tr.ID)
	}
	// A summary already installed — by an arena, or by the insert a
	// rebuild's delta replays — is a function of the same samples.
	if tr.Summary() == nil {
		s, err := arena.Summarize(tr)
		if err != nil {
			return fmt.Errorf("trajtree: %w", err)
		}
		tr.SetSummary(s)
	}
	t.adoptIfReady()
	t.byID[tr.ID] = tr
	// The new member lives on the heap until a rebuild folds it into
	// fresh arena slabs. Only a deleted member's own header, inserted
	// again, is still resident.
	if _, ok := t.arenaIndex(tr); !ok {
		t.overlay++
	}
	if t.root == nil {
		t.root = &node{
			seq:     tbox.FromTrajectory(tr, t.opt.MaxBoxes),
			members: []*traj.Trajectory{tr},
			maxLen:  tr.Length(),
		}
		t.size = 1
	} else {
		t.insertAt(t.root, tr)
		t.size++
		t.mods++
	}
	t.mutated(deltaOp{ins: tr})
	return nil
}

func (t *Tree) insertAt(n *node, tr *traj.Trajectory) {
	n.seq.Insert(tr)
	n.members = append(n.members, tr)
	if l := tr.Length(); l > n.maxLen {
		n.maxLen = l
	}
	if n.leaf() {
		if len(n.members) > t.opt.LeafSize {
			t.splitLeaf(n)
		}
		return
	}
	best := leastExpansion(len(n.children), func(i int) *tbox.Seq { return n.children[i].seq }, tr)
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
}

// Delete removes the trajectory with the given ID from every node on its
// path while leaving the tBoxSeqs unchanged (Section IV-F). It reports whether the ID was
// present.
func (t *Tree) Delete(id int) bool {
	if t.byID[id] == nil {
		return false
	}
	// Adoption replaces the member headers, and the path down the tree is
	// found by header identity: look the header up after it.
	t.adoptIfReady()
	m := t.byID[id]
	if !t.deleteFrom(t.root, m) {
		return false
	}
	delete(t.byID, id)
	t.size--
	t.mods++
	if _, ok := t.arenaIndex(m); !ok {
		t.overlay--
	}
	t.mutated(deltaOp{del: id})
	return true
}

// deleteFrom removes member m from n and from the one child path that
// holds it. Every node on the path lists the same header, so the search
// compares pointers and never touches the members it skips.
func (t *Tree) deleteFrom(n *node, m *traj.Trajectory) bool {
	idx := slices.Index(n.members, m)
	if idx < 0 {
		return false
	}
	if !n.leaf() {
		found := false
		for _, c := range n.children {
			if t.deleteFrom(c, m) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	n.members = append(n.members[:idx], n.members[idx+1:]...)
	return true
}

// Lookup returns the indexed trajectory with the given ID, or nil.
func (t *Tree) Lookup(id int) *traj.Trajectory { return t.byID[id] }

// All returns all indexed trajectories (the root's member list).
func (t *Tree) All() []*traj.Trajectory {
	if t.root == nil {
		return nil
	}
	return slices.Clone(t.root.members)
}
