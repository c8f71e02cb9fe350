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
// a built member.
func (t *Tree) Insert(tr *traj.Trajectory) error {
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("trajtree: %w", err)
	}
	if t.byID[tr.ID] != nil {
		return fmt.Errorf("trajtree: duplicate trajectory ID %d", tr.ID)
	}
	// A summary already installed, by an arena, is a function of the
	// same samples.
	if tr.Summary() == nil {
		tr.SetSummary(arena.Summarize(tr))
	}
	t.byID[tr.ID] = tr
	// The new member lives on the heap until a rebuild, or a save and
	// load, folds it into fresh arena slabs. Only a deleted member's own
	// header, inserted again, is still resident.
	if _, ok := t.arenaIndex(tr); !ok {
		t.overlay++
	}
	if t.root == nil {
		t.root = &node{
			seq:     tbox.FromTrajectory(tr, t.opt.MaxBoxes),
			members: []*traj.Trajectory{tr},
			slab:    appendSlab(nil, []*traj.Trajectory{tr}),
			maxLen:  tr.Length(),
		}
		t.size = 1
	} else {
		t.insertAt(t.root, tr)
		t.size++
	}
	return nil
}

func (t *Tree) insertAt(n *node, tr *traj.Trajectory) {
	n.seq.Insert(tr)
	n.members = append(n.members, tr)
	if l := tr.Length(); l > n.maxLen {
		n.maxLen = l
	}
	if n.leaf() {
		n.slab = appendSlab(n.slab, n.members[len(n.members)-1:]) // tr's record
		if len(n.members) > t.opt.LeafSize {
			t.splitLeaf(n)
		}
		return
	}
	best := leastExpansion(len(n.children), func(i int) *tbox.Seq { return n.children[i].seq }, tr)
	t.insertAt(n.children[best], tr)
}

// splitLeaf re-partitions an overflowing leaf in place, turning it into an
// internal node when Algorithm 1 finds at least two pivots; the new
// leaves below it carry the slab records.
func (t *Tree) splitLeaf(n *node) {
	groups, seqs := t.partition(n.members)
	if len(groups) < 2 {
		return // stays an oversized leaf
	}
	n.slab = nil
	n.children = make([]*node, len(groups))
	for i := range groups {
		n.children[i] = t.build(groups[i], seqs[i], false)
	}
}

// Delete removes the trajectory with the given ID from every node on its
// path (Section IV-F) and drops a child the delete leaves without
// members. The boxes and maxLens on the path stay as they were: they
// still cover every member left, so every bound stays admissible, and
// the descent starts kernels in member-bound order whatever the node
// boxes look like (docs/ARCHITECTURE.md, "Maintenance"). Rebuild re-packs
// on request. It reports whether the ID was present.
func (t *Tree) Delete(id int) bool {
	m := t.byID[id]
	if m == nil || !deleteFrom(t.root, m) {
		return false
	}
	delete(t.byID, id)
	t.size--
	if _, ok := t.arenaIndex(m); !ok {
		t.overlay--
	}
	return true
}

// deleteFrom removes member m from n and from the one child path that
// holds it. Every node on the path lists the same header, so the search
// compares pointers and never touches the members it skips.
func deleteFrom(n *node, m *traj.Trajectory) bool {
	idx := slices.Index(n.members, m)
	if idx < 0 {
		return false
	}
	if n.leaf() {
		n.slab = slices.Delete(n.slab, slabStride*idx, slabStride*(idx+1))
	} else {
		ci := 0
		for ci < len(n.children) && !deleteFrom(n.children[ci], m) {
			ci++
		}
		if ci == len(n.children) {
			return false
		}
		if len(n.children[ci].members) == 0 {
			n.children = slices.Delete(n.children, ci, ci+1)
		}
	}
	n.members = slices.Delete(n.members, idx, idx+1)
	return true
}

// Rebuild re-packs the index: Repack, then the swap, in one serialised
// call.
func (t *Tree) Rebuild() error {
	swap, err := t.Repack()
	if err != nil {
		return err
	}
	swap()
	return nil
}

// Repack bulk-loads, beside t, the tree New makes over t's current
// members, and returns the function that swaps it in: its root, arena
// (the overlay folded into fresh slabs), ID index and random stream.
// Repack only reads t, so it may run beside searches; t must not change
// until the swap, which needs the serialisation of an update. Current
// members have escaped to readers through query results, and arena.Build
// re-points each trajectory's Points at its new slab — a write no lock
// covers once a result is out. New therefore gets fresh headers over the
// same read-only point slices: the escaped headers are never touched,
// they just keep aliasing the previous slabs until their holders drop
// them.
func (t *Tree) Repack() (swap func(), err error) {
	members := t.All()
	for i, m := range members {
		h := traj.New(m.ID, m.Points)
		h.Label = m.Label
		members[i] = h
	}
	fresh, err := New(members, t.opt)
	if err != nil {
		return nil, fmt.Errorf("trajtree: rebuild: %w", err)
	}
	return func() { *t = *fresh }, nil
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
