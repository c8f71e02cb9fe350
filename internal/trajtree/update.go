package trajtree

import (
	"fmt"
	"slices"

	"trajmatch/internal/arena"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// refitShare is the share of a node's members that deletes below it must
// exceed, since its tBoxSeq was last fit, before Delete refits the node
// (refit). At 1/4 a 10 000-trip taxi tree with all of its members
// replaced, and never rebuilt, stays within +9 % of a fresh build's
// distance calls and +2 % of its bound calls; at 1/2 (without
// refitBudget) distance calls read +9.2 % (docs/ARCHITECTURE.md,
// "Maintenance").
const refitShare = 0.25

// refitBudget caps the members one Delete may refit, summed over the
// nodes on its path, so the stall a refit puts on the shard's readers is
// bounded by the budget, not by the corpus: a node over the budget is
// never refit, and one whose turn comes after the budget is spent waits
// for a later delete below it. Refits run bottom-up, so the small nodes
// near the deleted member go first. On taxi trips the slowest Delete
// that refits took about 6 ms in a 10 000-trip tree and 13 ms in a
// 100 000-trip one, against 119 ms there without the budget
// (docs/ARCHITECTURE.md, "Maintenance").
const refitBudget = 2048

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
// path (Section IV-F) and maintains the path where the delete made it
// stale: a child left without members is dropped, and a node whose
// deletes since its last fit exceed refitShare of its members is refit,
// within refitBudget. It reports whether the ID was present.
func (t *Tree) Delete(id int) bool {
	m := t.byID[id]
	budget := refitBudget
	if m == nil || !t.deleteFrom(t.root, m, &budget) {
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
// holds it, bottom-up, so a node refits over children already refit.
// Every node on the path lists the same header, so the search compares
// pointers and never touches the members it skips. The root is never
// refit: the descent enters it unbounded (query.go), so its summary
// bounds nothing. A refit spends its node's member count from budget.
func (t *Tree) deleteFrom(n *node, m *traj.Trajectory, budget *int) bool {
	idx := slices.Index(n.members, m)
	if idx < 0 {
		return false
	}
	if n.leaf() {
		n.slab = slices.Delete(n.slab, slabStride*idx, slabStride*(idx+1))
	} else {
		ci := 0
		for ci < len(n.children) && !t.deleteFrom(n.children[ci], m, budget) {
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
	if n == t.root || len(n.members) == 0 {
		return true
	}
	if n.dels++; float64(n.dels) > refitShare*float64(len(n.members)) && len(n.members) <= *budget {
		*budget -= len(n.members)
		t.refit(n)
	}
	return true
}

// refit rebuilds n's tBoxSeq and maxLen from its current members, the
// way a build summarises a group: tbox.Build over the member list, whose
// first entry is still the pivot on a node no delete has reached, so the
// refit changes only what deletes made stale. Every member lies in the
// new boxes by construction. An internal node's maxLen is its children's
// largest, so no child's exceeds its parent's.
func (t *Tree) refit(n *node) {
	n.seq = tbox.Build(n.members, t.opt.MaxBoxes)
	n.dels = 0
	if n.leaf() {
		n.maxLen = maxLength(n.members)
		return
	}
	n.maxLen = 0
	for _, c := range n.children {
		n.maxLen = max(n.maxLen, c.maxLen)
	}
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
