package trajtree

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"trajmatch/internal/arena"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// The tree's one on-disk encoding: the nodes flattened next to the
// shard's slabs in the arena package's TRARENA1 format (arena/file.go).
// A load aliases the point slabs straight out of the verified bytes — a
// file mapping (LoadArena) or one heap buffer (Load) — and rebuilds only
// the node structures, an O(members + nodes) warm boot.
//
// The nboxes section is every node's tbox.Seq rect slab, concatenated
// in nmeta order. Per-node metadata record (arena.NMetaStride int64s, in
// nmeta order, which is pre-order: the root, when there is one, is node
// 0):
//
//	0 boxOff     offset into nboxes, in 4-float box units
//	1 boxCount
//	2 childOff   offset into children
//	3 childCount
//	4 memberOff  offset into members
//	5 memberCount
//	6 maxLenBits math.Float64bits of the node's maxLen
//
// The slabs hold the root's members, each once and in the root's order,
// written from the members' own samples and summaries (arena.Encode). A
// member built into the live tree's arena and one inserted since are
// written alike, and a deleted member's samples are not written at all.
// A member ref is the member's index in the slabs, so every loaded member
// is arena-resident: a restart folds the overlay into the arena.

// arenaExtra is the tree-level metadata stored in the snapshot's meta
// header. The tree's size is its slabs' member count.
type arenaExtra struct {
	Version int     `json:"version"`
	Options Options `json:"options"`
}

// Save writes the tree to w; Load and LoadArena read it back answering
// every query identically.
func (t *Tree) Save(w io.Writer) error {
	_, err := t.SaveCRC(w)
	return err
}

// SaveCRC is Save that also returns the checksum the written file ends
// in (the value Load and LoadArena report back), which the snapshot
// manifest records to tell one save's files from another's.
func (t *Tree) SaveCRC(w io.Writer) (uint32, error) {
	extra := arenaExtra{Version: 1, Options: t.opt}
	var ts arena.TreeSection
	var members []*traj.Trajectory
	if t.root != nil {
		// The file's slabs hold the root's members in order, so a
		// member's ref is its position in that list.
		members = t.root.members
		refs := make(map[*traj.Trajectory]int64, len(members))
		for i, m := range members {
			refs[m] = int64(i)
		}
		var flatten func(n *node) (int64, error)
		flatten = func(n *node) (int64, error) {
			rec := make([]int64, arena.NMetaStride)
			rec[0] = int64(len(ts.NBoxes) / 4)
			rec[1] = int64(n.seq.Len())
			ts.NBoxes = append(ts.NBoxes, n.seq.Rects()...)
			rec[4] = int64(len(ts.Members))
			rec[5] = int64(len(n.members))
			for _, m := range n.members {
				ref, ok := refs[m]
				if !ok {
					return 0, fmt.Errorf("trajtree: save: member %d in a node but not under the root", m.ID)
				}
				ts.Members = append(ts.Members, ref)
			}
			rec[6] = int64(math.Float64bits(n.maxLen))
			idx := int64(len(ts.NMeta) / arena.NMetaStride)
			ts.NMeta = append(ts.NMeta, rec...)
			rec = ts.NMeta[idx*arena.NMetaStride:]
			rec[2] = int64(len(ts.Children))
			rec[3] = int64(len(n.children))
			// Reserve the child window before recursing so each node's
			// children stay contiguous.
			base := len(ts.Children)
			ts.Children = append(ts.Children, make([]int64, len(n.children))...)
			for i, c := range n.children {
				ci, err := flatten(c)
				if err != nil {
					return 0, err
				}
				ts.Children[base+i] = ci
			}
			return idx, nil
		}
		if _, err := flatten(t.root); err != nil {
			return 0, err
		}
	}
	raw, err := json.Marshal(extra)
	if err != nil {
		return 0, err
	}
	return arena.Encode(w, members, &ts, raw)
}

// Load reads a tree written by Save from r onto the heap and returns it
// with the file's checksum. The bytes land in one buffer that the slabs
// then alias: sized exactly when r reports its length (a Len() int
// method, as on bytes.Reader and bytes.Buffer, or on a file wrapped with
// its Stat size), grown by io.ReadAll otherwise. Verification failures
// of any kind wrap arena.ErrCorrupt.
func Load(r io.Reader) (*Tree, uint32, error) {
	var b []byte
	var err error
	if s, ok := r.(interface{ Len() int }); ok {
		b = make([]byte, s.Len())
		_, err = io.ReadFull(r, b)
	} else {
		b, err = io.ReadAll(r)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("trajtree: load: %w", err)
	}
	snap, err := arena.Decode(b)
	if err != nil {
		return nil, 0, fmt.Errorf("trajtree: load: %w", err)
	}
	return fromSnapshot(snap)
}

// LoadArena is Load for a file on disk, mmap-ing the slabs when the
// platform allows (a heap read otherwise — identical result, higher boot
// cost). The mapping is never unmapped: member trajectories alias it for
// the life of the process.
func LoadArena(path string) (*Tree, uint32, error) {
	snap, err := arena.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("trajtree: load: %w", err)
	}
	return fromSnapshot(snap)
}

// fromSnapshot rebuilds the node structures over a decoded file's slabs,
// whose members the decoder has already validated sample by sample. The
// file must hold exactly the tree's members.
func fromSnapshot(snap *arena.Snapshot) (*Tree, uint32, error) {
	var extra arenaExtra
	if err := json.Unmarshal(snap.Extra, &extra); err != nil {
		return nil, 0, fmt.Errorf("trajtree: load: meta: %v: %w", err, arena.ErrCorrupt)
	}
	if extra.Version != 1 {
		return nil, 0, fmt.Errorf("trajtree: load: unsupported version %d: %w", extra.Version, arena.ErrCorrupt)
	}
	a, ts := snap.Arena, snap.Tree
	members := a.Members()
	t := newTreeShell(extra.Options, len(members))
	if nNodes := len(ts.NMeta) / arena.NMetaStride; nNodes > 0 {
		// Each node's boxes, members and children are capped windows of
		// one table each, so an update that grows a node's list
		// reallocates it instead of writing into its neighbour's. The
		// boxes are a heap copy: a mapped file is read-only, and
		// Seq.Insert rewrites them in place.
		nodes := make([]node, nNodes)
		seqs := make([]tbox.Seq, nNodes)
		rects := slices.Clone(ts.NBoxes)
		refs := make([]*traj.Trajectory, len(ts.Members))
		kids := make([]*node, len(ts.Children))
		named := make([]bool, nNodes)
		for i := range nodes {
			rec := ts.NMeta[i*arena.NMetaStride : (i+1)*arena.NMetaStride]
			b0, b1 := 4*rec[0], 4*(rec[0]+rec[1])
			c0, c1 := rec[2], rec[2]+rec[3]
			m0, m1 := rec[4], rec[4]+rec[5]
			// A member entry in two nodes' windows would let a Delete
			// from one node's list shift the other's.
			for k := m0; k < m1; k++ {
				if refs[k] != nil {
					return nil, 0, fmt.Errorf("trajtree: load: member entry %d in two nodes: %w", k, arena.ErrCorrupt)
				}
				refs[k] = members[ts.Members[k]]
			}
			// A child named twice (by two entries, or by one entry two
			// windows share), or the root named as a child, makes the
			// nodes a DAG or a cycle: refuse it rather than walk it
			// forever.
			for k := c0; k < c1; k++ {
				c := ts.Children[k]
				if c == 0 || named[c] {
					return nil, 0, fmt.Errorf("trajtree: load: node %d reached twice: %w", c, arena.ErrCorrupt)
				}
				named[c] = true
				kids[k] = &nodes[c]
			}
			seqs[i] = *tbox.FromFlat(rects[b0:b1:b1])
			nodes[i] = node{seq: &seqs[i], children: kids[c0:c1:c1], members: refs[m0:m1:m1],
				maxLen: math.Float64frombits(uint64(rec[6]))}
		}
		if err := nestedWindows(ts, len(members)); err != nil {
			return nil, 0, fmt.Errorf("trajtree: load: %v: %w", err, arena.ErrCorrupt)
		}
		t.root = &nodes[0]
		for _, m := range t.root.members {
			t.byID[m.ID] = m
		}
		// The leaves' slab records are derived from the members' summaries,
		// as a build makes them, into capped windows of one table.
		slab := make([]float64, 0, slabStride*len(members))
		for i := range nodes {
			if n := &nodes[i]; n.leaf() {
				s0 := len(slab)
				slab = appendSlab(slab, n.members)
				n.slab = slab[s0:len(slab):len(slab)]
			}
		}
	}
	if err := t.checkInvariants(); err != nil {
		return nil, 0, fmt.Errorf("trajtree: load: %v: %w", err, arena.ErrCorrupt)
	}
	t.ar = a
	return t, snap.CRC, nil
}

// nestedWindows checks that the member windows under the root nest as a
// build makes them. A window that lists another subtree's member in
// place of its own leaves a member in two leaves, where a search answers
// it twice, or off its node's path, where Delete cannot reach it. The
// walk numbers the leaves in pre-order and checks a node after its
// children, so a node's subtree holds the leaves numbered above lo:
// owner stamps each member with the last leaf so far that lists it, and
// every internal node must list distinct members stamped by its subtree
// (seen holds the last internal node that listed a member). With the
// window sizes checkInvariants matches (an internal node lists as many
// members as its children, the root all n), that puts each member in
// exactly one leaf and every internal node's subtree in its window.
func nestedWindows(ts arena.TreeSection, n int) error {
	owner, seen := make([]int, n), make([]int, n)
	leaves := 0
	var walk func(i int64) error
	walk = func(i int64) error {
		rec := ts.NMeta[i*arena.NMetaStride:]
		window := ts.Members[rec[4] : rec[4]+rec[5]]
		if rec[3] == 0 {
			leaves++
			for _, m := range window {
				owner[m] = leaves
			}
			return nil
		}
		lo := leaves
		for _, c := range ts.Children[rec[2] : rec[2]+rec[3]] {
			if err := walk(c); err != nil {
				return err
			}
		}
		for _, m := range window {
			if owner[m] <= lo || seen[m] == int(i)+1 {
				return fmt.Errorf("node %d lists member %d twice or outside its subtree", i, m)
			}
			seen[m] = int(i) + 1
		}
		return nil
	}
	return walk(0)
}
