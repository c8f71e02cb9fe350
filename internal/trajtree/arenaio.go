package trajtree

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

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
// Per-node metadata record (arena.NMetaStride int64s, in nmeta order):
//
//	0 boxOff     offset into nboxes, in 5-float box units
//	1 boxCount
//	2 seqCount   tbox.Seq insert count
//	3 childOff   offset into children
//	4 childCount
//	5 memberOff  offset into members
//	6 memberCount
//	7 maxLenBits math.Float64bits of the node's maxLen
//
// The slabs hold the root's members, each once and in the root's order,
// written from the members' own samples and summaries (arena.Encode). A
// member built into the live tree's arena and one inserted since are
// written alike, and a deleted member's samples are not written at all.
// A member ref is the member's index in the slabs, so every loaded member
// is arena-resident: a restart folds the overlay into the arena.

// arenaExtra is the tree-level metadata stored in the snapshot's meta
// header.
type arenaExtra struct {
	Version int     `json:"version"`
	Options Options `json:"options"`
	Size    int     `json:"size"`
	Root    int64   `json:"root"` // node index; -1 when empty
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
	extra := arenaExtra{Version: 1, Options: t.opt, Size: t.size, Root: -1}
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
			rec[0] = int64(len(ts.NBoxes) / 5)
			rec[1] = int64(n.seq.Len())
			rec[2] = int64(n.seq.Count())
			for i := 0; i < n.seq.Len(); i++ {
				r := n.seq.Rect(i)
				ts.NBoxes = append(ts.NBoxes, r.Min.X, r.Min.Y, r.Max.X, r.Max.Y, n.seq.MinLen(i))
			}
			rec[5] = int64(len(ts.Members))
			rec[6] = int64(len(n.members))
			for _, m := range n.members {
				ref, ok := refs[m]
				if !ok {
					return 0, fmt.Errorf("trajtree: save: member %d in a node but not under the root", m.ID)
				}
				ts.Members = append(ts.Members, ref)
			}
			rec[7] = int64(math.Float64bits(n.maxLen))
			idx := int64(len(ts.NMeta) / arena.NMetaStride)
			ts.NMeta = append(ts.NMeta, rec...)
			rec = ts.NMeta[idx*arena.NMetaStride:]
			rec[3] = int64(len(ts.Children))
			rec[4] = int64(len(n.children))
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
		root, err := flatten(t.root)
		if err != nil {
			return 0, err
		}
		extra.Root = root
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
	if extra.Size != len(members) {
		return nil, 0, fmt.Errorf("trajtree: load: size %d for %d members: %w", extra.Size, len(members), arena.ErrCorrupt)
	}
	t := newTreeShell(extra.Options, extra.Size)
	if extra.Root >= 0 {
		nNodes := len(ts.NMeta) / arena.NMetaStride
		if extra.Root >= int64(nNodes) {
			return nil, 0, fmt.Errorf("trajtree: load: root %d of %d nodes: %w", extra.Root, nNodes, arena.ErrCorrupt)
		}
		nodes := make([]node, nNodes)
		built := make([]bool, nNodes)
		var build func(i int64) (*node, error)
		build = func(i int64) (*node, error) {
			if built[i] {
				// A node reachable twice means the child table encodes a
				// DAG or a cycle; refuse rather than recurse forever.
				return nil, fmt.Errorf("trajtree: load: node %d reached twice: %w", i, arena.ErrCorrupt)
			}
			built[i] = true
			rec := ts.NMeta[i*arena.NMetaStride : (i+1)*arena.NMetaStride]
			n := &nodes[i]
			// The file interleaves each box's rect with its MinL; the Seq
			// keeps the rects as one slab of their own.
			rects, minL := make([]float64, 0, 4*rec[1]), make([]float64, rec[1])
			for bi := range minL {
				v := ts.NBoxes[(rec[0]+int64(bi))*5:]
				rects = append(rects, v[:4]...)
				minL[bi] = v[4]
			}
			n.seq = tbox.FromFlat(rects, minL, int(rec[2]))
			n.maxLen = math.Float64frombits(uint64(rec[7]))
			if rec[6] > 0 {
				n.members = make([]*traj.Trajectory, rec[6])
				for mi := range n.members {
					n.members[mi] = members[ts.Members[rec[5]+int64(mi)]]
				}
			}
			for ci := int64(0); ci < rec[4]; ci++ {
				c, err := build(ts.Children[rec[3]+ci])
				if err != nil {
					return nil, err
				}
				// Files saved while Delete left emptied children in
				// place still hold them.
				if len(c.members) > 0 {
					n.children = append(n.children, c)
				}
			}
			return n, nil
		}
		root, err := build(extra.Root)
		if err != nil {
			return nil, 0, err
		}
		t.root = root
		for _, m := range root.members {
			t.byID[m.ID] = m
		}
	}
	if err := t.checkInvariants(); err != nil {
		return nil, 0, fmt.Errorf("trajtree: load: %v: %w", err, arena.ErrCorrupt)
	}
	t.ar = a
	return t, snap.CRC, nil
}
