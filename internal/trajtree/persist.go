package trajtree

import (
	"encoding/gob"
	"fmt"
	"io"

	"trajmatch/internal/arena"
	"trajmatch/internal/geom"
	"trajmatch/internal/tbox"
	"trajmatch/internal/traj"
)

// The wire representation flattens the tree into per-node records with
// child indices, so the format is stable against struct layout changes and
// cheap to decode. Trajectories are stored once, referenced by ID.

type wireTree struct {
	Version int
	Options Options
	Size    int
	Trajs   []wireTraj
	Nodes   []wireNode
	Root    int // -1 when empty
}

type wireTraj struct {
	ID     int
	Label  int
	Points []traj.Point
}

type wireNode struct {
	Boxes    []wireBox
	SeqCount int
	Children []int
	Members  []int // trajectory IDs
	VPs      []geom.Point
	Descs    [][]float64
	MaxLen   float64
}

type wireBox struct {
	Rect geom.Rect
	MinL float64
}

// Save serialises the index with encoding/gob. The written stream contains
// the trajectories, so Load reconstructs a fully self-contained index.
func (t *Tree) Save(w io.Writer) error {
	wt := wireTree{Version: 1, Options: t.opt, Size: t.size, Root: -1}
	if t.root != nil {
		for _, m := range t.root.members {
			wt.Trajs = append(wt.Trajs, wireTraj{ID: m.ID, Label: m.Label, Points: m.Points})
		}
		var flatten func(n *node) int
		flatten = func(n *node) int {
			wn := wireNode{
				SeqCount: n.seq.Count(),
				MaxLen:   n.maxLen,
				VPs:      n.vps,
			}
			if n.descs != nil {
				// The wire format keeps one row per member; the rows
				// alias the slab.
				w := len(n.vps)
				wn.Descs = make([][]float64, len(n.members))
				for i := range wn.Descs {
					wn.Descs[i] = n.descs[i*w : (i+1)*w]
				}
			}
			for i := 0; i < n.seq.Len(); i++ {
				wn.Boxes = append(wn.Boxes, wireBox{Rect: n.seq.Rect(i), MinL: n.seq.MinLen(i)})
			}
			for _, m := range n.members {
				wn.Members = append(wn.Members, m.ID)
			}
			idx := len(wt.Nodes)
			wt.Nodes = append(wt.Nodes, wn)
			for _, c := range n.children {
				ci := flatten(c)
				wt.Nodes[idx].Children = append(wt.Nodes[idx].Children, ci)
			}
			return idx
		}
		wt.Root = flatten(t.root)
	}
	return gob.NewEncoder(w).Encode(&wt)
}

// Load reconstructs an index written by Save.
func Load(r io.Reader) (*Tree, error) {
	var wt wireTree
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("trajtree: load: %w", err)
	}
	if wt.Version != 1 {
		return nil, fmt.Errorf("trajtree: load: unsupported version %d", wt.Version)
	}
	byID := make(map[int]*traj.Trajectory, len(wt.Trajs))
	for _, w := range wt.Trajs {
		tr := traj.New(w.ID, w.Points)
		tr.Label = w.Label
		byID[w.ID] = tr
	}
	t := newTreeShell(wt.Options, wt.Size)
	if wt.Root >= 0 {
		var build func(i int) (*node, error)
		build = func(i int) (*node, error) {
			if i < 0 || i >= len(wt.Nodes) {
				return nil, fmt.Errorf("trajtree: load: node index %d out of range", i)
			}
			wn := wt.Nodes[i]
			n := &node{
				seq:    tbox.FromBoxes(toBoxes(wn.Boxes), wn.SeqCount),
				maxLen: wn.MaxLen,
				vps:    wn.VPs,
			}
			if wn.Descs != nil {
				n.descs = make([]float64, 0, len(wn.Descs)*len(wn.VPs))
				for _, row := range wn.Descs {
					if len(row) != len(wn.VPs) {
						return nil, fmt.Errorf("trajtree: load: descriptor row of %d values under %d vantage points",
							len(row), len(wn.VPs))
					}
					n.descs = append(n.descs, row...)
				}
			}
			for _, id := range wn.Members {
				tr := byID[id]
				if tr == nil {
					return nil, fmt.Errorf("trajtree: load: unknown trajectory %d", id)
				}
				n.members = append(n.members, tr)
			}
			for _, ci := range wn.Children {
				c, err := build(ci)
				if err != nil {
					return nil, err
				}
				n.children = append(n.children, c)
			}
			return n, nil
		}
		root, err := build(wt.Root)
		if err != nil {
			return nil, err
		}
		t.root = root
	}
	if err := t.checkInvariants(); err != nil {
		return nil, fmt.Errorf("trajtree: load: %w", err)
	}
	// Rebuild the arena over the loaded members: the decoded
	// trajectories are re-pointed at fresh slabs and the per-member
	// summaries behind the leaf screen are recomputed (they are a
	// deterministic function of the geometry, so queries behave exactly
	// as on the saved tree).
	if t.root != nil {
		t.ar = arena.Build(t.root.members)
	}
	return t, nil
}

func toBoxes(ws []wireBox) []tbox.Box {
	out := make([]tbox.Box, len(ws))
	for i, w := range ws {
		out[i] = tbox.Box{Rect: w.Rect, MinL: w.MinL}
	}
	return out
}
