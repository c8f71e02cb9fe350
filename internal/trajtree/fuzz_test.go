package trajtree

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"trajmatch/internal/arena"
	"trajmatch/internal/traj"
)

// FuzzLoadArena feeds the one decoder of tree files whatever the fuzzer
// makes of a valid file. These bytes arrive from other machines
// (GET /cluster/v1/snapshot/{file}, -fetch-snapshot), and a checksum only
// proves the sender computed one: the target re-seals the trailer over
// every mutated body, so what is under test is everything behind the
// checksum — the section table, the slab invariants, every member's
// samples, the node records. Load must return an error wrapping
// arena.ErrCorrupt or a tree that answers a search; it must never panic.
//
// The committed corpus (testdata/fuzz/FuzzLoadArena, arena format 4) is
// made by loadArenaSeeds, and TestFuzzLoadArenaSeeds says what each seed
// must do.
func FuzzLoadArena(f *testing.F) {
	q := traj.New(9_000_000, []traj.Point{traj.P(1, 1, 0), traj.P(4, 2, 10), traj.P(6, 6, 20)})
	f.Fuzz(func(t *testing.T, file []byte) {
		if len(file) >= 4 {
			binary.LittleEndian.PutUint32(file[len(file)-4:], crc32.Checksum(file[:len(file)-4], castagnoli))
		}
		tree, _, err := Load(bytes.NewReader(file))
		if err != nil {
			if !errors.Is(err, arena.ErrCorrupt) {
				t.Fatalf("Load: %v, want an error wrapping arena.ErrCorrupt", err)
			}
			return
		}
		if _, _, _, err := tree.SearchKNN(q, 3, nil, nil); err != nil {
			t.Fatalf("SearchKNN on a loaded tree: %v", err)
		}
	})
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var writeSeeds = flag.Bool("write-seeds", false, "rewrite testdata/fuzz/FuzzLoadArena from loadArenaSeeds")

// loadArenaSeed is one FuzzLoadArena seed and what loading it must do:
// load and answer a search when fails is empty, else fail with an error
// wrapping arena.ErrCorrupt that contains fails.
type loadArenaSeed struct {
	file  []byte
	fails string
}

// loadArenaSeeds makes the FuzzLoadArena corpus: a built tree of ten
// three-point trips (leaves of two, so the tree has inner nodes), an
// empty tree, the built tree after deletes and inserts, two files whose
// single overwritten node-record word (boxOff, memberCount of node 3)
// used to wrap an int64 range check and panic the loader, one whose
// first member box was moved off the segment it summarises, two whose
// first member's second sample is one Insert refuses (a NaN X, and a
// timestamp before the first sample's), and two whose node windows
// overlap: node 1's child window on the root's, which used to make node 1
// its own child and overflow the stack of the load's invariant walk, and
// a leaf's member window on the root's, which a Delete would shift under
// the other node.
func loadArenaSeeds(t *testing.T) map[string]loadArenaSeed {
	t.Helper()
	trips := func(firstID int, shift float64) []*traj.Trajectory {
		out := make([]*traj.Trajectory, 10)
		for i := range out {
			x, y := float64(7*i%10)+shift, float64(3*i%10)+shift
			out[i] = traj.New(firstID+i, []traj.Point{
				traj.P(x, y, 0), traj.P(x+1, y+float64(i%3), 10), traj.P(x+2, y+2, 20)})
		}
		return out
	}
	opt := Options{LeafSize: 2, PivotCandidates: 6, Seed: 1}
	built, err := New(trips(0, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := New(nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	churned, err := New(trips(0, 0), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 6} {
		if !churned.Delete(id) {
			t.Fatalf("delete %d: not found", id)
		}
	}
	for _, tr := range trips(100, 0.5)[:3] {
		if err := churned.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	valid := saveBytes(t, built)
	lostBox := valid
	for i, v := range []float64{-1e6, -1e6, -999_999, -999_999} {
		lostBox = resealed(t, lostBox, "boxes", i, math.Float64bits(v))
	}
	snap, err := arena.Decode(slices.Clone(valid))
	if err != nil {
		t.Fatal(err)
	}
	nm := snap.Tree.NMeta
	leaf := -1 // the leaf of the longest member, so its maxLen covers any member
	for off := 0; off < len(nm); off += arena.NMetaStride {
		if nm[off+3] == 0 && (leaf < 0 || math.Float64frombits(uint64(nm[off+6])) > math.Float64frombits(uint64(nm[leaf+6]))) {
			leaf = off
		}
	}
	// Node 1 (the root's first child, nmeta being pre-order) given the
	// root's first child entry as its own one child: itself.
	selfChild := resealed(t, valid, "nmeta", arena.NMetaStride+2, uint64(nm[2]))
	selfChild = resealed(t, selfChild, "nmeta", arena.NMetaStride+3, 1)
	return map[string]loadArenaSeed{
		"valid":                    {file: valid},
		"empty":                    {file: saveBytes(t, empty)},
		"churned":                  {file: saveBytes(t, churned)},
		"crash-boxoff-bounds":      {resealed(t, valid, "nmeta", 3*arena.NMetaStride+0, math.MaxInt64), "box range out of bounds"},
		"crash-membercount-bounds": {resealed(t, valid, "nmeta", 3*arena.NMetaStride+5, math.MaxInt64), "member range out of bounds"},
		"corrupt-box-lost-segment": {lostBox, "lies in none of its boxes"},
		"nan-sample":               {resealed(t, valid, "pts", 3, math.Float64bits(math.NaN())), traj.ErrNonFinite.Error()},
		"time-reversed":            {resealed(t, valid, "pts", 5, math.Float64bits(-10)), traj.ErrTimeNotSorted.Error()},
		"shared-child-window":      {selfChild, "node 1 reached twice"},
		"shared-member-window":     {resealed(t, valid, "nmeta", leaf+4, uint64(nm[4])), "in two nodes"},
	}
}

// TestFuzzLoadArenaSeeds holds the committed FuzzLoadArena corpus to its
// recipes (loadArenaSeeds), so no seed outlives a format change as a file
// that fails at the version check and tests nothing, and to its
// outcomes, through both readers: the built and churned trees and the
// empty one load and answer a search, and every other seed is corrupt
// for its own reason. After a change to the format or to the trees,
// regenerate the corpus with
//
//	go test ./internal/trajtree -run TestFuzzLoadArenaSeeds -write-seeds
func TestFuzzLoadArenaSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLoadArena")
	seeds := loadArenaSeeds(t)
	if *writeSeeds {
		for name, s := range seeds {
			if err := os.WriteFile(filepath.Join(dir, name), corpusFile(s.file), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if _, ok := seeds[e.Name()]; !ok {
			t.Errorf("seed %s has no recipe in loadArenaSeeds", e.Name())
		}
	}
	q := traj.New(9_000_000, []traj.Point{traj.P(1, 1, 0), traj.P(4, 2, 10), traj.P(6, 6, 20)})
	for name, s := range seeds {
		committed, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(committed, corpusFile(s.file)) {
			t.Errorf("%s: committed seed differs from its recipe (%v); rerun with -write-seeds", name, err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, s.file, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, _, errMapped := LoadArena(path)
		heap, _, errHeap := Load(bytes.NewReader(s.file))
		for _, r := range []struct {
			reader string
			tree   *Tree
			err    error
		}{{"LoadArena", mapped, errMapped}, {"Load", heap, errHeap}} {
			switch {
			case s.fails == "" && r.err != nil:
				t.Errorf("%s: %s: %v", name, r.reader, r.err)
			case s.fails == "":
				res, _, _, err := r.tree.SearchKNN(q, 3, nil, nil)
				if err != nil || len(res) != min(3, r.tree.Size()) {
					t.Errorf("%s: %s: search answered %d results, %v", name, r.reader, len(res), err)
				}
				if ms := r.tree.MemStats(); ms.Overlay != 0 || ms.Arena.Members != r.tree.Size() {
					t.Errorf("%s: %s: %+v, want every member in the arena", name, r.reader, ms)
				}
			case !errors.Is(r.err, arena.ErrCorrupt) || !strings.Contains(fmt.Sprint(r.err), s.fails):
				t.Errorf("%s: %s: err = %v, want ErrCorrupt for %q", name, r.reader, r.err, s.fails)
			}
		}
	}
}

// corpusFile renders a seed in the fuzzing engine's corpus format.
func corpusFile(b []byte) []byte {
	return fmt.Appendf(nil, "go test fuzz v1\n[]byte(%q)\n", b)
}

// resealed returns a copy of the tree file b with word i of its section
// name set to v and the trailer re-sealed, as a hostile peer could serve
// it.
func resealed(t *testing.T, b []byte, name string, i int, v uint64) []byte {
	t.Helper()
	var meta struct {
		Sections []struct {
			Name     string
			Off, Len int
		}
	}
	if err := json.Unmarshal(b[16:16+binary.LittleEndian.Uint64(b[8:16])], &meta); err != nil {
		t.Fatal(err)
	}
	for _, s := range meta.Sections {
		if s.Name == name && 8*i < s.Len {
			out := slices.Clone(b)
			binary.LittleEndian.PutUint64(out[s.Off+8*i:], v)
			binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], castagnoli))
			return out
		}
	}
	t.Fatalf("no word %d in section %q", i, name)
	return nil
}
