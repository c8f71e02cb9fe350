package trajtree

import (
	"math"
	"math/rand"
	"testing"
)

// Interleaved inserts and deletes, with a re-pack every third batch, and
// invariant checks and exact-kNN verification after every batch: the
// failure-injection test for the update path of Section IV-F.
func TestInterleavedUpdatesStayExact(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	pool := testDB(rng, 200)
	tree, err := New(pool[:80], testOptions())
	if err != nil {
		t.Fatal(err)
	}
	inTree := make(map[int]bool, 200)
	for _, tr := range pool[:80] {
		inTree[tr.ID] = true
	}
	nextInsert := 80

	for batch := 0; batch < 8; batch++ {
		// Insert a handful.
		for i := 0; i < 10 && nextInsert < len(pool); i++ {
			if err := tree.Insert(pool[nextInsert]); err != nil {
				t.Fatalf("batch %d insert: %v", batch, err)
			}
			inTree[pool[nextInsert].ID] = true
			nextInsert++
		}
		// Delete a few random present members.
		var present []int
		for id, ok := range inTree {
			if ok {
				present = append(present, id)
			}
		}
		for i := 0; i < 4 && len(present) > 10; i++ {
			victim := present[rng.Intn(len(present))]
			if !inTree[victim] {
				continue
			}
			if !tree.Delete(victim) {
				t.Fatalf("batch %d: delete of present ID %d failed", batch, victim)
			}
			inTree[victim] = false
		}
		if batch%3 == 2 {
			if err := tree.Rebuild(); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
		}
		// Invariants and exactness.
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		want := 0
		for _, ok := range inTree {
			if ok {
				want++
			}
		}
		if tree.Size() != want {
			t.Fatalf("batch %d: size %d, want %d", batch, tree.Size(), want)
		}
		q := testDB(rng, 1)[0]
		q.ID = 100_000 + batch
		got, _, _, _ := tree.SearchKNN(q, 5, nil, nil)
		ref := referenceKNN(tree.root.members, q, 5, tree.opt.Cumulative)
		for i := range got {
			if math.Abs(got[i].Dist-ref[i].Dist) > 1e-9*(1+ref[i].Dist) {
				t.Fatalf("batch %d rank %d: %v vs %v", batch, i, got[i].Dist, ref[i].Dist)
			}
		}
	}
}

// Queries must remain exact across a spectrum of option extremes.
func TestKNNExactUnderOptionExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	db := testDB(rng, 90)
	q := testDB(rng, 1)[0]
	q.ID = 99999
	opts := []Options{
		{Theta: 0.1, LeafSize: 2, PivotCandidates: 8, Seed: 1},
		{Theta: 0.95, LeafSize: 40, PivotCandidates: 90, Seed: 2},
		{MaxBoxes: 2, LeafSize: 5, PivotCandidates: 16, Seed: 3},
		{MaxFanout: 2, LeafSize: 5, PivotCandidates: 16, Seed: 4},
	}
	for oi, opt := range opts {
		tree, err := New(db, opt)
		if err != nil {
			t.Fatalf("opts %d: %v", oi, err)
		}
		if err := tree.checkInvariants(); err != nil {
			t.Fatalf("opts %d: %v", oi, err)
		}
		got, _, _, _ := tree.SearchKNN(q, 9, nil, nil)
		want := referenceKNN(tree.root.members, q, 9, tree.opt.Cumulative)
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				t.Fatalf("opts %d rank %d: %v vs %v", oi, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// Identical trajectories (duplicates under different IDs) must all be
// retrievable — a classic index edge case.
func TestDuplicateGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	base := testDB(rng, 20)
	dupes := base
	for i := 0; i < 10; i++ {
		c := base[0].Clone()
		c.ID = 500 + i
		dupes = append(dupes, c)
	}
	tree, err := New(dupes, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, _ := tree.SearchKNN(base[0], 11, nil, nil)
	if len(got) != 11 {
		t.Fatalf("got %d results", len(got))
	}
	for i := 0; i < 11; i++ {
		if got[i].Dist > 1e-9 {
			t.Fatalf("rank %d: duplicate at distance %v", i, got[i].Dist)
		}
	}
}
