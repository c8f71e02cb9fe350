package trajtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func TestRangeSearchExact(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	db := testDB(rng, 120)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 10; it++ {
		q := testDB(rng, 1)[0]
		q.ID = 9000 + it
		// Radius chosen around the 10th-NN distance so results are
		// non-trivial.
		knn := referenceKNN(tree.root.members, q, 10, tree.opt.Cumulative)
		radius := knn[len(knn)-1].Dist
		got, st, _, _ := tree.SearchRange(q, radius, nil)
		// Brute-force reference.
		var want int
		for _, tr := range tree.All() {
			if d, _ := tree.DistanceBetween(q, tr, math.Inf(1), nil); d <= radius {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("range returned %d, want %d", len(got), want)
		}
		for i, r := range got {
			if r.Dist > radius {
				t.Fatalf("result %d outside radius: %v > %v", i, r.Dist, radius)
			}
			if i > 0 && got[i-1].Dist > r.Dist {
				t.Fatal("range results not sorted")
			}
		}
		if st.NodesPruned == 0 && tree.Height() > 2 {
			t.Error("range search pruned nothing")
		}
	}
}

func TestRangeSearchEmptyAndZeroRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	db := testDB(rng, 30)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	empty, _ := New(nil, testOptions())
	if got, _, _, _ := empty.SearchRange(db[0], 100, nil); len(got) != 0 {
		t.Error("range on empty tree returned results")
	}
	// Zero radius returns at least the query itself when indexed.
	got, _, _, _ := tree.SearchRange(db[3], 0, nil)
	found := false
	for _, r := range got {
		if r.Traj.ID == db[3].ID {
			found = true
		}
		if r.Dist != 0 {
			t.Errorf("zero-radius result with dist %v", r.Dist)
		}
	}
	if !found {
		t.Error("zero-radius search missed the query itself")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	db := testDB(rng, 90)
	tree, err := New(db, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadHeap(t, tree)
	if loaded.Size() != tree.Size() || loaded.Height() != tree.Height() {
		t.Fatalf("loaded tree differs: size %d/%d height %d/%d",
			loaded.Size(), tree.Size(), loaded.Height(), tree.Height())
	}
	// Queries over the loaded index return identical answers.
	for it := 0; it < 5; it++ {
		q := testDB(rng, 1)[0]
		q.ID = 8000 + it
		a, _, _, _ := tree.SearchKNN(q, 7, nil, nil)
		b, _, _, _ := loaded.SearchKNN(q, 7, nil, nil)
		if len(a) != len(b) {
			t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].Dist-b[i].Dist) > 1e-12 {
				t.Fatalf("rank %d: %v vs %v", i, a[i].Dist, b[i].Dist)
			}
		}
	}
	// The loaded index remains updatable.
	nt := testDB(rand.New(rand.NewSource(125)), 1)[0]
	nt.ID = 7777
	if err := loaded.Insert(nt); err != nil {
		t.Fatal(err)
	}
	if loaded.Lookup(7777) == nil {
		t.Error("insert after load failed")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("not a tree snapshot"))); err == nil {
		t.Error("garbage stream accepted")
	}
}
