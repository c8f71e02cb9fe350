package trajtree

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"trajmatch/internal/synth"
)

// buildGolden holds the sha256 of Tree.Save for each build case of
// TestBuildBytesGolden. The values were captured from the build path as
// it was before the pivot scan was bounded and screened and the box
// growth loop flattened: equality here is what proves those changes
// build the same tree. The values are a read-only fixture: a deliberate
// change to the tree a build makes re-captures them outside the tree,
// from the code that defines the new build, and says so.
var buildGolden = map[string]string{
	"taxi2k/serial":           "59428cbc25d0027cbcd13aea4b88d53b9d9295239ff472bea8def5378f0ff877",
	"taxi2k/parallel":         "a17d27927e5da1685065ec117c72cb761c05826b7e9ccf9fc289cfb81cc9df14",
	"taxi2k/parallel/rebuilt": "a17d27927e5da1685065ec117c72cb761c05826b7e9ccf9fc289cfb81cc9df14",
	"churned":                 "d127d23b33a73706f4817fb4bc1710e29b2a5d21481750dc0d7f2286c461d8aa",
	"churned/rebuilt":         "90cedd52fbe7dbea368cda41046e933c1169defe99cb8db6376e00b0f09c7f4d",
	"asl":                     "dea154a641540143403ae561985f880d8a70cd962ccbd66e0c05f7b872ec7483",
}

// TestBuildBytesGolden pins the bytes of the trees New, Rebuild (the
// background build) and Insert-time leaf splits make: serial and
// parallel bulk loads of 2 000 taxi trips, the parallel one again after
// a rebuild, the work-counter tree after churn (whose inserts split
// leaves through partition) before and after a rebuild, and 216 ASL
// gestures.
func TestBuildBytesGolden(t *testing.T) {
	build := func(name string, tree *Tree, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(saveBytes(t, tree))
		if got, want := hex.EncodeToString(sum[:]), buildGolden[name]; got != want {
			t.Errorf("%s: save sha256 %s, golden %s", name, got, want)
		}
	}
	taxi := taxiTrips(2000, 1, 0)
	serial, err := New(taxi, Options{Seed: 1, RebuildRatio: -1})
	build("taxi2k/serial", serial, err)
	parallel, err := New(taxi, Options{Seed: 1, RebuildRatio: -1, Parallel: true})
	build("taxi2k/parallel", parallel, err)
	build("taxi2k/parallel/rebuilt", parallel, parallel.Rebuild())

	churned, _ := countersTree(t)
	churn(t, churned)
	build("churned", churned, nil)
	build("churned/rebuilt", churned, churned.Rebuild())

	asl, err := New(synth.ASL(synth.ASLConfig{NumClasses: 24, Instances: 9, Points: 40, Jitter: 0.04, Seed: 2}), Options{Seed: 1, RebuildRatio: -1})
	build("asl", asl, err)
}
