package sketch

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

// goldenCase is one line of the candidate golden: the exact candidate
// set one (query, want) pair produced. The file's lines also carry the
// lsh_hits, widened and full_scan counters of the MinHash-LSH stage
// that wrote it; decoding ignores them.
type goldenCase struct {
	Query int   `json:"query"`
	Want  int   `json:"want"`
	IDs   []int `json:"ids"`
}

// goldenIndex builds the golden's index through a mutation history that
// frees and reuses member storage: bulk insert, random deletes, late
// inserts, re-inserts of deleted IDs, same-ID replacements with other
// geometry, and a second delete/re-insert round. It returns the index
// and the query set: live members, deleted members' geometry, the
// pre-replacement geometry of replaced members, and non-members.
func goldenIndex(t *testing.T) (*Index, []*traj.Trajectory) {
	t.Helper()
	db := synth.Taxi(synth.DefaultTaxi(2000))
	altCfg := synth.DefaultTaxi(300)
	altCfg.Seed = 2
	alt := synth.Taxi(altCfg)
	ix := mustIndex(t, Params{CellSize: DeriveCellSize(db)})

	rng := rand.New(rand.NewSource(34))
	live := make(map[int]bool)
	for _, tr := range db[:1600] {
		ix.Insert(tr)
		live[tr.ID] = true
	}
	var deleted []int
	for _, i := range rng.Perm(1600)[:400] {
		ix.Delete(db[i].ID)
		delete(live, db[i].ID)
		deleted = append(deleted, i)
	}
	for _, tr := range db[1600:] {
		ix.Insert(tr)
		live[tr.ID] = true
	}
	for _, i := range deleted[:200] {
		ix.Insert(db[i])
		live[db[i].ID] = true
	}
	var replaced []int
	for j, i := range rng.Perm(len(db))[:100] {
		if !live[db[i].ID] {
			continue
		}
		r := alt[j].Clone()
		r.ID = db[i].ID
		ix.Insert(r)
		replaced = append(replaced, i)
	}
	for _, i := range rng.Perm(len(db))[:150] {
		ix.Delete(db[i].ID)
	}
	for _, i := range rng.Perm(len(db))[:100] {
		ix.Insert(db[i])
	}

	var qs []*traj.Trajectory
	for _, i := range rng.Perm(len(db))[:12] {
		qs = append(qs, db[i])
	}
	for _, i := range deleted[200:204] {
		qs = append(qs, db[i])
	}
	for _, i := range replaced[:4] {
		qs = append(qs, db[i])
	}
	for _, tr := range alt[200:204] {
		q := tr.Clone()
		q.ID = 1_000_000 + tr.ID
		qs = append(qs, q)
	}
	return ix, qs
}

func goldenCases(t *testing.T) []goldenCase {
	ix, qs := goldenIndex(t)
	var out []goldenCase
	for _, q := range qs {
		for _, want := range []int{32, 40, 416} {
			ids := ix.Candidates(q, want)
			if !sort.IntsAreSorted(ids) {
				t.Fatalf("query %d want %d: candidates not sorted", q.ID, want)
			}
			out = append(out, goldenCase{Query: q.ID, Want: want, IDs: ids})
		}
	}
	return out
}

// TestCandidatesGolden pins the exact candidate sets of a fixed query
// set over a churned 2k taxi index. The golden was written by the
// nested-map posting layout the slot layout replaced, with a MinHash-LSH
// stage beside the overlap ranking, so equality here is what proves that
// neither the layout change nor the stage's removal can move recall. The file is
// a read-only fixture: a deliberate change to the candidate semantics
// re-captures it outside the tree, from the code that defines the new
// semantics, and says so.
func TestCandidatesGolden(t *testing.T) {
	got := goldenCases(t)
	f, err := os.Open(filepath.Join("testdata", "candidates.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []goldenCase
	for dec := json.NewDecoder(f); dec.More(); {
		var c goldenCase
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		want = append(want, c)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, w := got[i], want[i]
			t.Fatalf("query %d want %d: got %d ids, golden %d ids", w.Query, w.Want, len(g.IDs), len(w.IDs))
		}
	}
}
