package sketch

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"trajmatch/internal/raceflag"
	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

// TestBuildMatchesInserts pins the parallel bulk load to its definition,
// a run of Inserts on an empty index: the same slot table, the same ID
// map, the same posting lists and the same candidate sets. The second
// corpus repeats IDs (a later geometry replaces the earlier one in the
// first occurrence's slot) and carries members too short or too
// stationary to tokenize normally. Both indexes then take the same
// mutations, which must keep them equal.
func TestBuildMatchesInserts(t *testing.T) {
	taxi := synth.Taxi(synth.DefaultTaxi(1500))
	altCfg := synth.DefaultTaxi(200)
	altCfg.Seed = 5
	alt := synth.Taxi(altCfg)
	repeated := slices.Clone(taxi[:600])
	for i, tr := range alt[:150] {
		r := tr.Clone()
		r.ID = taxi[(i*7)%600].ID
		repeated = append(repeated, r)
	}
	repeated = append(repeated, taxi[3], taxi[3],
		traj.New(900_001, []traj.Point{traj.P(10, 10, 0), traj.P(10, 10, 5)}),
		traj.New(900_002, []traj.Point{traj.P(0, 0, 0), traj.P(1e5, 1e5, 9)}))
	for _, c := range []struct {
		name   string
		db     []*traj.Trajectory
		unique bool
	}{{"taxi", taxi, true}, {"repeated-ids", repeated, false}} {
		t.Run(c.name, func(t *testing.T) {
			p := Params{CellSize: DeriveCellSize(c.db)}
			bulk, err := Build(c.db, p)
			if err != nil {
				t.Fatal(err)
			}
			inc := mustIndex(t, p)
			for _, tr := range c.db {
				inc.Insert(tr)
			}
			queries := append(slices.Clone(c.db[:40]), alt[150:]...)
			sameIndex(t, "after build", bulk, inc, queries, c.unique)
			for i, tr := range alt[150:190] {
				for _, ix := range []*Index{bulk, inc} {
					ix.Delete(c.db[i*3].ID)
					ix.Insert(tr)
				}
			}
			checkSlots(t, bulk)
			sameIndex(t, "after mutations", bulk, inc, queries, false)
		})
	}
}

// sameIndex compares two indexes' slots, ID maps and posting lists —
// in order when exact, as sets otherwise (a replacement's unfile
// reorders the lists it touches) — and their candidate sets.
func sameIndex(t *testing.T, stage string, a, b *Index, queries []*traj.Trajectory, exact bool) {
	t.Helper()
	if !reflect.DeepEqual(a.slots, b.slots) || !maps.Equal(a.slotOf, b.slotOf) {
		t.Fatalf("%s: slot tables differ", stage)
	}
	for _, m := range []struct {
		name string
		a, b map[uint64][]int32
	}{{"cells", a.cells, b.cells}, {"coarse", a.coarse, b.coarse}} {
		if len(m.a) != len(m.b) {
			t.Fatalf("%s: %s: %d keys vs %d", stage, m.name, len(m.a), len(m.b))
		}
		for k, la := range m.a {
			lb := m.b[k]
			if !exact {
				la, lb = slices.Sorted(slices.Values(la)), slices.Sorted(slices.Values(lb))
			}
			if !slices.Equal(la, lb) {
				t.Fatalf("%s: %s key %x: postings %v vs %v", stage, m.name, k, la, lb)
			}
		}
	}
	for _, q := range queries {
		for _, want := range []int{10, 80, 125, 400} {
			ia, ib := a.Candidates(q, want), b.Candidates(q, want)
			if !slices.Equal(ia, ib) {
				t.Fatalf("%s: query %d want %d: %d candidates vs %d", stage, q.ID, want, len(ia), len(ib))
			}
		}
	}
}

// TestBuildAllocBudget fences the bulk load's allocations: one key
// allocation per member, the ID map and slot table, and a fixed handful
// per posting map — not a buffer per tokenization, nor a regrowth per
// posting list.
func TestBuildAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	db := synth.Taxi(synth.DefaultTaxi(3500))
	p := Params{CellSize: DeriveCellSize(db)}
	n := testing.AllocsPerRun(3, func() {
		if _, err := Build(db, p); err != nil {
			t.Fatal(err)
		}
	})
	perMember := n / float64(len(db))
	t.Logf("%.0f allocs per build, %.2f per member", n, perMember)
	// Measured 1.06. Posting lists grown by append, as Insert files them,
	// cost 9.5: most of it the fine-cell lists regrowing.
	const budget = 1.25
	if perMember > budget {
		t.Errorf("Build allocates %.2f per member, budget %v", perMember, budget)
	}
}

// BenchmarkBuild prices the bulk load at the taxi sizes of a
// hot-search shard and a 10k corpus.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{3500, 10_000} {
		db := synth.Taxi(synth.DefaultTaxi(n))
		p := Params{CellSize: DeriveCellSize(db)}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(db, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
