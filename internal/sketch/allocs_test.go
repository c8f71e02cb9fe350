package sketch

import (
	"testing"

	"trajmatch/internal/raceflag"
	"trajmatch/internal/synth"
)

// TestCandidatesAllocBudget pins the pooled per-query scratch of
// Candidates: a warm call at 10k members with want = 416 (the engine's
// request at that shard size) counts its overlaps into pooled per-slot
// counters, so what it allocates is the query's own tokenization and
// signature plus the returned ID slice — not a map entry per touched
// member.
func TestCandidatesAllocBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool deliberately drops Puts")
	}
	if testing.Short() {
		t.Skip("builds a 10k-member index")
	}
	db := synth.Taxi(synth.DefaultTaxi(10_000))
	ix, err := Build(db, Params{CellSize: DeriveCellSize(db)})
	if err != nil {
		t.Fatal(err)
	}
	qcfg := synth.DefaultTaxi(16)
	qcfg.Seed = 7920
	queries := synth.Taxi(qcfg)
	it := 0
	run := func() {
		ix.Candidates(queries[it%len(queries)], 416)
		it++
	}
	for range 2 * len(queries) {
		run() // warm the scratch pool
	}
	// Measured 21: the query's token, shingle and signature slices and the
	// returned IDs. The nested-map posting layout this replaced made 73.
	const budget = 24
	if n := testing.AllocsPerRun(4*len(queries), run); n > budget {
		t.Errorf("warm Candidates allocates %v per query, budget %d", n, budget)
	}
}
