package sketch

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"trajmatch/internal/synth"
	"trajmatch/internal/traj"
)

func testParams() Params {
	return Params{CellSize: 200, Shingle: 2, Hashes: 64, Bands: 16, MinCands: 8, Seed: 1}
}

// tokens is tr's ordered fine-pitch token sequence, the input of the
// shingles and of the fine posting keys.
func (ix *Index) tokens(tr *traj.Trajectory) []uint64 {
	return tokensAt(nil, tr, ix.p.CellSize)
}

func mustIndex(t *testing.T, p Params) *Index {
	t.Helper()
	ix, err := NewIndex(p)
	if err != nil {
		t.Fatalf("NewIndex: %v", err)
	}
	return ix
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{CellSize: 100}.WithDefaults()).Validate(); err != nil {
		t.Fatalf("defaults should validate: %v", err)
	}
	bad := []Params{
		{CellSize: 0, Shingle: 2, Hashes: 64, Bands: 16, MinCands: 8, Seed: 1},
		{CellSize: -5, Shingle: 2, Hashes: 64, Bands: 16, MinCands: 8, Seed: 1},
		{CellSize: 100, Shingle: 2, Hashes: 65, Bands: 16, MinCands: 8, Seed: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestDeriveCellSizeDegenerate(t *testing.T) {
	if c := DeriveCellSize(nil); c != 1 {
		t.Fatalf("empty corpus: got %v, want 1", c)
	}
	stationary := []*traj.Trajectory{traj.New(0, []traj.Point{traj.P(5, 5, 0), traj.P(5, 5, 10)})}
	if c := DeriveCellSize(stationary); c != 1 {
		t.Fatalf("stationary corpus: got %v, want 1", c)
	}
	db := synth.Taxi(synth.DefaultTaxi(50))
	if c := DeriveCellSize(db); !(c > 0) {
		t.Fatalf("taxi corpus: got %v, want > 0", c)
	}
}

// Signatures are a function of geometry and parameters alone: equal
// geometry (even under a different ID) produces equal signatures, and
// two indexes with equal parameters agree.
func TestSignatureDeterministic(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(20))
	a := mustIndex(t, testParams())
	b := mustIndex(t, testParams())
	for _, tr := range db {
		clone := tr.Clone()
		clone.ID = tr.ID + 10_000
		sa := a.signature(nil, a.shingles(nil, a.tokens(tr)))
		sb := b.signature(nil, b.shingles(nil, b.tokens(clone)))
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("trajectory %d: signatures differ for equal geometry", tr.ID)
		}
	}
}

// Tokenization walks the interpolated movement, so resampling the same
// path at a very different rate preserves most of the token set — the
// property that makes the prefilter work under inconsistent sampling.
func TestTokensSamplingInvariant(t *testing.T) {
	ix := mustIndex(t, testParams())
	// A 4 km L-shaped path sampled every ~50 m vs every ~800 m.
	dense := pathTraj(1, 50)
	sparse := pathTraj(2, 800)
	dt := dedupe(ix.tokens(dense))
	st := dedupe(ix.tokens(sparse))
	shared := 0
	in := make(map[uint64]bool, len(dt))
	for _, c := range dt {
		in[c] = true
	}
	for _, c := range st {
		if in[c] {
			shared++
		}
	}
	union := len(dt) + len(st) - shared
	if union == 0 {
		t.Fatal("no tokens emitted")
	}
	if j := float64(shared) / float64(union); j < 0.8 {
		t.Fatalf("token Jaccard %.2f between resamplings; want >= 0.8 (dense %d, sparse %d, shared %d)",
			j, len(dt), len(st), shared)
	}
}

// pathTraj samples a fixed L-shaped 4 km path every `step` metres. The
// corner waypoint is always emitted, so both resamplings follow the
// same underlying movement (a cut corner would be a genuinely different
// path, which tokenization must NOT treat as equal).
func pathTraj(id int, step float64) *traj.Trajectory {
	var pts []traj.Point
	tm := 0.0
	emit := func(x, y float64) {
		pts = append(pts, traj.P(x, y, tm))
		tm += step / 10 // constant speed
	}
	for d := 0.0; d < 2000; d += step {
		emit(d, 0)
	}
	emit(2000, 0)
	for d := step; d < 2000; d += step {
		emit(2000, d)
	}
	emit(2000, 2000)
	return traj.New(id, pts)
}

func TestCandidatesDeterministicAndSorted(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(300))
	ix := mustIndex(t, testParams())
	for _, tr := range db {
		ix.Insert(tr)
	}
	q := db[17]
	first, _ := ix.Candidates(q, 40)
	if !sort.IntsAreSorted(first) {
		t.Fatal("candidates not sorted")
	}
	for i := 0; i < 5; i++ {
		again, _ := ix.Candidates(q, 40)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("candidate set not deterministic across calls: %v vs %v", first, again)
		}
	}
	// The query itself is indexed and must always be its own candidate:
	// it shares every cell with itself, so the overlap ranking admits it
	// first, and its bands collide trivially.
	found := false
	for _, id := range first {
		if id == q.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("query %d missing from its own candidate set", q.ID)
	}
}

func TestCandidatesSmallIndexFullScan(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(10))
	ix := mustIndex(t, testParams())
	for _, tr := range db {
		ix.Insert(tr)
	}
	ids, st := ix.Candidates(db[0], 32)
	if !st.FullScan {
		t.Fatal("expected full-scan degradation on a tiny index")
	}
	if len(ids) != len(db) {
		t.Fatalf("full scan returned %d of %d members", len(ids), len(db))
	}
}

// Mutation-path property: a random Insert/Delete sequence keeps the
// index in sync with a brute-force membership oracle — candidates are
// always a subset of the live members, a deleted ID is never returned,
// and re-inserted members are reachable again.
func TestMutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := synth.Taxi(synth.DefaultTaxi(200))
	ix := mustIndex(t, testParams())
	live := make(map[int]*traj.Trajectory)
	for _, tr := range db[:100] {
		ix.Insert(tr)
		live[tr.ID] = tr
	}
	check := func(q *traj.Trajectory) {
		ids, _ := ix.Candidates(q, 25)
		for _, id := range ids {
			if _, ok := live[id]; !ok {
				t.Fatalf("candidate %d is not a live member", id)
			}
		}
	}
	for step := 0; step < 400; step++ {
		tr := db[rng.Intn(len(db))]
		if _, ok := live[tr.ID]; ok && rng.Float64() < 0.5 {
			if !ix.Delete(tr.ID) {
				t.Fatalf("step %d: delete of live member %d reported absent", step, tr.ID)
			}
			delete(live, tr.ID)
		} else if !ok {
			ix.Insert(tr)
			live[tr.ID] = tr
		}
		if ix.Size() != len(live) {
			t.Fatalf("step %d: size %d, oracle %d", step, ix.Size(), len(live))
		}
		check(db[rng.Intn(len(db))])
	}
	if ix.Delete(1 << 30) {
		t.Fatal("delete of never-inserted ID reported present")
	}
}

// Concurrent Candidates against a live mutator must be race-free (run
// under -race in CI) and stay well-formed while slots are freed and
// reused under it. IDs start at 1000, so a slot read after it was
// cleared (ID 0) or remapped to an ID never inserted is caught, and the
// stable half is never deleted, so each stable query must find itself.
func TestConcurrentCandidates(t *testing.T) {
	db := synth.Taxi(synth.DefaultTaxi(120))
	inserted := make(map[int]bool)
	for i, tr := range db {
		c := tr.Clone()
		c.ID = 1000 + i
		db[i] = c
		inserted[c.ID] = true
	}
	ix := mustIndex(t, testParams())
	for _, tr := range db[:60] {
		ix.Insert(tr)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tr := db[60+i%60]
			ix.Insert(tr)
			if i%3 != 0 {
				ix.Delete(tr.ID)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		q := db[i%60]
		ids, _ := ix.Candidates(q, 20)
		if !sort.IntsAreSorted(ids) {
			t.Fatalf("query %d: candidates not sorted: %v", q.ID, ids)
		}
		self := false
		for j, id := range ids {
			if !inserted[id] {
				t.Fatalf("query %d: candidate %d was never inserted", q.ID, id)
			}
			if j > 0 && ids[j-1] == id {
				t.Fatalf("query %d: candidate %d returned twice", q.ID, id)
			}
			self = self || id == q.ID
		}
		if !self {
			t.Fatalf("stable member %d missing from its own candidate set %v", q.ID, ids)
		}
	}
	<-done
	checkSlots(t, ix)
}

func TestReinsertReplaces(t *testing.T) {
	ix := mustIndex(t, testParams())
	a := traj.FromXY(1, 0, 0, 100, 0, 200, 0)
	b := traj.FromXY(1, 5000, 5000, 5100, 5000) // same ID, elsewhere
	ix.Insert(a)
	ix.Insert(b)
	if ix.Size() != 1 {
		t.Fatalf("size %d after re-insert, want 1", ix.Size())
	}
	checkSlots(t, ix)
	if !ix.Delete(1) {
		t.Fatal("delete after re-insert failed")
	}
	if ix.Size() != 0 {
		t.Fatalf("size %d after delete, want 0", ix.Size())
	}
	// All posting lists must be empty again — no leaked buckets — and
	// the replacement must have reused the one slot.
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.bands) != 0 || len(ix.cells) != 0 || len(ix.coarse) != 0 {
		t.Fatalf("leaked buckets after delete: %d bands, %d cells, %d coarse", len(ix.bands), len(ix.cells), len(ix.coarse))
	}
	if len(ix.slots) != 1 || len(ix.free) != 1 {
		t.Fatalf("slot table %d, free list %d after one member came and went; want 1 and 1", len(ix.slots), len(ix.free))
	}
}

// Churn: many Insert/Delete/replace cycles. Freed slots are reused, so
// the slot table never grows past the peak live count; Size follows a
// membership oracle; and the posting lists hold exactly the live
// members' keys throughout.
func TestSlotChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := synth.Taxi(synth.DefaultTaxi(150))
	ix := mustIndex(t, testParams())
	live := make(map[int]bool)
	peak := 0
	for step := 0; step < 3000; step++ {
		tr := db[rng.Intn(len(db))]
		switch r := rng.Float64(); {
		case live[tr.ID] && r < 0.6:
			if !ix.Delete(tr.ID) {
				t.Fatalf("step %d: delete of live member %d reported absent", step, tr.ID)
			}
			delete(live, tr.ID)
		case live[tr.ID]:
			other := db[rng.Intn(len(db))].Clone()
			other.ID = tr.ID // replace with other geometry
			ix.Insert(other)
		default:
			ix.Insert(tr)
			live[tr.ID] = true
		}
		peak = max(peak, len(live))
		if ix.Size() != len(live) {
			t.Fatalf("step %d: size %d, oracle %d", step, ix.Size(), len(live))
		}
		if n := len(ix.slots); n > peak {
			t.Fatalf("step %d: slot table %d past the peak live count %d", step, n, peak)
		}
		if step%100 == 0 {
			checkSlots(t, ix)
		}
	}
	checkSlots(t, ix)
}

// checkSlots verifies the slot layout against itself: every ID maps to
// a slot holding that ID, free slots are cleared and disjoint from the
// live ones, and each posting list holds exactly the live slots filed
// under its key, once per filing.
func checkSlots(t *testing.T, ix *Index) {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.slotOf)+len(ix.free) != len(ix.slots) {
		t.Fatalf("%d live + %d free slots, table holds %d", len(ix.slotOf), len(ix.free), len(ix.slots))
	}
	used := make([]bool, len(ix.slots))
	for id, s := range ix.slotOf {
		if ix.slots[s].id != id {
			t.Fatalf("ID %d maps to slot %d holding ID %d", id, s, ix.slots[s].id)
		}
		used[s] = true
	}
	for _, s := range ix.free {
		if used[s] {
			t.Fatalf("slot %d is both live and free", s)
		}
		if m := ix.slots[s]; m.bandKeys != nil || m.cellToks != nil || m.coarseToks != nil {
			t.Fatalf("free slot %d still holds keys", s)
		}
		used[s] = true
	}
	for _, c := range []struct {
		name string
		post map[uint64][]int32
		keys func(m member) []uint64
	}{
		{"bands", ix.bands, func(m member) []uint64 { return m.bandKeys }},
		{"cells", ix.cells, func(m member) []uint64 { return m.cellToks }},
		{"coarse", ix.coarse, func(m member) []uint64 { return m.coarseToks }},
	} {
		want := make(map[uint64][]int32)
		for _, s := range ix.slotOf {
			for _, k := range c.keys(ix.slots[s]) {
				want[k] = append(want[k], s)
			}
		}
		if len(want) != len(c.post) {
			t.Fatalf("%s: %d posting lists, live members file %d keys", c.name, len(c.post), len(want))
		}
		for k, list := range c.post {
			got := slices.Sorted(slices.Values(list))
			w := want[k]
			slices.Sort(w)
			if !slices.Equal(got, w) {
				t.Fatalf("%s: key %x lists slots %v, live members filed %v", c.name, k, got, w)
			}
		}
	}
}
