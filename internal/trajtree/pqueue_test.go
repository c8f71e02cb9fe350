package trajtree

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestMinOrdering(t *testing.T) {
	var q binHeap[string]
	q.push("c", 3)
	q.push("a", 1)
	q.push("b", 2)
	want := []string{"a", "b", "c"}
	for _, w := range want {
		it := q.pop()
		if it.Value != w {
			t.Errorf("popped %q, want %q", it.Value, w)
		}
	}
	if q.len() != 0 {
		t.Errorf("len = %d after draining", q.len())
	}
}

func TestMinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	var q binHeap[int]
	var ps []float64
	for i := 0; i < 500; i++ {
		p := rng.Float64()
		ps = append(ps, p)
		q.push(i, p)
	}
	sort.Float64s(ps)
	for i := 0; i < 500; i++ {
		if got := q.pop().Priority; got != ps[i] {
			t.Fatalf("pop %d: priority %v, want %v", i, got, ps[i])
		}
	}
}

// refHeap is a container/heap min-heap, the oracle for binHeap's order.
type refHeap []item[int]

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].Priority < h[j].Priority }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(item[int])) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// TestMinTiesMatchContainerHeap pins that equal priorities leave the
// queue in container/heap's order, so the descent visits tied nodes — and
// the search reports its answers — exactly as it did on that package.
func TestMinTiesMatchContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var q binHeap[int]
	var ref refHeap
	for i := 0; i < 2000; i++ {
		if q.len() > 0 && rng.Intn(3) == 0 {
			got, want := q.pop(), heap.Pop(&ref).(item[int])
			if got != want {
				t.Fatalf("op %d: popped %v, container/heap pops %v", i, got, want)
			}
			continue
		}
		p := float64(rng.Intn(5))
		q.push(i, p)
		heap.Push(&ref, item[int]{Value: i, Priority: p})
	}
}

func TestTopKKeepsSmallest(t *testing.T) {
	q := newTopK[int](3)
	for i, p := range []float64{9, 1, 8, 2, 7, 3} {
		q.offer(i, p)
	}
	items := q.items()
	if len(items) != 3 {
		t.Fatalf("kept %d items", len(items))
	}
	wantP := []float64{1, 2, 3}
	for i, it := range items {
		if it.Priority != wantP[i] {
			t.Errorf("item %d priority %v, want %v", i, it.Priority, wantP[i])
		}
	}
	if w, full := q.worst(); !full || w != 3 {
		t.Errorf("worst = %v full=%v, want 3 true", w, full)
	}
}

func TestTopKNotFull(t *testing.T) {
	q := newTopK[int](5)
	if _, full := q.worst(); full {
		t.Error("empty topK reported full")
	}
	q.offer(1, 10)
	if w, full := q.worst(); full || w != 10 {
		t.Errorf("worst = %v full=%v with 1/5 items, want 10 false", w, full)
	}
}

// TestTopKMatchesSort is the answer set's oracle test: over random offer
// streams with frequent tied priorities, the held items are the k
// smallest priorities offered, each with the payload it was offered with,
// and offer reports a rejection exactly when the set is full and the
// priority is no better than the worst held.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for it := 0; it < 300; it++ {
		k := []int{1, 2, 5, 17}[it%4]
		q := newTopK[int](k)
		offered := map[int]float64{}
		var ps []float64
		for i, n := 0, rng.Intn(60); i < n; i++ {
			p := float64(rng.Intn(8))
			if it%3 == 0 {
				p = rng.Float64()
			}
			w, full := q.worst()
			if kept := q.offer(i, p); kept == (full && p >= w) {
				t.Fatalf("it %d: offer(%v) kept=%v with worst %v full=%v", it, p, kept, w, full)
			}
			offered[i] = p
			ps = append(ps, p)
		}
		sort.Float64s(ps)
		got := q.items()
		if want := min(k, len(ps)); len(got) != want {
			t.Fatalf("it %d: holds %d items, want %d", it, len(got), want)
		}
		for i, x := range got {
			if x.Priority != ps[i] || offered[x.Value] != x.Priority {
				t.Fatalf("it %d rank %d: item %v, want priority %v as offered", it, i, x, ps[i])
			}
		}
	}
}

func TestTopKRejectsWorse(t *testing.T) {
	q := newTopK[int](2)
	if !q.offer(0, 1) || !q.offer(1, 2) {
		t.Fatal("initial offers rejected")
	}
	if q.offer(2, 5) {
		t.Error("worse item accepted when full")
	}
	if !q.offer(3, 0.5) {
		t.Error("better item rejected")
	}
	items := q.items()
	if items[0].Priority != 0.5 || items[1].Priority != 1 {
		t.Errorf("items = %v", items)
	}
}

func TestTopKZero(t *testing.T) {
	q := newTopK[int](0)
	if q.offer(1, 1) {
		t.Error("k=0 accepted an item")
	}
}
