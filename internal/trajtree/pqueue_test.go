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
