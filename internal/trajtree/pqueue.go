package trajtree

// The two small priority queues Algorithm 2 needs: a min-heap ordering
// index nodes by lower bound and a bounded max-heap holding the running
// k-NN answer set.

// item pairs a payload with its priority.
type item[T any] struct {
	Value    T
	Priority float64
}

// binHeap is a binary heap of items: a min-heap, or a max-heap when max
// is set; the zero value is an empty min-heap. Its sift-up and sift-down
// are container/heap's step for step, so equal priorities leave in the
// order they would there; working on the slice directly spares the
// interface boxing that cost an allocation per push and per pop.
type binHeap[T any] struct {
	items []item[T]
	max   bool
}

func (h *binHeap[T]) less(i, j int) bool {
	if h.max {
		return h.items[i].Priority > h.items[j].Priority
	}
	return h.items[i].Priority < h.items[j].Priority
}

func (h *binHeap[T]) swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *binHeap[T]) len() int { return len(h.items) }

// push adds an item.
func (h *binHeap[T]) push(v T, priority float64) {
	h.items = append(h.items, item[T]{Value: v, Priority: priority})
	h.up(len(h.items) - 1)
}

// pop removes and returns the first item. It panics when empty.
func (h *binHeap[T]) pop() item[T] {
	n := len(h.items) - 1
	h.swap(0, n)
	h.down(0, n)
	it := h.items[n]
	h.items = h.items[:n]
	return it
}

func (h *binHeap[T]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *binHeap[T]) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
}

// topK maintains the k smallest-priority items seen so far (a bounded
// max-heap). It is the ans queue of Algorithm 2.
type topK[T any] struct {
	k int
	h binHeap[T]
}

// newTopK returns a topK that retains the k best (smallest priority) items.
func newTopK[T any](k int) *topK[T] { return &topK[T]{k: k, h: binHeap[T]{max: true}} }

// offer inserts the item if it belongs in the current top k, evicting the
// worst item when over capacity. It reports whether the item was kept.
func (q *topK[T]) offer(v T, priority float64) bool {
	if q.k <= 0 {
		return false
	}
	n := q.h.len()
	if n < q.k {
		q.h.push(v, priority)
		return true
	}
	if priority >= q.h.items[0].Priority {
		return false
	}
	q.h.items[0] = item[T]{Value: v, Priority: priority}
	q.h.down(0, n)
	return true
}

// worst returns the largest priority currently held, or +Inf semantics via
// ok=false when fewer than k items are held.
func (q *topK[T]) worst() (float64, bool) {
	if q.h.len() == 0 {
		return 0, false
	}
	return q.h.items[0].Priority, q.h.len() >= q.k
}

// items returns the held items sorted by ascending priority.
func (q *topK[T]) items() []item[T] {
	out := make([]item[T], len(q.h.items))
	copy(out, q.h.items)
	// Simple insertion sort suffices for k-sized slices.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Priority < out[j-1].Priority; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
