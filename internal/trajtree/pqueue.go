package trajtree

// The queue of Algorithm 2: a min-heap ordering index nodes and leaf
// members by lower bound. The running k-NN answer set is backend.KBest,
// held by the shared verify step.

// item pairs a payload with its priority.
type item[T any] struct {
	Value    T
	Priority float64
}

// binHeap is a binary min-heap of items; the zero value is empty. Its
// sift-up and sift-down are container/heap's step for step, so equal
// priorities leave in the order they would there; working on the slice
// directly spares the interface boxing that cost an allocation per push
// and per pop.
type binHeap[T any] struct {
	items []item[T]
}

func (h *binHeap[T]) less(i, j int) bool {
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
