package coding

import "jqos/internal/core"

// deadline is one timer-heap entry: a due time, the push order that
// breaks ties first-in first-out, and what the owner needs to find the
// object it times out.
type deadline[T any] struct {
	at  core.Time
	seq uint64
	v   T
}

// deadlineHeap is a binary min-heap of deadlines ordered by (at, seq),
// written out on a slice so entries are stored by value, never boxed.
// Entries are never removed from the middle: the owner checks the top
// against its live state and pops entries whose object is gone or whose
// deadline has moved (lazy deletion).
type deadlineHeap[T any] struct {
	items []deadline[T]
	seq   uint64
}

// push adds an entry and returns its push-order stamp (never 0).
func (h *deadlineHeap[T]) push(at core.Time, v T) uint64 {
	h.seq++
	h.items = append(h.items, deadline[T]{at: at, seq: h.seq, v: v})
	h.up(len(h.items) - 1)
	return h.seq
}

// top returns the earliest entry; the heap must not be empty.
func (h *deadlineHeap[T]) top() deadline[T] { return h.items[0] }

func (h *deadlineHeap[T]) len() int { return len(h.items) }

// pop removes the earliest entry.
func (h *deadlineHeap[T]) pop() {
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = deadline[T]{} // drop references held by the payload
	h.items = h.items[:n]
	if n > 0 {
		h.down(0)
	}
}

func (h *deadlineHeap[T]) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (h *deadlineHeap[T]) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.items[i], h.items[p] = h.items[p], h.items[i]
		i = p
	}
}

func (h *deadlineHeap[T]) down(i int) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.items[i], h.items[c] = h.items[c], h.items[i]
		i = c
	}
}
