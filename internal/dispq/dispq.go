// Package dispq is the one dispatch queue of both scheduling levels:
// the threads library queues runnable unbound threads on a Queue[Thread]
// for its pool LWPs, and the simulated kernel queues runnable LWPs on a
// Queue[LWP] for its CPUs. Queue is Solaris's disp_q: a fixed array of
// per-priority FIFO lists indexed by an active-priority bitmap
// (dqactmap), so push, remove and the pick of the best entry do no
// scanning however many entries are queued. List is the FIFO list
// alone, for the kernel's sleep queues.
//
// Entries link intrusively through a Link embedded in the queued value,
// so removal from the middle (thread_stop, a timed-out sleep, a
// priority change) is O(1). A Link carries a pointer to its owner, so
// no path calls a method through a type parameter. Nothing here locks:
// each queue is guarded by its owner's lock.
package dispq

import "math/bits"

// Levels is the number of priority levels of a Queue: the simulated
// kernel's global priorities (TS 0-59, SYS 60-99, RT 100-159). A
// priority outside [0, Levels) is clamped onto the nearest level.
const Levels = 160

// Level returns the queue level a priority is queued at.
func Level(prio int) int {
	if prio < 0 {
		return 0
	}
	if prio >= Levels {
		return Levels - 1
	}
	return prio
}

// Link is the intrusive node a queued value embeds, one per list it
// may be on at a time. The zero value is unqueued.
type Link[T any] struct {
	next, prev *Link[T]
	owner      *T
	level      int
	queued     bool
}

// Queued reports whether the link is on a list.
func (l *Link[T]) Queued() bool { return l.queued }

// Level returns the Queue level the link was last pushed at.
func (l *Link[T]) Level() int { return l.level }

// List is an intrusive FIFO list. The zero value is empty.
type List[T any] struct {
	head, tail *Link[T]
}

// PushBack appends l, owned by owner, at the tail.
func (q *List[T]) PushBack(l *Link[T], owner *T) {
	l.owner = owner
	l.queued = true
	l.next = nil
	l.prev = q.tail
	if q.tail != nil {
		q.tail.next = l
	} else {
		q.head = l
	}
	q.tail = l
}

// Remove unlinks l, which must be on q, in O(1).
func (q *List[T]) Remove(l *Link[T]) {
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		q.tail = l.prev
	}
	l.next, l.prev = nil, nil
	l.queued = false
}

// Nth returns the owner of the i'th link from the head (head = 0), or
// nil when fewer are queued.
func (q *List[T]) Nth(i int) *T {
	l := q.head
	for ; i > 0 && l != nil; i-- {
		l = l.next
	}
	if l == nil {
		return nil
	}
	return l.owner
}

// Queue is a priority queue of Levels FIFO lists and an occupancy
// bitmap: entries leave in priority order, highest first, and FIFO
// among equals. The zero value is empty.
type Queue[T any] struct {
	lists  [Levels]List[T]
	bitmap [(Levels + 63) / 64]uint64
	n      int
}

// Len reports how many entries are queued.
func (q *Queue[T]) Len() int { return q.n }

// Push appends l, owned by owner, at the tail of the level prio
// selects.
func (q *Queue[T]) Push(l *Link[T], owner *T, prio int) {
	lvl := Level(prio)
	l.level = lvl
	if q.lists[lvl].head == nil {
		q.bitmap[lvl>>6] |= 1 << (lvl & 63)
	}
	q.lists[lvl].PushBack(l, owner)
	q.n++
}

// Remove unlinks l if it is queued, in O(1), and reports whether it
// was.
func (q *Queue[T]) Remove(l *Link[T]) bool {
	if !l.queued {
		return false
	}
	lvl := l.level
	q.lists[lvl].Remove(l)
	if q.lists[lvl].head == nil {
		q.bitmap[lvl>>6] &^= 1 << (lvl & 63)
	}
	q.n--
	return true
}

// below returns the highest occupied level strictly below lvl, or -1:
// one bits.Len64 per bitmap word, never a list scan.
func (q *Queue[T]) below(lvl int) int {
	lvl--
	if lvl < 0 {
		return -1
	}
	w := lvl >> 6
	word := q.bitmap[w] & (^uint64(0) >> (63 - lvl&63))
	for word == 0 {
		if w--; w < 0 {
			return -1
		}
		word = q.bitmap[w]
	}
	return w<<6 + bits.Len64(word) - 1
}

// Nth returns the owner of the i'th entry keep accepts, in
// priority-then-FIFO order, or nil when fewer are queued. A nil keep
// accepts every entry, so Nth(0, nil) is the best entry.
func (q *Queue[T]) Nth(i int, keep func(*T) bool) *T {
	for lvl := q.below(Levels); lvl >= 0; lvl = q.below(lvl) {
		for l := q.lists[lvl].head; l != nil; l = l.next {
			if keep != nil && !keep(l.owner) {
				continue
			}
			if i == 0 {
				return l.owner
			}
			i--
		}
	}
	return nil
}

// Count returns how many queued entries keep accepts (all of them for
// a nil keep).
func (q *Queue[T]) Count(keep func(*T) bool) int {
	if keep == nil {
		return q.n
	}
	n := 0
	q.Walk(func(x *T) {
		if keep(x) {
			n++
		}
	})
	return n
}

// Walk calls fn on every queued entry in priority-then-FIFO order. fn
// may remove the entry it is given and push it again at any level:
// the walk has already stepped past it, and visits it again only if it
// landed at or below the level being walked. fn must not remove any
// other entry.
func (q *Queue[T]) Walk(fn func(*T)) {
	for lvl := q.below(Levels); lvl >= 0; lvl = q.below(lvl) {
		for l := q.lists[lvl].head; l != nil; {
			next := l.next
			fn(l.owner)
			l = next
		}
	}
}

// Clear unlinks every entry, leaving the queue empty.
func (q *Queue[T]) Clear() {
	for lvl := q.below(Levels); lvl >= 0; lvl = q.below(lvl) {
		for l := q.lists[lvl].head; l != nil; {
			next := l.next
			l.next, l.prev = nil, nil
			l.queued = false
			l = next
		}
		q.lists[lvl] = List[T]{}
	}
	q.bitmap = [len(q.bitmap)]uint64{}
	q.n = 0
}
