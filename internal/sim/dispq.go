package sim

import "math/bits"

// This file holds the kernel's dispatch queue: every runnable LWP
// waits on the one lwpRunq on the Kernel, a fixed array of
// per-priority FIFO queues indexed by an active-priority bitmap
// (dqactmap), and a free CPU takes the best LWP eligible for it.
// Eligibility is the one per-CPU rule: an LWP hard-bound (BindCPU) to
// another CPU is skipped.
//
// All fields are guarded by Kernel.mu. Per-CPU queues would buy
// nothing here: every queue would sit under that same lock, a
// simulated CPU has no cache to keep warm, and one queue is
// work-conserving by construction.

// NumGlobalPrio is the number of global dispatch priority levels
// (TS 0-59, SYS 60-99, RT 100-159). Queue levels are exact global
// priorities, so bitmap order is dispatch order.
const NumGlobalPrio = rtMaxGlobal + 1

// lwpQ is one per-priority FIFO ring: head is dispatched first.
type lwpQ struct {
	head, tail *LWP
}

// lwpRunq is the dispatch queue: a FIFO ring per global priority plus
// an occupancy bitmap, so push, remove and top are O(1). LWPs link
// intrusively through rqNext/rqPrev.
type lwpRunq struct {
	qs     [NumGlobalPrio]lwpQ
	bitmap [(NumGlobalPrio + 63) / 64]uint64
	n      int
}

// globalLevel clamps a global priority onto a queue level.
func globalLevel(prio int) int {
	if prio < 0 {
		return 0
	}
	if prio >= NumGlobalPrio {
		return NumGlobalPrio - 1
	}
	return prio
}

// push appends l at level lvl (FIFO among equals).
func (r *lwpRunq) push(l *LWP, lvl int) {
	l.rqLevel = lvl
	l.rqOn = true
	l.rqNext = nil
	q := &r.qs[lvl]
	if q.tail == nil {
		l.rqPrev = nil
		q.head, q.tail = l, l
		r.bitmap[lvl>>6] |= 1 << (lvl & 63)
	} else {
		l.rqPrev = q.tail
		q.tail.rqNext = l
		q.tail = l
	}
	r.n++
}

// unlink detaches a queued LWP in O(1).
func (r *lwpRunq) unlink(l *LWP) {
	q := &r.qs[l.rqLevel]
	if l.rqPrev != nil {
		l.rqPrev.rqNext = l.rqNext
	} else {
		q.head = l.rqNext
	}
	if l.rqNext != nil {
		l.rqNext.rqPrev = l.rqPrev
	} else {
		q.tail = l.rqPrev
	}
	if q.head == nil {
		r.bitmap[l.rqLevel>>6] &^= 1 << (l.rqLevel & 63)
	}
	l.rqNext, l.rqPrev = nil, nil
	l.rqOn = false
	r.n--
}

// top returns the highest occupied level, or -1 when empty.
func (r *lwpRunq) top() int {
	for w := len(r.bitmap) - 1; w >= 0; w-- {
		if word := r.bitmap[w]; word != 0 {
			return w<<6 + bits.Len64(word) - 1
		}
	}
	return -1
}

// nextBelow returns the highest occupied level strictly below lvl.
func (r *lwpRunq) nextBelow(lvl int) int {
	if lvl <= 0 {
		return -1
	}
	w := (lvl - 1) >> 6
	if word := r.bitmap[w] & (^uint64(0) >> (63 - uint((lvl-1)&63))); word != 0 {
		return w<<6 + bits.Len64(word) - 1
	}
	for w--; w >= 0; w-- {
		if word := r.bitmap[w]; word != 0 {
			return w<<6 + bits.Len64(word) - 1
		}
	}
	return -1
}

// eligible reports whether l may run on c: it is not hard-bound to
// another CPU.
func eligible(l *LWP, c *CPU) bool { return l.boundCPU == nil || l.boundCPU == c }

// nth returns the i'th LWP eligible for c in priority-then-FIFO
// order, or nil when fewer are queued. nth(c, 0) is c's pick: with no
// LWP bound elsewhere queued, the head of the top level.
func (r *lwpRunq) nth(c *CPU, i int) *LWP {
	for lvl := r.top(); lvl >= 0; lvl = r.nextBelow(lvl) {
		for l := r.qs[lvl].head; l != nil; l = l.rqNext {
			if !eligible(l, c) {
				continue
			}
			if i == 0 {
				return l
			}
			i--
		}
	}
	return nil
}

// eligibleN counts the queued LWPs eligible for c — the O(n) walk
// taken only when a chaos source may reorder a pick.
func (r *lwpRunq) eligibleN(c *CPU) int {
	n := 0
	r.forEach(func(l *LWP) {
		if eligible(l, c) {
			n++
		}
	})
	return n
}

// forEach visits every queued LWP (gang scans, re-leveling).
func (r *lwpRunq) forEach(fn func(*LWP)) {
	for lvl := r.top(); lvl >= 0; lvl = r.nextBelow(lvl) {
		for l := r.qs[lvl].head; l != nil; l = l.rqNext {
			fn(l)
		}
	}
}
