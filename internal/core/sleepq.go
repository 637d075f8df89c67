package core

import (
	"sync"
	"sync/atomic"
)

// Sharded sleep queues — the library's stand-in for Solaris's
// sleepq_head hash of turnstiles. Every blocking object (a tsync
// primitive's waiter list, a thread's thread_wait channel) allocates a
// WaitChan: one queue of parked waiters, ordered by descending
// effective priority and FIFO among equals (exactly the sleep-queue
// order the Solaris dispatcher keeps, so a wakeup always takes the
// best waiter), whose lock comes from a fixed hashed array of shard
// locks, exactly as Solaris hashes a sleep channel into sleepq_head[].
// Threads blocking on objects that hash to different shards therefore
// touch disjoint locks instead of contending on one global structure,
// and a waiter is removed from the middle of a queue (timed-wait
// cancel, a waiter deregistering only itself) in O(1) through the
// intrusive sqNext/sqPrev links on Thread.
//
// Real Solaris hashes the address of the awaited object; Go forbids
// taking stable object addresses without unsafe, so each channel is
// assigned a shard by an atomic counter at allocation time instead —
// uniform by construction. The queue itself lives in the channel (the
// turnstile), not in the shard, so the hot park/unpark path is a
// shard-lock acquisition plus pointer links: no map, no allocation.
//
// Lock ordering: a sleep-queue shard lock is a leaf. Callers may hold
// Runtime.mu or a primitive's word lock around these operations; the
// shard code takes no other locks.

// WaitChan identifies one sleep queue. The zero value is not a valid
// channel — allocate with AllocWaitChan. Comparable; the zero value
// lets a primitive allocate its channel lazily.
type WaitChan struct {
	b *sleepqBucket
}

// sleepqShards is the number of independently locked shards; a power
// of two so the shard index is a mask.
const sleepqShards = 64

var (
	sleepqSeq  atomic.Uint64
	sleepqLock [sleepqShards]sync.Mutex
)

// sleepqBucket is one channel's queue of waiters — descending
// effective priority, FIFO among equals (or strict FIFO when fifo is
// set) — linked intrusively through Thread.sqNext/sqPrev; guarded by
// its shard's lock.
//
// n is written under the shard lock and read without it (Len, and the
// empty case of DequeueOne and DequeueAll): every user enqueues and
// dequeues under a lock of its own (a tsync word lock, Runtime.mu for
// thread_wait), so one load under that lock is exact. Hence n moves only
// when a waiter joins or leaves: a re-sort must not touch it.
type sleepqBucket struct {
	shard      uint64
	head, tail *Thread
	n          atomic.Int32

	// fifo marks a strict arrival-order queue (ticket and MCS/CLH
	// lock policies hand the lock to the oldest waiter regardless of
	// priority). A fifo bucket's head is NOT its highest-priority
	// waiter, so priority scans (heldMaxLocked) must walk the whole
	// queue and reposition is a no-op. Immutable after allocation.
	fifo bool
}

// AllocWaitChan allocates a fresh sleep channel, assigning it a shard.
func AllocWaitChan() WaitChan {
	b := &sleepqBucket{}
	initBucket(b, false)
	return WaitChan{b}
}

// AllocWaitChanFIFO allocates a strict arrival-order sleep channel for
// hand-off lock policies (ticket, MCS/CLH): Enqueue appends at the
// tail unconditionally and priority changes never re-sort the queue.
func AllocWaitChanFIFO() WaitChan {
	b := &sleepqBucket{}
	initBucket(b, true)
	return WaitChan{b}
}

// initBucket readies a zeroed bucket (fresh or slab-carved), assigning
// its shard.
func initBucket(b *sleepqBucket, fifo bool) {
	b.shard = sleepqSeq.Add(1) & (sleepqShards - 1)
	b.fifo = fifo
}

// Valid reports whether the channel has been allocated.
func (wc WaitChan) Valid() bool { return wc.b != nil }

func (wc WaitChan) lock() *sync.Mutex { return &sleepqLock[wc.b.shard] }

// Enqueue inserts t into the channel's queue in priority-then-FIFO
// order. The thread must not be queued on any channel (a thread waits
// on at most one object).
func (wc WaitChan) Enqueue(t *Thread) {
	mu := wc.lock()
	mu.Lock()
	t.sqBkt.Store(wc.b)
	wc.b.insertLocked(t)
	wc.b.n.Add(1)
	mu.Unlock()
}

// insertLocked links t in by descending effective priority, FIFO among
// equals (it goes behind every waiter at its own priority); the shard
// lock is held, and the count is the caller's. The common case — equal
// priorities — walks to the tail only when a strictly lower-priority
// waiter exists, so uniform-priority workloads keep the old
// append-at-tail cost via the tail check below.
func (b *sleepqBucket) insertLocked(t *Thread) {
	p := t.effPrio.Load()
	if b.fifo || b.tail == nil || b.tail.effPrio.Load() >= p {
		// Empty, or t belongs at the tail (the usual FIFO case).
		t.sqNext = nil
		t.sqPrev = b.tail
		if b.tail == nil {
			b.head = t
		} else {
			b.tail.sqNext = t
		}
		b.tail = t
		return
	}
	at := b.head
	for at.effPrio.Load() >= p {
		at = at.sqNext // tail check above guarantees a stop
	}
	t.sqNext = at
	t.sqPrev = at.sqPrev
	if at.sqPrev == nil {
		b.head = t
	} else {
		at.sqPrev.sqNext = t
	}
	at.sqPrev = t
}

// reposition re-sorts t within its bucket after an effective-priority
// change, if it is still queued there. Callers may hold Runtime.mu;
// the shard lock is a leaf. t.sqBkt stays set and the count stays put
// throughout, so neither a concurrent teardown (sleepqDetach) nor a
// lock-free Len sees the thread leave.
func (wc WaitChan) reposition(t *Thread) {
	if wc.b.fifo {
		// Strict arrival order: a priority change never moves a
		// waiter. (Inheritance still sees it — heldMaxLocked walks
		// fifo queues in full.)
		return
	}
	mu := wc.lock()
	mu.Lock()
	if t.sqBkt.Load() == wc.b {
		wc.b.spliceLocked(t)
		wc.b.insertLocked(t)
	}
	mu.Unlock()
}

// spliceLocked takes t's links out of b's list, leaving t's own links,
// its bucket pointer and the count alone; the shard lock is held.
func (b *sleepqBucket) spliceLocked(t *Thread) {
	if t.sqPrev != nil {
		t.sqPrev.sqNext = t.sqNext
	} else {
		b.head = t.sqNext
	}
	if t.sqNext != nil {
		t.sqNext.sqPrev = t.sqPrev
	} else {
		b.tail = t.sqPrev
	}
}

// unlinkLocked detaches t from b; the shard lock is held.
func (b *sleepqBucket) unlinkLocked(t *Thread) {
	b.spliceLocked(t)
	t.sqNext, t.sqPrev = nil, nil
	t.sqBkt.Store(nil)
	b.n.Add(-1)
}

// DequeueOne removes and returns the best waiter — highest effective
// priority, oldest among equals — or nil. An empty channel says so from
// its count, without the shard lock (see sleepqBucket).
func (wc WaitChan) DequeueOne() *Thread {
	if wc.b.n.Load() == 0 {
		return nil
	}
	mu := wc.lock()
	mu.Lock()
	t := wc.b.head
	if t != nil {
		wc.b.unlinkLocked(t)
	}
	mu.Unlock()
	return t
}

// DequeueAll removes every waiter, returned in queue (priority-then-
// FIFO) order; an empty channel takes no lock, as in DequeueOne.
func (wc WaitChan) DequeueAll() []*Thread {
	if wc.b.n.Load() == 0 {
		return nil
	}
	mu := wc.lock()
	mu.Lock()
	b := wc.b
	out := make([]*Thread, 0, b.n.Load())
	for t := b.head; t != nil; {
		next := t.sqNext
		t.sqNext, t.sqPrev = nil, nil
		t.sqBkt.Store(nil)
		out = append(out, t)
		t = next
	}
	b.head, b.tail = nil, nil
	b.n.Store(0)
	mu.Unlock()
	return out
}

// Remove takes t off the channel if it is queued there — the O(1)
// middle-of-queue removal used by timed-wait cancellation and by a
// waiter deregistering only itself after a spurious wake.
func (wc WaitChan) Remove(t *Thread) bool {
	mu := wc.lock()
	mu.Lock()
	if t.sqBkt.Load() != wc.b {
		mu.Unlock()
		return false
	}
	wc.b.unlinkLocked(t)
	mu.Unlock()
	return true
}

// Queued reports whether t is linked on a sleep channel. Only t queues
// itself, so once a waker has dequeued it the answer stays false for as
// long as t runs without waiting again: a waiter back from a park reads
// it to skip a deregistration its waker already did.
func (t *Thread) Queued() bool { return t.sqBkt.Load() != nil }

// Len reports the number of queued waiters, without the shard lock.
// The answer is exact for a caller that holds the lock every enqueue
// onto the channel is made under (see sleepqBucket).
func (wc WaitChan) Len() int { return int(wc.b.n.Load()) }

// ResidualLinks counts library linkage that must be empty once a
// runtime has quiesced: threads still linked on a sleep-queue bucket
// and threads still owning turnstiles. The exhaustion sweeps assert
// both are zero after every failed create has unwound — a non-zero
// count is a leaked link that would corrupt a later wait or
// inheritance walk.
func (m *Runtime) ResidualLinks() (sleepq, turnstiles int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range m.threads {
		if t.sqBkt.Load() != nil {
			sleepq++
		}
		if t.heldTs != nil {
			turnstiles++
		}
	}
	return sleepq, turnstiles
}

// sleepqDetach removes t from whatever channel it is queued on, if
// any. Used when a thread is torn down (process death) while parked:
// without it the dead Thread would stay linked in a live queue.
func sleepqDetach(t *Thread) {
	for {
		b := t.sqBkt.Load()
		if b == nil {
			return
		}
		if (WaitChan{b}).Remove(t) {
			return
		}
		// Raced with a dequeue that may have been followed by a
		// re-enqueue elsewhere; re-read and retry.
	}
}
