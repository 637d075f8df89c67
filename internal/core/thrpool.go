package core

import (
	"fmt"
	"sync/atomic"
)

// This file holds the per-thread memory machinery behind zero-alloc
// thread lifecycle: the StackMem abstraction (reserve address space at
// create, commit on first dispatch), the stack/TLS caches every thread
// refills when it exits, waited for or not, and the Thread-struct
// freelist that recycles a thread's shell — struct, gate channel, wait
// channel, and TSD block — from exit (or, for a THREAD_WAIT thread,
// from its reap) to the next Create.

// Cache bounds.
const (
	// stackCacheSize caps how many library-allocated default stacks
	// (and their TLS blocks) are kept for reuse after their threads
	// exit — the cache behind Figure 5's "default stack" creation time.
	// Both caches get this capacity at NewRuntime, so no exit allocates.
	stackCacheSize = 32
	// threadCacheSize caps the Thread freelist and the idle animator
	// pool: exited unwaited (or reaped) threads park their Thread
	// struct, gate channel, and TSD block there for the next Create to
	// recycle, making steady-state create/exit allocation-free.
	threadCacheSize = 1024
)

// StackMem carves thread stacks out of an address space. MapStack
// reserves (does not commit) size bytes plus a red-zone guard and
// returns the base of the usable stack; TouchStack commits the top of
// the carve when the thread first runs; UnmapStack returns the carve.
// vm.AddressSpace satisfies this.
type StackMem interface {
	MapStack(size int64) (int64, error)
	UnmapStack(base, size int64) error
	TouchStack(base, size int64) error
}

// flatStackMem is the fallback when no address space is wired: it
// hands out disjoint simulated addresses counting down from a high
// watermark, with no accounting. Tests that build a bare Runtime use
// this.
type flatStackMem struct {
	next atomic.Int64
}

func newFlatStackMem() *flatStackMem {
	f := &flatStackMem{}
	f.next.Store(1 << 46)
	return f
}

func (f *flatStackMem) MapStack(size int64) (int64, error) {
	// Leave a 4 KiB hole below each carve as the notional red zone.
	return f.next.Add(-(size + 4096)), nil
}

func (f *flatStackMem) UnmapStack(base, size int64) error { return nil }

func (f *flatStackMem) TouchStack(base, size int64) error { return nil }

// stackSpan is one cached default-stack carve. touched records that a
// thread was dispatched on it, so its top is already committed and the
// next thread's first dispatch skips TouchStack.
type stackSpan struct {
	base, size int64
	touched    bool
}

// stackFromCacheLocked returns a stack carve of at least size bytes,
// reusing a cached span when one fits and reserving a fresh one
// otherwise. Carve failure (address-space rlimit, chaos fault) is
// reported as ErrAgain per thread_create's contract. Caller holds
// m.mu.
func (m *Runtime) stackFromCacheLocked(size int64) (stackSpan, error) {
	for i, s := range m.stackCache {
		if s.size >= size {
			last := len(m.stackCache) - 1
			m.stackCache[i] = m.stackCache[last]
			m.stackCache = m.stackCache[:last]
			return s, nil
		}
	}
	base, err := m.stackMem.MapStack(size)
	if err != nil {
		return stackSpan{}, fmt.Errorf("core: stack carve failed: %w: %w", err, ErrAgain)
	}
	return stackSpan{base: base, size: size}, nil
}

// tlsFromCacheLocked returns a TLS block of the frozen size, recycled
// when possible. Caller holds m.mu; caller clears the block.
func (m *Runtime) tlsFromCacheLocked() []byte {
	if m.tlsSize == 0 {
		return nil
	}
	if n := len(m.tlsCache); n > 0 {
		b := m.tlsCache[n-1]
		m.tlsCache[n-1] = nil
		m.tlsCache = m.tlsCache[:n-1]
		if len(b) == m.tlsSize {
			return b
		}
	}
	return make([]byte, m.tlsSize)
}

// releaseStackLocked returns t's stack carve and TLS block to their
// caches, unmapping the carve when the cache is full. retire calls it
// for every thread, so a THREAD_WAIT zombie holds only its shell; the
// other caller is uncreate. A caller-supplied stack is only forgotten:
// the caller may reuse it once thread_wait returns (paper). A dying
// runtime drops its carves without unmapping them: the process's
// address space is going away, or exec has Reset it and handed the
// same addresses to the new image's stacks. Caller holds m.mu.
func (m *Runtime) releaseStackLocked(t *Thread) {
	if t.stackOwn && !m.dying.Load() {
		if len(m.stackCache) < stackCacheSize {
			m.stackCache = append(m.stackCache, stackSpan{base: t.stkBase, size: t.stkSize, touched: t.started})
		} else {
			_ = m.stackMem.UnmapStack(t.stkBase, t.stkSize)
		}
		if t.tls != nil && len(m.tlsCache) < stackCacheSize {
			m.tlsCache = append(m.tlsCache, t.tls)
		}
	}
	t.stackOwn, t.stkTouched = false, false
	t.stkBase, t.stkSize = 0, 0
	t.stack = nil
	t.tls = nil
}

// pushFreeLocked parks t's shell on the freelist for a later Create
// to recycle. Bound shells are never recycled: boundMain's unwind
// still reads t.bndLWP after retire. Caller holds m.mu; t must
// already be off every queue with its stack released.
func (m *Runtime) pushFreeLocked(t *Thread) {
	if t.bndLWP != nil || m.dying.Load() || len(m.tcache) >= threadCacheSize {
		return
	}
	m.tcache = append(m.tcache, t)
}

// threadSlabBatch is how many Thread shells the cold path reserves per
// slab refill: the struct, aux block, and wait-channel bucket for 64
// threads cost 3 host allocations instead of 192, so a mass create
// pays ~1 allocation per thread (the gate channel, which the Go
// runtime will not let us batch) plus amortized slab refills.
const threadSlabBatch = 64

// allocThreadLocked returns a Thread shell for Create: a recycled one
// from the freelist (scrubbed here, at reuse, so post-mortem handle
// reads stay valid until recycling — like pthread_t reuse) or a carve
// from the shell slab. Caller holds m.mu.
//
// A slab batch stays reachable while any of its shells is live; that
// is the same retention shape as the freelist and is bounded by the
// batch size.
func (m *Runtime) allocThreadLocked() *Thread {
	if n := len(m.tcache); n > 0 {
		t := m.tcache[n-1]
		m.tcache[n-1] = nil
		m.tcache = m.tcache[:n-1]
		t.scrubLocked()
		return t
	}
	if m.slabUsed == len(m.slabT) {
		m.slabT = make([]Thread, threadSlabBatch)
		m.slabA = make([]threadAux, threadSlabBatch)
		m.slabB = make([]sleepqBucket, threadSlabBatch)
		m.slabUsed = 0
	}
	i := m.slabUsed
	m.slabUsed++
	b := &m.slabB[i]
	initBucket(b, false)
	t := &m.slabT[i]
	t.gate = make(chan struct{}, 1)
	t.waitWC = WaitChan{b}
	t.aux = &m.slabA[i]
	return t
}

// scrubLocked resets a recycled shell to the zero state a fresh
// Thread{} would have, preserving only the reusable allocations: the
// gate channel, the wait channel, and the aux block with its TSD
// slice. The TSD slice is cleared across its FULL capacity — a later
// SetSpecific regrows it with s[:n], which must never expose a
// predecessor's values.
func (t *Thread) scrubLocked() {
	// Drain a stale wake permit left in the gate by a late unpark.
	select {
	case <-t.gate:
	default:
	}
	if t.waitWC.Len() != 0 {
		// Should be impossible (retire drains the ≤1 waiter), but a
		// waiter must never leak into a new thread's identity.
		t.waitWC = AllocWaitChan()
	}
	aux := t.aux
	if aux == nil {
		aux = &threadAux{}
	}
	tsd := aux.tsd
	tsd = tsd[:cap(tsd)]
	clear(tsd)
	*aux = threadAux{tsd: tsd[:0]}
	gate, wc := t.gate, t.waitWC
	*t = Thread{}
	t.gate, t.waitWC, t.aux = gate, wc, aux
}

// startAnimator gives a first-dispatched unbound thread its animator
// goroutine, reusing a standby animator when one is parked (the
// steady-state path: no goroutine spawn, no closure allocation).
// Called off m.mu from runOn, before the thread's first grant.
func (m *Runtime) startAnimator(t *Thread) {
	m.mu.Lock()
	var ch chan *Thread
	if n := len(m.idleAnim); n > 0 {
		ch = m.idleAnim[n-1]
		m.idleAnim[n-1] = nil
		m.idleAnim = m.idleAnim[:n-1]
	}
	m.mu.Unlock()
	if ch != nil {
		ch <- t // buffered: the animator is parked receiving
		return
	}
	m.exitWG.Add(1)
	go m.animate(t)
}

// animate is an animator goroutine: it runs thread incarnations
// back-to-back, parking on its handoff channel between them, so the
// goroutine (like the Thread shell and stack carve it animates) is
// recycled rather than respawned. It exits on kernel unwind, on
// runtime shutdown (sweepDying sends nil), or when the standby pool
// is full.
func (m *Runtime) animate(t *Thread) {
	defer m.exitWG.Done()
	var ch chan *Thread
	for {
		if !t.threadMain() {
			return // unwound with the process; do not recycle
		}
		if ch == nil {
			ch = make(chan *Thread, 1)
		}
		m.mu.Lock()
		if m.dying.Load() || len(m.idleAnim) >= threadCacheSize {
			m.mu.Unlock()
			return
		}
		m.idleAnim = append(m.idleAnim, ch)
		m.mu.Unlock()
		next, ok := <-ch
		if !ok || next == nil {
			return // shutdown
		}
		t = next
	}
}

// touchStack commits the top of t's reserved stack carve before its
// first frame, unless an earlier thread on the same cached carve
// already did. Commit failure is deliberately not fatal here — commit
// accounting surfaces through explicit memory operations and the
// commit rlimit; a thread that cannot commit its first chunk still
// runs in the simulation.
func (m *Runtime) touchStack(t *Thread) {
	if t.stackOwn && !t.stkTouched {
		_ = m.stackMem.TouchStack(t.stkBase, t.stkSize)
	}
}
