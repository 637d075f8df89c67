package core

import (
	"runtime"
	"sync/atomic"
	"testing"

	"sunosmt/internal/sim"
	"sunosmt/internal/vm"
)

// These tests pin the zero-alloc thread lifecycle: in steady state
// (caches warm) create/exit, park/unpark, and thread_wait reap must
// not allocate, and a recycled Thread shell must carry nothing of its
// predecessor — in particular no TSD values.

// TestCreateWaitZeroAllocSteadyState pins the full create → run →
// exit → wait round trip at zero heap allocations once the stack
// cache and Thread freelist are warm. (The child's goroutine is
// recycled by the Go runtime's g-freelist, so it does not charge the
// loop either.)
func TestCreateWaitZeroAllocSteadyState(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		cycle := func() {
			c, err := self.Runtime().Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := self.Wait(c.ID()); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle() // warm the stack cache, TLS cache, and freelist
		}
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("create/wait cycle allocates %.1f objects/op, want 0", avg)
		}
	})
	waitExit(t, m)
}

// TestCreateDetachedZeroAllocSteadyState pins the unwaited
// (detached) lifecycle, where retire recycles the shell directly.
func TestCreateDetachedZeroAllocSteadyState(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		var ran atomic.Int64
		body := func(*Thread, any) { ran.Add(1) }
		cycle := func() {
			if _, err := self.Runtime().Create(body, nil, CreateOpts{}); err != nil {
				t.Error(err)
				return
			}
			self.Yield() // let the child run to completion on this LWP
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		before := ran.Load()
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("detached create cycle allocates %.1f objects/op, want 0", avg)
		}
		if ran.Load() == before {
			t.Error("children did not run during the measured loop")
		}
	})
	waitExit(t, m)
}

// countingStackMem counts the address-space calls a runtime makes for
// its thread stacks (the StackMem counterpart of countingClock).
type countingStackMem struct {
	StackMem
	maps, unmaps, touches atomic.Int64
}

func (c *countingStackMem) MapStack(size int64) (int64, error) {
	c.maps.Add(1)
	return c.StackMem.MapStack(size)
}

func (c *countingStackMem) UnmapStack(base, size int64) error {
	c.unmaps.Add(1)
	return c.StackMem.UnmapStack(base, size)
}

func (c *countingStackMem) TouchStack(base, size int64) error {
	c.touches.Add(1)
	return c.StackMem.TouchStack(base, size)
}

// tlsRuntime boots a one-CPU runtime that carves its stacks from mem
// and has one unshared variable registered, so every library stack
// comes with a TLS block — mt's wiring, with vm.New(nil) for mem.
func tlsRuntime(t *testing.T, mem StackMem, mainFn Func) *Runtime {
	t.Helper()
	k := sim.NewKernel(sim.Config{NCPU: 1})
	m := NewRuntime(k, k.NewProcess("test", nil), Config{StackMem: mem})
	if _, err := m.RegisterUnshared(8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Start(mainFn, nil); err != nil {
		t.Fatal(err)
	}
	return m
}

func nop(*Thread, any) {}

// createReapBatch is netsrv's listener in miniature: len(ids)
// THREAD_WAIT threads, each created and run to exit before the next is
// created, then all reaped in one batch.
func createReapBatch(t *testing.T, self *Thread, ids []ThreadID) {
	for i := range ids {
		c, err := self.Runtime().Create(nop, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		ids[i] = c.ID()
		self.Yield() // c runs to exit on this LWP
	}
	for _, id := range ids {
		if _, err := self.Wait(id); err != nil {
			t.Error(err)
		}
	}
}

// TestCreateReapBatchZeroAlloc: with twice stackCacheSize zombies
// waiting to be reaped, a create still finds a cached stack and TLS
// block, because a zombie gave both back when it exited. When they
// went back at reap instead, every other create in the batch carved a
// fresh stack (MapStack's two segments and NewSparseAnon's object) and
// made a TLS block: 2.0 allocations per thread here, 1.8 on netsrv.
func TestCreateReapBatchZeroAlloc(t *testing.T) {
	m := tlsRuntime(t, vm.New(nil), func(self *Thread, _ any) {
		ids := make([]ThreadID, 2*stackCacheSize)
		batch := func() { createReapBatch(t, self, ids) }
		for i := 0; i < 4; i++ {
			batch() // warm the caches, the freelist and the animators
		}
		if n := testing.AllocsPerRun(20, batch); n > 0 {
			t.Errorf("create/exit/reap batch of %d allocates %.0f objects (%.2f per thread), want 0", len(ids), n, n/float64(len(ids)))
		}
	})
	waitExit(t, m)
}

// TestFirstExitAllocatesNothing: the first threads to exit into a
// fresh runtime's empty stack and TLS caches allocate nothing, because
// NewRuntime gives both caches their full capacity; appends to nil
// slices there cost a few allocations inside the first timed region
// of every workload. With unsized caches, filled at reap, the window
// read 12 allocations in every runtime. The Go runtime itself
// allocates in it about one run in a thousand at GOMAXPROCS 2 (a new
// M, a sudog, the scavenger's timer), so the least of three fresh
// runtimes is what must be 0.
func TestFirstExitAllocatesNothing(t *testing.T) {
	var got [3]uint64
	for i := range got {
		if got[i] = firstExitAllocs(t); got[i] == 0 {
			return
		}
	}
	t.Errorf("the first %d exits and reaps allocate %v objects in three fresh runtimes, want 0", stackCacheSize, got)
}

// firstExitAllocs boots a runtime, lets stackCacheSize threads on
// library stacks run, exit and be reaped, and returns the allocations
// that took. Everything else an exit and a reap touch — the animator
// goroutines and their handoff channels, the zombie table, the shell
// freelist — is warmed first by threads on caller-supplied stacks,
// which enter neither cache.
func firstExitAllocs(t *testing.T) (allocs uint64) {
	const n = stackCacheSize
	m := tlsRuntime(t, vm.New(nil), func(self *Thread, _ any) {
		allocs = ^uint64(0) // unless measured
		r := self.Runtime()
		warm := make([]*Thread, n)
		for i := range warm {
			c, err := r.Create(func(c *Thread, _ any) { c.Park() }, nil, CreateOpts{Flags: ThreadWait, Stack: make([]byte, 1024)})
			if err != nil {
				t.Error(err)
				return
			}
			warm[i] = c
		}
		for _, c := range warm {
			for c.State() != ThreadSleeping {
				self.Yield() // all n parked at once: n animators
			}
		}
		UnparkAll(warm)
		for _, c := range warm {
			if _, err := self.Wait(c.ID()); err != nil {
				t.Error(err)
			}
		}
		for i := 0; ; i++ {
			r.mu.Lock()
			idle, cached := len(r.idleAnim), len(r.stackCache)+len(r.tlsCache)
			r.mu.Unlock()
			if cached != 0 {
				t.Errorf("caller-supplied stacks left %d entries in the stack and TLS caches", cached)
				return
			}
			if idle == n {
				break
			}
			if i == 1e6 {
				t.Errorf("%d of %d animators parked", idle, n)
				return
			}
			self.Yield()
		}
		ids := make([]ThreadID, n)
		for i := range ids {
			c, err := r.Create(nop, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = c.ID()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, id := range ids {
			if _, err := self.Wait(id); err != nil {
				t.Error(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	})
	waitExit(t, m)
	return allocs
}

// TestStackMemCallsPerLifecycle counts the address-space calls of a
// steady-state create → run → exit → reap cycle: 0 MapStack, 0
// UnmapStack and 0 TouchStack per thread, whether each thread is
// reaped at once or 2×stackCacheSize of them in one batch. When the
// carve went back at reap the batched cycle made 0.5 / 0.5 / 1 per
// thread (half the creates found the cache empty, half the reaps found
// it full), and one at a time 0 / 0 / 1: every reused carve was
// touched again although it was committed already.
func TestStackMemCallsPerLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{{"OneAtATime", 1}, {"Batched", 2 * stackCacheSize}} {
		t.Run(tc.name, func(t *testing.T) {
			mem := &countingStackMem{StackMem: vm.New(nil)}
			m := tlsRuntime(t, mem, func(self *Thread, _ any) {
				const rounds = 8
				ids := make([]ThreadID, tc.n)
				for i := 0; i < 4; i++ {
					createReapBatch(t, self, ids)
				}
				maps, unmaps, touches := mem.maps.Load(), mem.unmaps.Load(), mem.touches.Load()
				for i := 0; i < rounds; i++ {
					createReapBatch(t, self, ids)
				}
				per := func(n int64) float64 { return float64(n) / float64(rounds*tc.n) }
				got := [3]float64{per(mem.maps.Load() - maps), per(mem.unmaps.Load() - unmaps), per(mem.touches.Load() - touches)}
				if got != [3]float64{} {
					t.Errorf("MapStack / UnmapStack / TouchStack per thread = %g / %g / %g, want 0 / 0 / 0", got[0], got[1], got[2])
				}
			})
			waitExit(t, m)
		})
	}
}

// TestParkUnparkZeroAlloc pins the park/unpark ping-pong — the
// context-switch hot path — at zero allocations.
func TestParkUnparkZeroAlloc(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		var done atomic.Bool
		peer, err := self.Runtime().Create(func(c *Thread, _ any) {
			for {
				c.Park()
				if done.Load() {
					return
				}
				self.Unpark()
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			peer.Unpark()
			self.Park()
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
			t.Errorf("park/unpark round trip allocates %.1f objects/op, want 0", avg)
		}
		done.Store(true)
		peer.Unpark()
		if _, err := self.Wait(peer.ID()); err != nil {
			t.Error(err)
		}
	})
	waitExit(t, m)
}

// TestMassCreateColdPathAllocBound pins the slab-batched cold path:
// creating a thread with an empty freelist must cost at most ~1 host
// allocation — the per-thread gate channel — because the Thread
// shell, aux block, and sleep-queue bucket are carved from slabs of
// threadSlabBatch, whose refill allocations amortize to a fraction of
// an object per thread. Before the batching, each cold create paid
// for every one of those objects (and their internal slices)
// individually. The created threads are kept un-run so no shell is
// ever recycled: every measured create takes the cold path.
func TestMassCreateColdPathAllocBound(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		ids := make([]ThreadID, 0, 2048)
		cycle := func() {
			c, err := r.Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Error(err)
				return
			}
			ids = append(ids, c.ID())
		}
		for i := 0; i < 64; i++ {
			cycle() // settle one-time table growth outside the window
		}
		if avg := testing.AllocsPerRun(1000, cycle); avg > 1.5 {
			t.Errorf("cold-path create allocates %.2f objects/thread, want <= 1.5 (gate channel + amortized slab refills)", avg)
		}
		for r.RunnableThreads() > 0 {
			self.Yield()
		}
		for _, id := range ids {
			if _, err := self.Wait(id); err != nil {
				t.Error(err)
			}
		}
	})
	waitExit(t, m)
}

// TestThreadShellRecycled verifies the freelist actually recycles: a
// create after an unwaited exit reuses the same Thread struct.
func TestThreadShellRecycled(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		c1, err := r.Create(func(*Thread, any) {}, nil, CreateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		id1 := c1.ID() // recorded before the shell can be recycled
		self.Yield()   // c1 runs, exits, and parks its shell on the freelist
		r.mu.Lock()
		cached := len(r.tcache)
		r.mu.Unlock()
		if cached == 0 {
			t.Fatal("exited detached thread was not parked on the freelist")
		}
		c2, err := r.Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		// c1 and c2 alias the same recycled struct, so the predecessor's
		// ID must come from before recycling; the new incarnation gets
		// a fresh ID.
		if c1 != c2 {
			t.Error("second create did not recycle the exited thread's shell")
		} else if c2.ID() == id1 {
			t.Error("recycled shell kept its predecessor's thread ID")
		}
		if _, err := self.Wait(c2.ID()); err != nil {
			t.Error(err)
		}
	})
	waitExit(t, m)
}

// TestRecycledThreadSeesNoPredecessorTSD: a recycled thread must
// never observe a predecessor's TSD values — including values in the
// slack capacity of the recycled slot slice.
func TestRecycledThreadSeesNoPredecessorTSD(t *testing.T) {
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		var keys []TSDKey
		for i := 0; i < 8; i++ {
			keys = append(keys, r.CreateTSDKey(nil))
		}
		first, err := r.Create(func(c *Thread, _ any) {
			// Bind every key, then clear the last few so the slot
			// slice's len shrinks below its cap on the next reuse.
			for i, k := range keys {
				if err := c.SetSpecific(k, 1000+i); err != nil {
					t.Error(err)
				}
			}
		}, nil, CreateOpts{})
		if err != nil {
			t.Fatal(err)
		}
		self.Yield() // first exits; shell (and TSD block) recycled
		second, err := r.Create(func(c *Thread, _ any) {
			for _, k := range keys {
				if v := c.GetSpecific(k); v != nil {
					t.Errorf("recycled thread observes predecessor TSD value %v for key %d", v, k)
				}
			}
			// Growing into the recycled capacity must also see nil.
			if err := c.SetSpecific(keys[2], "mine"); err != nil {
				t.Error(err)
			}
			if v := c.GetSpecific(keys[7]); v != nil {
				t.Errorf("slack capacity leaked predecessor value %v", v)
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		if first != second {
			t.Log("note: shell not recycled; test still validates fresh-thread TSD")
		}
		if _, err := self.Wait(second.ID()); err != nil {
			t.Error(err)
		}
	})
	waitExit(t, m)
}

// TestTSDDestructorOrdering: destructors run in ascending key order.
func TestTSDDestructorOrdering(t *testing.T) {
	var order []int
	m := rt(t, 1, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		var keys []TSDKey
		for i := 0; i < 5; i++ {
			i := i
			keys = append(keys, r.CreateTSDKey(func(v any) {
				order = append(order, i)
			}))
		}
		c, err := r.Create(func(c *Thread, _ any) {
			// Bind in scrambled order; destruction order must still
			// be by key, not by binding sequence.
			for _, i := range []int{3, 0, 4, 2, 1} {
				if err := c.SetSpecific(keys[i], i); err != nil {
					t.Error(err)
				}
			}
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := self.Wait(c.ID()); err != nil {
			t.Error(err)
		}
	})
	waitExit(t, m)
	if len(order) != 5 {
		t.Fatalf("ran %d destructors, want 5 (order %v)", len(order), order)
	}
	for i, k := range order {
		if k != i {
			t.Fatalf("destructor order %v, want ascending key order", order)
		}
	}
}

// TestConcurrentTSDCreateAndSet is the regression test for the key
// table race: CreateTSDKey publishing new keys while other threads
// validate and set concurrently. Run under -race this catches any
// unsynchronized key-table access.
func TestConcurrentTSDCreateAndSet(t *testing.T) {
	m := rt(t, 4, Config{}, func(self *Thread, _ any) {
		r := self.Runtime()
		k0 := r.CreateTSDKey(nil)
		var stop atomic.Bool
		var ids []ThreadID
		for w := 0; w < 3; w++ {
			c, err := r.Create(func(c *Thread, _ any) {
				for i := 0; !stop.Load(); i++ {
					if err := c.SetSpecific(k0, i); err != nil {
						t.Error(err)
						return
					}
					if v := c.GetSpecific(k0); v != i {
						t.Errorf("TSD readback = %v, want %d", v, i)
						return
					}
					c.Yield()
				}
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c.ID())
		}
		for i := 0; i < 200; i++ {
			k := r.CreateTSDKey(nil)
			if err := self.SetSpecific(k, i); err != nil {
				t.Error(err)
			}
			self.Yield()
		}
		stop.Store(true)
		for _, id := range ids {
			if _, err := self.Wait(id); err != nil {
				t.Error(err)
			}
		}
	})
	waitExit(t, m)
}
