package tsync

import (
	"sync"
	"testing"

	"sunosmt/internal/core"
	"sunosmt/internal/vm"
)

// TestBlockInfoHammer leans on the claim that a primitive's wait-for
// edge is safe to share: it is built once under the word lock, cached,
// immutable from then on, and published to the graph walkers through
// one atomic pointer per blocked thread. Workers block on a mutex, a
// semaphore, a rwlock and a condition variable (NoteBlocked with the
// cached edge; the condition variable guards a baton that a worker
// waits for in Wait and hands on with Signal) while host
// goroutines walk the graph the way DetectDeadlocks and /proc lstatus
// do — snapshot the edges, then resolve each owner through the edge's
// closure — and between the two rounds InitShared drops every cached
// edge, so the second round blocks on rebuilt ones while a walker may
// still be resolving an old one. Run under -race; the assertions here
// are only that no walk sees a malformed edge and no update is lost.
func TestBlockInfoHammer(t *testing.T) {
	const workers, iters = 4, 40
	w := newWorld(2)
	obj := vm.NewAnon(vm.PageSize)
	var (
		mu, cmu Mutex
		sem     Sema
		rw      RWLock
		cv      Cond
		baton   bool // guarded by cmu
	)
	sem.Init(1)
	prims := []struct {
		lock, unlock func(*core.Thread)
		share        func()
		count        int
	}{
		{lock: mu.Enter, unlock: mu.Exit,
			share: func() { mu.InitShared(w.reg.Var(obj, 0)) }},
		{lock: sem.P, unlock: sem.V,
			share: func() { sem.InitShared(w.reg.Var(obj, 64), 1) }},
		{lock: func(c *core.Thread) { rw.Enter(c, RWWriter) }, unlock: rw.Exit,
			share: func() { rw.InitShared(w.reg.Var(obj, 128)) }},
		{lock: func(c *core.Thread) {
			cmu.Enter(c)
			for baton {
				cv.Wait(c, &cmu)
			}
			baton = true
			cmu.Exit(c)
		}, unlock: func(c *core.Thread) {
			cmu.Enter(c)
			baton = false
			cmu.Exit(c)
			cv.Signal(c)
		}, share: func() { cv.InitShared(w.reg.Var(obj, 192)) }},
	}
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		r := self.Runtime()
		r.SetConcurrency(2)
		round := func(flags core.CreateFlags) {
			var ids []core.ThreadID
			for i := 0; i < workers; i++ {
				c, err := r.Create(func(c *core.Thread, _ any) {
					for j := 0; j < iters; j++ {
						p := &prims[j%len(prims)]
						p.lock(c)
						p.count++
						c.Yield() // deschedule inside the section: the others block
						p.unlock(c)
					}
				}, nil, core.CreateOpts{Flags: core.ThreadWait | flags})
				if err != nil {
					t.Error(err)
					return
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				self.Wait(id)
			}
		}
		round(0) // unshared: local owners, turnstile edges
		for i := range prims {
			prims[i].share()
		}
		// Shared: rebuilt edges, owners read from the mapped words. The
		// waiters block in the kernel, so each needs an LWP of its own
		// or the descheduled holder never gets one back.
		round(core.ThreadBindLWP)
	})

	stop := make(chan struct{})
	var walkers sync.WaitGroup
	for i := 0; i < 2; i++ {
		walkers.Add(1)
		go func() {
			defer walkers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range m.LockWaiters() {
					if e.Name == "" || (e.Kind != "mutex" && e.Kind != "sema" && e.Kind != "rwlock" && e.Kind != "cond") {
						t.Errorf("malformed wait-for edge: %+v", e)
						return
					}
				}
				// Owners resolve after the snapshot, so a cycle may be
				// reported that never existed at one instant; only the
				// walk itself is under test.
				core.DetectDeadlocks([]*core.Runtime{m})
			}
		}()
	}
	waitRT(t, m)
	close(stop)
	walkers.Wait()
	total := 0
	for _, p := range prims {
		total += p.count
	}
	if want := 2 * workers * iters; total != want {
		t.Errorf("%d critical sections ran, want %d (lost updates)", total, want)
	}
}
