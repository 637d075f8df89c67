package mt

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/usync"
	"sunosmt/internal/vm"
)

// shm opens the named file, creating it, and maps one page of it
// MAP_SHARED — at va if that is non-zero, over whatever is there.
func shm(t *testing.T, p *Proc, tt *Thread, name string, prot vm.Prot, va int64) (int64, bool) {
	t.Helper()
	fd, err := p.Open(tt, name, OCreate|ORdWr)
	if err != nil {
		t.Error(err)
		return 0, false
	}
	flags := MapShared
	if va != 0 {
		flags |= MapFixed
	}
	va, err = p.Mmap(tt, va, PageSize, prot, flags, fd, 0)
	if err != nil {
		t.Error(err)
		return 0, false
	}
	return va, true
}

// mutexAt is SharedMutexAt for a lookup that must succeed.
func mutexAt(t *testing.T, p *Proc, tt *Thread, va int64) *Mutex {
	t.Helper()
	mu, err := p.SharedMutexAt(tt, va)
	if err != nil {
		t.Errorf("SharedMutexAt(%#x): %v", va, err)
		return &Mutex{}
	}
	return mu
}

const protRW = ProtRead | ProtWrite

// TestSharedHandleTable: Shared*At returns the handle for (process,
// va), like a mutex_t * into the mapping; the handle follows the
// mapping, not the number.
func TestSharedHandleTable(t *testing.T) {
	// remapped maps /tmp/a, takes the mutex at its base, puts /tmp/b at
	// the same address and looks the mutex up again: the new handle is
	// on /tmp/b's variable, free, while /tmp/a's lock word — reached
	// through a second mapping of it — is still held.
	remapped := func(unmapFirst bool) func(*testing.T, *Proc, *Thread) {
		return func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			old := mutexAt(t, p, tt, va)
			old.Enter(tt)
			if unmapFirst {
				if err := p.Munmap(tt, va, PageSize); err != nil {
					t.Error(err)
				}
				if _, err := p.SharedMutexAt(tt, va); !errors.Is(err, vm.ErrFault) {
					t.Errorf("lookup in the unmapped page: err = %v, want ErrFault", err)
				}
			}
			if _, ok = shm(t, p, tt, "/tmp/b", protRW, va); !ok {
				return
			}
			mu := mutexAt(t, p, tt, va)
			if mu == old || mu.Name() == old.Name() {
				t.Errorf("handle after the remap is on %s, as before it", mu.Name())
			}
			if !mu.TryEnter(tt) {
				t.Error("the new file's lock reads held")
			}
			elsewhere, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if ok && mutexAt(t, p, tt, elsewhere).TryEnter(tt) {
				t.Error("the old file's lock word was released by the remap")
			}
		}
	}
	cases := []struct {
		name string
		body func(t *testing.T, p *Proc, tt *Thread)
	}{
		{"same va twice is one handle", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			mu := mutexAt(t, p, tt, va)
			if again := mutexAt(t, p, tt, va); again != mu {
				t.Error("second lookup returned another handle")
			}
			if other := mutexAt(t, p, tt, va+64); other == mu || other.Name() == mu.Name() {
				t.Error("another va returned the same variable")
			}
			rwl, err := p.SharedRWLockAt(tt, va+128)
			if again, _ := p.SharedRWLockAt(tt, va+128); err != nil || again != rwl {
				t.Errorf("rwlock: second lookup returned another handle (err %v)", err)
			}
			cv, err := p.SharedCondAt(tt, va+256)
			if again, _ := p.SharedCondAt(tt, va+256); err != nil || again != cv {
				t.Errorf("cond: second lookup returned another handle (err %v)", err)
			}
		}},
		{"munmap then another file at the va", remapped(true)},
		{"MAP_FIXED over a live variable", remapped(false)},
		{"stack carved and released between lookups", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			mu := mutexAt(t, p, tt, va)
			mu.Enter(tt)
			gen := p.AS.Generation()
			// Whether or not a lookup after the change returns the same
			// pointer, it is the same lock, and the thread still holds it.
			check := func(step string, err error) {
				if err != nil {
					t.Errorf("%s: %v", step, err)
				}
				if now := p.AS.Generation(); now == gen {
					t.Errorf("%s: the generation did not move", step)
				} else {
					gen = now
				}
				if again := mutexAt(t, p, tt, va); again.Name() != mu.Name() || again.TryEnter(tt) {
					t.Errorf("%s: lookup left the variable %s for %s", step, mu.Name(), again.Name())
				}
			}
			base, err := p.MapStack(tt, 64<<10)
			check("carve", err)
			check("release", p.UnmapStack(tt, base, 64<<10))
		}},
		{"another kind at the va replaces the entry", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			mu := mutexAt(t, p, tt, va)
			s, err := p.SharedSemaAt(tt, va, 0)
			if err != nil || s.Name() != mu.Name() {
				t.Errorf("SharedSemaAt over a mutex: %v, %v", s, err)
			}
			if again, _ := p.SharedSemaAt(tt, va, 0); again != s {
				t.Error("the semaphore did not take the entry")
			}
			if again := mutexAt(t, p, tt, va); again == mu {
				t.Error("the mutex handle outlived its entry")
			}
		}},
		{"sema count is initialised on a hit as on a miss", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			for i, step := range []struct{ init, want uint }{
				{0, 0}, // miss
				{3, 3}, // hit, count zero: set
				{5, 3}, // hit, count non-zero: kept
			} {
				s, err := p.SharedSemaAt(tt, va, step.init)
				if err != nil {
					t.Error(err)
					return
				}
				if got := s.Count(); got != step.want {
					t.Errorf("step %d: SharedSemaAt(va, %d) left count %d, want %d", i, step.init, got, step.want)
				}
			}
			s, _ := p.SharedSemaAt(tt, va, 0)
			for s.TryP(tt) {
			}
			if s, _ = p.SharedSemaAt(tt, va, 2); s.Count() != 2 {
				t.Errorf("drained semaphore named with count 2 has %d", s.Count())
			}
		}},
		{"fork1 child resolves afresh, same variable", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			mu := mutexAt(t, p, tt, va)
			mu.Enter(tt)
			var childTried atomic.Bool
			childCh := make(chan *Proc, 1)
			child, err := p.Fork1(tt, func(ct *Thread, _ any) {
				cp := <-childCh
				cmu := mutexAt(t, cp, ct, va)
				if cmu == mu || cmu.Name() != mu.Name() {
					t.Errorf("child's handle: same pointer %v, variable %s, want another pointer on %s", cmu == mu, cmu.Name(), mu.Name())
				}
				if cmu.TryEnter(ct) {
					t.Error("child took the lock its parent holds")
				}
				childTried.Store(true)
				cmu.Enter(ct) // until the parent lets go
				cmu.Exit(ct)
			}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			childCh <- child
			for !childTried.Load() {
				tt.Yield()
			}
			mu.Exit(tt)
			p.WaitChild(tt, -1)
		}},
		{"exec drops the table", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			old := mutexAt(t, p, tt, va)
			err := p.Exec(tt, "image", func(nt *Thread, _ any) {
				if _, err := p.SharedMutexAt(nt, va); !errors.Is(err, vm.ErrFault) {
					t.Errorf("lookup in the new image before it maps anything: err = %v, want ErrFault", err)
				}
				if _, ok := shm(t, p, nt, "/tmp/a", protRW, va); ok && mutexAt(t, p, nt, va) == old {
					t.Error("the old image's handle survived exec")
				}
			}, nil)
			t.Errorf("Exec returned: %v", err)
		}},
		{"two processes, two addresses, one lock", func(t *testing.T, p *Proc, tt *Thread) {
			va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
			if !ok {
				return
			}
			mu := mutexAt(t, p, tt, va)
			mu.Enter(tt)
			done := make(chan struct{})
			spawn(t, p.Sys, "peer", ProcConfig{}, func(q *Proc, qt *Thread) {
				defer close(done)
				if _, ok := shm(t, q, qt, "/tmp/pad", protRW, 0); !ok {
					return
				}
				qva, ok := shm(t, q, qt, "/tmp/a", protRW, 0)
				if !ok {
					return
				}
				qmu := mutexAt(t, q, qt, qva)
				if qva == va || qmu.Name() != mu.Name() {
					t.Errorf("peer maps the file at %#x (first process: %#x) and names %s, want another address and %s", qva, va, qmu.Name(), mu.Name())
				}
				if qmu.TryEnter(qt) {
					t.Error("peer took the lock the first process holds")
				}
			})
			<-done // to the simulation, a thread computing on its LWP
			mu.Exit(tt)
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			sys := NewSystem(Options{NCPU: 2, LWPCreateCost: -1, KernelSwitchCost: -1})
			p := spawn(t, sys, "p", ProcConfig{}, func(p *Proc, tt *Thread) { c.body(t, p, tt) })
			select {
			case <-p.Process().Exited(): // not WaitExit: exec replaces the runtime
			case <-time.After(60 * time.Second):
				t.Fatal("timeout waiting for process")
			}
		})
	}
}

// TestSharedVarChecksTheMapping: operating a shared variable stores
// into the mapped object directly, so the protection check that
// MemWrite would make is made when the variable is named — a lock in a
// read-only mapping of a file cannot be taken, and the file is not
// written. A refused address is never cached: the MAP_PRIVATE refusal
// repeats, and leaves the table empty.
func TestSharedVarChecksTheMapping(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	p := spawn(t, sys, "p", ProcConfig{}, func(p *Proc, tt *Thread) {
		for _, prot := range []vm.Prot{ProtRead, ProtWrite, 0} {
			va, ok := shm(t, p, tt, "/tmp/ro", prot, 0)
			if !ok {
				return
			}
			if _, err := p.SharedVar(tt, va); !errors.Is(err, ErrProt) {
				t.Errorf("SharedVar in a prot %d mapping: err = %v, want ErrProt", prot, err)
			}
			for i := 0; i < 2; i++ {
				if mu, err := p.SharedMutexAt(tt, va); !errors.Is(err, ErrProt) || mu != nil {
					t.Errorf("SharedMutexAt in a prot %d mapping: (%v, %v), want (nil, ErrProt)", prot, mu, err)
				}
				if s, err := p.SharedSemaAt(tt, va, 1); !errors.Is(err, ErrProt) || s != nil {
					t.Errorf("SharedSemaAt in a prot %d mapping: (%v, %v), want (nil, ErrProt)", prot, s, err)
				}
			}
		}
		node, err := sys.FS.Lookup("/", "/tmp/ro")
		if err != nil {
			t.Error(err)
		} else if size := node.(vm.Object).ObjectSize(); size != 0 {
			t.Errorf("the read-only file grew to %d bytes", size)
		}
		private, err := p.Mmap(tt, 0, PageSize, protRW, MapPrivate, -1, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 2; i++ {
			if mu, err := p.SharedMutexAt(tt, private); !errors.Is(err, ErrNotShared) || mu != nil {
				t.Errorf("SharedMutexAt in a MAP_PRIVATE mapping: (%v, %v), want (nil, ErrNotShared)", mu, err)
			}
		}
		if n := len(p.shared); n != 0 {
			t.Errorf("%d refused lookups were cached", n)
		}
	})
	waitProc(t, p)
}

// TestSharedHandleZeroAlloc pins what the handle table and the
// one-lock section are for: naming a variable the process has named
// before, a section, and an uncontended Enter+Exit through the handle
// allocate nothing. A section body handed to the backing object as a
// closure, or kept on the Var, would make Enter's captured locals
// escape; this is the test that says so.
func TestSharedHandleZeroAlloc(t *testing.T) {
	sys := NewSystem(Options{NCPU: 1, LWPCreateCost: -1, KernelSwitchCost: -1})
	p := spawn(t, sys, "p", ProcConfig{}, func(p *Proc, tt *Thread) {
		va, ok := shm(t, p, tt, "/tmp/a", protRW, 0)
		if !ok {
			return
		}
		mu := mutexAt(t, p, tt, va)
		sv, err := p.SharedVar(tt, va+64)
		if err != nil {
			t.Error(err)
			return
		}
		for name, op := range map[string]func(){
			"SharedMutexAt on a known va": func() { p.SharedMutexAt(tt, va) },
			"SharedSemaAt on a known va":  func() { p.SharedSemaAt(tt, va+128, 1) },
			"Var.Atomically":              func() { sv.Atomically(func(w usync.Words) { w.Store(0, w.Load(0)+1) }) },
			"Enter+Exit through the handle": func() {
				mu, _ := p.SharedMutexAt(tt, va)
				mu.Enter(tt)
				mu.Exit(tt)
			},
		} {
			op()
			if avg := testing.AllocsPerRun(200, op); avg > 0 {
				t.Errorf("%s allocates %.1f objects/op, want 0", name, avg)
			}
		}
		if !mu.TryEnter(tt) {
			t.Error("the lock is held after the last Exit")
		}
	})
	waitProc(t, p)
}
