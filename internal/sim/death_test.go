package sim_test

import (
	"testing"
	"time"

	"sunosmt/internal/usync"
	"sunosmt/mt"
)

// TestDeathHooksWaitForLastLWP: the owner-dead sweep of a killed
// process runs only once no thread of it can run user code. Process A's
// thread takes the one unit of a shared semaphore with TryP and is
// held, on its CPU and between checkpoints, while A is SIGKILLed;
// process B's thread waits in P. While A's thread is held the sweep
// must not have run. Released, the thread does what a dying thread
// still in user code would: V, then PErr, which must not report the
// previous owner dead — the owner is its own process — and then
// reaches its checkpoint and unwinds. B's waiter must then acquire.
//
// One CPU makes the order exact: B's waiter, once woken, cannot run
// before A's thread has left the CPU at its checkpoint.
func TestDeathHooksWaitForLastLWP(t *testing.T) {
	sys := mt.NewSystem(mt.Options{NCPU: 1, LWPCreateCost: -1, KernelSwitchCost: -1})
	// shared names the semaphore in /shm; it runs on a thread, so it
	// panics instead of calling t.Fatal, and the process dies with
	// the message.
	shared := func(p *mt.Proc, tt *mt.Thread, count uint) (*mt.Sema, *usync.Var) {
		fd, err := p.Open(tt, "/shm", mt.OCreate|mt.ORdWr)
		if err != nil {
			panic(err)
		}
		va, err := p.Mmap(tt, 0, mt.PageSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, fd, 0)
		if err != nil {
			panic(err)
		}
		s, err := p.SharedSemaAt(tt, va, count)
		if err != nil {
			panic(err)
		}
		v, err := p.SharedVar(tt, va)
		if err != nil {
			panic(err)
		}
		return s, v
	}
	spawn := func(name string, body func(p *mt.Proc, tt *mt.Thread)) *mt.Proc {
		ch := make(chan *mt.Proc, 1)
		p, err := sys.Spawn(name, func(tt *mt.Thread, _ any) { body(<-ch, tt) }, nil, mt.ProcConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ch <- p
		return p
	}
	recv := func(ch <-chan struct{}, what string) {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	within := func(d time.Duration, cond func() bool) bool {
		for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if cond() {
				return true
			}
		}
		return cond()
	}

	var v *usync.Var
	named := make(chan struct{})
	acquired := make(chan error, 1)
	b := spawn("waiter", func(p *mt.Proc, tt *mt.Thread) {
		var s *mt.Sema
		s, v = shared(p, tt, 0)
		close(named)
		acquired <- s.PErr(tt)
		s.V(tt)
	})
	recv(named, "B to name the semaphore")
	if !within(10*time.Second, func() bool { return v.Waiters() == 1 }) {
		t.Fatal("B's waiter never slept on the semaphore")
	}

	held := make(chan struct{})
	release := make(chan struct{})
	dyingErr := make(chan error, 1)
	a := spawn("dying", func(p *mt.Proc, tt *mt.Thread) {
		s, _ := shared(p, tt, 1)
		if !s.TryP(tt) {
			t.Error("A's TryP found no unit")
		}
		close(held)
		<-release // killed here, in user code
		s.V(tt)
		dyingErr <- s.PErr(tt)
		tt.Checkpoint() // unwinds
	})
	recv(held, "A to take the unit")
	if err := a.Kill(mt.SIGKILL); err != nil {
		t.Fatal(err)
	}
	swept := func() bool {
		var mark uint64
		v.Atomically(func(w usync.Words) { mark = w.Load(2) })
		return mark == usync.RobustOwnerDead
	}
	if within(200*time.Millisecond, swept) {
		t.Error("the owner-dead sweep ran while a thread of the killed process still ran user code")
	}
	close(release)

	select {
	case err := <-dyingErr:
		if err != nil {
			t.Errorf("the killed process's own thread got %v from PErr", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("A's thread never ran on after its release")
	}
	select {
	case err := <-acquired:
		if err != nil && err != mt.ErrOwnerDead {
			t.Errorf("B's PErr = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("B's waiter never acquired the semaphore after A died")
	}
	for _, p := range []*mt.Proc{a, b} {
		select {
		case <-p.Process().Exited():
		case <-time.After(10 * time.Second):
			t.Fatalf("process %s never exited", p.Process().Name())
		}
	}
}
