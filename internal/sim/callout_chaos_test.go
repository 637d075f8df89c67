package sim_test

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
	"sunosmt/mt"
)

// TestChaosTimedKernelSleeps sweeps timed kernel sleeps under chaos —
// timer jitter, spurious wake-ups and injected EINTR at the default
// rates — and kills half the processes while their sleeps are queued:
// a two-pipe Poll with a deadline, SleepFor, a shared Sema.TimedP and a
// shared variable's SleepWhile with a timeout. Every kept process must
// finish its rounds, and once every process has exited the kernel's
// callout must be empty: no sleep outlives its LWP. 100 seeds, 20 with
// -short.
func TestChaosTimedKernelSleeps(t *testing.T) {
	n := 100
	if testing.Short() {
		n = 20
	}
	bodies := []struct {
		name string
		run  func(t *testing.T, p *mt.Proc, tt *mt.Thread, rounds int, progress *atomic.Int32)
	}{
		{"poll", pollRounds},
		{"shared", sharedRounds},
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sys := mt.NewSystem(mt.Options{NCPU: 2, Chaos: mt.NewChaos(seed), LWPCreateCost: -1, KernelSwitchCost: -1})
			var procs []*mt.Proc
			for _, killed := range []bool{false, true} {
				for _, b := range bodies {
					rounds := 12
					if killed {
						rounds = 1 << 20 // runs until the kill
					}
					progress := new(atomic.Int32)
					ch := make(chan *mt.Proc, 1)
					p, err := sys.Spawn(b.name, func(tt *mt.Thread, _ any) {
						b.run(t, <-ch, tt, rounds, progress)
					}, nil, mt.ProcConfig{})
					if err != nil {
						t.Fatal(err)
					}
					ch <- p
					procs = append(procs, p)
					if killed {
						go func() {
							for progress.Load() < 3 {
								time.Sleep(100 * time.Microsecond)
							}
							p.Kill(mt.SIGKILL)
						}()
					}
				}
			}
			for _, p := range procs {
				select {
				case <-p.Process().Exited():
				case <-time.After(30 * time.Second):
					t.Fatalf("process %s never exited", p.Process().Name())
				}
			}
			if n := sys.Kern.CalloutLen(); n != 0 {
				t.Errorf("callout holds %d sleeps after every process exited", n)
			}
		})
	}
}

// pollRounds: a writer thread SleepFors then writes one byte to the
// second of two pipes, rounds times; the main thread polls both with a
// 2 ms deadline and reads what is ready.
func pollRounds(t *testing.T, p *mt.Proc, tt *mt.Thread, rounds int, progress *atomic.Int32) {
	r1, _, err := p.Pipe(tt)
	if err != nil {
		t.Error(err)
		return
	}
	r2, w2, err := p.Pipe(tt)
	if err != nil {
		t.Error(err)
		return
	}
	w, err := tt.Runtime().Create(func(ct *mt.Thread, _ any) {
		for i := 0; i < rounds; i++ {
			p.Sleep(ct, 300*time.Microsecond) // EINTR only shortens it
			for {
				if _, err := p.Write(ct, w2, []byte{1}); !errors.Is(err, sim.ErrIntr) {
					break
				}
			}
		}
	}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
	if err != nil {
		t.Error(err)
		return
	}
	b := make([]byte, 1)
	for got := 0; got < rounds; {
		fds := []mt.PollFD{{FD: r1, Events: mt.PollIn}, {FD: r2, Events: mt.PollIn}}
		n, err := p.Poll(tt, fds, 2*time.Millisecond)
		switch {
		case errors.Is(err, sim.ErrIntr):
			continue
		case err != nil:
			t.Errorf("poll: %v", err)
			return
		case n == 0:
			continue
		}
		if fds[1].Revents&mt.PollIn == 0 {
			t.Errorf("poll = %d with revents %v, %v", n, fds[0].Revents, fds[1].Revents)
			return
		}
		if _, err := p.Read(tt, r2, b); err == nil {
			got++
			progress.Add(1)
		}
	}
	tt.Wait(w.ID())
}

// sharedRounds: a poster thread SleepFors then V's a shared semaphore,
// rounds times; the main thread takes each with 1 ms TimedPs, and
// before each round sleeps out a 200 µs SleepWhile on a shared variable
// whose condition always holds. No sleep here is indefinite, so no
// SIGWAITING grows the pool: the poster gets an LWP of its own.
func sharedRounds(t *testing.T, p *mt.Proc, tt *mt.Thread, rounds int, progress *atomic.Int32) {
	tt.Runtime().SetConcurrency(2)
	va, err := p.Mmap(tt, 0, mt.PageSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, -1, 0)
	if err != nil {
		t.Error(err)
		return
	}
	s, err := p.SharedSemaAt(tt, va, 0)
	if err != nil {
		t.Error(err)
		return
	}
	v, err := p.SharedVar(tt, va+64)
	if err != nil {
		t.Error(err)
		return
	}
	w, err := tt.Runtime().Create(func(ct *mt.Thread, _ any) {
		for i := 0; i < rounds; i++ {
			p.Sleep(ct, 300*time.Microsecond)
			s.V(ct)
		}
	}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
	if err != nil {
		t.Error(err)
		return
	}
	always := func(usync.Words) bool { return true }
	for taken := 0; taken < rounds; {
		v.SleepWhile(tt.LWP(), always, usync.SleepOpts{Interruptible: true, Timeout: 200 * time.Microsecond})
		switch err := s.TimedP(tt, time.Millisecond); {
		case err == nil:
			taken++
			progress.Add(1)
		case !errors.Is(err, mt.ErrTimedOut):
			t.Errorf("TimedP: %v", err)
			return
		}
	}
	tt.Wait(w.ID())
}
