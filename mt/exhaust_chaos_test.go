package mt

// Resource-exhaustion sweeps: the chaos source additionally injects
// allocation failures, LWP spawn failures, and stack carve failures
// (chaos.FaultConfig), on top of a process run with a real LWP rlimit
// and thread cap. The invariant is complete unwinding: every failed
// create must report EAGAIN and leave nothing behind — no leaked
// sleep-queue links, turnstiles, registered threads, or lock-graph
// edges — and the microstate accounting must stay exact. A failing
// seed replays with:
//
//	go test ./mt -run TestChaosExhaustion -chaos.seed=N

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/vm"
)

// faultOpts builds Options for an exhaustion sweep iteration: chaos at
// the default schedule-perturbation rates plus the resource-fault
// knobs, simulated path-length spins disabled for speed.
func faultOpts(ncpu int, seed uint64) Options {
	return Options{
		NCPU:             ncpu,
		Chaos:            NewFaultChaos(seed),
		LWPCreateCost:    -1,
		KernelSwitchCost: -1,
	}
}

// spawnFault spawns a process under fault injection. Spawn itself can
// fail with EAGAIN (the initial pool LWP is subject to spawn faults);
// each retry advances the chaos decision counters, so a retry is a
// genuinely different schedule, not a tight replay of the same
// failure. Non-EAGAIN failures are fatal.
func spawnFault(t *testing.T, sys *System, name string, cfg ProcConfig, body func(p *Proc, tt *Thread)) *Proc {
	t.Helper()
	for try := 0; try < 50; try++ {
		ch := make(chan *Proc, 1)
		p, err := sys.Spawn(name, func(tt *Thread, _ any) {
			body(<-ch, tt)
		}, nil, cfg)
		if err == nil {
			ch <- p
			return p
		}
		if !errors.Is(err, ErrAgain) {
			t.Fatalf("spawn: non-EAGAIN failure: %v", err)
		}
	}
	t.Fatal("spawn: EAGAIN persisted for 50 tries")
	return nil
}

// TestChaosExhaustionUnwind: a process with an LWP rlimit and a thread
// cap creates a mix of unbound, new-LWP, and bound threads under fault
// injection. Every failure must be EAGAIN; at quiesce nothing may be
// leaked and all accounting must balance.
func TestChaosExhaustionUnwind(t *testing.T) {
	const (
		lwpLimit   = 5
		maxThreads = 10
		attempts   = 24
	)
	var sweepFailures atomic.Int64
	sweep(t, func(t *testing.T, seed uint64) {
		sys := chaosSystem(t, faultOpts(2, seed))
		cfg := ProcConfig{LWPLimit: lwpLimit, MaxThreads: maxThreads}
		var mu Mutex
		counter := 0
		p := spawnFault(t, sys, "exhaust", cfg, func(p *Proc, tt *Thread) {
			rt := tt.Runtime()
			var workers []*Thread
			failed := 0
			for i := 0; i < attempts; i++ {
				flags := ThreadWait
				switch i % 3 {
				case 1:
					flags |= ThreadNewLWP
				case 2:
					if i%2 == 0 {
						flags |= ThreadBindLWP
					}
				}
				w, err := rt.Create(func(ct *Thread, _ any) {
					mu.Enter(ct)
					counter++
					ct.Checkpoint()
					mu.Exit(ct)
					ct.Yield()
				}, nil, CreateOpts{Flags: flags})
				if err != nil {
					if !errors.Is(err, ErrAgain) {
						t.Errorf("create %d: non-EAGAIN failure: %v", i, err)
						return
					}
					failed++
					continue
				}
				workers = append(workers, w)
			}
			for _, w := range workers {
				tt.Wait(w.ID())
			}
			sweepFailures.Add(int64(failed))

			// Quiesce invariants: the failures unwound completely.
			if counter != len(workers) {
				t.Errorf("counter = %d, want %d (threads lost or duplicated)", counter, len(workers))
			}
			if got := rt.NumThreads(); got != 1 {
				t.Errorf("%d threads registered after quiesce, want 1 (main)", got)
			}
			if got := rt.RunnableThreads(); got != 0 {
				t.Errorf("%d runnable threads after quiesce", got)
			}
			if lw := rt.LockWaiters(); len(lw) != 0 {
				t.Errorf("leaked lock-graph edges after quiesce: %v", lw)
			}
			if sq, ts := rt.ResidualLinks(); sq != 0 || ts != 0 {
				t.Errorf("leaked links after quiesce: %d sleepq, %d turnstiles", sq, ts)
			}
			if n := p.Process().NumLWPs(); n > lwpLimit {
				t.Errorf("%d live LWPs, rlimit is %d", n, lwpLimit)
			}
			// Microstate accounting stays exact through failed
			// creates (uncreate closes the accounting interval).
			if ms := tt.Microstates(); ms.Sum() != ms.Total {
				t.Errorf("main thread microstates: Sum %v != Total %v", ms.Sum(), ms.Total)
			}
			for _, w := range workers {
				if ms := w.Microstates(); ms.Sum() != ms.Total || !ms.Dead {
					t.Errorf("worker %d microstates: Sum %v Total %v Dead %v", w.ID(), ms.Sum(), ms.Total, ms.Dead)
				}
			}
			for _, l := range p.Process().LWPs() {
				if u := l.Microstates(); u.Sum() != u.Total {
					t.Errorf("lwp %d microstates: Sum %v != Total %v", l.ID(), u.Sum(), u.Total)
				}
			}
		})
		waitProc(t, p)
	})
	// Across a full sweep the fault knobs must actually have fired;
	// a single-seed replay may legitimately see none.
	if *chaosSeedFlag == 0 {
		t.Cleanup(func() {
			if sweepFailures.Load() == 0 {
				t.Error("no create ever failed across the sweep: fault injection is not firing")
			}
		})
	}
}

// TestChaosExhaustionAddressSpace: mmap/stack traffic against a byte
// rlimit under allocation faults. Refused mappings must be ENOMEM and
// must leave the address space untouched: the mapped-byte gauge never
// exceeds the limit and returns exactly to its starting point after
// everything is unmapped. A second process does the same against the
// committed-byte rlimit.
func TestChaosExhaustionAddressSpace(t *testing.T) {
	const (
		asLimit     = 512 << 10
		mapLen      = 64 << 10
		commitLimit = 64 << 10 // a handful of stack chunks (at most 16 KiB each)
	)
	sweep(t, func(t *testing.T, seed uint64) {
		sys := chaosSystem(t, faultOpts(2, seed))
		cfg := ProcConfig{ASLimitBytes: asLimit}
		p := spawnFault(t, sys, "exhaust-vm", cfg, func(p *Proc, tt *Thread) {
			base := p.AS.Mapped()
			var vas []int64
			var stacks []int64
			for i := 0; i < 12; i++ {
				va, err := p.Mmap(tt, 0, mapLen, vm.ProtRead|vm.ProtWrite, vm.MapPrivate, -1, 0)
				if err != nil {
					if !errors.Is(err, ErrNoMem) {
						t.Errorf("mmap %d: non-ENOMEM failure: %v", i, err)
						return
					}
				} else {
					vas = append(vas, va)
				}
				if i%3 == 0 {
					sb, err := p.MapStack(tt, 32<<10)
					if err != nil {
						if !errors.Is(err, ErrNoMem) {
							t.Errorf("mapstack %d: non-ENOMEM failure: %v", i, err)
							return
						}
					} else {
						stacks = append(stacks, sb)
					}
				}
				if m := p.AS.Mapped(); m > asLimit {
					t.Errorf("mapped %d bytes exceeds limit %d", m, asLimit)
					return
				}
			}
			for _, va := range vas {
				if err := p.Munmap(tt, va, mapLen); err != nil {
					t.Errorf("munmap %#x: %v", va, err)
				}
			}
			for _, sb := range stacks {
				if err := p.UnmapStack(tt, sb, 32<<10); err != nil {
					t.Errorf("unmapstack %#x: %v", sb, err)
				}
			}
			if m := p.AS.Mapped(); m != base {
				t.Errorf("mapped %d bytes after full unmap, want %d (accounting leak)", m, base)
			}
		})
		waitProc(t, p)

		// The committed-byte rlimit, same seed: reservations sail past
		// it, the first touch of a lazily committed stack past it is
		// ENOMEM and commits nothing, a create refused by an injected
		// fault gives back every byte it reserved, and threads created
		// at the limit still run — the process survives.
		cfg = ProcConfig{CommitLimitBytes: commitLimit}
		p = spawnFault(t, sys, "exhaust-commit", cfg, func(p *Proc, tt *Thread) {
			var stacks []int64
			refused := 0
			for i := 0; i < 32 && refused == 0; i++ {
				sb, err := p.MapStack(tt, 32<<10)
				if err != nil {
					if !errors.Is(err, ErrNoMem) {
						t.Errorf("mapstack %d: non-ENOMEM failure: %v", i, err)
					}
					continue // injected carve fault
				}
				stacks = append(stacks, sb)
				before := p.AS.Committed()
				if err := p.AS.TouchStack(sb, 32<<10); err != nil {
					refused++
					if !errors.Is(err, ErrNoMem) {
						t.Errorf("touch %d: non-ENOMEM failure: %v", i, err)
					}
					if c := p.AS.Committed(); c != before {
						t.Errorf("refused touch committed %d bytes", c-before)
					}
				}
				if c := p.AS.Committed(); c > commitLimit {
					t.Errorf("committed %d bytes exceeds limit %d", c, commitLimit)
				}
			}
			if refused == 0 {
				t.Errorf("%d stacks touched under a %d-byte commit limit and none was refused", len(stacks), commitLimit)
			}
			var ran atomic.Int64
			var ids []ThreadID
			for i := 0; i < 4; i++ {
				reserved := p.AS.Reserved()
				c, err := tt.Runtime().Create(func(*Thread, any) { ran.Add(1) }, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					if !errors.Is(err, ErrAgain) {
						t.Errorf("create %d: non-EAGAIN failure: %v", i, err)
					}
					if r := p.AS.Reserved(); r != reserved {
						t.Errorf("refused create left %d bytes reserved", r-reserved)
					}
					continue
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				tt.Wait(id)
			}
			if int(ran.Load()) != len(ids) {
				t.Errorf("%d of %d threads created at the commit limit ran", ran.Load(), len(ids))
			}
			for _, sb := range stacks {
				if err := p.UnmapStack(tt, sb, 32<<10); err != nil {
					t.Errorf("unmapstack %#x: %v", sb, err)
				}
			}
		})
		waitProc(t, p)
	})
}

// TestPoolGrowthBackoff: with the LWP rlimit blocking SIGWAITING pool
// growth, the runtime must back off instead of spinning — a bounded
// failure count while the limit holds — and must recover (grow the
// pool) once the limit is lifted, driven by its own retry timer.
func TestPoolGrowthBackoff(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	ready := make(chan *Proc, 1)
	p := spawn(t, sys, "backoff", ProcConfig{LWPLimit: 2, MaxAutoLWPs: 8}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		rfd, _, err := p.Pipe(tt)
		if err != nil {
			t.Error(err)
			return
		}
		var ids []ThreadID
		for i := 0; i < 4; i++ {
			c, err := rt.Create(func(ct *Thread, _ any) {
				// Blocks in the kernel forever: the release below is
				// SIGKILL, not a write.
				buf := make([]byte, 1)
				p.Read(ct, rfd, buf)
			}, nil, CreateOpts{Flags: ThreadWait})
			if err != nil {
				t.Errorf("create reader %d: %v", i, err)
				return
			}
			ids = append(ids, c.ID())
		}
		ready <- p
		for _, id := range ids {
			tt.Wait(id)
		}
	})
	<-ready

	// Phase 1: growth hits the rlimit. Failures must appear (the
	// backoff path ran) and stay bounded (no tight retry loop): at
	// 1ms..128ms exponential backoff even a generous window sees only
	// a handful of attempts.
	deadline := time.Now().Add(10 * time.Second)
	var failures uint64
	for {
		failures, _, _ = p.RT.GrowthStats()
		if failures >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pool growth never failed against the rlimit")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	failures, _, backoff := p.RT.GrowthStats()
	if backoff == 0 {
		t.Error("no backoff recorded after growth failure")
	}
	if failures > 20 {
		t.Errorf("%d growth failures in ~100ms: backoff is not damping the retry loop", failures)
	}

	// Phase 2: lift the limit; the armed retry must grow the pool
	// without any new SIGWAITING edge.
	p.Process().SetLWPLimit(0)
	deadline = time.Now().Add(10 * time.Second)
	for {
		if p.RT.PoolSize() >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool did not recover after lifting the rlimit (size %d)", p.RT.PoolSize())
		}
		time.Sleep(time.Millisecond)
	}
	p.Kill(SIGKILL)
	waitProc(t, p)
}

// TestWatchdogHealth: the deadman watchdog flags a thread blocked on a
// mutex past the deadline (with its wait-for edge) and an LWP pinned
// on-CPU, and the report clears once they move on.
func TestWatchdogHealth(t *testing.T) {
	sys := NewSystem(Options{NCPU: 2})
	hold := make(chan struct{})
	var mid ThreadID
	p := spawn(t, sys, "watchdog", ProcConfig{WatchdogDeadline: 5 * time.Millisecond}, func(p *Proc, tt *Thread) {
		rt := tt.Runtime()
		var mu Mutex
		mu.Enter(tt)
		w, err := rt.Create(func(ct *Thread, _ any) {
			mu.Enter(ct)
			mu.Exit(ct)
		}, nil, CreateOpts{Flags: ThreadWait})
		if err != nil {
			t.Error(err)
			return
		}
		mid = w.ID()
		// Yield until the waiter has observably parked on the mutex:
		// SIGWAITING will not grow the pool while the bound spinner
		// below holds a CPU, so the waiter must get its LWP time
		// before the main thread goes to sleep.
		for w.State() != ThreadSleeping {
			tt.Yield()
		}
		spin, err := rt.Create(func(ct *Thread, _ any) {
			// A goroutine that stops hitting checkpoints while
			// holding its LWP: the kernel sees the LWP on-CPU the
			// whole time.
			<-hold
		}, nil, CreateOpts{Flags: ThreadWait | ThreadBindLWP})
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(tt, 50*time.Millisecond)

		rep := p.Health(0)
		if rep.Deadline != 5*time.Millisecond {
			t.Errorf("deadline = %v, want 5ms", rep.Deadline)
		}
		foundMutexWaiter := false
		for _, th := range rep.StuckThreads {
			if th.ID == mid && th.State == MSLock && strings.HasPrefix(th.BlockedOn, "mutex") {
				foundMutexWaiter = true
			}
		}
		if !foundMutexWaiter {
			t.Errorf("mutex waiter %d not flagged: %+v", mid, rep.StuckThreads)
		}
		if len(rep.StuckLWPs) == 0 {
			t.Errorf("pinned LWP not flagged: %+v", rep.StuckLWPs)
		} else if rep.StuckLWPs[0].OnCPUFor <= 5*time.Millisecond {
			t.Errorf("flagged LWP on-CPU for %v, want > deadline", rep.StuckLWPs[0].OnCPUFor)
		}

		close(hold)
		mu.Exit(tt)
		tt.Wait(mid)
		tt.Wait(spin.ID())
		if rep := p.Health(0); !rep.Healthy() {
			t.Errorf("report still unhealthy after release: %+v", rep)
		}
	})
	waitProc(t, p)
}
