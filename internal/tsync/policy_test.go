package tsync

import (
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
	"sunosmt/internal/trace"
	"sunosmt/internal/usync"
)

// TestPolicyMutualExclusion is the shared conformance suite: every
// lock policy must provide mutual exclusion under oversubscription,
// including with the owner descheduled mid-section (the Yield inside
// the critical section forces the park/hand-off paths; a policy that
// only ever grants via its spin phase is not exercised otherwise).
func TestPolicyMutualExclusion(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			w := newWorld(2)
			var mu Mutex
			mu.InitPolicy(pol)
			var counter, holders int
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				r := self.Runtime()
				r.SetConcurrency(2)
				var ids []core.ThreadID
				for i := 0; i < 4; i++ {
					c, _ := r.Create(func(c *core.Thread, _ any) {
						for j := 0; j < 200; j++ {
							mu.Enter(c)
							holders++
							if holders != 1 {
								t.Errorf("%d threads inside the critical section", holders)
							}
							counter++
							if j%16 == 0 {
								c.Yield() // deschedule while holding
							}
							holders--
							mu.Exit(c)
						}
					}, nil, core.CreateOpts{Flags: core.ThreadWait})
					ids = append(ids, c.ID())
				}
				for _, id := range ids {
					self.Wait(id)
				}
			})
			waitRT(t, m)
			if counter != 800 {
				t.Fatalf("policy %v: counter = %d, want 800 (lost updates)", pol, counter)
			}
			if got := mu.LockPolicy(); got != pol.String() {
				t.Fatalf("LockPolicy() = %q, want %q", got, pol)
			}
		})
	}
}

// TestPolicyProcessDefault pins the resolution chain: a zero-value
// mutex in a process whose Config carries a LockPolicy uses that
// policy, and reports it through LockPolicy() once pinned.
func TestPolicyProcessDefault(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			w := newWorld(2)
			var mu Mutex // zero value: inherits the process default
			var counter int
			m := w.boot(t, "p", core.Config{LockPolicy: int(pol)}, func(self *core.Thread, _ any) {
				r := self.Runtime()
				r.SetConcurrency(2)
				var ids []core.ThreadID
				for i := 0; i < 3; i++ {
					c, _ := r.Create(func(c *core.Thread, _ any) {
						for j := 0; j < 150; j++ {
							mu.Enter(c)
							counter++
							if j%32 == 0 {
								c.Yield()
							}
							mu.Exit(c)
						}
					}, nil, core.CreateOpts{Flags: core.ThreadWait})
					ids = append(ids, c.ID())
				}
				for _, id := range ids {
					self.Wait(id)
				}
			})
			waitRT(t, m)
			if counter != 450 {
				t.Fatalf("policy %v: counter = %d, want 450", pol, counter)
			}
			if got := mu.LockPolicy(); got != pol.String() {
				t.Fatalf("LockPolicy() = %q, want %q (process default not inherited)", got, pol)
			}
		})
	}
}

// TestHandOffFIFOGrantOrder pins the defining property of the
// hand-off family: ticket and queue locks grant strictly in arrival
// order, even when later waiters have higher priority (the barging
// policies would wake the best waiter instead). Waiters are enqueued
// one at a time on one LWP — each runs to its blocking Enter before
// the next is created — with priorities increasing in arrival order,
// so a priority-ordered discipline would grant in exactly the reverse
// of the order this test demands.
func TestHandOffFIFOGrantOrder(t *testing.T) {
	const waiters = 5
	for _, pol := range []Policy{PolicyTicket, PolicyQueue} {
		t.Run(pol.String(), func(t *testing.T) {
			w := newWorld(1)
			var mu Mutex
			mu.InitPolicy(pol)
			var order []int
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				r := self.Runtime()
				mu.Enter(self)
				var ids []core.ThreadID
				for i := 0; i < waiters; i++ {
					i := i
					c, _ := r.Create(func(c *core.Thread, _ any) {
						mu.Enter(c)
						order = append(order, i)
						mu.Exit(c)
					}, nil, core.CreateOpts{Flags: core.ThreadWait, Priority: 1 + i})
					ids = append(ids, c.ID())
					// One full rotation of the run queue: the new waiter
					// reaches its Enter and queues before the next exists.
					for k := 0; k < 4; k++ {
						self.Yield()
					}
				}
				mu.Exit(self) // hand-off chain starts here
				for _, id := range ids {
					self.Wait(id)
				}
			})
			waitRT(t, m)
			if len(order) != waiters {
				t.Fatalf("order = %v, want %d grants", order, waiters)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("policy %v granted out of arrival order: %v", pol, order)
				}
			}
		})
	}
}

// TestPolicyTimedEnter runs the timed acquisition through every
// policy: a held lock times out with ErrTimedOut (and the expired
// waiter is cleanly dequeued — a later Exit must not hand the lock to
// it), a free lock succeeds.
func TestPolicyTimedEnter(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol.String(), func(t *testing.T) {
			w := newWorld(2)
			var mu Mutex
			mu.InitPolicy(pol)
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				r := self.Runtime()
				r.SetConcurrency(2)
				mu.Enter(self)
				c, _ := r.Create(func(c *core.Thread, _ any) {
					if err := mu.TimedEnter(c, 2*time.Millisecond); err != ErrTimedOut {
						t.Errorf("TimedEnter on held lock = %v, want ErrTimedOut", err)
					}
				}, nil, core.CreateOpts{Flags: core.ThreadWait})
				self.Wait(c.ID())
				mu.Exit(self)
				// The timed-out waiter must be gone from the queue: a
				// fresh acquisition succeeds immediately.
				if err := mu.TimedEnter(self, time.Millisecond); err != nil {
					t.Errorf("TimedEnter on free lock = %v", err)
				}
				mu.Exit(self)
			})
			waitRT(t, m)
		})
	}
}

// TestAdaptiveSpinOwnerChangeReset is the regression test for the
// adaptive-spin accounting bug, aimed at the one spin budget every
// discipline shares. Under the owner-on-CPU rule the budget is charged
// per observed owner, so a waiter that watched owner A for the full
// cap gets a fresh budget when it observes the lock held by B — the
// new owner may well be on CPU and about to release. Before the fix
// the counter kept accumulating across owner changes and a long-lived
// waiter degraded to park-only. The fixed rule bets on the hold time
// alone: its budget is per contention round whoever holds the lock.
func TestAdaptiveSpinOwnerChangeReset(t *testing.T) {
	ownerA, ownerB := new(core.Thread), new(core.Thread)
	exhaust := func(s *spinBudget, dp *discipline, owner *core.Thread, from int) {
		t.Helper()
		for i := from; i < dp.spinCap; i++ {
			if !s.take(dp, owner) {
				t.Fatalf("budget exhausted after %d spins, cap is %d", i, dp.spinCap)
			}
		}
		if s.take(dp, owner) {
			t.Fatal("budget not exhausted at cap for an unchanged owner")
		}
	}

	adaptive := &disciplines[PolicyAdaptive]
	var s spinBudget
	exhaust(&s, adaptive, ownerA, 0)
	if !s.take(adaptive, ownerB) {
		t.Fatal("owner change did not reset the spin budget")
	}
	exhaust(&s, adaptive, ownerB, 1)
	if !s.take(adaptive, ownerA) {
		t.Fatal("changing back to a previous owner did not reset the budget")
	}

	fixed := &disciplines[PolicyParkingLot]
	s = spinBudget{}
	exhaust(&s, fixed, ownerA, 0)
	if s.take(fixed, ownerB) {
		t.Fatal("the fixed spin rule reset its budget on an owner change")
	}

	for _, pol := range []Policy{PolicyTicket, PolicyQueue} {
		if s = (spinBudget{}); s.take(&disciplines[pol], ownerA) {
			t.Fatalf("policy %v spins before queueing; hand-off waiters queue at once", pol)
		}
	}
}

// TestPolicyOutOfRangeIsAdaptive: a Policy value outside the table —
// from either level of the knob — runs adaptive and says so, instead
// of running adaptive while reporting "policy?".
func TestPolicyOutOfRangeIsAdaptive(t *testing.T) {
	const bogus = Policy(9)
	w := newWorld(1)
	var perLock, perProc Mutex
	perLock.InitPolicy(bogus)
	if got := perLock.LockPolicy(); got != "adaptive" {
		t.Errorf("InitPolicy(%d): LockPolicy() = %q before use, want adaptive", bogus, got)
	}
	m := w.boot(t, "p", core.Config{LockPolicy: int(bogus)}, func(self *core.Thread, _ any) {
		for _, mu := range []*Mutex{&perLock, &perProc} {
			mu.Enter(self)
			mu.Exit(self)
		}
	})
	waitRT(t, m)
	for name, mu := range map[string]*Mutex{"per-lock": &perLock, "per-process": &perProc} {
		if got := mu.LockPolicy(); got != "adaptive" {
			t.Errorf("%s policy %d: LockPolicy() = %q after use, want adaptive", name, bogus, got)
		}
	}
}

// queuedOn reports how many threads are queued on mu.
func queuedOn(mu *Mutex) int {
	mu.mu.Lock()
	defer mu.mu.Unlock()
	return mu.waiters.len()
}

// TestParkingLotEventualFairness: on one LWP a releaser that re-takes
// the lock before yielding always beats the waiter its release woke —
// the barging window — so under a pure barging policy the waiter below
// would starve. Parking-lot's rule is that the 64th release hands the
// lock to the parked waiter instead, with no window to barge through.
func TestParkingLotEventualFairness(t *testing.T) {
	period := int(disciplines[PolicyParkingLot].handOffEvery)
	w := newWorld(1)
	var mu Mutex
	mu.InitPolicy(PolicyParkingLot)
	granted := false
	m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
		mu.Enter(self)
		c, _ := self.Runtime().Create(func(c *core.Thread, _ any) {
			mu.Enter(c)
			granted = true
			mu.Exit(c)
		}, nil, core.CreateOpts{Flags: core.ThreadWait})
		for release := 1; release <= period; release++ {
			// Let the waiter burn its spin budget and park.
			for i := 0; queuedOn(&mu) == 0; i++ {
				if i > 4*disciplines[PolicyParkingLot].spinCap {
					t.Errorf("release %d: the waiter never parked", release)
					return
				}
				self.Yield()
			}
			mu.Exit(self)
			barged := mu.TryEnter(self)
			if release < period && !barged {
				t.Errorf("release %d was a hand-off; only release %d should be", release, period)
				return
			}
			if release == period && barged {
				t.Errorf("release %d left the lock open to a barger with a waiter parked", period)
			}
		}
		if granted {
			t.Error("the waiter ran its critical section before it was handed the lock")
		}
		self.Wait(c.ID())
	})
	waitRT(t, m)
	if !granted {
		t.Fatal("the parked waiter never got the lock")
	}
}

// TestQueueLocalSpinAvoidsPark: a queue-policy waiter whose grant
// arrives inside its local-spin window takes the lock without parking
// — the event rings hold no EvThreadPark for it at all — where the
// same schedule under ticket, which has no window, parks once.
func TestQueueLocalSpinAvoidsPark(t *testing.T) {
	for pol, wantParks := range map[Policy]int{PolicyQueue: 0, PolicyTicket: 1} {
		t.Run(pol.String(), func(t *testing.T) {
			k := sim.NewKernel(sim.Config{NCPU: 1, EventRing: 256})
			w := &world{k: k, reg: usync.NewRegistry(k)}
			var mu Mutex
			mu.InitPolicy(pol)
			var waiter core.ThreadID
			m := w.boot(t, "p", core.Config{}, func(self *core.Thread, _ any) {
				mu.Enter(self)
				c, _ := self.Runtime().Create(func(c *core.Thread, _ any) {
					mu.Enter(c)
					mu.Exit(c)
				}, nil, core.CreateOpts{Flags: core.ThreadWait})
				waiter = c.ID()
				// Run the waiter until it has queued, and a few probes
				// into the window (ticket: until it has parked).
				for i := 0; i < 4 || queuedOn(&mu) == 0; i++ {
					self.Yield()
				}
				mu.Exit(self) // the hand-off
				self.Wait(c.ID())
			})
			waitRT(t, m)
			parks := 0
			for _, rec := range k.Rings().Kinds(trace.EvThreadPark) {
				if rec.TID == int32(waiter) {
					parks++
				}
			}
			if parks != wantParks {
				t.Fatalf("policy %v: the waiter parked %d times, want %d", pol, parks, wantParks)
			}
		})
	}
}
