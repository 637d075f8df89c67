package sim

import (
	"testing"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/ktime"
	"sunosmt/internal/trace"
)

// Dispatcher conformance suite: white-box, table-driven checks of the
// dispatch queue and the pick, preemption and re-level policy.
// Everything runs single-threaded under k.mu with hand-built CPU
// occupancy, so each case is a deterministic statement about policy,
// not a race against real animator goroutines.

func dispKernel(ncpu int) (*Kernel, *Process) {
	k := NewKernel(Config{NCPU: ncpu, LWPCreateCost: -1, KernelSwitchCost: -1})
	p := k.NewProcess("dispq", nil)
	return k, p
}

// occupyAll puts one filler LWP on every CPU directly, so LWPs made
// runnable afterwards stay queued.
func occupyAll(k *Kernel, p *Process) {
	k.mu.Lock()
	for _, c := range k.cpus {
		l := k.newLWPLocked(p, ClassTS, 0, k.clock.Now())
		k.setLWPStateLocked(l, k.clock.Now(), LWPRunnable)
		k.assignLocked(l, c, k.clock.Now())
	}
	k.mu.Unlock()
}

// queue makes a runnable LWP, bound to CPU bind unless bind < 0, that
// stays queued because every CPU is occupied.
func queue(t *testing.T, k *Kernel, p *Process, bind int, class Class, prio int) *LWP {
	t.Helper()
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.newLWPLocked(p, class, prio, k.clock.Now())
	if bind >= 0 {
		l.boundCPU = k.cpus[bind]
	}
	k.makeRunnableLocked(l, k.clock.Now())
	if !l.rq.Queued() {
		t.Fatalf("lwp was dispatched, want it queued")
	}
	return l
}

// TestPriocntlRequeues checks the remove-modify-push discipline: a
// class or priority change on a queued LWP moves it to its new level
// immediately.
func TestPriocntlRequeues(t *testing.T) {
	k, p := dispKernel(2)
	occupyAll(k, p)
	a := queue(t, k, p, -1, ClassTS, 30)
	b := queue(t, k, p, -1, ClassTS, 30)
	if err := k.Priocntl(b, ClassRT, 10); err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if !b.rq.Queued() {
		t.Fatalf("b not queued after priocntl")
	}
	if b.rq.Level() != rtMinGlobal+10 {
		t.Fatalf("b at level %d, want %d", b.rq.Level(), rtMinGlobal+10)
	}
	if a.rq.Level() != 30 {
		t.Fatalf("a moved to level %d", a.rq.Level())
	}
	// b now outranks a: it must be the pick.
	c := k.cpus[1]
	c.lwp = nil
	if l := k.pickForLocked(c); l != b {
		t.Fatalf("pick after priocntl = %v, want the RT lwp", l)
	}
}

// TestBindExcludesOtherCPUs checks that a hard CPU binding hides a
// queued LWP from every other CPU: a free CPU passes over it, even when
// it outranks everything else queued, and goes idle when nothing else
// is.
func TestBindExcludesOtherCPUs(t *testing.T) {
	t.Run("other-cpu-passes-over", func(t *testing.T) {
		k, p := dispKernel(2)
		occupyAll(k, p)
		bound := queue(t, k, p, 1, ClassTS, 50)
		free := queue(t, k, p, -1, ClassTS, 10)
		k.mu.Lock()
		defer k.mu.Unlock()
		c0 := k.cpus[0]
		c0.lwp = nil // free the CPU without rescheduling
		if got := k.pickForLocked(c0); got != free {
			t.Fatalf("cpu 0 picked %v, want the unbound lwp", got)
		}
		if got := k.pickForLocked(c0); got != nil {
			t.Fatalf("cpu 0 took the lwp bound to cpu 1: %v", got)
		}
		c1 := k.cpus[1]
		c1.lwp = nil
		if got := k.pickForLocked(c1); got != bound {
			t.Fatalf("cpu 1 picked %v, want the lwp bound to it", got)
		}
	})
}

// TestPreemptAsksWhoCanRunHere: an LWP queued for CPU 0 alone never
// preempts CPU 1's LWP — preempting it would requeue it only to re-pick
// it, since nothing queued may run on CPU 1. An RT one still flags CPU
// 0's LWP for preemption; a TS one does not stop CPU 1's time slice
// from running on past its end.
func TestPreemptAsksWhoCanRunHere(t *testing.T) {
	cases := []struct {
		name  string
		slice time.Duration
		class Class
		prio  int
	}{
		{"higher-priority", 0, ClassRT, 10},
		{"slice-expired", 10 * time.Millisecond, ClassTS, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := ktime.NewManual()
			k := NewKernel(Config{NCPU: 2, Clock: clk, TimeSlice: tc.slice, EventRing: 256,
				LWPCreateCost: -1, KernelSwitchCost: -1})
			p := k.NewProcess("preempt", nil)
			occupyAll(k, p)
			queue(t, k, p, 0, tc.class, tc.prio)
			clk.Advance(2 * tc.slice)
			k.mu.Lock()
			on0, on1 := k.cpus[0].lwp, k.cpus[1].lwp
			flagged0, flagged1 := on0.preempt, on1.preempt
			k.checkpointLocked(on1, k.clock.Now())
			k.mu.Unlock()
			if want := tc.class == ClassRT; flagged0 != want {
				t.Errorf("the LWP on cpu 0 flagged = %v, want %v", flagged0, want)
			}
			if flagged1 {
				t.Error("the LWP on cpu 1 is flagged for an LWP that cannot run there")
			}
			recs, _ := k.Rings().Snapshot()
			for _, r := range recs {
				if r.Kind == trace.EvPreempt && r.CPU == 1 {
					t.Errorf("cpu 1's LWP was preempted: %v", r)
				}
			}
		})
	}
}

// TestClassSemantics pins the class priority laws: TS priorities sink
// with accumulated usage down to the band floor, RT and SYS are fixed
// regardless of usage, and RT always outranks any TS priority.
func TestClassSemantics(t *testing.T) {
	cases := []struct {
		name  string
		class Class
		prio  int
		usage time.Duration
		want  int
	}{
		{"ts-fresh", ClassTS, 50, 0, 50},
		{"ts-aged", ClassTS, 50, 50 * time.Millisecond, 40},
		{"ts-floor", ClassTS, 5, time.Second, 0},
		{"sys-fixed", ClassSYS, 20, time.Second, 80},
		{"rt-fixed", ClassRT, 10, time.Second, 110},
		{"rt-above-every-ts", ClassRT, 0, 0, 100},
	}
	k, p := dispKernel(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k.mu.Lock()
			l := k.newLWPLocked(p, tc.class, tc.prio, k.clock.Now())
			l.cpuUsage = tc.usage
			got := l.globalPrio()
			k.mu.Unlock()
			if got != tc.want {
				t.Fatalf("globalPrio = %d, want %d", got, tc.want)
			}
			if tc.class == ClassRT && got <= tsMaxGlobal {
				t.Fatalf("RT priority %d not above the TS band", got)
			}
		})
	}
}

// TestRelevelOnPeriod drives the virtual clock past the re-level
// period and checks that a queued TS LWP whose decayed usage changed
// its priority moves to its current level, and to the FIFO tail there.
func TestRelevelOnPeriod(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 2, Clock: clk, LWPCreateCost: -1, KernelSwitchCost: -1})
	p := k.NewProcess("relevel", nil)
	occupyAll(k, p)
	aged := queue(t, k, p, -1, ClassTS, 40)
	other := queue(t, k, p, -1, ClassTS, 30)
	k.mu.Lock()
	// Age the LWP after it was queued, so its queue level is stale
	// until the re-level moves it.
	aged.cpuUsage = 50 * time.Millisecond // 10 levels of penalty
	staleLvl := aged.rq.Level()
	k.maybeRelevelLocked(k.clock.Now())
	early := aged.rq.Level()
	clk.Advance(relevelPeriod + time.Millisecond)
	k.maybeRelevelLocked(k.clock.Now())
	newLvl := aged.rq.Level()
	c0 := k.cpus[0]
	c0.lwp = nil
	first := k.pickForLocked(c0)
	k.mu.Unlock()

	if early != staleLvl {
		t.Errorf("re-levelled before its period: level %d, want %d", early, staleLvl)
	}
	if newLvl != staleLvl-10 {
		t.Errorf("aged lwp at level %d, want %d", newLvl, staleLvl-10)
	}
	if first != other {
		t.Errorf("picked %v first, want the LWP the aged one sank below", first)
	}
}

// TestRelevelZeroAlloc: the re-level moves each stale LWP as its walk
// finds it, so a period that finds one makes no host allocation.
func TestRelevelZeroAlloc(t *testing.T) {
	k, p := dispKernel(1)
	occupyAll(k, p)
	aged := queue(t, k, p, -1, ClassTS, 40)
	queue(t, k, p, -1, ClassTS, 30)
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.clock.Now()
	allocs := testing.AllocsPerRun(100, func() {
		// Age the LWP, or let it recover, so its level is stale.
		if aged.cpuUsage == 0 {
			aged.cpuUsage = 50 * time.Millisecond
		} else {
			aged.cpuUsage = 0
		}
		now += relevelPeriod
		k.maybeRelevelLocked(now)
		if aged.rq.Level() != aged.globalPrio() {
			t.Fatalf("aged lwp at level %d, want %d", aged.rq.Level(), aged.globalPrio())
		}
	})
	if allocs != 0 {
		t.Errorf("re-level made %v allocations, want 0", allocs)
	}
}

// TestDispatchDeterminism replays a scripted scheduling workload twice
// under the same chaos seed and requires bit-identical event-ring
// journals — chaos pick reorders, bindings, migrations and re-level
// timing and all. The script runs single-threaded under the kernel lock
// on a manual clock, so the only nondeterminism available is the chaos
// source itself.
func TestDispatchDeterminism(t *testing.T) {
	run := func(seed uint64) ([]trace.Record, int) {
		clk := ktime.NewManual()
		src := chaos.New(chaos.DefaultConfig(seed))
		src.StartRecording()
		k := NewKernel(Config{
			NCPU: 4, Clock: clk, EventRing: 1024,
			LWPCreateCost: -1, KernelSwitchCost: -1,
			Chaos: src,
		})
		p := k.NewProcess("det", nil)
		var lwps []*LWP
		k.mu.Lock()
		for i := 0; i < 12; i++ {
			l := k.newLWPLocked(p, ClassTS, 20+(i*7)%40, k.clock.Now())
			if i%4 == 0 {
				l.class = ClassRT
				l.userPrio = i
			}
			lwps = append(lwps, l)
			k.makeRunnableLocked(l, k.clock.Now())
		}
		k.mu.Unlock()
		for step := 0; step < 200; step++ {
			clk.Advance(time.Millisecond)
			k.mu.Lock()
			l := lwps[step%len(lwps)]
			switch {
			case l.cpu != nil:
				// Preempt it back to the queue.
				k.releaseCPULocked(l, k.clock.Now(), LWPRunnable)
				k.enqueueLocked(l)
				k.scheduleLocked(k.clock.Now())
			case l.rq.Queued() && step%3 == 0:
				// Bind it to a CPU, or unbind it, as BindCPU would.
				if l.boundCPU == nil {
					l.boundCPU = k.cpus[(step/3)%4]
				} else {
					l.boundCPU = nil
				}
				k.scheduleLocked(k.clock.Now())
			}
			k.mu.Unlock()
		}
		recs, _ := k.Rings().Snapshot()
		reorders := 0
		for _, d := range src.Schedule().Decisions {
			if d.Site == "sim.pick" && d.Value >= 0 {
				reorders++
			}
		}
		return recs, reorders
	}

	a, reorders := run(42)
	b, _ := run(42)
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("journal lengths differ: %d vs %d", len(a), len(b))
	}
	migrations := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journals diverge at %d:\n  %v\n  %v", i, a[i], b[i])
		}
		if a[i].Kind == trace.EvMigrate {
			migrations++
		}
	}
	if migrations == 0 || reorders == 0 {
		t.Errorf("workload exercised %d migrations and %d pick reorders, want >= 1 of each; the determinism check is vacuous", migrations, reorders)
	}
}
