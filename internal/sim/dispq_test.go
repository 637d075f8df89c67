package sim

import (
	"fmt"
	"testing"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/ktime"
	"sunosmt/internal/trace"
)

// Dispatcher conformance suite: white-box, table-driven checks of the
// per-CPU dispatch queues and the placement/steal/balance policy.
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

// queueOn makes a runnable LWP that queues on the given CPU (via the
// cache-affinity rule: lastCPU wins while every CPU is busy).
func queueOn(k *Kernel, p *Process, cpu int, class Class, prio int) *LWP {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.newLWPLocked(p, class, prio, k.clock.Now())
	l.lastCPU = cpu
	k.makeRunnableLocked(l, k.clock.Now())
	if l.rqCPU != k.cpus[cpu] {
		panic(fmt.Sprintf("queueOn: lwp landed on %v, want cpu %d", l.rqCPU, cpu))
	}
	return l
}

// TestLwpRunqOrder checks the queue structure itself: strict priority
// order with FIFO among equals, across pushes and removals.
func TestLwpRunqOrder(t *testing.T) {
	type op struct {
		push   string // id to push, "" for pop
		lvl    int
		expect string // for pops: id expected at the head
	}
	cases := []struct {
		name string
		ops  []op
	}{
		{"fifo-among-equals", []op{
			{push: "a", lvl: 30}, {push: "b", lvl: 30}, {push: "c", lvl: 30},
			{expect: "a"}, {expect: "b"}, {expect: "c"},
		}},
		{"higher-level-first", []op{
			{push: "lo", lvl: 10}, {push: "hi", lvl: 50}, {push: "mid", lvl: 30},
			{expect: "hi"}, {expect: "mid"}, {expect: "lo"},
		}},
		{"interleaved", []op{
			{push: "a", lvl: 30}, {push: "b", lvl: 59}, {push: "c", lvl: 30},
			{expect: "b"}, {expect: "a"},
			{push: "d", lvl: 30},
			{expect: "c"}, {expect: "d"},
		}},
		{"rt-beats-ts", []op{
			{push: "ts", lvl: 59}, {push: "rt", lvl: 100},
			{expect: "rt"}, {expect: "ts"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r lwpRunq
			lwps := map[string]*LWP{}
			for _, o := range tc.ops {
				if o.push != "" {
					l := &LWP{}
					lwps[o.push] = l
					r.push(l, o.lvl)
					continue
				}
				h := r.head(r.top())
				if h != lwps[o.expect] {
					t.Fatalf("head = %p, want %q", h, o.expect)
				}
				r.unlink(h)
			}
			if r.n != 0 || r.top() != -1 {
				t.Fatalf("queue not drained: n=%d top=%d", r.n, r.top())
			}
		})
	}
}

// TestPlacementAffinityFirst checks placeLocked's rules: hard binding
// beats everything, then the last CPU when free (or when nothing is
// free), then any free CPU, then the shallowest queue.
func TestPlacementAffinityFirst(t *testing.T) {
	cases := []struct {
		name string
		// busy marks CPUs to occupy; depth queues extra LWPs there.
		busy    []int
		depth   map[int]int
		lastCPU int
		bindCPU int // -1 none
		want    int
	}{
		{"affine-free", []int{0, 2, 3}, nil, 1, -1, 1},
		{"affine-busy-prefers-free", []int{0, 1}, nil, 1, -1, 2},
		{"all-busy-affine-wins", []int{0, 1, 2, 3}, nil, 2, -1, 2},
		{"all-busy-shallowest", []int{0, 1, 2, 3},
			map[int]int{0: 2, 1: 1, 2: 3, 3: 1}, -1, -1, 1},
		{"bound-beats-affinity", []int{0, 1, 2, 3}, nil, 1, 3, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, p := dispKernel(4)
			k.mu.Lock()
			for _, ci := range tc.busy {
				l := k.newLWPLocked(p, ClassTS, 0, k.clock.Now())
				k.setLWPStateLocked(l, k.clock.Now(), LWPRunnable)
				k.assignLocked(l, k.cpus[ci], k.clock.Now())
			}
			for ci, n := range tc.depth {
				for i := 0; i < n; i++ {
					q := k.newLWPLocked(p, ClassTS, 10, k.clock.Now())
					k.runqPushLocked(k.cpus[ci], q)
				}
			}
			l := k.newLWPLocked(p, ClassTS, 30, k.clock.Now())
			l.lastCPU = tc.lastCPU
			if tc.bindCPU >= 0 {
				l.boundCPU = k.cpus[tc.bindCPU]
			}
			got := k.placeLocked(l).id
			k.mu.Unlock()
			if got != tc.want {
				t.Fatalf("placed on cpu %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStealTakesHighestPriority checks the pick policy of a free CPU:
// own head unless a sibling advertises strictly higher stealable work,
// in which case the highest-priority stealable LWP anywhere in the
// processor set is taken (and counted as a steal).
func TestStealTakesHighestPriority(t *testing.T) {
	cases := []struct {
		name string
		// queued[cpu] lists TS priorities queued there (in order).
		queued   map[int][]int
		pickFor  int
		wantPrio int // -1: expect no pick
		steal    bool
	}{
		{"steals-best-across-siblings",
			map[int][]int{1: {30, 50}, 2: {40}}, 0, 50, true},
		{"own-empty-steals-only-work",
			map[int][]int{2: {10}}, 0, 10, true},
		{"own-equal-keeps-own",
			map[int][]int{0: {50}, 1: {50}}, 0, 50, false},
		{"own-higher-keeps-own",
			map[int][]int{0: {50}, 1: {40}}, 0, 50, false},
		{"sibling-strictly-higher-steals",
			map[int][]int{0: {40}, 1: {50}}, 0, 50, true},
		{"nothing-anywhere",
			map[int][]int{}, 0, -1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, p := dispKernel(3)
			occupyAll(k, p)
			for ci, prios := range tc.queued {
				for _, prio := range prios {
					queueOn(k, p, ci, ClassTS, prio)
				}
			}
			k.mu.Lock()
			c := k.cpus[tc.pickFor]
			c.lwp = nil // free the CPU without rescheduling
			before := c.steals
			l := k.pickForLocked(c, k.clock.Now())
			k.mu.Unlock()
			if tc.wantPrio < 0 {
				if l != nil {
					t.Fatalf("picked lwp prio %d, want none", l.userPrio)
				}
				return
			}
			if l == nil || l.userPrio != tc.wantPrio {
				t.Fatalf("picked %v, want prio %d", l, tc.wantPrio)
			}
			stole := c.steals > before
			if stole != tc.steal {
				t.Fatalf("steal = %v, want %v", stole, tc.steal)
			}
		})
	}
}

// TestPriocntlRequeues checks the remove-modify-push discipline: a
// class or priority change on a queued LWP moves it to its new level
// immediately, on the same CPU's queue.
func TestPriocntlRequeues(t *testing.T) {
	k, p := dispKernel(2)
	occupyAll(k, p)
	a := queueOn(k, p, 1, ClassTS, 30)
	b := queueOn(k, p, 1, ClassTS, 30)
	if err := k.Priocntl(b, ClassRT, 10); err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if !b.rqOn || b.rqCPU != k.cpus[1] {
		t.Fatalf("b not queued on cpu 1 after priocntl")
	}
	if b.rqLevel != rtMinGlobal+10 {
		t.Fatalf("b at level %d, want %d", b.rqLevel, rtMinGlobal+10)
	}
	if a.rqLevel != 30 {
		t.Fatalf("a moved to level %d", a.rqLevel)
	}
	// b now outranks a: it must be the pick.
	c := k.cpus[1]
	c.lwp = nil
	if l := k.pickForLocked(c, k.clock.Now()); l != b {
		t.Fatalf("pick after priocntl = %v, want the RT lwp", l)
	}
}

// TestBindExcludesSteal checks both exclusion rules: a hard CPU
// binding hides the LWP from sibling CPUs, and a processor-set
// binding hides it from CPUs outside the set.
func TestBindExcludesSteal(t *testing.T) {
	t.Run("cpu-bound-never-stolen", func(t *testing.T) {
		k, p := dispKernel(2)
		occupyAll(k, p)
		k.mu.Lock()
		l := k.newLWPLocked(p, ClassTS, 50, k.clock.Now())
		l.boundCPU = k.cpus[1]
		k.makeRunnableLocked(l, k.clock.Now())
		if l.rqCPU != k.cpus[1] {
			t.Fatalf("bound lwp queued on %v", l.rqCPU)
		}
		c0 := k.cpus[0]
		c0.lwp = nil
		got := k.pickForLocked(c0, k.clock.Now())
		k.mu.Unlock()
		if got != nil {
			t.Fatalf("cpu 0 stole a hard-bound lwp: %v", got)
		}
	})
	t.Run("pset-confines-steal", func(t *testing.T) {
		k, p := dispKernel(4)
		ps := k.PsetCreate()
		for _, ci := range []int{2, 3} {
			if err := k.PsetAssign(ps, ci); err != nil {
				t.Fatal(err)
			}
		}
		occupyAll(k, p)
		k.mu.Lock()
		l := k.newLWPLocked(p, ClassTS, 50, k.clock.Now())
		k.mu.Unlock()
		if err := k.PsetBind(l, ps); err != nil {
			t.Fatal(err)
		}
		k.mu.Lock()
		k.makeRunnableLocked(l, k.clock.Now())
		if got := l.rqCPU.id; got != 2 && got != 3 {
			t.Fatalf("pset-bound lwp queued on cpu %d", got)
		}
		// A free CPU in the default set must not see it...
		c0 := k.cpus[0]
		c0.lwp = nil
		cross := k.pickForLocked(c0, k.clock.Now())
		// ...while a free CPU in the set takes it.
		c3 := k.cpus[3]
		c3.lwp = nil
		own := k.pickForLocked(c3, k.clock.Now())
		k.mu.Unlock()
		if cross != nil {
			t.Fatalf("default-set cpu stole across pset: %v", cross)
		}
		if own != l {
			t.Fatalf("pset cpu picked %v, want the bound lwp", own)
		}
	})
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

// TestBalancerRelevelsAndEvens drives the virtual clock past the
// balance period and checks both balancer duties: queued TS LWPs whose
// decayed usage changed their priority move to their current level,
// and depths within a pset even out.
func TestBalancerRelevelsAndEvens(t *testing.T) {
	clk := ktime.NewManual()
	k := NewKernel(Config{NCPU: 2, Clock: clk, LWPCreateCost: -1, KernelSwitchCost: -1})
	p := k.NewProcess("balance", nil)
	occupyAll(k, p)
	var queued []*LWP
	for i := 0; i < 4; i++ {
		queued = append(queued, queueOn(k, p, 0, ClassTS, 40))
	}
	k.mu.Lock()
	// Age one queued LWP after it was queued, so its queue level is
	// stale until the balancer re-levels it.
	aged := queued[0]
	aged.cpuUsage = 50 * time.Millisecond // 10 levels of penalty
	staleLvl := aged.rqLevel
	k.mu.Unlock()

	clk.Advance(balancePeriod + time.Millisecond)
	k.mu.Lock()
	k.maybeBalanceLocked(k.clock.Now())
	d0, d1 := k.cpus[0].runq.n, k.cpus[1].runq.n
	newLvl := aged.rqLevel
	moves := k.balanceMoves
	k.mu.Unlock()

	if newLvl != staleLvl-10 {
		t.Errorf("aged lwp at level %d, want %d", newLvl, staleLvl-10)
	}
	if d0+d1 != 4 || d0 > d1+1 || d1 > d0+1 {
		t.Errorf("depths not evened: cpu0=%d cpu1=%d", d0, d1)
	}
	if moves == 0 {
		t.Errorf("balancer reported no moves")
	}
}

// TestDispatchDeterminism replays a scripted scheduling workload twice
// under the same chaos seed and requires bit-identical event-ring
// journals — steals, migrations, balancer timing and all. The script
// runs single-threaded under the kernel lock on a manual clock, so the
// only nondeterminism available is the chaos source itself.
func TestDispatchDeterminism(t *testing.T) {
	run := func(seed uint64) []trace.Record {
		clk := ktime.NewManual()
		k := NewKernel(Config{
			NCPU: 4, Clock: clk, EventRing: 1024,
			LWPCreateCost: -1, KernelSwitchCost: -1,
			Chaos: chaos.New(chaos.DefaultConfig(seed)),
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
				// Preempt it back to its queue.
				k.releaseCPULocked(l, k.clock.Now(), LWPRunnable)
				k.enqueueLocked(l)
				k.scheduleLocked(k.clock.Now())
			case l.rqOn && step%3 == 0:
				// Re-place it with fresh affinity, as a wakeup would.
				k.runqRemoveLocked(l)
				l.lastCPU = (step / 3) % 4
				k.enqueueLocked(l)
				k.scheduleLocked(k.clock.Now())
			}
			k.mu.Unlock()
		}
		recs, _ := k.Rings().Snapshot()
		return recs
	}

	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("journal lengths differ: %d vs %d", len(a), len(b))
	}
	steals := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journals diverge at %d:\n  %v\n  %v", i, a[i], b[i])
		}
		if a[i].Kind == trace.EvSteal {
			steals++
		}
	}
	if steals == 0 {
		t.Error("workload exercised no steals; the determinism check is vacuous")
	}
}
