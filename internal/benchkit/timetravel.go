package benchkit

import (
	"time"

	"sunosmt/mt"
)

// SleepSweep runs a seeded sweep of a sleep-heavy workload — the
// shape of a chaos timeout sweep, where nearly all of every seed's
// wall-clock time is LWPs blocked in timed kernel sleeps — and
// returns the total real time for all seeds. With ff the machines run
// on the virtual fast-forward clock: whenever every LWP is idle with
// a timer pending, the clock jumps to the next deadline, so each seed
// costs only its compute time. The real/fast-forward ratio is the
// speedup mtbench holds fig 11 to.
func SleepSweep(seeds int, ff bool) time.Duration {
	start := time.Now()
	for s := 1; s <= seeds; s++ {
		sleepSweepSeed(uint64(s), ff)
	}
	return time.Since(start)
}

// sleepSweepSeed is one sweep iteration: four bound threads each
// taking three timed sleeps of 10-25ms under chaos timer jitter, so a
// seed spends ~75ms of virtual time almost entirely asleep. Bound
// threads give every sleeper its own LWP (a timed kernel sleep holds
// its LWP, and concurrent sleepers are what make the all-idle jump
// predicate interesting); chaos perturbs the deadline order seed to
// seed.
func sleepSweepSeed(seed uint64, ff bool) {
	sys := mt.NewSystem(mt.Options{
		NCPU:             1,
		FastForward:      ff,
		Chaos:            mt.NewChaos(seed),
		LWPCreateCost:    -1,
		KernelSwitchCost: -1,
	})
	ch := make(chan *mt.Proc, 1)
	p, err := sys.Spawn("sleep-sweep", func(t *mt.Thread, _ any) {
		p := <-ch
		r := t.Runtime()
		const workers = 4
		ids := make([]mt.ThreadID, 0, workers)
		for i := 0; i < workers; i++ {
			i := i
			c, err := r.Create(func(c *mt.Thread, _ any) {
				for j := 0; j < 3; j++ {
					// Chaos may EINTR an interruptible sleep; a
					// shortened sleep is fine, both clock modes see
					// the same injected schedule.
					_ = p.Sleep(c, time.Duration(10+5*i)*time.Millisecond)
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait | mt.ThreadBindLWP})
			if err != nil {
				panic(err)
			}
			ids = append(ids, c.ID())
		}
		for _, id := range ids {
			t.Wait(id)
		}
	}, nil, mt.ProcConfig{DefaultStackSize: 4096})
	if err != nil {
		panic(err)
	}
	ch <- p
	p.WaitExit()
}

// Figure11 runs the sleep-heavy sweep with the real clock and again
// with fast-forward (not in the paper — the virtual-time tier), 100
// seeds each: the width of the chaos sweeps it stands for. The per-op
// values are real milliseconds per seed; the second row's ratio column
// in the printed table is the inverse of the fast-forward speedup.
func Figure11() []Row {
	const seeds = 100
	wall := SleepSweep(seeds, false)
	ff := SleepSweep(seeds, true)
	return unmeasured([]Row{
		{Name: "Sleep sweep, real clock", Measured: wall, Ops: seeds},
		{Name: "Sleep sweep, fast-forward", Measured: ff, Ops: seeds},
	})
}
