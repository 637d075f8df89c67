package main

import (
	"time"

	"sunosmt/mt"
)

// spawn starts a process whose main thread is handed its own *mt.Proc
// (Spawn returns the handle only after the body may already run). ht
// is the host goroutine's span buffer.
func spawn(sys *mt.System, ht *threadTrace, name string, cfg mt.ProcConfig, body func(p *mt.Proc, t *mt.Thread)) *mt.Proc {
	ch := make(chan *mt.Proc, 1)
	ht.begin(spSpawn, noOp)
	p, err := sys.Spawn(name, func(t *mt.Thread, _ any) { body(<-ch, t) }, nil, cfg)
	ht.end()
	if err != nil {
		panic(err)
	}
	ch <- p
	return p
}

// pingpongBatch is how many rounds one latency sample covers: a single
// synchronization is shorter than two clock reads cost, so latency is
// (time of a batch) / (2 * rounds in it).
func pingpongBatch(bound bool) int {
	if bound {
		return 16
	}
	return 32
}

// runPingpong is the paper's Figure 6 procedure: two threads hand a
// token back and forth through two semaphores on a uniprocessor, so
// every P blocks and every V switches. cfg.ops synchronizations are
// timed (two per round). Unbound threads share one LWP and switch in
// the library; bound threads each own an LWP and switch in the
// simulated kernel.
func runPingpong(cfg runConfig, bound bool) *outcome {
	rounds := max(cfg.ops/2, 1)
	warm := min(max(rounds/50, 16), 2000)
	batch := pingpongBatch(bound)
	o := &outcome{ops: int64(2 * rounds), lat: make([]uint32, 0, rounds/batch+1)}
	m := newMeter()
	m.sys = mt.NewSystem(mt.Options{NCPU: 1, EventRing: cfg.ring})

	var s1, s2 mt.Sema
	var served, timed int
	flags := mt.ThreadWait
	if bound {
		flags |= mt.ThreadBindLWP
	}
	tr := cfg.tr
	p := spawn(m.sys, tr.thread("host"), "pingpong", mt.ProcConfig{}, func(p *mt.Proc, t *mt.Thread) {
		m.watch(p)
		r := t.Runtime()
		echo, err := r.Create(func(c *mt.Thread, _ any) {
			tt := tr.thread("echo")
			for i := 0; i < warm+rounds; i++ {
				op := noOp // warm-up rounds belong to no timed operation
				if i >= warm {
					op = uint32(i - warm)
				}
				tt.begin(spSemaP, op)
				s2.P(c)
				tt.end()
				tt.begin(spSemaV, op)
				s1.V(c)
				tt.end()
				served++
			}
			m.retire(c) // exits before the timer's last P returns
		}, nil, mt.CreateOpts{Flags: flags})
		if err != nil {
			panic(err)
		}
		timer, err := r.Create(func(c *mt.Thread, _ any) {
			tt := tr.thread("timer")
			for i := 0; i < warm; i++ {
				s2.V(c)
				s1.P(c)
			}
			m.begin()
			for done := 0; done < rounds; {
				n := min(batch, rounds-done)
				start := time.Now()
				for i := 0; i < n; i++ {
					op := uint32(done + i)
					tt.begin(spSemaV, op)
					s2.V(c)
					tt.end()
					tt.begin(spSemaP, op)
					s1.P(c)
					tt.end()
				}
				o.lat = append(o.lat, clampU32(int64(time.Since(start))/int64(2*n)))
				done += n
			}
			m.end()
			timed = rounds
		}, nil, mt.CreateOpts{Flags: flags})
		if err != nil {
			panic(err)
		}
		t.Wait(timer.ID())
		t.Wait(echo.ID())
	})
	p.WaitExit()

	m.fill(o)
	if cfg.fault {
		served--
	}
	if served != warm+rounds || timed != rounds {
		o.failf("sync count: echo served %d of %d rounds, timer completed %d of %d", served, warm+rounds, timed, rounds)
	}
	if c1, c2 := s1.Count(), s2.Count(); c1 != 0 || c2 != 0 {
		o.failf("semaphores not drained: s1=%d s2=%d", c1, c2)
	}
	return o
}
