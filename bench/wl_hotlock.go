package main

import (
	"time"

	"sunosmt/mt"
)

const (
	hlThreads = 8
	hlLocks   = 4
	hlLWPs    = 2
	hlHold    = 200 // iterations of work inside the critical section
	// Every hlYield-th acquisition yields the LWP while still holding
	// the lock. Unbound threads are never preempted mid-section, so
	// without it a waiter only ever spins against an owner that is on
	// the other LWP; with it some acquisitions meet a descheduled
	// owner — the case the park, hand-off and turnstile paths exist for.
	hlYield = 16
)

// hlLock is one contended lock and the counter it protects.
type hlLock struct {
	mu    mt.Mutex
	count int64
	sink  uint32
}

// runHotlock is the contended use of the mutex the window system uses
// uncontended: hlThreads unbound threads on hlLWPs LWPs take one of
// hlLocks default-policy mutexes, chosen by a seeded generator, and
// do a short critical section. An operation is one acquisition; its
// latency is the Enter call, timed on every acquisition whether it
// waited or not.
func runHotlock(cfg runConfig) *outcome {
	ops := max(cfg.ops, hlThreads)
	var per [hlThreads]int
	var lat [hlThreads][]uint32
	for i := range per {
		per[i] = ops / hlThreads
		if i < ops%hlThreads {
			per[i]++
		}
		lat[i] = make([]uint32, 0, per[i])
	}
	o := &outcome{ops: int64(ops)}
	locks := make([]hlLock, hlLocks)
	const warm = 256
	tr := cfg.tr

	m := newMeter()
	m.sys = mt.NewSystem(mt.Options{NCPU: 2})
	p := spawn(m.sys, tr.thread("host"), "hotlock", mt.ProcConfig{}, func(p *mt.Proc, t *mt.Thread) {
		m.watch(p)
		r := t.Runtime()
		if err := r.SetConcurrency(hlLWPs); err != nil {
			panic(err)
		}
		var ready, start, done mt.Sema
		var ids []mt.ThreadID
		for w := 0; w < hlThreads; w++ {
			c, err := r.Create(func(c *mt.Thread, _ any) {
				tt := tr.thread("worker")
				// xorshift32: the seeded lock choice, cheap enough not
				// to dilute the section it sits next to.
				x := uint32(cfg.seed)*2654435761 + uint32(w)*40503 + 1
				acquire := func(op uint32) time.Duration {
					x ^= x << 13
					x ^= x >> 17
					x ^= x << 5
					l := &locks[x%hlLocks]
					t0 := time.Now()
					tt.begin(spMutexEnter, op)
					l.mu.Enter(c)
					tt.end()
					d := time.Since(t0)
					l.count++
					s := l.sink
					for j := 0; j < hlHold; j++ {
						s = s*1664525 + 1013904223
					}
					l.sink = s
					if l.count%hlYield == 0 {
						tt.begin(spYield, op)
						c.Yield()
						tt.end()
					}
					tt.begin(spMutexExit, op)
					l.mu.Exit(c)
					tt.end()
					return d
				}
				for i := 0; i < warm; i++ {
					acquire(noOp)
				}
				ready.V(c)
				start.P(c)
				for i := 0; i < per[w]; i++ {
					lat[w] = append(lat[w], clampU32(int64(acquire(uint32(i*hlThreads+w)))))
				}
				m.retire(c)
				done.V(c)
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			ids = append(ids, c.ID())
		}
		for i := 0; i < hlThreads; i++ {
			ready.P(t)
		}
		m.begin()
		for i := 0; i < hlThreads; i++ {
			start.V(t)
		}
		for i := 0; i < hlThreads; i++ {
			done.P(t)
		}
		m.end()
		for _, id := range ids {
			t.Wait(id)
		}
	})
	p.WaitExit()
	m.fill(o)

	var sum int64
	for i := range locks {
		sum += locks[i].count
	}
	if cfg.fault {
		sum--
	}
	if want := int64(ops + warm*hlThreads); sum != want {
		o.failf("per-lock counters sum to %d, want %d", sum, want)
	}
	o.lat = make([]uint32, 0, ops)
	for w := range lat {
		if len(lat[w]) != per[w] {
			o.failf("thread %d completed %d of %d acquisitions", w, len(lat[w]), per[w])
		}
		o.lat = append(o.lat, lat[w]...)
	}
	return o
}
