package main

import (
	"math/rand"
	"time"

	"sunosmt/mt"
)

const (
	wsWidgets = 1000
	wsBurst   = 64
)

// wsEvent is one input event on its way from the poster through a
// widget's input handler to its output handler.
type wsEvent struct {
	id     uint32 // operation id; noOp for warm-up events
	posted int64  // ns since the repeat's base, when the poster made it
	handed int64  // tracer clock when it was last queued (0 untraced)
}

// wsQueue is the tiny monitor in front of each handler thread.
type wsQueue struct {
	mu       mt.Mutex
	cv       mt.Cond
	q, spare []wsEvent
	closed   bool
}

func (q *wsQueue) put(t *mt.Thread, tt *threadTrace, ev wsEvent) {
	tt.begin(spMutexEnter, ev.id)
	q.mu.Enter(t)
	tt.end()
	ev.handed = tt.now()
	q.q = append(q.q, ev)
	tt.begin(spMutexExit, ev.id)
	q.mu.Exit(t)
	tt.end()
	tt.begin(spCondSignal, ev.id)
	q.cv.Signal(t)
	tt.end()
}

// take blocks until events are queued and returns all of them; the
// returned slice is valid until the next take. ok is false once the
// queue is closed and drained.
func (q *wsQueue) take(t *mt.Thread, tt *threadTrace) (batch []wsEvent, ok bool) {
	tt.begin(spMutexEnter, noOp)
	q.mu.Enter(t)
	tt.end()
	for len(q.q) == 0 && !q.closed {
		tt.begin(spCondWait, noOp)
		q.cv.Wait(t, &q.mu)
		tt.end()
	}
	batch, q.q, q.spare = q.q, q.spare[:0], q.q
	tt.begin(spMutexExit, noOp)
	q.mu.Exit(t)
	tt.end()
	for i := range batch {
		tt.handover(spWakeWait, batch[i].id, batch[i].handed)
	}
	return batch, len(batch) > 0
}

func (q *wsQueue) close(t *mt.Thread) {
	q.mu.Enter(t)
	q.closed = true
	q.mu.Exit(t)
	q.cv.Broadcast(t)
}

type wsWidget struct {
	in, out wsQueue
	handled int
	redraws int
}

// runWinsys is the paper's window system: wsWidgets widgets, each
// with an input and an output handler thread, all unbound on the
// default pool. The main thread posts bursts of wsBurst events to
// seeded-random widgets and waits for every repaint before the next
// burst. An operation is one event; its latency is post to repaint.
func runWinsys(cfg runConfig) *outcome {
	ops := max(cfg.ops, 1)
	const warm = 4 * wsBurst
	rng := rand.New(rand.NewSource(cfg.seed))
	targets := make([]uint16, warm+ops)
	want := make([]int, wsWidgets)
	for i := range targets {
		targets[i] = uint16(rng.Intn(wsWidgets))
		want[targets[i]]++
	}
	o := &outcome{ops: int64(ops), lat: make([]uint32, ops)}
	tr := cfg.tr
	var winStart, winEnd []int64
	if tr != nil {
		winStart, winEnd = make([]int64, ops), make([]int64, ops)
		o.opWindow = func(op uint32) (int64, int64, bool) {
			if int(op) >= ops {
				return 0, 0, false
			}
			return winStart[op], winEnd[op], true
		}
	}

	m := newMeter()
	m.sys = mt.NewSystem(mt.Options{NCPU: 2})
	base := time.Now()
	widgets := make([]*wsWidget, wsWidgets)
	var done mt.Sema

	p := spawn(m.sys, tr.thread("host"), "winsys", mt.ProcConfig{}, func(p *mt.Proc, t *mt.Thread) {
		m.watch(p)
		r := t.Runtime()
		tt := tr.thread("poster")
		handlers := make([]mt.ThreadID, 0, 2*wsWidgets)
		for i := range widgets {
			w := &wsWidget{}
			// Room for a burst's worth of events on one widget, so the
			// timed region does not pay for growing a thousand queues.
			for _, q := range []*wsQueue{&w.in, &w.out} {
				q.q, q.spare = make([]wsEvent, 0, 8), make([]wsEvent, 0, 8)
			}
			widgets[i] = w
			in, err := r.Create(func(c *mt.Thread, _ any) {
				ct := tr.thread("input")
				for {
					batch, ok := w.in.take(c, ct)
					if !ok {
						return
					}
					for _, ev := range batch {
						w.handled++
						w.out.put(c, ct, ev)
					}
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			out, err := r.Create(func(c *mt.Thread, _ any) {
				ct := tr.thread("output")
				for {
					batch, ok := w.out.take(c, ct)
					if !ok {
						return
					}
					for _, ev := range batch {
						w.redraws++ // the repaint
						if ev.id != noOp {
							o.lat[ev.id] = max(clampU32(int64(time.Since(base))-ev.posted), 1)
							if winEnd != nil {
								winEnd[ev.id] = ct.now()
							}
						}
						ct.begin(spSemaV, ev.id)
						done.V(c)
						ct.end()
					}
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			if err != nil {
				panic(err)
			}
			handlers = append(handlers, in.ID(), out.ID())
		}

		burst := func(first, n int, timed bool) {
			for i := first; i < first+n; i++ {
				ev := wsEvent{id: noOp, posted: int64(time.Since(base))}
				if timed {
					ev.id = uint32(i - warm)
					if winStart != nil {
						winStart[ev.id] = tt.now()
					}
				}
				widgets[targets[i]].in.put(t, tt, ev)
			}
			for i := 0; i < n; i++ {
				tt.begin(spSemaP, noOp)
				done.P(t)
				tt.end()
			}
		}
		for i := 0; i < warm; i += wsBurst {
			burst(i, wsBurst, false)
		}
		m.begin()
		for i := warm; i < warm+ops; i += wsBurst {
			burst(i, min(wsBurst, warm+ops-i), true)
		}
		m.end()

		for _, w := range widgets {
			w.in.close(t)
			w.out.close(t)
		}
		for _, id := range handlers {
			if _, err := t.Wait(id); err != nil {
				panic(err)
			}
		}
	})
	p.WaitExit()

	m.fill(o)
	if cfg.fault {
		widgets[targets[0]].handled--
	}
	redraws := 0
	for i, w := range widgets {
		if w.handled != want[i] {
			o.failf("widget %d handled %d events, want %d", i, w.handled, want[i])
		}
		redraws += w.redraws
	}
	if redraws != warm+ops {
		o.failf("repainted %d events, want %d", redraws, warm+ops)
	}
	for i, l := range o.lat {
		if l == 0 {
			o.failf("event %d was never repainted", i)
			break
		}
	}
	return o
}
