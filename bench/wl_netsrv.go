package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/mt"
)

const (
	nsClients = 8
	// nsGuard bounds every wait for pipe data. The product's pipe
	// read, poll and WaitChild drop their lock and only then go to
	// sleep, so a wake-up that lands in between is lost and a plain
	// blocking Read can hang for good (see README, Known hazards). A
	// bounded Poll turns a lost wake-up into one nsGuard stall, which
	// vfs.guard_timeouts_per_kop counts.
	nsGuard = 2 * time.Millisecond
	nsReap  = 64 // the listener reaps finished workers every nsReap accepts
)

// guardedRead waits for fd to become readable with bounded polls, then
// reads. No pipe here ever has fewer bytes in flight than readers
// polling it, so the Read after a ready Poll never blocks. The polls
// are spans of waitOp (noOp when the wait is for no particular
// operation); the read is filed under readOp(), evaluated once the
// bytes are in b, or under waitOp when readOp is nil.
func guardedRead(p *mt.Proc, t *mt.Thread, tt *threadTrace, fd int, b []byte, fds []mt.PollFD, timeouts *atomic.Int64, waitOp uint32, readOp func() uint32) (int, error) {
	fds[0] = mt.PollFD{FD: fd, Events: mt.PollIn}
	for {
		tt.begin(spPoll, waitOp)
		n, err := p.Poll(t, fds[:1], nsGuard)
		tt.end()
		if errors.Is(err, sim.ErrIntr) {
			continue
		}
		if err != nil {
			return 0, fmt.Errorf("poll: %w", err)
		}
		if n == 0 {
			timeouts.Add(1)
			continue
		}
		tt.begin(spPipeRead, waitOp)
		n, err = p.Read(t, fd, b)
		if errors.Is(err, sim.ErrIntr) {
			tt.end()
			continue
		}
		if readOp != nil && err == nil {
			tt.endAs(readOp())
		} else {
			tt.end()
		}
		return n, err
	}
}

// netsrv holds what the three processes of one repeat share on the
// host side: inputs, check state, and the hand-over stamps bench uses
// to time the gaps between its calls.
type netsrv struct {
	m   *meter
	tr  *tracer
	ops int
	per [nsClients]int // timed requests per client
	// warm requests per client precede the timed region.
	warm int

	timeouts atomic.Int64
	mu       sync.Mutex
	errs     []string

	lat      [nsClients][]uint32
	badReply atomic.Int64
	replies  atomic.Int64

	// Tracer-clock stamps of hand-overs. Each is written before the
	// pipe write that hands the work over and read after the pipe read
	// that picks it up, so the pipe orders the two; a hand-over span
	// therefore starts when the handing-over call starts.
	sentAt    [nsClients]int64
	repliedAt [nsClients]int64
	dirOp     uint32 // the op the directory is serving (under the dir mutex)
	winStart  []int64
	winEnd    []int64

	free []*threadTrace // span buffers for the short-lived workers
}

func (ns *netsrv) fail(format string, args ...any) {
	ns.mu.Lock()
	if len(ns.errs) < 8 {
		ns.errs = append(ns.errs, fmt.Sprintf(format, args...))
	}
	ns.mu.Unlock()
}

func (ns *netsrv) workerTrace() *threadTrace {
	if ns.tr == nil {
		return nil
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if n := len(ns.free); n > 0 {
		tt := ns.free[n-1]
		ns.free = ns.free[:n-1]
		return tt
	}
	return nil
}

func (ns *netsrv) releaseTrace(tt *threadTrace) {
	if tt != nil {
		ns.mu.Lock()
		ns.free = append(ns.free, tt)
		ns.mu.Unlock()
	}
}

// opID numbers client i's j-th timed request.
func opID(i, j int) uint32 { return uint32(j*nsClients + i) }

// runNetsrv is the paper's network server: a listener thread accepts
// one-byte requests from a shared pipe and creates a worker thread per
// request; the worker makes a round trip to a directory process and
// replies on the client's own pipe. Clients and directory are fork1
// children of the server. An operation is one request; its latency is
// client write to reply read.
func runNetsrv(cfg runConfig) *outcome {
	ops := max(cfg.ops, nsClients)
	ns := &netsrv{m: newMeter(), tr: cfg.tr, ops: ops, warm: 8}
	for i := range ns.per {
		ns.per[i] = ops / nsClients
		if i < ops%nsClients {
			ns.per[i]++
		}
		ns.lat[i] = make([]uint32, 0, ns.per[i])
	}
	o := &outcome{ops: int64(ops)}
	if ns.tr != nil {
		ns.winStart, ns.winEnd = make([]int64, ops+nsClients), make([]int64, ops+nsClients)
		o.opWindow = func(op uint32) (int64, int64, bool) {
			if int(op) >= len(ns.winStart) {
				return 0, 0, false
			}
			return ns.winStart[op], ns.winEnd[op], ns.winEnd[op] > 0
		}
		for i := 0; i < 2*nsClients; i++ {
			ns.free = append(ns.free, ns.tr.thread("worker"))
		}
	}
	m := ns.m
	m.sys = mt.NewSystem(mt.Options{NCPU: 2})
	var g0, g1 int64
	var children [2]*mt.Proc

	server := spawn(m.sys, ns.tr.thread("host"), "netsrv", mt.ProcConfig{}, func(p *mt.Proc, t *mt.Thread) {
		m.watch(p)
		tt := ns.tr.thread("listener")
		mustPipe := func() (int, int) {
			r, w, err := p.Pipe(t)
			if err != nil {
				panic(err)
			}
			return r, w
		}
		acceptR, acceptW := mustPipe()
		goR, goW := mustPipe()
		dreqR, dreqW := mustPipe()
		drepR, drepW := mustPipe()
		var replyR, replyW [nsClients]int
		for i := range replyR {
			replyR[i], replyW[i] = mustPipe()
		}

		tt.begin(spFork1, noOp)
		dir, err := forkChild(p, t, func(dp *mt.Proc, dt *mt.Thread) {
			ns.directory(dp, dt, dreqR, dreqW, drepW)
		})
		tt.end()
		if err != nil {
			panic(err)
		}
		m.watch(dir)
		tt.begin(spFork1, noOp)
		cli, err := forkChild(p, t, func(cp *mt.Proc, ct *mt.Thread) {
			ns.clients(cp, ct, acceptW, goR, dreqW, replyR)
		})
		tt.end()
		if err != nil {
			panic(err)
		}
		m.watch(cli)
		children = [2]*mt.Proc{dir, cli}

		srv := &nsServer{ns: ns, p: p, t: t, tt: tt, acceptR: acceptR, dreqW: dreqW, drepR: drepR, replyW: replyW}
		srv.fds = make([]mt.PollFD, 1)
		srv.serve(ns.warm*nsClients, false)
		m.begin()
		g0 = ns.timeouts.Load()
		// Release the clients into the timed phase: one byte each.
		if _, err := p.Write(t, goW, make([]byte, nsClients)); err != nil {
			panic(err)
		}
		srv.serve(ops, true)
		m.end()
		g1 = ns.timeouts.Load()
		// The last writer's close is the directory's EOF.
		if err := p.Close(t, dreqW); err != nil {
			ns.fail("server: close directory pipe: %v", err)
		}
	})
	server.WaitExit()
	// Host-side wait: WaitChild inside the simulation is one of the
	// check-then-sleep sites and can miss the child's exit.
	for _, c := range children {
		if c != nil {
			c.WaitExit()
		}
	}

	m.fill(o)
	o.layer["vfs.guard_timeouts_per_kop"] = float64(g1-g0) / float64(ops) * 1000
	o.lat = make([]uint32, 0, ops)
	for i := range ns.lat {
		o.lat = append(o.lat, ns.lat[i]...)
	}
	if cfg.fault {
		ns.badReply.Add(1)
	}
	o.errs = append(o.errs, ns.errs...)
	if len(ns.errs) > 0 {
		o.failed = o.ops
	}
	if n := ns.badReply.Load(); n > 0 {
		o.failf("%d replies were not 'K'", n)
	}
	if n := ns.replies.Load(); n != int64(ops) {
		o.failf("clients read %d replies, want %d", n, ops)
	}
	return o
}

// forkChild is Fork1 with the child's main handed its own *mt.Proc.
func forkChild(p *mt.Proc, t *mt.Thread, body func(cp *mt.Proc, ct *mt.Thread)) (*mt.Proc, error) {
	ch := make(chan *mt.Proc, 1)
	c, err := p.Fork1(t, func(ct *mt.Thread, _ any) { body(<-ch, ct) }, nil)
	if err != nil {
		return nil, err
	}
	ch <- c
	return c, nil
}

// directory is the lookup service the workers depend on: it answers
// each request byte with the byte's high bit flipped, until EOF.
func (ns *netsrv) directory(dp *mt.Proc, dt *mt.Thread, dreqR, dreqW, drepW int) {
	tt := ns.tr.thread("directory")
	// Drop the inherited write end, or the server's close could never
	// produce EOF here.
	if err := dp.Close(dt, dreqW); err != nil {
		ns.fail("directory: close: %v", err)
	}
	buf := make([]byte, 1)
	fds := make([]mt.PollFD, 1)
	serving := func() uint32 { return ns.dirOp }
	for {
		_, err := guardedRead(dp, dt, tt, dreqR, buf, fds, &ns.timeouts, noOp, serving)
		op := ns.dirOp
		if errors.Is(err, io.EOF) {
			return
		}
		if err != nil {
			ns.fail("directory: read: %v", err)
			return
		}
		buf[0] ^= 0x80 // the lookup
		tt.begin(spPipeWrite, op)
		_, err = dp.Write(dt, drepW, buf)
		tt.end()
		if err != nil {
			ns.fail("directory: write: %v", err)
			return
		}
	}
}

// clients runs nsClients closed-loop client threads: write the
// request, wait for the reply, check it, repeat.
func (ns *netsrv) clients(cp *mt.Proc, ct *mt.Thread, acceptW, goR, dreqW int, replyR [nsClients]int) {
	if err := cp.Close(ct, dreqW); err != nil {
		ns.fail("clients: close: %v", err)
	}
	var ids []mt.ThreadID
	for i := 0; i < nsClients; i++ {
		c, err := ct.Runtime().Create(func(c *mt.Thread, _ any) {
			tt := ns.tr.thread("client")
			req, rep := []byte{byte(i)}, make([]byte, 1)
			fds := make([]mt.PollFD, 1)
			op := noOp
			current := func() uint32 { return op }
			request := func() bool {
				start := time.Now()
				ns.sentAt[i] = tt.now()
				if op != noOp && ns.winStart != nil {
					ns.winStart[op] = ns.sentAt[i]
				}
				tt.begin(spPipeWrite, op)
				_, err := cp.Write(c, acceptW, req)
				tt.end()
				if err != nil {
					ns.fail("client %d: write: %v", i, err)
					return false
				}
				// The client's own polls wait for the whole server
				// side; they are filed under no operation so the
				// coverage figure counts only the work they wait for.
				_, err = guardedRead(cp, c, tt, replyR[i], rep, fds, &ns.timeouts, noOp, current)
				if err != nil {
					ns.fail("client %d: read reply: %v", i, err)
					return false
				}
				if op != noOp {
					tt.handover(spReplyWait, op, ns.repliedAt[i])
					if ns.winEnd != nil {
						ns.winEnd[op] = tt.now()
					}
					ns.lat[i] = append(ns.lat[i], clampU32(int64(time.Since(start))))
					ns.replies.Add(1)
					if rep[0] != 'K' {
						ns.badReply.Add(1)
					}
				}
				return true
			}
			for j := 0; j < ns.warm; j++ {
				if !request() {
					return
				}
			}
			if _, err := guardedRead(cp, c, tt, goR, rep, fds, &ns.timeouts, noOp, nil); err != nil {
				ns.fail("client %d: wait for go: %v", i, err)
				return
			}
			for j := 0; j < ns.per[i]; j++ {
				op = opID(i, j)
				if !request() {
					return
				}
			}
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
		if err != nil {
			panic(err)
		}
		ids = append(ids, c.ID())
	}
	for _, id := range ids {
		if _, err := ct.Wait(id); err != nil {
			ns.fail("clients: wait: %v", err)
		}
	}
}

// nsServer is the listener's state.
type nsServer struct {
	ns             *netsrv
	p              *mt.Proc
	t              *mt.Thread
	tt             *threadTrace
	acceptR        int
	dreqW, drepR   int
	replyW         [nsClients]int
	fds            []mt.PollFD
	dirMu          mt.Mutex
	seen           [nsClients]int // timed requests accepted per client
	workers, spare []mt.ThreadID
}

// serve accepts n requests, creating one worker thread per request and
// reaping finished workers every nsReap accepts and at the end.
func (s *nsServer) serve(n int, timed bool) {
	ns, p, t, tt := s.ns, s.p, s.t, s.tt
	r := t.Runtime()
	buf := make([]byte, 1)
	var client int
	var op uint32
	accept := func() uint32 {
		client, op = int(buf[0])%nsClients, noOp
		if timed {
			op = opID(client, s.seen[client])
			s.seen[client]++
		}
		return op
	}
	for accepted := 0; accepted < n; accepted++ {
		if _, err := guardedRead(p, t, tt, s.acceptR, buf, s.fds, &ns.timeouts, noOp, accept); err != nil {
			panic(fmt.Errorf("listener: read request: %w", err))
		}
		client, op := client, op
		if op != noOp {
			tt.handover(spAcceptWait, op, ns.sentAt[client])
		}
		created := tt.now()
		tt.begin(spCreate, op)
		w, err := r.Create(func(c *mt.Thread, _ any) {
			wt := ns.workerTrace()
			if op != noOp {
				wt.handover(spStartWait, op, created)
			}
			s.work(c, wt, client, op)
			ns.releaseTrace(wt)
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
		tt.end()
		if err != nil {
			panic(fmt.Errorf("listener: create worker: %w", err))
		}
		s.workers = append(s.workers, w.ID())
		if (accepted+1)%nsReap == 0 {
			ns.m.sampleThreads()
			s.reap(false)
		}
	}
	s.reap(true)
}

// reap waits for the workers that have exited (Find returns only live
// threads), or for all of them.
func (s *nsServer) reap(all bool) {
	r := s.t.Runtime()
	pending := s.spare[:0]
	for _, id := range s.workers {
		if !all {
			if _, live := r.Find(id); live {
				pending = append(pending, id)
				continue
			}
		}
		s.tt.begin(spWait, noOp)
		_, err := s.t.Wait(id)
		s.tt.end()
		if err != nil {
			s.ns.fail("listener: reap worker %d: %v", id, err)
		}
	}
	s.workers, s.spare = pending, s.workers
}

// work is one request: a directory round trip, serialised by one
// mutex because the directory pipes carry no request id, then the
// reply to the client.
func (s *nsServer) work(c *mt.Thread, wt *threadTrace, client int, op uint32) {
	ns, p := s.ns, s.p
	var fds [1]mt.PollFD
	req, rep := [1]byte{byte(client)}, [1]byte{}
	out := [1]byte{'E'}
	wt.begin(spMutexEnter, op)
	s.dirMu.Enter(c)
	wt.end()
	ns.dirOp = op
	wt.begin(spPipeWrite, op)
	_, err := p.Write(c, s.dreqW, req[:])
	wt.end()
	if err != nil {
		ns.fail("worker: write to directory: %v", err)
	} else {
		_, err = guardedRead(p, c, wt, s.drepR, rep[:], fds[:], &ns.timeouts, op, nil)
		if err != nil {
			ns.fail("worker: read directory reply: %v", err)
		} else if rep[0] == req[0]^0x80 {
			out[0] = 'K'
		}
	}
	wt.begin(spMutexExit, op)
	s.dirMu.Exit(c)
	wt.end()
	ns.repliedAt[client] = wt.now()
	wt.begin(spPipeWrite, op)
	_, err = p.Write(c, s.replyW[client], out[:])
	wt.end()
	if err != nil {
		ns.fail("worker: write reply: %v", err)
	}
}
