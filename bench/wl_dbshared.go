package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sunosmt/mt"
)

const (
	dbProcs   = 2
	dbThreads = 2 // per process
	dbWorkers = dbProcs * dbThreads
	dbRecords = 16
	dbRecSize = 256 // lock word at +0, balance at +128
	dbBalance = 128
	dbPath    = "/tmp/bench.db"
	// Every dbYield-th transfer gives up the simulated CPU while it
	// holds both record locks. Nothing preempts an LWP here (time
	// slicing is off) and the worker runs on one host thread (README,
	// "One host thread"), so without it a thread is never off
	// CPU inside its critical section and no Enter ever finds a lock
	// taken; with it the LWPs waiting for a CPU run into held locks and
	// block in the kernel, which is the path this workload is for.
	dbYield    = 16
	dbFileSize = dbRecords * dbRecSize
)

// dbPair is one transfer's two records, lower number first so locks
// are always taken in one order.
type dbPair struct{ a, b uint8 }

// runDBShared is the paper's Figure 1: a file of records, each with
// its lock in the record, mapped MAP_SHARED by two processes whose
// threads lock record pairs and move one unit between them. An
// operation is one transfer.
func runDBShared(cfg runConfig) *outcome {
	ops := max(cfg.ops, dbWorkers)
	var per [dbWorkers]int
	var pairs [dbWorkers][]dbPair
	warm := 64
	for w := range per {
		per[w] = ops / dbWorkers
		if w < ops%dbWorkers {
			per[w]++
		}
		rng := rand.New(rand.NewSource(cfg.seed*dbWorkers + int64(w)))
		pairs[w] = make([]dbPair, warm+per[w])
		for i := range pairs[w] {
			a := rng.Intn(dbRecords)
			b := (a + 1 + rng.Intn(dbRecords-1)) % dbRecords
			pairs[w][i] = dbPair{uint8(min(a, b)), uint8(max(a, b))}
		}
	}
	o := &outcome{ops: int64(ops)}
	var lat [dbWorkers][]uint32
	var completed [dbWorkers]int
	var errMu sync.Mutex
	fail := func(format string, args ...any) {
		errMu.Lock()
		if len(o.errs) < 8 {
			o.errs = append(o.errs, fmt.Sprintf(format, args...))
		}
		errMu.Unlock()
	}

	m := newMeter()
	m.sys = mt.NewSystem(mt.Options{NCPU: 2})
	tr := cfg.tr
	ht := tr.thread("host")

	openDB := func(p *mt.Proc, t *mt.Thread) int64 {
		fd, err := p.Open(t, dbPath, mt.OCreate|mt.ORdWr)
		if err != nil {
			panic(err)
		}
		base, err := p.Mmap(t, 0, dbFileSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, fd, 0)
		if err != nil {
			panic(err)
		}
		return base
	}
	transfer := func(p *mt.Proc, t *mt.Thread, tt *threadTrace, base int64, pr dbPair, op uint32, buf []byte, yield bool) error {
		tt.begin(spSharedLookup, op)
		la, err := p.SharedMutexAt(t, base+int64(pr.a)*dbRecSize)
		tt.end()
		if err != nil {
			return err
		}
		tt.begin(spSharedLookup, op)
		lb, err := p.SharedMutexAt(t, base+int64(pr.b)*dbRecSize)
		tt.end()
		if err != nil {
			return err
		}
		tt.begin(spSharedEnter, op)
		la.Enter(t)
		tt.end()
		tt.begin(spSharedEnter, op)
		lb.Enter(t)
		tt.end()
		err = dbAdjust(p, t, tt, base, pr.a, -1, op, buf)
		if yield {
			tt.begin(spYield, op)
			t.Yield()
			tt.end()
		}
		if err == nil {
			err = dbAdjust(p, t, tt, base, pr.b, +1, op, buf)
		}
		tt.begin(spSharedExit, op)
		lb.Exit(t)
		tt.end()
		tt.begin(spSharedExit, op)
		la.Exit(t)
		tt.end()
		return err
	}

	// Phases are coordinated without blocking an LWP in the kernel:
	// inside a process through process-local semaphores, across the
	// two processes through the host goroutine, which also starts the
	// timed region once all four workers are ready. The last worker
	// to finish stops it.
	var finished atomic.Int32
	hostReady := make(chan struct{}, dbProcs)
	hostGo := make(chan struct{})

	worker := func(p *mt.Proc, base int64, w int, ready, start *mt.Sema) mt.Func {
		return func(t *mt.Thread, _ any) {
			tt := tr.thread("worker")
			lat[w] = make([]uint32, 0, per[w])
			buf := make([]byte, 8)
			for i := 0; i < warm; i++ {
				if err := transfer(p, t, tt, base, pairs[w][i], noOp, buf, false); err != nil {
					fail("worker %d: warm-up transfer: %v", w, err)
				}
			}
			ready.V(t)
			start.P(t)
			for i := 0; i < per[w]; i++ {
				t0 := time.Now()
				// Op ids interleave the workers so sampled ops come
				// from all of them.
				if err := transfer(p, t, tt, base, pairs[w][warm+i], uint32(i*dbWorkers+w), buf, i%dbYield == dbYield-1); err != nil {
					fail("worker %d: transfer %d: %v", w, i, err)
					break
				}
				lat[w] = append(lat[w], clampU32(int64(time.Since(t0))))
				completed[w]++
			}
			m.retire(t)
			if finished.Add(1) == dbWorkers {
				m.end()
			}
		}
	}

	procMain := func(pi int) func(p *mt.Proc, t *mt.Thread) {
		return func(p *mt.Proc, t *mt.Thread) {
			m.watch(p)
			base := openDB(p, t)
			var ready, start mt.Sema
			var ids []mt.ThreadID
			for j := 0; j < dbThreads; j++ {
				// Bound: a thread that blocks on a record lock blocks
				// its LWP in the kernel, and must not take the
				// process's other worker down with it; and a bound
				// thread's Yield gives up the simulated CPU.
				c, err := t.Runtime().Create(worker(p, base, pi*dbThreads+j, &ready, &start), nil,
					mt.CreateOpts{Flags: mt.ThreadWait | mt.ThreadBindLWP})
				if err != nil {
					panic(err)
				}
				ids = append(ids, c.ID())
			}
			for range ids {
				ready.P(t)
			}
			// To the simulation this wait is a thread computing on its
			// LWP; nothing else is runnable while it lasts.
			hostReady <- struct{}{}
			<-hostGo
			for range ids {
				start.V(t)
			}
			for _, id := range ids {
				t.Wait(id)
			}
		}
	}
	var procs [dbProcs]*mt.Proc
	for pi := range procs {
		procs[pi] = spawn(m.sys, ht, fmt.Sprintf("db%d", pi), mt.ProcConfig{}, procMain(pi))
	}
	for range procs {
		<-hostReady
	}
	m.begin()
	close(hostGo)
	for _, p := range procs {
		p.WaitExit()
	}
	m.fill(o)

	// Audit from a third process: completed transfers conserve the
	// total, so the balances must sum to zero.
	var sum int64
	spawn(m.sys, nil, "audit", mt.ProcConfig{}, func(p *mt.Proc, t *mt.Thread) {
		base := openDB(p, t)
		var buf [8]byte
		for r := 0; r < dbRecords; r++ {
			if err := p.MemRead(t, base+int64(r)*dbRecSize+dbBalance, buf[:]); err != nil {
				fail("audit: read record %d: %v", r, err)
			}
			sum += int64(binary.LittleEndian.Uint64(buf[:]))
		}
	}).WaitExit()

	if cfg.fault {
		sum++
	}
	if len(o.errs) > 0 {
		o.failed = o.ops
	}
	if sum != 0 {
		o.failf("audit: balances sum to %d, want 0", sum)
	}
	o.lat = make([]uint32, 0, ops)
	for w := range completed {
		if completed[w] != per[w] {
			o.failf("worker %d completed %d of %d transfers", w, completed[w], per[w])
		}
		o.lat = append(o.lat, lat[w]...)
	}
	return o
}

// dbAdjust adds delta to a record's balance through the process
// image; buf is the caller's 8-byte scratch.
func dbAdjust(p *mt.Proc, t *mt.Thread, tt *threadTrace, base int64, rec uint8, delta int64, op uint32, buf []byte) error {
	va := base + int64(rec)*dbRecSize + dbBalance
	tt.begin(spMemRead, op)
	err := p.MemRead(t, va, buf)
	tt.end()
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf, uint64(int64(binary.LittleEndian.Uint64(buf))+delta))
	tt.begin(spMemWrite, op)
	err = p.MemWrite(t, va, buf)
	tt.end()
	return err
}
