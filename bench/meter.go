package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/mt"
)

// runConfig is what one repeat of a workload is given: sizes and
// seed-derived inputs only, never the workload's name.
type runConfig struct {
	ops   int   // operations in the timed region
	seed  int64 // every input is derived from it
	tr    *tracer
	fault bool // test-only: corrupt one output so the check must fail
	ring  int  // product event-ring capacity (ring-overhead probe only)
}

// outcome is what one repeat measured. Everything host-timed is on the
// host clock: the simulation's default clock is the host clock, no
// workload sleeps, so virtual-time fast-forward is not involved.
type outcome struct {
	ops    int64
	failed int64
	errs   []string

	setup time.Duration // boot + spawn/fork + create threads + warm-up
	wall  time.Duration // the timed region
	cpu   time.Duration // process user+sys over the timed region
	lat   []uint32      // per-operation latency samples, ns

	mallocs    uint64
	peakRSSMiB float64 // process high-water mark at the end of the timed region
	layer      map[string]float64

	// opWindow gives a traced operation's [start, end) on the tracer's
	// clock, for the span-coverage figure; nil when not applicable.
	opWindow func(op uint32) (start, end int64, ok bool)
}

func (o *outcome) failf(format string, args ...any) {
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
	// A failed check means none of the repeat's operations can be
	// trusted.
	o.failed = o.ops
}

// meter brackets a repeat's timed region: host wall clock, process CPU
// time, heap allocation count, and the deltas of the product's public
// statistics surfaces.
type meter struct {
	born time.Time
	sys  *mt.System

	mu    sync.Mutex
	procs []*mt.Proc
	peak  int
	// Final microstates of threads (and their bound LWPs) that exit
	// before the timed region ends; see retire.
	retiredThreads map[threadKey]mt.Microstates
	retiredLWPs    map[*sim.LWP]mt.LWPMicrostates

	t0    time.Time
	ms0   runtime.MemStats
	ru0   syscall.Rusage
	snap0 statSnap

	setup, wall, cpu time.Duration
	maxRSSKiB        int64 // high-water mark when the timed region ended
	mallocs          uint64
	gcCycles         uint32
	gcPause          time.Duration
	snap1            statSnap
}

type threadKey struct {
	t  *mt.Thread
	id mt.ThreadID
}

// statSnap is one reading of every public statistics surface bench
// uses. Thread and LWP microstates are keyed by identity so the delta
// covers what was alive at both readings.
type statSnap struct {
	dispatches, steals, migrations uint64
	pushes, pops, stolen           uint64
	growthFailures                 uint64
	poolLWPs                       int
	userTime, sysTime              time.Duration
	threads                        map[threadKey]mt.Microstates
	lwps                           map[*sim.LWP]mt.LWPMicrostates
}

func newMeter() *meter {
	return &meter{
		born:           time.Now(),
		retiredThreads: map[threadKey]mt.Microstates{},
		retiredLWPs:    map[*sim.LWP]mt.LWPMicrostates{},
	}
}

// retire keeps t's microstates, and its bound LWP's, as they stand
// now. A thread that exits leaves Runtime.Threads, so a worker that
// finishes before the timed region ends calls retire on itself last
// thing, or the fractions would cover only the threads that outlive
// the region (the main thread, waiting).
func (m *meter) retire(t *mt.Thread) {
	ms := t.Microstates()
	l := t.BoundLWP()
	var lms mt.LWPMicrostates
	if l != nil {
		lms = l.Microstates()
	}
	m.mu.Lock()
	m.retiredThreads[threadKey{t, t.ID()}] = ms
	if l != nil {
		m.retiredLWPs[l] = lms
	}
	m.mu.Unlock()
}

// watch adds a process to the set whose statistics are read. Call it
// for every process before begin.
func (m *meter) watch(p *mt.Proc) {
	m.mu.Lock()
	m.procs = append(m.procs, p)
	m.mu.Unlock()
}

// sampleThreads notes the current live-thread count for threads_peak.
func (m *meter) sampleThreads() {
	m.mu.Lock()
	n := 0
	for _, p := range m.procs {
		n += p.RT.NumThreads()
	}
	m.peak = max(m.peak, n)
	m.mu.Unlock()
}

func (m *meter) read() statSnap {
	s := statSnap{threads: map[threadKey]mt.Microstates{}, lwps: map[*sim.LWP]mt.LWPMicrostates{}}
	for _, c := range m.sys.SchedStats() {
		s.dispatches += c.Dispatches
		s.steals += c.Steals
		s.migrations += c.Migrations
	}
	m.mu.Lock()
	procs := append([]*mt.Proc(nil), m.procs...)
	for k, v := range m.retiredThreads {
		s.threads[k] = v
	}
	for k, v := range m.retiredLWPs {
		s.lwps[k] = v
	}
	m.mu.Unlock()
	for _, p := range procs {
		for _, sh := range p.RT.DispatchStats() {
			s.pushes += sh.Pushes
			s.pops += sh.Pops
			s.stolen += sh.Stolen
		}
		f, _, _ := p.RT.GrowthStats()
		s.growthFailures += f
		s.poolLWPs += p.RT.PoolSize()
		ru := p.Process().Getrusage()
		s.userTime += ru.UserTime
		s.sysTime += ru.SysTime
		for _, t := range p.RT.Threads() {
			s.threads[threadKey{t, t.ID()}] = t.Microstates()
		}
		for _, l := range p.Process().LWPs() {
			s.lwps[l] = l.Microstates()
		}
	}
	return s
}

// begin ends set-up and starts the timed region.
func (m *meter) begin() {
	m.setup = time.Since(m.born)
	m.sampleThreads()
	m.snap0 = m.read()
	runtime.ReadMemStats(&m.ms0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru0) // cannot fail for RUSAGE_SELF
	m.t0 = time.Now()
}

// end stops the timed region.
func (m *meter) end() {
	m.wall = time.Since(m.t0)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.cpu = tvDur(ru.Utime) + tvDur(ru.Stime) - tvDur(m.ru0.Utime) - tvDur(m.ru0.Stime)
	m.maxRSSKiB = peakRSSKiB(ru.Maxrss)
	m.mallocs = ms.Mallocs - m.ms0.Mallocs
	m.gcCycles = ms.NumGC - m.ms0.NumGC
	m.gcPause = time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs)
	m.sampleThreads()
	m.snap1 = m.read()
}

// peakRSSKiB is this process's own resident high-water mark. Linux
// carries ru_maxrss across fork and exec, so a child's reading is never
// below what its parent had resident; VmHWM belongs to the address
// space made at exec and counts only this process. ruMaxrss (KiB on
// Linux) stands in where /proc is not available.
func peakRSSKiB(ruMaxrss int64) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ruMaxrss
	}
	for _, line := range strings.Split(string(b), "\n") {
		// "VmHWM:      8392 kB"
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			if kib, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return kib
			}
		}
	}
	return ruMaxrss
}

func tvDur(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// fill copies the meter's readings into the outcome and derives the
// count-based per-layer metrics.
func (m *meter) fill(o *outcome) {
	o.setup, o.wall, o.cpu, o.mallocs = m.setup, m.wall, m.cpu, m.mallocs
	o.peakRSSMiB = float64(m.maxRSSKiB) / 1024
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	a, b := m.snap0, m.snap1
	ops := float64(max(o.ops, 1))
	L := o.layer
	L["host.gc_cycles"] = float64(m.gcCycles)
	L["host.gc_pause_ms"] = float64(m.gcPause) / 1e6
	L["sim.dispatches_per_op"] = float64(b.dispatches-a.dispatches) / ops
	L["sim.steals_per_op"] = float64(b.steals-a.steals) / ops
	L["sim.migrations_per_op"] = float64(b.migrations-a.migrations) / ops
	L["core.pushes_per_op"] = float64(b.pushes-a.pushes) / ops
	L["core.pops_per_op"] = float64(b.pops-a.pops) / ops
	L["core.steals_per_op"] = float64(b.stolen-a.stolen) / ops
	L["core.growth_failures"] = float64(b.growthFailures - a.growthFailures)
	L["core.threads_peak"] = float64(m.peak)
	L["core.pool_lwps_end"] = float64(b.poolLWPs)

	if cpu := (b.userTime - a.userTime) + (b.sysTime - a.sysTime); cpu > 0 {
		L["sim.sys_time_frac"] = float64(b.sysTime-a.sysTime) / float64(cpu)
	}
	var user, runq, sleep, lock, life time.Duration
	for k, t1 := range b.threads {
		t0, ok := a.threads[k]
		if !ok {
			continue
		}
		user += t1.User - t0.User
		runq += t1.Runq - t0.Runq
		sleep += t1.Sleep - t0.Sleep
		lock += t1.Lock - t0.Lock
		life += t1.Total - t0.Total
	}
	if life > 0 {
		L["core.ms_user_frac"] = float64(user) / float64(life)
		L["core.ms_runq_frac"] = float64(runq) / float64(life)
		L["core.ms_sleep_frac"] = float64(sleep) / float64(life)
		L["core.ms_lock_frac"] = float64(lock) / float64(life)
	}
	var oncpu, lsleep, lrunq, llife time.Duration
	for k, l1 := range b.lwps {
		l0, ok := a.lwps[k]
		if !ok {
			continue
		}
		oncpu += l1.OnCPU - l0.OnCPU
		lsleep += l1.Sleep - l0.Sleep
		lrunq += l1.Runq - l0.Runq
		llife += l1.Total - l0.Total
	}
	if llife > 0 {
		L["sim.lwp_oncpu_frac"] = float64(oncpu) / float64(llife)
		L["sim.lwp_sleep_frac"] = float64(lsleep) / float64(llife)
		L["sim.lwp_runq_frac"] = float64(lrunq) / float64(llife)
	}
}
