// Package trace is the system's one event recorder — fixed-size
// per-CPU binary event rings (this file) — plus the two formats a ring
// snapshot is written in: the schedule journal that chaos replay reads
// back (journal.go) and Chrome/perfetto trace JSON (perfetto.go).
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The rings sit under one small mutex and the scheduler transition
// points record into them, so tracing costs a timestamp, a lock held
// for a struct store, and never an allocation or a format. Only events
// with a reader have a kind; process/LWP lifecycle events are not
// recorded anywhere.

// EventKind identifies one class of scheduler event.
type EventKind uint8

// Event kinds recorded by the kernel and the threads library.
const (
	EvNone EventKind = iota
	// EvDispatch: the kernel dispatched an LWP onto a CPU. Arg is the
	// LWP's global priority.
	EvDispatch
	// EvPreempt: an on-CPU LWP was preempted (priority preemption,
	// time-slice expiry, or chaos-forced).
	EvPreempt
	// EvWakeup: a sleeping or parked LWP was woken. Arg is the
	// WakeResult.
	EvWakeup
	// EvMigrate: the LWP was dispatched on a different CPU than its
	// previous one. Arg is the previous CPU id.
	EvMigrate
	// EvSigwaiting: SIGWAITING was posted to the process. Arg is the
	// number of LWPs found blocked.
	EvSigwaiting
	// EvLockBlock: a thread published a wait-for edge on a contended
	// synchronization object and is about to park.
	EvLockBlock
	// EvThreadRun: the library dispatched a thread onto a pool LWP.
	// Arg is 1 (dispatched from the run queue).
	EvThreadRun
	// EvThreadPark: a thread parked, handing its LWP back to the
	// dispatcher. Arg is the library thread state it parked in.
	EvThreadPark
	// EvFastForward: the fast-forward clock leapt over idle virtual
	// time to the next timer deadline. Arg is the nanoseconds
	// skipped; recorded on the unattributed ring.
	EvFastForward
	numEventKinds
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvDispatch:
		return "dispatch"
	case EvPreempt:
		return "preempt"
	case EvWakeup:
		return "wakeup"
	case EvMigrate:
		return "migrate"
	case EvSigwaiting:
		return "sigwaiting"
	case EvLockBlock:
		return "lockblock"
	case EvThreadRun:
		return "threadrun"
	case EvThreadPark:
		return "threadpark"
	case EvFastForward:
		return "fastforward"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Record is one binary trace event. CPU is the processor the event
// was attributed to (-1 when the recording site has no CPU in hand —
// wakeups and lock blocks). TID is zero for kernel-level events.
type Record struct {
	Seq  uint64        // global order across all rings
	When time.Duration // virtual-clock time
	Kind EventKind
	CPU  int32
	PID  int32
	LWP  int32
	TID  int32
	Arg  uint64 // kind-specific payload
}

// String renders the record as a single line.
func (r Record) String() string {
	return fmt.Sprintf("%8d %12v cpu%-3d %-10s pid %-3d lwp %-3d tid %-3d arg %d",
		r.Seq, r.When, r.CPU, r.Kind, r.PID, r.LWP, r.TID, r.Arg)
}

// ring is one per-CPU buffer. pos counts the records ever written:
// record overwrites slot pos&mask, so the ring keeps the most recent
// len(slots) events — a busy CPU cannot evict a quiet one's history —
// and pos-len(slots) counts the overwritten ones. Guarded by Rings.mu.
type ring struct {
	pos   uint64
	slots []Record
	mask  uint64
}

// dropped is the ring's overwritten-record count.
func (rb *ring) dropped() uint64 {
	if size := uint64(len(rb.slots)); rb.pos > size {
		return rb.pos - size
	}
	return 0
}

// Rings is a set of per-CPU event rings plus one extra ring for
// events recorded with no CPU attribution. A nil *Rings discards all
// events, so call sites need no enabled checks.
//
// One mutex guards the sequence counter and every ring. A record is
// the lock, a counter bump and a struct store — two atomic operations
// where per-ring locks plus an atomic sequence cost three and the old
// seqlock slots cost four — and it is never allocated. The critical
// section is a few nanoseconds, far shorter than the kernel and
// runtime locks every recording site already holds or has just left,
// so it adds no serialization those do not impose; what it buys is
// that no reader can see a claimed-but-unwritten or half-written slot
// (the seqlock's defects), Seq has no gaps, and a snapshot is one
// consistent cut across all rings.
type Rings struct {
	now  func() time.Duration
	ncpu int

	mu    sync.Mutex
	seq   uint64 // last sequence number issued: global order across rings
	rings []ring // index cpu id; last entry is the unattributed ring
}

// NewRings returns rings for ncpu CPUs, each keeping the most recent
// perCPU events (rounded up to a power of two, minimum 64). now
// supplies timestamps; nil records zero times.
func NewRings(ncpu, perCPU int, now func() time.Duration) *Rings {
	if ncpu <= 0 {
		ncpu = 1
	}
	size := uint64(64)
	for size < uint64(perCPU) {
		size <<= 1
	}
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	r := &Rings{now: now, ncpu: ncpu, rings: make([]ring, ncpu+1)}
	for i := range r.rings {
		r.rings[i].slots = make([]Record, size)
		r.rings[i].mask = size - 1
	}
	return r
}

func (r *Rings) ring(cpu int) *ring {
	if cpu >= 0 && cpu < r.ncpu {
		return &r.rings[cpu]
	}
	return &r.rings[r.ncpu]
}

// Record appends an event to the ring of the given CPU (cpu < 0: the
// unattributed ring). Record on a nil *Rings is a no-op.
func (r *Rings) Record(cpu int, kind EventKind, pid, lwp, tid int, arg uint64) {
	r.RecordAt(r.Now(), cpu, kind, pid, lwp, tid, arg)
}

// Now reads the rings' clock, for a site that needs the time only to
// stamp the records it may go on to make with RecordAt. On a nil *Rings
// it is zero and reads no clock.
func (r *Rings) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.now()
}

// RecordAt is Record for a site that has just read the clock for the
// transition it is recording (a context switch stamps its park and run
// events with the one reading that also charges the microstates), so
// tracing adds no clock read of its own there.
func (r *Rings) RecordAt(when time.Duration, cpu int, kind EventKind, pid, lwp, tid int, arg uint64) {
	if r == nil {
		return
	}
	rb := r.ring(cpu)
	r.mu.Lock()
	r.seq++
	s := &rb.slots[rb.pos&rb.mask]
	s.Seq = r.seq
	s.When = when
	s.Kind = kind
	s.CPU = int32(cpu)
	s.PID = int32(pid)
	s.LWP = int32(lwp)
	s.TID = int32(tid)
	s.Arg = arg
	rb.pos++
	r.mu.Unlock()
}

// NCPU returns the number of per-CPU rings (excluding the
// unattributed ring).
func (r *Rings) NCPU() int {
	if r == nil {
		return 0
	}
	return r.ncpu
}

// Dropped reports how many recorded events have been overwritten
// before being read (ring wrap), summed over all rings.
func (r *Rings) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedLocked()
}

func (r *Rings) droppedLocked() uint64 {
	var dropped uint64
	for i := range r.rings {
		dropped += r.rings[i].dropped()
	}
	return dropped
}

// Snapshot copies the retained events out of every ring, merged into
// one slice ordered by Seq, and reports the overwrite drop count as of
// the same instant. The system may keep running while a snapshot is
// taken; recording sites wait out the copy.
func (r *Rings) Snapshot() ([]Record, uint64) {
	if r == nil {
		return nil, 0
	}
	var out []Record
	r.mu.Lock()
	for i := range r.rings {
		rb := &r.rings[i]
		out = append(out, rb.slots[:min(rb.pos, uint64(len(rb.slots)))]...)
	}
	dropped := r.droppedLocked()
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, dropped
}

// Kinds returns the snapshot filtered to the given kinds, in Seq
// order.
func (r *Rings) Kinds(kinds ...EventKind) []Record {
	recs, _ := r.Snapshot()
	var want [numEventKinds]bool
	for _, k := range kinds {
		want[k] = true
	}
	out := recs[:0]
	for _, rec := range recs {
		if want[rec.Kind] {
			out = append(out, rec)
		}
	}
	return out
}
