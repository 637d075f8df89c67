// Package chaos is a seeded, deterministic fault-injection and
// schedule-exploration source for the simulated kernel and the threads
// library.
//
// The paper's correctness claims — per-thread signal masks, SIGWAITING
// pool growth, locks in shared mappings surviving fork — are claims
// about *all* interleavings, but a unit test exercises exactly one
// schedule per run. A chaos.Source perturbs every decision point the
// substrate exposes (forced preemption, dispatch pick order, wakeup
// order, spurious wakeups, injected EINTR, early SIGWAITING, timer
// jitter) so a sweep over seeds searches the schedule space, and any
// failure reproduces from its seed alone.
//
// # Determinism
//
// Every decision is a pure function of (seed, site name, per-site
// counter): the n-th query at a given site always answers the same
// way for a given seed, no matter how host goroutines are scheduled.
// Wall-clock time and math/rand are never consulted. After
// StartRecording every consulted decision is kept in order, so two
// runs of the same seed over the same workload produce identical
// decision streams (Schedule serializes them as a journal NewReplay
// can re-issue); a failing seed prints as a replayable -chaos.seed=N.
//
// # Safety
//
// Perturbations are chosen from the safe direction of each decision:
// dispatch reordering picks a different *eligible* runnable LWP (a CPU
// is never left idle while work exists), SIGWAITING is posted early
// (never suppressed), spurious wakeups are injected only at sites
// whose callers loop (Mesa semantics), and EINTR only on sleeps the
// caller declared interruptible. A nil *Source is valid and injects
// nothing, so hook sites need no nil checks.
package chaos

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"sunosmt/internal/trace"
)

// Config sets the seed and the per-site firing rates of a Source.
// Rates are per-mille (0–1000); zero disables a site.
type Config struct {
	// Seed selects the schedule; the same seed over the same
	// workload replays the same decisions.
	Seed uint64

	// Preempt forces an on-CPU LWP to release its processor at a
	// kernel checkpoint, as if its time slice expired.
	Preempt int
	// ThreadPreempt forces an unbound thread back onto the library
	// run queue at a thread checkpoint, handing its LWP to another
	// runnable thread.
	ThreadPreempt int
	// PickReorder makes the kernel dispatcher pick a different
	// eligible runnable LWP than the best-priority one, delaying
	// the best LWP's dispatch.
	PickReorder int
	// RunqReorder makes the library dispatcher pop a different
	// runnable thread than the best-priority one.
	RunqReorder int
	// WakeReorder wakes a non-head LWP from a kernel sleep queue,
	// breaking the FIFO wakeup order.
	WakeReorder int
	// SpuriousWakeup makes a thread-level park at a synchronization
	// primitive return immediately, as condition variables are
	// allowed to.
	SpuriousWakeup int
	// EINTR fails an interruptible kernel sleep with a spurious
	// signal interruption.
	EINTR int
	// Sigwaiting posts SIGWAITING before the true all-LWPs-blocked
	// condition holds, randomizing the pool-growth timing.
	Sigwaiting int
	// TimerJitter perturbs AfterFunc durations (through a
	// ktime.Jittered clock) by up to MaxTimerJitter in either
	// direction.
	TimerJitter    int
	MaxTimerJitter time.Duration
	// SweepReorder rotates the order in which the owner-death sweep
	// visits the registered shared variables, exploring which
	// waiters observe OWNERDEAD first.
	SweepReorder int
	// AgeOutEarly expires an idle pool LWP's age-out grace period
	// immediately, exploring shrink/growth races. Early expiry is
	// the safe direction: the retirement re-checks eligibility and
	// the pool regrows on SIGWAITING.
	AgeOutEarly int
	// DetectReorder rotates the start-vertex order of a deadlock
	// detection pass. Cycles found are order-independent; the site
	// exercises the walk itself.
	DetectReorder int
	// StealReorder makes the kernel's work-stealing dispatcher steal
	// from a different victim queue than the best one. The thief still
	// takes *a* queued item, so perturbation never idles a CPU or
	// LWP while work exists — only placement is explored.
	StealReorder int
	// BalanceEarly runs the periodic run-queue balancer ahead of its
	// period at a scheduling point. Early balancing is the safe
	// direction: moves only ever shift queued work toward idler
	// CPUs, and the work-conservation invariant is unaffected.
	BalanceEarly int
	// AllocFail fails an address-space carve (Mmap, Sbrk, stack
	// segment) with a transient ENOMEM. Failing is the safe
	// direction only for callers that handle ENOMEM, so the rate is
	// zero in DefaultConfig; the exhaustion sweeps enable it.
	AllocFail int
	// LWPSpawnFail fails a kernel LWP creation with a transient
	// EAGAIN, as if the kernel hit its process or memory limits.
	// Zero in DefaultConfig (see AllocFail).
	LWPSpawnFail int
	// StackFail fails a library thread-stack allocation with a
	// transient EAGAIN. Zero in DefaultConfig (see AllocFail).
	StackFail int
}

// DefaultConfig returns the rates used by the chaos test sweeps:
// every site enabled, tuned so a few hundred scheduling operations see
// a handful of perturbations of each kind.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:           seed,
		Preempt:        100,
		ThreadPreempt:  150,
		PickReorder:    150,
		RunqReorder:    150,
		WakeReorder:    250,
		SpuriousWakeup: 100,
		EINTR:          60,
		Sigwaiting:     25,
		TimerJitter:    200,
		MaxTimerJitter: time.Millisecond,
		SweepReorder:   300,
		AgeOutEarly:    150,
		DetectReorder:  200,
		StealReorder:   150,
		BalanceEarly:   100,
	}
}

// FaultConfig is DefaultConfig with the resource-exhaustion sites
// (AllocFail, LWPSpawnFail, StackFail) enabled as well: every
// schedule perturbation of the default sweeps plus transient
// allocation failures on the creation paths. Only workloads that
// treat EAGAIN/ENOMEM as recoverable should run under it.
func FaultConfig(seed uint64) Config {
	cfg := DefaultConfig(seed)
	cfg.AllocFail = 80
	cfg.LWPSpawnFail = 120
	cfg.StackFail = 80
	return cfg
}

// Source issues deterministic perturbation decisions. A nil *Source
// never fires. One Source must not be shared between systems whose
// schedules are compared: the decision stream interleaves all sites.
type Source struct {
	cfg Config

	mu       sync.Mutex
	counters map[string]uint64

	// Recording mode: every consulted decision is appended in global
	// order, so the run's schedule serializes to a journal.
	recording bool
	decisions []trace.Decision

	// Replay mode (non-nil replay map): decisions are answered from
	// per-site queues instead of rolled, and the first inconsistency
	// between the recorded stream and the live run is kept in div.
	replay map[string][]trace.Decision
	rnext  map[string]int
	div    *Divergence
}

// Divergence describes the first point where a replayed run stopped
// matching its recording: the site was consulted more times than the
// journal holds (Exhausted), or with a different input — a different
// candidate count or timer duration — meaning the schedule had
// already drifted before the decision applied (Want holds the
// recorded decision, GotN the live input).
type Divergence struct {
	Site      string
	Index     int // per-site consultation index
	Exhausted bool
	Want      trace.Decision
	GotN      int64
}

// String implements fmt.Stringer.
func (d *Divergence) String() string {
	if d == nil {
		return "<no divergence>"
	}
	if d.Exhausted {
		return fmt.Sprintf("chaos replay diverged: site %s consulted %d times, journal ends at %d (live input %d)",
			d.Site, d.Index+1, d.Index, d.GotN)
	}
	return fmt.Sprintf("chaos replay diverged: site %s query %d recorded input %d, live input %d",
		d.Site, d.Index, d.Want.N, d.GotN)
}

// New returns a Source with the given configuration.
func New(cfg Config) *Source {
	return &Source{cfg: cfg, counters: make(map[string]uint64)}
}

// Enabled reports whether the source injects anything (false for nil).
func (s *Source) Enabled() bool { return s != nil }

// Seed returns the configured seed (0 for nil).
func (s *Source) Seed() uint64 {
	if s == nil {
		return 0
	}
	return s.cfg.Seed
}

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// well-distributed bijection on 64-bit values.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// siteHash is FNV-1a over the site name.
func siteHash(site string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// rollLocked draws the next value for site: a pure function of (seed,
// site, per-site counter), independent of host timing.
func (s *Source) rollLocked(site string) uint64 {
	n := s.counters[site]
	s.counters[site] = n + 1
	return splitmix64(s.cfg.Seed ^ siteHash(site) ^ (n * 0x9e3779b97f4a7c15))
}

// replayNextLocked pops the next recorded decision for site,
// verifying the live input n matches the recorded one. On journal
// exhaustion or input mismatch it keeps the first divergence and
// reports !ok; the caller then applies no perturbation (always a
// safe answer).
func (s *Source) replayNextLocked(site string, n int64) (trace.Decision, bool) {
	i := s.rnext[site]
	q := s.replay[site]
	if i >= len(q) {
		if s.div == nil {
			s.div = &Divergence{Site: site, Index: i, Exhausted: true, GotN: n}
		}
		return trace.Decision{}, false
	}
	s.rnext[site] = i + 1
	d := q[i]
	if d.N != n {
		if s.div == nil {
			s.div = &Divergence{Site: site, Index: i, Want: d, GotN: n}
		}
		return trace.Decision{}, false
	}
	return d, true
}

// recordLocked appends a consulted decision in global order.
func (s *Source) recordLocked(site string, n, value int64) {
	if s.recording {
		s.decisions = append(s.decisions, trace.Decision{Site: site, N: n, Value: value})
	}
}

// fire decides a boolean site.
func (s *Source) fire(site string, permille int) bool {
	if s == nil || permille <= 0 {
		return false
	}
	s.mu.Lock()
	var hit bool
	if s.replay != nil {
		d, ok := s.replayNextLocked(site, 1)
		hit = ok && d.Value != 0
	} else {
		h := s.rollLocked(site)
		hit = h%1000 < uint64(permille)
	}
	v := int64(0)
	if hit {
		v = 1
	}
	s.recordLocked(site, 1, v)
	s.mu.Unlock()
	return hit
}

// choose decides an index site: -1 means "no perturbation", otherwise
// an index in [0, n).
func (s *Source) choose(site string, n, permille int) int {
	if s == nil || permille <= 0 || n <= 1 {
		return -1
	}
	s.mu.Lock()
	idx := -1
	if s.replay != nil {
		if d, ok := s.replayNextLocked(site, int64(n)); ok {
			idx = int(d.Value)
		}
	} else {
		h := s.rollLocked(site)
		if h%1000 < uint64(permille) {
			idx = int((h >> 32) % uint64(n))
		}
	}
	s.recordLocked(site, int64(n), int64(idx))
	s.mu.Unlock()
	return idx
}

// Preempt reports whether an on-CPU LWP should be forced off its
// processor at this kernel checkpoint.
func (s *Source) Preempt() bool {
	if s == nil {
		return false
	}
	return s.fire("sim.preempt", s.cfg.Preempt)
}

// ThreadPreempt reports whether an unbound thread should be forced
// back onto the library run queue at this thread checkpoint.
func (s *Source) ThreadPreempt() bool {
	if s == nil {
		return false
	}
	return s.fire("core.preempt", s.cfg.ThreadPreempt)
}

// PickReorder returns the index of the eligible runnable LWP the
// kernel dispatcher should pick instead of the best one, or -1 to keep
// the best. n is the number of eligible candidates.
func (s *Source) PickReorder(n int) int {
	if s == nil {
		return -1
	}
	return s.choose("sim.pick", n, s.cfg.PickReorder)
}

// RunqReorder returns the index of the queued thread the library
// dispatcher should pop instead of the best one, or -1.
func (s *Source) RunqReorder(n int) int {
	if s == nil {
		return -1
	}
	return s.choose("core.runq", n, s.cfg.RunqReorder)
}

// WakeReorder returns the index of the sleep-queue waiter to wake
// instead of the FIFO head, or -1.
func (s *Source) WakeReorder(n int) int {
	if s == nil {
		return -1
	}
	return s.choose("sim.wake", n, s.cfg.WakeReorder)
}

// SpuriousWakeup reports whether a thread-level park should return
// immediately without a real wake.
func (s *Source) SpuriousWakeup() bool {
	if s == nil {
		return false
	}
	return s.fire("tsync.spurious", s.cfg.SpuriousWakeup)
}

// EINTR reports whether an interruptible kernel sleep should fail with
// a spurious interruption.
func (s *Source) EINTR() bool {
	if s == nil {
		return false
	}
	return s.fire("sim.eintr", s.cfg.EINTR)
}

// Sigwaiting reports whether SIGWAITING should be posted early, before
// the all-LWPs-blocked condition truly holds.
func (s *Source) Sigwaiting() bool {
	if s == nil {
		return false
	}
	return s.fire("sim.sigwaiting", s.cfg.Sigwaiting)
}

// SweepReorder returns the index at which the owner-death sweep should
// start its rotation over n registered variables, or -1 for the
// sorted order.
func (s *Source) SweepReorder(n int) int {
	if s == nil {
		return -1
	}
	return s.choose("usync.sweep", n, s.cfg.SweepReorder)
}

// AgeOutEarly reports whether an idle pool LWP's age-out grace period
// should expire immediately instead of after the configured idle time.
func (s *Source) AgeOutEarly() bool {
	if s == nil {
		return false
	}
	return s.fire("core.ageout", s.cfg.AgeOutEarly)
}

// DetectReorder returns the index at which a deadlock detection pass
// should start its rotation over n wait-for vertices, or -1.
func (s *Source) DetectReorder(n int) int {
	if s == nil {
		return -1
	}
	return s.choose("core.detect", n, s.cfg.DetectReorder)
}

// StealReorder returns the index of the victim queue a work-stealing
// dispatcher should steal from instead of the best-priority one, or
// -1 to keep the best. n is the number of queues with stealable work.
func (s *Source) StealReorder(n int) int {
	if s == nil {
		return -1
	}
	return s.choose("sched.steal", n, s.cfg.StealReorder)
}

// BalanceEarly reports whether the periodic run-queue balancer should
// run now, ahead of its configured period.
func (s *Source) BalanceEarly() bool {
	if s == nil {
		return false
	}
	return s.fire("sched.balance", s.cfg.BalanceEarly)
}

// AllocFail reports whether an address-space carve should fail with a
// transient ENOMEM.
func (s *Source) AllocFail() bool {
	if s == nil {
		return false
	}
	return s.fire("vm.allocfail", s.cfg.AllocFail)
}

// LWPSpawnFail reports whether a kernel LWP creation should fail with
// a transient EAGAIN.
func (s *Source) LWPSpawnFail() bool {
	if s == nil {
		return false
	}
	return s.fire("sim.lwpspawnfail", s.cfg.LWPSpawnFail)
}

// StackFail reports whether a library thread-stack allocation should
// fail with a transient EAGAIN.
func (s *Source) StackFail() bool {
	if s == nil {
		return false
	}
	return s.fire("core.stackfail", s.cfg.StackFail)
}

// Jitter perturbs a timer duration by up to ±MaxTimerJitter, never
// below one nanosecond. ktime.Jittered calls it for every AfterFunc.
func (s *Source) Jitter(d time.Duration) time.Duration {
	if s == nil || s.cfg.TimerJitter <= 0 || s.cfg.MaxTimerJitter <= 0 || d <= 0 {
		return d
	}
	s.mu.Lock()
	nd := d
	if s.replay != nil {
		if rec, ok := s.replayNextLocked("ktime.jitter", int64(d)); ok {
			nd = time.Duration(rec.Value)
		}
	} else {
		h := s.rollLocked("ktime.jitter")
		if h%1000 < uint64(s.cfg.TimerJitter) {
			span := int64(s.cfg.MaxTimerJitter)
			nd = d + time.Duration(int64((h>>32)%uint64(2*span+1))-span)
			if nd < time.Nanosecond {
				nd = time.Nanosecond
			}
		}
	}
	s.recordLocked("ktime.jitter", int64(d), int64(nd))
	s.mu.Unlock()
	return nd
}

// StartRecording turns on decision recording: from this point every
// consulted decision is kept in global order, ready to serialize with
// Schedule. Call it before the workload starts so the journal covers
// the whole run. No-op on a nil Source.
func (s *Source) StartRecording() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.recording = true
	s.mu.Unlock()
}

// Recording reports whether decision recording is on.
func (s *Source) Recording() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recording
}

// Schedule snapshots the recorded decision stream into a journal
// whose metadata carries the full chaos Config, so NewReplay can
// rebuild an equivalent source from the journal alone. The caller
// typically appends the run's ring events before writing it out.
func (s *Source) Schedule() *trace.Journal {
	j := trace.NewJournal()
	if s == nil {
		return j
	}
	s.mu.Lock()
	if raw, err := json.Marshal(s.cfg); err == nil {
		j.Meta["chaos-config"] = string(raw)
	}
	j.Meta["seed"] = fmt.Sprint(s.cfg.Seed)
	j.Decisions = append([]trace.Decision(nil), s.decisions...)
	s.mu.Unlock()
	return j
}

// NewReplay returns a Source that re-issues the journal's decision
// stream instead of rolling fresh decisions: the n-th consultation of
// each site answers exactly what the recorded run was told, so the
// dispatcher's choice points are driven back down the recorded
// schedule. The journal must have been produced by Schedule (its
// metadata carries the recorded Config, which replay reuses so the
// same sites are active at the same rates). Divergence reports the
// first inconsistency between the recording and the live run.
func NewReplay(j *trace.Journal) (*Source, error) {
	raw, ok := j.Meta["chaos-config"]
	if !ok {
		return nil, fmt.Errorf("chaos: journal has no chaos-config metadata")
	}
	var cfg Config
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		return nil, fmt.Errorf("chaos: bad chaos-config metadata: %w", err)
	}
	s := New(cfg)
	s.replay = make(map[string][]trace.Decision)
	s.rnext = make(map[string]int)
	for _, d := range j.Decisions {
		s.replay[d.Site] = append(s.replay[d.Site], d)
	}
	return s, nil
}

// Replaying reports whether the source is in replay mode.
func (s *Source) Replaying() bool {
	if s == nil {
		return false
	}
	return s.replay != nil
}

// Divergence returns the first recorded replay divergence, or nil
// when the replayed run has followed the journal exactly so far.
func (s *Source) Divergence() *Divergence {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.div
}
