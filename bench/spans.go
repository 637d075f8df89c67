package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanName identifies one kind of call bench makes into a layer (or,
// for the *Wait names, one hand-over between two simulated threads
// that bench observes from both sides).
type spanName uint8

const (
	spSemaP spanName = iota
	spSemaV
	spMutexEnter
	spMutexExit
	spCondWait
	spCondSignal
	spSharedLookup
	spSharedEnter
	spSharedExit
	spMemRead
	spMemWrite
	spPipeWrite
	spPipeRead
	spPoll
	spCreate
	spWait
	spYield
	spFork1
	spSpawn
	// Cross-thread hand-overs: started by one simulated thread, ended
	// by the one that picks the work up. They are what an operation
	// waits for between the calls above.
	spWakeWait   // Cond.Signal/Sema.V on one thread -> woken thread runs
	spStartWait  // Create returns -> created thread's body starts
	spAcceptWait // client's request written -> listener has read it
	spReplyWait  // worker's reply written -> client has read it
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"tsync.sema_p", "tsync.sema_v", "tsync.mutex_enter", "tsync.mutex_exit",
	"tsync.cond_wait", "tsync.cond_signal",
	"usync.sharedvar_lookup", "usync.shared_enter", "usync.shared_exit",
	"vm.memread", "vm.memwrite",
	"vfs.pipe_write", "vfs.pipe_read", "vfs.poll",
	"core.create", "core.wait", "core.yield", "mt.fork1", "mt.spawn",
	"core.wake_wait", "core.start_wait", "vfs.accept_wait", "vfs.reply_wait",
}

// spanMetrics maps a span name to the per-layer metric that reports
// its mean self time, and the divisor from nanoseconds to the
// metric's unit.
var spanMetrics = map[spanName]struct {
	metric string
	div    float64
}{
	spSemaP:        {"tsync.sema_p_us", 1e3},
	spSemaV:        {"tsync.sema_v_ns", 1},
	spCondWait:     {"tsync.cond_wait_us", 1e3},
	spCondSignal:   {"tsync.cond_signal_ns", 1},
	spSharedLookup: {"usync.sharedvar_lookup_ns", 1},
	spSharedEnter:  {"usync.shared_enter_us", 1e3},
	spSharedExit:   {"usync.shared_exit_ns", 1},
	spMemRead:      {"vm.memread_ns", 1},
	spMemWrite:     {"vm.memwrite_ns", 1},
	spPipeWrite:    {"vfs.pipe_write_ns", 1},
	spPipeRead:     {"vfs.pipe_read_us", 1e3},
	spPoll:         {"vfs.poll_us", 1e3},
	spCreate:       {"core.create_us", 1e3},
	spWait:         {"core.wait_us", 1e3},
	spFork1:        {"mt.fork1_us", 1e3},
	spSpawn:        {"mt.spawn_us", 1e3},
}

// slowEnterNS is the Enter duration above which an acquisition counts
// as slow (it spun, parked or was handed the lock).
const slowEnterNS = 1000

// noOp is the op id of a span that belongs to no single operation.
const noOp = ^uint32(0)

// span is one retained record: a call into a layer, the span that
// caused it, and the operation it served.
type span struct {
	name       spanName
	op         uint32
	parent     int32 // index in the same thread's spans, -1 for none
	start, end int64 // ns since the tracer's base
}

type spanAgg struct {
	n, total, self int64
}

type frame struct {
	name     spanName
	op       uint32
	start    int64
	children int64 // ns covered by child spans
	slot     int32 // index of the retained record, -1 when not retained
}

// tracer records spans for one traced repeat. Every simulated thread
// writes only its own threadTrace, so recording takes no lock; the
// tracer's lock guards only the list of thread traces.
type tracer struct {
	base time.Time
	// sampleEvery retains the raw span records of every n-th
	// operation; aggregates cover every operation.
	sampleEvery uint32
	// budget is how many raw records (and, separately, mutex-enter
	// samples) all threads together may still retain.
	spanBudget, enterBudget atomic.Int64

	mu      sync.Mutex
	threads []*threadTrace
}

// threadTrace is one simulated thread's span buffer. A nil
// *threadTrace is the untraced case: every method is a no-op.
type threadTrace struct {
	tr      *tracer
	label   string
	spans   []span
	dropped int64
	stack   [8]frame
	depth   int
	agg     [numSpanNames]spanAgg
	slow    int64 // mutex enters above slowEnterNS
	// enterNS keeps mutex-enter durations, slow or not, for the
	// acquisition's p50/p99, while the tracer's budget lasts.
	enterNS []uint32
}

// newTracer returns a tracer that retains at most budget raw records,
// taken from every sampleEvery-th operation.
func newTracer(budget int, sampleEvery uint32) *tracer {
	tr := &tracer{base: time.Now(), sampleEvery: max(sampleEvery, 1)}
	tr.spanBudget.Store(int64(budget))
	tr.enterBudget.Store(int64(budget))
	return tr
}

// thread returns a fresh span buffer for one simulated thread, or nil
// on a nil tracer.
func (tr *tracer) thread(label string) *threadTrace {
	if tr == nil {
		return nil
	}
	tt := &threadTrace{tr: tr, label: label}
	tr.mu.Lock()
	tr.threads = append(tr.threads, tt)
	tr.mu.Unlock()
	return tt
}

// now returns nanoseconds since the tracer's base, or 0 untraced.
func (tt *threadTrace) now() int64 {
	if tt == nil {
		return 0
	}
	return int64(time.Since(tt.tr.base))
}

// begin opens a span around the call that follows.
func (tt *threadTrace) begin(name spanName, op uint32) {
	if tt != nil {
		tt.push(name, op)
	}
}

// end closes the innermost open span.
func (tt *threadTrace) end() {
	if tt != nil {
		tt.pop()
	}
}

// endAs closes the innermost open span and files it under op: for a
// call whose operation is known only once it returns (a read that
// yields the request).
func (tt *threadTrace) endAs(op uint32) {
	if tt != nil {
		tt.stack[tt.depth-1].op = op
		tt.pop()
	}
}

func (tt *threadTrace) sampled(op uint32) bool {
	return op != noOp && op%tt.tr.sampleEvery == 0
}

func (tt *threadTrace) retain(s span) int32 {
	if tt.tr.spanBudget.Add(-1) < 0 {
		tt.dropped++
		return -1
	}
	tt.spans = append(tt.spans, s)
	return int32(len(tt.spans) - 1)
}

func (tt *threadTrace) push(name spanName, op uint32) {
	f := &tt.stack[tt.depth]
	*f = frame{name: name, op: op, slot: -1}
	if tt.sampled(op) {
		parent := int32(-1)
		if tt.depth > 0 {
			parent = tt.stack[tt.depth-1].slot
		}
		f.slot = tt.retain(span{name: name, op: op, parent: parent})
	}
	tt.depth++
	f.start = tt.now()
}

func (tt *threadTrace) pop() {
	end := tt.now()
	tt.depth--
	f := &tt.stack[tt.depth]
	d := end - f.start
	a := &tt.agg[f.name]
	a.n++
	a.total += d
	a.self += d - f.children
	if tt.depth > 0 {
		tt.stack[tt.depth-1].children += d
	}
	if f.name == spMutexEnter {
		if d > slowEnterNS {
			tt.slow++
		}
		if tt.tr.enterBudget.Add(-1) >= 0 {
			tt.enterNS = append(tt.enterNS, clampU32(d))
		}
	}
	if f.slot >= 0 {
		s := &tt.spans[f.slot]
		s.op, s.start, s.end = f.op, f.start, end
	} else if tt.sampled(f.op) {
		// Filed under its operation by endAs; it has no retained parent.
		tt.retain(span{name: f.name, op: f.op, parent: -1, start: f.start, end: end})
	}
}

// handover records a finished cross-thread span: start was stamped by
// the thread that handed the work over, the caller picked it up now.
func (tt *threadTrace) handover(name spanName, op uint32, start int64) {
	if tt == nil || start == 0 {
		return
	}
	end := tt.now()
	a := &tt.agg[name]
	a.n++
	a.total += end - start
	a.self += end - start
	if tt.sampled(op) {
		tt.retain(span{name: name, op: op, parent: -1, start: start, end: end})
	}
}

func clampU32(ns int64) uint32 {
	if ns < 0 {
		return 0
	}
	if ns > int64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(ns)
}

// spanSummary is what a traced repeat reports about its spans.
type spanSummary struct {
	agg      [numSpanNames]spanAgg
	slow     int64
	enterNS  []uint32 // sorted
	retained int
	dropped  int64
}

func (tr *tracer) summary() spanSummary {
	var s spanSummary
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, tt := range tr.threads {
		for i := range tt.agg {
			s.agg[i].n += tt.agg[i].n
			s.agg[i].total += tt.agg[i].total
			s.agg[i].self += tt.agg[i].self
		}
		s.slow += tt.slow
		s.enterNS = append(s.enterNS, tt.enterNS...)
		s.retained += len(tt.spans)
		s.dropped += tt.dropped
	}
	slices.Sort(s.enterNS)
	return s
}

// coverage reports, over the operations whose raw spans were
// retained, which share of the operation's latency some span of that
// operation covers. ops maps an op id to the operation's [start, end)
// on the tracer's clock. The uncovered remainder is time the
// operation spent where bench has no call to wrap, and is reported as
// the residual.
func (tr *tracer) coverage(opWindow func(op uint32) (start, end int64, ok bool)) (covered, total float64, nops int) {
	type iv struct{ s, e int64 }
	byOp := map[uint32][]iv{}
	tr.mu.Lock()
	for _, tt := range tr.threads {
		for _, sp := range tt.spans {
			if sp.op != noOp && sp.end > sp.start {
				byOp[sp.op] = append(byOp[sp.op], iv{sp.start, sp.end})
			}
		}
	}
	tr.mu.Unlock()
	for op, ivs := range byOp {
		ws, we, ok := opWindow(op)
		if !ok || we <= ws {
			continue
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.s, b.s) })
		var cov, hi int64 = 0, ws
		for _, v := range ivs {
			s, e := max(v.s, hi), min(v.e, we)
			if e > s {
				cov += e - s
				hi = e
			}
		}
		covered += float64(cov)
		total += float64(we - ws)
		nops++
	}
	return covered, total, nops
}

// writeChrome writes the retained spans as Chrome trace JSON (load in
// chrome://tracing or ui.perfetto.dev): one track per simulated
// thread, op id and parent span in args.
func (tr *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	tr.mu.Lock()
	for tid, tt := range tr.threads {
		if len(tt.spans) == 0 {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, tid, tt.label)
		for i, sp := range tt.spans {
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%d,"span":%d,"parent":%d}}`,
				spanLabels[sp.name], tid, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, int64(sp.op), i, sp.parent)
		}
	}
	tr.mu.Unlock()
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
