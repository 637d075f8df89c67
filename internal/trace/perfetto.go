package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Perfetto export: renders a merged ring snapshot as Chrome trace
// JSON (the catapult "traceEvents" array format), which the Perfetto
// UI (ui.perfetto.dev) and chrome://tracing both load directly.
//
// The export builds three groups of tracks:
//
//   - one track per simulated CPU (process 0, "CPUs"), with an on-CPU
//     slice per dispatched LWP, cut at the next dispatch or preempt
//     on that CPU, plus instants for preemptions and migrations;
//   - one track per (process, thread), with a running slice from
//     EvThreadRun to EvThreadPark and a colored park-state slice
//     (runnable / sleeping / stopped / waiting, per the library
//     ThreadState the thread parked in) until its next run;
//   - a "wakeups" track carrying one small slice per kernel wakeup,
//     connected by a flow arrow to the dispatch that the wakeup led
//     to, and global instants for fast-forward jumps.
//
// Timestamps come from Record.When (the virtual clock), so an export
// of a fast-forwarded run shows the jumped-over idle time to scale.
// Records read back from a schedule journal have no timestamps and
// render degenerately; export from a live ring snapshot.

// pfEvent is one Chrome trace event. ts/dur are microseconds.
type pfEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	S     string         `json:"s,omitempty"`
	Cname string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// The CPU tracks live in a synthetic "process 0"; simulated PIDs
// start at 1 so there is no collision. The wakeup track is one tid
// past the last CPU.
const pfCPUPid = 0

func pfTS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func pfDur(from, to time.Duration) *float64 {
	if to < from {
		to = from
	}
	v := pfTS(to - from)
	return &v
}

// parkStyle maps a park-state Arg (the library ThreadState ordinal
// recorded by EvThreadPark) to a slice name and a catapult reserved
// color.
func parkStyle(arg uint64) (string, string) {
	switch arg {
	case 0:
		return "runnable", "thread_state_runnable"
	case 1:
		return "running", "thread_state_running"
	case 2:
		return "sleeping", "thread_state_sleeping"
	case 3:
		return "stopped", "thread_state_uninterruptible"
	case 4:
		return "waiting", "thread_state_iowait"
	case 5:
		return "zombie", "black"
	}
	return fmt.Sprintf("state %d", arg), "grey"
}

type pfThreadKey struct{ pid, tid int32 }

// WritePerfetto renders recs (a Seq-ordered ring snapshot, as
// returned by Rings.Snapshot) as Chrome trace JSON.
func WritePerfetto(w io.Writer, recs []Record) error {
	var evs []pfEvent
	var end time.Duration
	ncpu := 0
	for _, r := range recs {
		if r.When > end {
			end = r.When
		}
		if int(r.CPU)+1 > ncpu {
			ncpu = int(r.CPU) + 1
		}
	}
	wakeTid := ncpu // "wakeups" row under the CPU rows

	// Track-name metadata.
	evs = append(evs,
		pfEvent{Name: "process_name", Ph: "M", Pid: pfCPUPid,
			Args: map[string]any{"name": "CPUs"}},
		pfEvent{Name: "process_sort_index", Ph: "M", Pid: pfCPUPid,
			Args: map[string]any{"sort_index": -1}},
		pfEvent{Name: "thread_name", Ph: "M", Pid: pfCPUPid, Tid: wakeTid,
			Args: map[string]any{"name": "wakeups"}},
		pfEvent{Name: "thread_sort_index", Ph: "M", Pid: pfCPUPid, Tid: wakeTid,
			Args: map[string]any{"sort_index": ncpu}},
	)
	for c := 0; c < ncpu; c++ {
		evs = append(evs, pfEvent{Name: "thread_name", Ph: "M", Pid: pfCPUPid, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("cpu %d", c)}})
	}

	// One linear pass builds every track; the per-track open-slice
	// state is keyed by CPU or by (pid, tid).
	type openSlice struct {
		at   time.Duration
		name string
		args map[string]any
	}
	cpuOpen := make(map[int32]*openSlice)
	thrOpen := make(map[pfThreadKey]*openSlice) // running slice
	thrPark := make(map[pfThreadKey]*openSlice) // park-state slice
	thrStyle := make(map[pfThreadKey]string)    // cname of open park slice
	namedProc := make(map[int32]bool)
	namedThr := make(map[pfThreadKey]bool)
	// pendingWake maps a woken (pid, lwp) to the flow id opened at
	// its wakeup; the next dispatch of that LWP closes the arrow.
	pendingWake := make(map[[2]int32]int)
	flowID := 0

	closeCPU := func(cpu int32, at time.Duration) {
		if o := cpuOpen[cpu]; o != nil {
			evs = append(evs, pfEvent{Name: o.name, Ph: "X", Ts: pfTS(o.at),
				Dur: pfDur(o.at, at), Pid: pfCPUPid, Tid: int(cpu),
				Cname: "thread_state_running", Args: o.args})
			delete(cpuOpen, cpu)
		}
	}
	nameThread := func(k pfThreadKey) {
		if !namedProc[k.pid] {
			namedProc[k.pid] = true
			evs = append(evs, pfEvent{Name: "process_name", Ph: "M", Pid: int(k.pid),
				Args: map[string]any{"name": fmt.Sprintf("proc %d", k.pid)}})
		}
		if !namedThr[k] {
			namedThr[k] = true
			evs = append(evs, pfEvent{Name: "thread_name", Ph: "M", Pid: int(k.pid),
				Tid: int(k.tid), Args: map[string]any{"name": fmt.Sprintf("thread %d", k.tid)}})
		}
	}
	closeThr := func(k pfThreadKey, at time.Duration) {
		if o := thrOpen[k]; o != nil {
			evs = append(evs, pfEvent{Name: o.name, Ph: "X", Ts: pfTS(o.at),
				Dur: pfDur(o.at, at), Pid: int(k.pid), Tid: int(k.tid),
				Cname: "thread_state_running", Args: o.args})
			delete(thrOpen, k)
		}
		if o := thrPark[k]; o != nil {
			evs = append(evs, pfEvent{Name: o.name, Ph: "X", Ts: pfTS(o.at),
				Dur: pfDur(o.at, at), Pid: int(k.pid), Tid: int(k.tid),
				Cname: thrStyle[k], Args: o.args})
			delete(thrPark, k)
		}
	}

	for _, r := range recs {
		switch r.Kind {
		case EvDispatch:
			closeCPU(r.CPU, r.When)
			cpuOpen[r.CPU] = &openSlice{at: r.When,
				name: fmt.Sprintf("pid %d lwp %d", r.PID, r.LWP),
				args: map[string]any{"prio": r.Arg}}
			if id, ok := pendingWake[[2]int32{r.PID, r.LWP}]; ok {
				delete(pendingWake, [2]int32{r.PID, r.LWP})
				evs = append(evs, pfEvent{Name: "wakeup", Ph: "f", Cat: "wakeup",
					ID: id, BP: "e", Ts: pfTS(r.When), Pid: pfCPUPid, Tid: int(r.CPU)})
			}
		case EvPreempt:
			closeCPU(r.CPU, r.When)
			evs = append(evs, pfEvent{Name: "preempt", Ph: "i", S: "t",
				Ts: pfTS(r.When), Pid: pfCPUPid, Tid: int(r.CPU)})
		case EvMigrate:
			evs = append(evs, pfEvent{Name: "migrate", Ph: "i", S: "t",
				Ts: pfTS(r.When), Pid: pfCPUPid, Tid: int(r.CPU),
				Args: map[string]any{"prev_cpu": r.Arg, "pid": r.PID, "lwp": r.LWP}})
		case EvWakeup:
			flowID++
			dur := 1.0
			evs = append(evs,
				pfEvent{Name: fmt.Sprintf("wake pid %d lwp %d", r.PID, r.LWP),
					Ph: "X", Ts: pfTS(r.When), Dur: &dur, Pid: pfCPUPid, Tid: wakeTid,
					Cname: "thread_state_runnable"},
				pfEvent{Name: "wakeup", Ph: "s", Cat: "wakeup", ID: flowID,
					Ts: pfTS(r.When), Pid: pfCPUPid, Tid: wakeTid})
			pendingWake[[2]int32{r.PID, r.LWP}] = flowID
		case EvFastForward:
			evs = append(evs, pfEvent{
				Name: fmt.Sprintf("fast-forward +%v", time.Duration(r.Arg)),
				Ph:   "i", S: "g", Ts: pfTS(r.When), Pid: pfCPUPid, Tid: wakeTid})
		case EvThreadRun:
			k := pfThreadKey{r.PID, r.TID}
			nameThread(k)
			closeThr(k, r.When)
			thrOpen[k] = &openSlice{at: r.When, name: "run", args: map[string]any{"lwp": r.LWP}}
		case EvThreadPark:
			k := pfThreadKey{r.PID, r.TID}
			nameThread(k)
			closeThr(k, r.When)
			name, cname := parkStyle(r.Arg)
			thrPark[k] = &openSlice{at: r.When, name: name}
			thrStyle[k] = cname
		}
	}
	for cpu := range cpuOpen {
		closeCPU(cpu, end)
	}
	for k := range thrOpen {
		closeThr(k, end)
	}
	for k := range thrPark {
		closeThr(k, end)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
	})
}
