package sim

// CPUStat is a snapshot of one CPU's dispatch counters, consumed by
// /proc and mtstat. The counters are monotonic since boot.
type CPUStat struct {
	CPU        int
	Dispatches uint64
	// Steals is always 0: one dispatch queue has nothing to steal
	// from. It stays because the benchmark's meter (bench/meter.go)
	// sums it into sim.steals_per_op, and that module changes only
	// with the benchmark itself (ROADMAP item 1).
	Steals     uint64
	Migrations uint64 // dispatches whose LWP last ran elsewhere
}

// SchedStats returns a per-CPU snapshot of the dispatcher, ascending
// by CPU id.
func (k *Kernel) SchedStats() []CPUStat {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]CPUStat, len(k.cpus))
	for i, c := range k.cpus {
		out[i] = CPUStat{CPU: c.id, Dispatches: c.dispatches, Migrations: c.migrations}
	}
	return out
}

// RunqDepth returns the number of LWPs waiting on the dispatch queue.
func (k *Kernel) RunqDepth() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.runq.Len()
}

// WorkConserving verifies the dispatcher invariant the chaos sweeps
// assert: no CPU sits idle while an LWP eligible for it is queued.
// Every kernel mutation ends in scheduleLocked under the same lock
// hold, so the invariant must hold at any observation point.
func (k *Kernel) WorkConserving() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, c := range k.cpus {
		if c.lwp == nil && k.runq.Nth(0, c.eligible) != nil {
			return false
		}
	}
	return true
}
