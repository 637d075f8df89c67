package core

import (
	"testing"

	"sunosmt/internal/sim"
)

// TestContendShedsStaleOwnerBoost: a turnstile can move to a new owner
// without a Released — a mutex owner releases with one swap and reaches
// the word lock only afterwards, and a thread that takes the lock past
// the queue in between contends first. The stale owner's boost, willed
// through this turnstile, must go with it. Low-priority t1 holds the
// turnstile a priority-10 waiter linked and willed through; Contend(t3)
// moves it; t1 is back at its base and holds nothing.
func TestContendShedsStaleOwnerBoost(t *testing.T) {
	k := sim.NewKernel(sim.Config{NCPU: 1, KernelSwitchCost: -1})
	m := NewRuntime(k, k.NewProcess("test", nil), Config{})
	thread := func(prio int) *Thread {
		th := &Thread{m: m, prio: prio, state: ThreadSleeping}
		th.effPrio.Store(int32(prio))
		return th
	}
	t1, waiter, t3 := thread(1), thread(10), thread(1)
	var ts Turnstile
	ts.Contend(t1)
	waiter.NoteBlocked(&BlockInfo{Kind: "mutex", Name: "mutex#test", Ts: &ts})
	waiter.WillPriority()
	if got := t1.EffPriority(); got != 10 {
		t.Fatalf("owner eff after the waiter willed = %d, want 10", got)
	}
	ts.Contend(t3)
	if got := t1.EffPriority(); got != 1 {
		t.Errorf("stale owner eff after Contend moved the turnstile = %d, want base 1", got)
	}
	if t1.heldTs != nil || ts.owner != t3 || t3.heldTs != &ts || ts.linked != t3 {
		t.Errorf("turnstile links after the move: t1 holds %p, owner %p, t3 holds %p, linked %p; want nil, t3, ts, t3",
			t1.heldTs, ts.owner, t3.heldTs, ts.linked)
	}
}
