package sim

import (
	"container/heap"
	"time"

	"sunosmt/internal/ktime"
)

// callout is the kernel's deadline queue for timed sleeps, after the
// SVR4 callout table: each sleep with a timeout queues its LWP here,
// earliest deadline first (FIFO among equal ones), and one clock timer
// is armed for the earliest. A sleep re-arms the timer only when its
// deadline is earlier than the armed one; a wake takes its entry out
// and leaves the timer alone, so a sleep woken before its deadline —
// nearly every bounded poll — makes no timer call. Guarded by
// Kernel.mu.
type callout struct {
	q     calloutQ
	seq   uint64
	timer ktime.Timer
	armed time.Duration // deadline the timer is armed for; 0 when none
}

// calloutQ is the min-heap under the callout, by (sleepDeadline, coSeq).
type calloutQ []*LWP

func (q calloutQ) Len() int { return len(q) }
func (q calloutQ) Less(i, j int) bool {
	if q[i].sleepDeadline != q[j].sleepDeadline {
		return q[i].sleepDeadline < q[j].sleepDeadline
	}
	return q[i].coSeq < q[j].coSeq
}
func (q calloutQ) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].coIdx, q[j].coIdx = i, j
}
func (q *calloutQ) Push(x any) {
	l := x.(*LWP)
	l.coIdx = len(*q)
	*q = append(*q, l)
}
func (q *calloutQ) Pop() any {
	old := *q
	l := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return l
}

// calloutAddLocked queues l's sleep to time out at deadline; now is the
// sleep's entry reading.
func (k *Kernel) calloutAddLocked(l *LWP, deadline, now time.Duration) {
	co := &k.callout
	co.seq++
	l.sleepDeadline, l.coSeq = deadline, co.seq
	heap.Push(&co.q, l)
	if co.armed == 0 || deadline < co.armed {
		k.calloutArmLocked(deadline, now)
	}
}

// calloutArmLocked points the timer at deadline: the kernel's one
// AfterFunc the first time, a Reset after that.
func (k *Kernel) calloutArmLocked(deadline, now time.Duration) {
	co := &k.callout
	co.armed = deadline
	if co.timer == nil {
		co.timer = k.clock.AfterFunc(deadline-now, k.calloutFire)
	} else {
		co.timer.Reset(deadline - now)
	}
}

// calloutRemoveLocked takes l's sleep out of the callout, if it is in.
func (k *Kernel) calloutRemoveLocked(l *LWP) {
	if l.sleepDeadline != 0 {
		heap.Remove(&k.callout.q, l.coIdx)
		l.sleepDeadline = 0
	}
}

// calloutFire is the timer's function: it times out every sleep whose
// deadline has passed, earliest first, and re-arms for the earliest
// left. A call may come early (chaos jitter) or stale (armed for a
// sleep that has since been woken, or overtaken by a re-arm); it then
// times out nothing and re-arms for what remains.
func (k *Kernel) calloutFire() {
	k.mu.Lock()
	defer k.mu.Unlock()
	co := &k.callout
	now := k.clock.Now()
	co.armed = 0
	for len(co.q) > 0 && co.q[0].sleepDeadline <= now {
		k.wakeLWPLocked(co.q[0], now, WakeTimeout)
	}
	if len(co.q) > 0 {
		k.calloutArmLocked(co.q[0].sleepDeadline, now)
	}
}
