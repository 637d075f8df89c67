package sim

import "sunosmt/internal/dispq"

// This file holds the kernel's one dispatch rule. Every runnable LWP
// waits on Kernel.runq, a dispq.Queue indexed by global priority and
// guarded by Kernel.mu, and a free CPU takes the best LWP eligible for
// it. Eligibility is the one per-CPU rule: an LWP hard-bound
// (BindCPU) to another CPU is skipped.
//
// Per-CPU queues would buy nothing here: every queue would sit under
// that same lock, a simulated CPU has no cache to keep warm, and one
// queue is work-conserving by construction.

// Every global priority has a queue level of its own, so level order
// is dispatch order; this fails to compile if the queue has fewer.
var _ [dispq.Levels - rtMaxGlobal - 1]struct{}

// eligible reports whether l may run on c: it is not hard-bound to
// another CPU. It is the filter of every pick for c.
func (c *CPU) eligible(l *LWP) bool { return l.boundCPU == nil || l.boundCPU == c }
