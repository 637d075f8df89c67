// Robust owner tracking for process-shared synchronization variables.
//
// The paper's shared variables "retain their state" in the mapped
// bytes — which cuts both ways: a process that dies inside a critical
// section leaves the lock word set forever, and every other process
// hangs. Real SVR4/Solaris grew robust mutexes for this hole: the
// owner's identity is recorded next to the lock word, the kernel
// sweeps owned locks at process death, and the next acquirer gets
// EOWNERDEAD plus a make-consistent/ENOTRECOVERABLE protocol.
//
// This file is the registry half of that design. tsync declares each
// shared variable's kind and word layout (below); the registry's
// death hook sweeps all declared variables owned by the dead process,
// clears the lock, marks the robust word OWNERDEAD and wakes all
// waiters. tsync's acquisition paths surface the mark as ErrOwnerDead.
package usync

import (
	"sort"

	"sunosmt/internal/sim"
)

// Kind tells the owner-death sweep which word layout a declared
// shared variable uses.
type Kind int

// Declared variable kinds. The word layouts are fixed contracts
// between tsync (which operates them) and the sweep (which recovers
// them):
//
//	KindMutex: w0=lock  w1=waiters  w2=owner  w3=robust
//	KindSema:  w0=count w1=owner    w2=robust
//	KindRW:    w0=readers w1=writer w2=wwaiting w3=upgrade w4=owner w5=robust
const (
	KindNone Kind = iota
	KindMutex
	KindSema
	KindRW
)

// Robust-word states, stored in the variable's robust word.
const (
	// RobustOK: no pending owner death.
	RobustOK uint64 = iota
	// RobustOwnerDead: the owner died holding the variable; the next
	// acquirer gets ErrOwnerDead and must make it consistent.
	RobustOwnerDead
	// RobustNotRecoverable: an ErrOwnerDead acquirer released the
	// variable without making it consistent; it is unusable forever.
	RobustNotRecoverable
	// RobustClaimed: (rwlock only) an acquirer holds the lock under
	// ErrOwnerDead and has not yet decided its fate; other threads
	// wait for the claim to resolve.
	RobustClaimed
)

// EncodeOwner packs a (pid, tid) pair into an owner word. Zero (no
// owner) is never a valid encoding for a live thread because pids
// start at 1.
func EncodeOwner(pid sim.PID, tid int) uint64 {
	return uint64(uint32(pid))<<32 | uint64(uint32(tid))
}

// DecodeOwner unpacks an owner word.
func DecodeOwner(w uint64) (pid sim.PID, tid int) {
	return sim.PID(uint32(w >> 32)), int(uint32(w))
}

// Declare records the variable's kind so the owner-death sweep knows
// its word layout. Idempotent; every process sharing the variable
// declares the same kind when it binds a primitive to it.
func (v *Var) Declare(kind Kind) { v.kind.Store(int32(kind)) }

// declared returns the kind last declared, KindNone if none was.
func (v *Var) declared() Kind { return Kind(v.kind.Load()) }

// SweepOwnerDead scans every declared shared variable owned by a
// thread of the dead process, clears the holder, marks the robust
// word OWNERDEAD and wakes all waiters. Registered as a kernel death
// hook, so it runs exactly once per process death (voluntary exit
// included — a clean exit with a held shared lock is still an owner
// death). The visit order rotates under chaos so seeds explore which
// waiter observes OWNERDEAD first.
func (r *Registry) SweepOwnerDead(pid sim.PID) {
	r.mu.Lock()
	vars := make([]*Var, 0, len(r.vars))
	for _, v := range r.vars {
		if v.declared() != KindNone {
			vars = append(vars, v)
		}
	}
	r.mu.Unlock()
	if len(vars) == 0 {
		return
	}
	sort.Slice(vars, func(i, j int) bool {
		a, b := vars[i].key, vars[j].key
		if a.obj != b.obj {
			return a.obj < b.obj
		}
		return a.off < b.off
	})
	start := 0
	if alt := r.kern.Chaos().SweepReorder(len(vars)); alt >= 0 {
		start = alt
	}
	for i := range vars {
		r.sweepVar(vars[(start+i)%len(vars)], pid)
	}
}

// sweepVar recovers one variable if a thread of the dead process owns
// it. Waiters are woken outside the section, like every other
// operation on the variable.
func (r *Registry) sweepVar(v *Var, pid sim.PID) {
	swept := false
	v.Atomically(func(w Words) {
		switch v.declared() {
		case KindMutex:
			opid, _ := DecodeOwner(w.Load(2))
			if opid != pid || w.Load(0) == 0 {
				return
			}
			w.Store(0, 0)
			w.Store(2, 0)
			w.Store(3, RobustOwnerDead)
		case KindSema:
			opid, _ := DecodeOwner(w.Load(1))
			if opid != pid {
				return
			}
			// Compensating V: restore the unit the dead holder
			// consumed, and leave a one-shot OWNERDEAD mark for
			// the thread that next consumes it.
			w.Store(0, w.Load(0)+1)
			w.Store(1, 0)
			w.Store(2, RobustOwnerDead)
		case KindRW:
			opid, _ := DecodeOwner(w.Load(4))
			if opid != pid {
				return
			}
			if w.Load(5) == RobustClaimed || w.Load(1) != 0 {
				// Dead process was the writer, or held the
				// post-OWNERDEAD claim (in either mode): clear
				// whatever it held and re-mark OWNERDEAD.
				w.Store(0, 0)
				w.Store(1, 0)
				w.Store(3, 0)
				w.Store(4, 0)
				w.Store(5, RobustOwnerDead)
			}
		default:
			return
		}
		swept = true
	})
	if swept {
		v.Wake(-1)
	}
}
