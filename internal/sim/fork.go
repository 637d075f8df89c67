package sim

import (
	"errors"
	"fmt"
)

// This file implements process creation and destruction: exit, fork,
// fork1, exec, and waiting for children.
//
// The paper's fork() duplicates the address space and "creates the
// same LWPs in the same states as in the original"; fork1() forks
// only the calling thread/LWP. Go cannot clone goroutine stacks, so
// the kernel duplicates all *kernel-side* state (fd table and address
// space via fork hooks, dispositions, credentials, limits) and
// returns descriptors of the parent's other LWPs to the caller; the
// threads library re-animates them from explicit continuations. This
// substitution is recorded in DESIGN.md.

// ErrChild is returned by WaitChild when the process has no children
// to wait for (ECHILD).
var ErrChild = errors.New("sim: no child processes")

// ErrIntr is returned when an interruptible wait is broken by a
// signal (EINTR).
var ErrIntr = errors.New("sim: interrupted system call")

// ForkedLWP describes one LWP of the parent that fork duplicated into
// the child, so the threads library can re-animate its thread there.
type ForkedLWP struct {
	// LWP is the child-side LWP record (embryo; needs animation).
	LWP *LWP
	// ParentID is the id of the parent LWP it mirrors.
	ParentID LWPID
}

// Fork duplicates the calling LWP's process, like fork(2). all
// selects fork (true: duplicate every LWP) or fork1 (false: only the
// caller). It returns the child process, the child LWP corresponding
// to the caller, and — for full fork — records for the parent's other
// LWPs.
//
// As the paper specifies, fork causes interruptible system calls in
// progress on *other* LWPs to return EINTR.
func (k *Kernel) Fork(l *LWP, all bool) (*Process, *LWP, []ForkedLWP, error) {
	p := l.proc
	// SyscallEnter checkpoints, so a dying process unwinds here
	// with the kernel lock properly released.
	k.SyscallEnter(l)
	defer k.SyscallExit(l)

	child, cl, others, hooks := k.forkInner(l, p, all)

	// Run fork hooks (fd table, address space duplication) without
	// the kernel lock; the child has no runnable LWPs yet so its
	// state cannot race.
	for _, h := range hooks {
		h(p, child)
	}
	return child, cl, others, nil
}

func (k *Kernel) forkInner(l *LWP, p *Process, all bool) (*Process, *LWP, []ForkedLWP, []func(parent, child *Process)) {
	k.mu.Lock()
	defer k.mu.Unlock()
	now := k.clock.Now()
	child := k.newProcessLocked(p.name, p)
	child.creds = p.creds
	child.cwd = p.cwd
	child.actions = p.actions
	child.cpuLimit = p.cpuLimit
	// Pending signals are NOT inherited (POSIX/SVR4 semantics).

	// Duplicate the calling LWP.
	cl := k.newLWPLocked(child, l.class, l.userPrio, now)
	cl.mask = l.mask
	cl.gang = l.gang

	var others []ForkedLWP
	if all {
		for _, pl := range p.lwps {
			if pl == l || pl.state == LWPZombie {
				continue
			}
			nl := k.newLWPLocked(child, pl.class, pl.userPrio, now)
			nl.mask = pl.mask
			nl.gang = pl.gang
			others = append(others, ForkedLWP{LWP: nl, ParentID: pl.id})
		}
		// fork() may cause interruptible system calls to return
		// EINTR when made by any LWP other than the one calling
		// fork (paper).
		for _, pl := range p.lwps {
			if pl != l && pl.state == LWPSleeping && pl.interruptible {
				k.wakeLWPLocked(pl, now, WakeInterrupted)
			}
		}
	}
	hooks := append([]func(parent, child *Process){}, k.forkHooks...)
	return child, cl, others, hooks
}

// Exec replaces the process image, like exec(2): it destroys all the
// LWPs in the address space, blocking until they are gone, then
// creates the single fresh LWP from which process startup code builds
// the initial thread. The caller's own LWP is consumed: Exec returns
// the new LWP-0 record which the caller must animate (or hand off).
func (k *Kernel) Exec(l *LWP, name string) (*LWP, error) {
	p := l.proc
	k.Checkpoint(l) // unwind here if the process is already dying
	nl, err := k.execInner(l, p, name)
	if err != nil {
		return nil, err
	}
	// The caller's LWP dies; its animator must not touch it again.
	k.ExitLWP(l)
	return nl, nil
}

func (k *Kernel) execInner(l *LWP, p *Process, name string) (*LWP, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if p.execing {
		return nil, fmt.Errorf("sim: concurrent exec in pid %d", p.pid)
	}
	p.execing = true
	p.execSurvivor = l
	// Wake everyone; non-survivors unwind at their next kernel
	// entry. Exec blocks until all the LWPs are destroyed (paper).
	for _, x := range p.lwps {
		x.slow.Store(true)
		if x != l {
			x.cond.Broadcast()
		}
	}
	for p.liveLWPs > 1 {
		if p.dying {
			p.execing = false
			p.execSurvivor = nil
			k.unwindLocked(l, "process dying during exec")
		}
		// Reuse the survivor's cond as the exec barrier: ExitLWP
		// broadcasts scheduling changes globally via scheduleLocked,
		// so poll via wait on our own cond, which ExitLWP pokes.
		l.cond.Wait()
	}
	// Rebuild: reset signal state; fresh LWP 0.
	p.actions = [NSIG]sigaction{}
	p.pendingProc = 0
	p.name = name
	nl := k.newLWPLocked(p, ClassTS, defaultTSPrio, k.clock.Now())
	p.execing = false
	p.execSurvivor = nil
	return nl, nil
}

// defaultTSPrio is the base timeshare priority of new LWPs.
const defaultTSPrio = 30

// Exit terminates the whole process voluntarily, like exit(2): all
// threads and LWPs are destroyed. The calling animator unwinds.
func (k *Kernel) Exit(l *LWP, status int) {
	k.mu.Lock()
	defer k.mu.Unlock() // runs during the unwind panic
	p := l.proc
	if !p.dying {
		k.killProcLocked(p, status, SIGNONE, false, k.rings.Now())
	}
	k.unwindLocked(l, "exit")
	// not reached
}

// WaitResult describes a reaped child.
type WaitResult struct {
	PID        PID
	Status     int
	Signal     Signal // signal that killed the child, if any
	DumpedCore bool
}

// WaitChild blocks until a child of the calling LWP's process exits,
// reaps it, and returns its status, like waitpid(2). pid < 0 waits
// for any child. The wait is interruptible and indefinite (it counts
// toward SIGWAITING).
func (k *Kernel) WaitChild(l *LWP, pid PID) (WaitResult, error) {
	p := l.proc
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	interrupted := false
	for {
		k.mu.Lock()
		if len(p.children) == 0 && len(p.zombies) == 0 {
			k.mu.Unlock()
			return WaitResult{}, ErrChild
		}
		for i, z := range p.zombies {
			if pid >= 0 && z.pid != pid {
				continue
			}
			p.zombies = append(p.zombies[:i], p.zombies[i+1:]...)
			delete(p.children, z.pid)
			res := WaitResult{PID: z.pid, Status: z.exitStatus, Signal: z.killSig, DumpedCore: z.dumpedCore}
			// Fold child rusage into the parent (getrusage
			// RUSAGE_CHILDREN semantics).
			r := z.rusageLocked()
			p.childUser += r.UserTime + r.ChildUser
			p.childSys += r.SysTime + r.ChildSys
			k.reapLocked(z)
			k.mu.Unlock()
			return res, nil
		}
		if pid >= 0 {
			if _, ok := p.children[pid]; !ok {
				k.mu.Unlock()
				return WaitResult{}, ErrChild
			}
		}
		k.mu.Unlock()
		if interrupted {
			// A signal (often our own SIGCHLD) broke the wait
			// and no matching zombie appeared on re-check.
			return WaitResult{}, ErrIntr
		}
		// Commit to the sleep only if still no matching zombie exists
		// under the kernel lock: a child that exits between the scan
		// above and the enqueue has already issued its wakeup, and a
		// plain Sleep here would miss it forever.
		res, _ := k.SleepIf(l, &p.waitq, func() bool {
			for _, z := range p.zombies {
				if pid < 0 || z.pid == pid {
					return false
				}
			}
			return true
		}, SleepOpts{Interruptible: true, Indefinite: true})
		// On interruption, loop once more to re-check the zombie
		// list: the interrupting signal is frequently the SIGCHLD
		// for the very child we are waiting for.
		interrupted = res == WakeInterrupted
	}
}
