package mt

import (
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/usync"
	"sunosmt/internal/vfs"
	"sunosmt/internal/vm"
)

// This file wraps the UNIX system-call surface for threads. Each call
// runs on the calling thread's current LWP; if the call blocks, that
// thread and its LWP remain blocked while other LWPs run other
// threads — the paper's central system-call rule.

// File-open flags and seek origins, re-exported from the vfs layer.
const (
	ORdOnly  = vfs.ORdOnly
	OWrOnly  = vfs.OWrOnly
	ORdWr    = vfs.ORdWr
	OCreate  = vfs.OCreate
	OTrunc   = vfs.OTrunc
	OAppend  = vfs.OAppend
	OExcl    = vfs.OExcl
	OCloExec = vfs.OCloExec

	SeekSet = vfs.SeekSet
	SeekCur = vfs.SeekCur
	SeekEnd = vfs.SeekEnd

	PollIn  = vfs.PollIn
	PollOut = vfs.PollOut
)

// PollFD is one descriptor in a Poll request.
type PollFD = vfs.PollFD

// Mapping constants re-exported from the vm layer.
const (
	ProtRead   = vm.ProtRead
	ProtWrite  = vm.ProtWrite
	MapShared  = vm.MapShared
	MapPrivate = vm.MapPrivate
	MapFixed   = vm.MapFixed
	PageSize   = vm.PageSize
)

// Open opens a file, like open(2).
func (p *Proc) Open(t *Thread, name string, flags vfs.OpenFlags) (int, error) {
	return p.PF.Open(t.LWP(), name, flags)
}

// Read reads from a descriptor at its (process-shared) offset.
func (p *Proc) Read(t *Thread, fd int, b []byte) (int, error) {
	return p.PF.Read(t.LWP(), fd, b)
}

// Write writes to a descriptor.
func (p *Proc) Write(t *Thread, fd int, b []byte) (int, error) {
	return p.PF.Write(t.LWP(), fd, b)
}

// Lseek repositions the shared file offset.
func (p *Proc) Lseek(t *Thread, fd int, off int64, whence vfs.Whence) (int64, error) {
	return p.PF.Lseek(fd, off, whence)
}

// Close closes a descriptor for every thread in the process.
func (p *Proc) Close(t *Thread, fd int) error { return p.PF.Close(fd) }

// Dup duplicates a descriptor sharing one open-file entry.
func (p *Proc) Dup(t *Thread, fd int) (int, error) { return p.PF.Dup(fd) }

// Pipe creates a pipe, returning (read fd, write fd).
func (p *Proc) Pipe(t *Thread) (int, int, error) { return p.PF.Pipe(t.LWP()) }

// Poll waits for descriptor readiness; an indefinite wait here is
// exactly what can trigger SIGWAITING when every LWP blocks.
func (p *Proc) Poll(t *Thread, fds []PollFD, timeout time.Duration) (int, error) {
	return p.PF.Poll(t.LWP(), fds, timeout)
}

// Mmap maps the file behind fd (or anonymous memory for fd < 0) into
// the address space, returning the chosen virtual address.
func (p *Proc) Mmap(t *Thread, va, length int64, prot vm.Prot, flags vm.MapFlags, fd int, off int64) (int64, error) {
	k := p.Sys.Kern
	l := t.LWP()
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	var obj vm.Object
	if fd >= 0 {
		f, err := p.PF.File(fd)
		if err != nil {
			return 0, err
		}
		obj = f
	}
	return p.AS.Mmap(va, length, prot, flags, obj, off)
}

// Munmap removes mappings, like munmap(2).
func (p *Proc) Munmap(t *Thread, va, length int64) error {
	return p.AS.Munmap(va, length)
}

// Sbrk grows or shrinks the heap, returning the old break. Multiple
// threads may manipulate the shared address space concurrently.
func (p *Proc) Sbrk(t *Thread, delta int64) (int64, error) { return p.AS.Sbrk(delta) }

// MapStack carves a thread stack with a red-zone guard page below it,
// returning the usable base. A store into the guard page faults with
// ErrRedZone (and MemWrite raises SIGSEGV) instead of silently
// corrupting the neighbouring mapping — the paper's "red zone" at the
// bottom of every stack. Fails with ErrNoMem past ASLimitBytes.
func (p *Proc) MapStack(t *Thread, size int64) (int64, error) {
	return p.AS.MapStack(size)
}

// UnmapStack releases a stack carved by MapStack, guard page included.
func (p *Proc) UnmapStack(t *Thread, base, size int64) error {
	return p.AS.UnmapStack(base, size)
}

// MemWrite stores bytes at a virtual address in the process image; a
// fault raises the SIGSEGV trap on the calling thread.
func (p *Proc) MemWrite(t *Thread, va int64, b []byte) error {
	err := p.AS.Write(va, b)
	if err != nil {
		t.RaiseTrap(sim.SIGSEGV)
	}
	return err
}

// MemRead loads bytes from a virtual address in the process image.
func (p *Proc) MemRead(t *Thread, va int64, b []byte) error {
	err := p.AS.Read(va, b)
	if err != nil {
		t.RaiseTrap(sim.SIGSEGV)
	}
	return err
}

// Chdir changes the working directory — for all threads, as the paper
// warns.
func (p *Proc) Chdir(t *Thread, dir string) error {
	if _, err := p.Sys.FS.Lookup(p.proc.Cwd(), dir); err != nil {
		return err
	}
	p.proc.Chdir(dir)
	return nil
}

// Mkdir creates a directory.
func (p *Proc) Mkdir(t *Thread, dir string) error {
	return p.Sys.FS.Mkdir(p.proc.Cwd(), dir)
}

// Unlink removes a file.
func (p *Proc) Unlink(t *Thread, name string) error {
	return p.Sys.FS.Unlink(p.proc.Cwd(), name)
}

// Sleep blocks the calling thread (and its LWP) for d, like
// nanosleep(2).
func (p *Proc) Sleep(t *Thread, d time.Duration) error {
	return p.Sys.Kern.SleepFor(t.LWP(), d)
}

// Priocntl changes the scheduling class/priority of the calling
// thread's LWP. Meaningful for bound threads, whose LWP is theirs
// permanently — the paper's route to real-time scheduling.
func (p *Proc) Priocntl(t *Thread, class sim.Class, prio int) error {
	return p.Sys.Kern.Priocntl(t.LWP(), class, prio)
}

// BindCPU binds the calling thread's LWP to a CPU.
func (p *Proc) BindCPU(t *Thread, cpu int) error {
	return p.Sys.Kern.BindCPU(t.LWP(), cpu)
}

// JoinGang puts the calling thread's LWP in the gang scheduling
// class, co-scheduled with other members of gang g.
func (p *Proc) JoinGang(t *Thread, g, prio int) error {
	return p.Sys.Kern.JoinGang(t.LWP(), g, prio)
}

// Setitimer arms an interval timer: ITimerReal is per-process,
// ITimerVirtual/ITimerProf belong to the calling thread's LWP (so
// they are only stable for bound threads, as the paper notes —
// "Threads that require this state must be bound to an LWP").
func (p *Proc) Setitimer(t *Thread, which sim.Which, value, interval time.Duration) error {
	return p.Sys.Kern.Setitimer(t.LWP(), which, value, interval)
}

// Getrusage returns the process's aggregated resource usage.
func (p *Proc) Getrusage(t *Thread) sim.Rusage { return p.proc.Getrusage() }

// sharedAt returns the process's handle of type T on the shared
// variable at va, which must fall in a readable and writable
// MAP_SHARED mapping. There is one handle per (process, va), like a
// mutex_t * into the mapping: every lookup returns the same pointer
// until the address space's mappings change, which empties the table
// (munmap, MAP_FIXED over, a stack carved or released, exec; a fork
// child starts with none). Only a miss resolves va, checks the
// mapping and binds a new handle.
func sharedAt[T any](p *Proc, t *Thread, va int64, bind func(*T, *usync.Var)) (*T, error) {
	gen := p.AS.Generation() // before the resolve it vouches for
	p.sharedMu.Lock()
	if p.sharedGen != gen {
		clear(p.shared)
		p.sharedGen = gen
	}
	h, ok := p.shared[va].(*T)
	p.sharedMu.Unlock()
	if ok {
		return h, nil
	}
	sv, err := p.SharedVar(t, va)
	if err != nil {
		return nil, err
	}
	h = new(T)
	bind(h, sv)
	p.sharedMu.Lock()
	defer p.sharedMu.Unlock()
	if p.sharedGen != gen {
		return h, nil // the mappings moved meanwhile: good for this call only
	}
	if cur, ok := p.shared[va].(*T); ok {
		return cur, nil // another thread's miss got here first
	}
	if p.shared == nil {
		p.shared = make(map[int64]any)
	}
	p.shared[va] = h
	return h, nil
}

// SharedMutexAt returns the process-shared mutex at va.
func (p *Proc) SharedMutexAt(t *Thread, va int64) (*Mutex, error) {
	return sharedAt(p, t, va, (*Mutex).InitShared)
}

// SharedSemaAt returns the process-shared semaphore at va, setting its
// count if that is still zero and count is not.
func (p *Proc) SharedSemaAt(t *Thread, va int64, count uint) (*Sema, error) {
	s, err := sharedAt(p, t, va, func(s *Sema, sv *usync.Var) { s.InitShared(sv, 0) })
	if err == nil {
		s.InitSharedCount(count) // whether or not this lookup bound the handle
	}
	return s, err
}

// SharedCondAt returns the process-shared condition variable at va.
func (p *Proc) SharedCondAt(t *Thread, va int64) (*Cond, error) {
	return sharedAt(p, t, va, (*Cond).InitShared)
}

// SharedRWLockAt returns the process-shared readers/writer lock at va.
func (p *Proc) SharedRWLockAt(t *Thread, va int64) (*RWLock, error) {
	return sharedAt(p, t, va, (*RWLock).InitShared)
}
