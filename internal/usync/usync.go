// Package usync is the kernel-mediated blocking path for
// process-shared synchronization variables.
//
// The paper: "Synchronization variables that are in shared memory or
// in files are also unknown to the kernel unless a thread is blocked
// on them. In the latter case the thread is temporarily bound to the
// LWP that is blocked by the kernel, as in a system call."
//
// A shared synchronization variable is identified by the (object,
// offset) pair of the underlying mapped object — never by a virtual
// address, since the sharing processes may map the object at
// different addresses. This package keeps one Var — one kernel wait
// queue — per variable identity, and no lock of its own: the backing
// object's lock stands in for the hardware atomic instructions that
// real implementations use on the shared word, so the uncontended
// paths of the primitives built on top never enter the (simulated)
// kernel.
//
// The state words themselves live in the mapped object's bytes, so a
// synchronization variable placed in a file keeps its state across
// process lifetimes, exactly as the paper requires. An atomic section
// is one hold of the object's lock: it reads the variable's words into
// an image, loads and stores work on the image, and the words that
// were stored are written back before the lock is dropped. The order
// is kernel lock, then object lock (SleepWhile commits its condition
// under the kernel's); the object lock is a leaf, under which only
// Words.Load and Words.Store run.
package usync

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sunosmt/internal/sim"
	"sunosmt/internal/vm"
)

// Registry maps variable identities to their kernel-side state. One
// Registry serves a whole simulated machine.
type Registry struct {
	kern *sim.Kernel
	mu   sync.Mutex
	vars map[varKey]*Var
}

type varKey struct {
	obj uint64
	off int64
}

// maxWords is the size of the largest declared word layout (KindRW).
// A section sees exactly this many words of the variable; an index
// past it is some other datum in the mapped object, not part of the
// variable.
const maxWords = 6

// NewRegistry creates a registry bound to a kernel. The registry
// hooks process death so shared variables owned by a dead process are
// marked OWNERDEAD and their waiters woken (robust-mutex semantics).
func NewRegistry(kern *sim.Kernel) *Registry {
	r := &Registry{kern: kern, vars: make(map[varKey]*Var)}
	kern.AddDeathHook(func(p *sim.Process) { r.SweepOwnerDead(p.PID()) })
	return r
}

// Kernel returns the registry's kernel.
func (r *Registry) Kernel() *sim.Kernel { return r.kern }

// Var returns the synchronization variable at (obj, off). There is
// one Var per identity: every process that resolves the same identity
// gets the same pointer, and with it the same wait queue.
func (r *Registry) Var(obj vm.Object, off int64) *Var {
	key := varKey{obj.ObjectID(), off}
	r.mu.Lock()
	v, ok := r.vars[key]
	if !ok {
		v = &Var{reg: r, obj: obj, key: key, wq: sim.NewWaitQ(fmt.Sprintf("usync:%d+%d", key.obj, key.off))}
		r.vars[key] = v
	}
	r.mu.Unlock()
	return v
}

// NumVars reports how many variable identities the registry tracks.
func (r *Registry) NumVars() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.vars)
}

// Var is one shared synchronization variable. The variable's state is
// an array of 64-bit words in the backing object's bytes starting at
// the variable's offset.
type Var struct {
	reg *Registry
	obj vm.Object // the backing object, as first resolved
	key varKey
	wq  *sim.WaitQ
	// kind is the word layout the owner-death sweep recovers
	// (Declare); atomic so declaring and sweeping take no lock.
	kind atomic.Int32

	// The current section's image of the variable's words, and the
	// byte range of it that stores have dirtied (lo >= hi: none).
	// Guarded by the object's lock; meaningless between sections.
	img    [8 * maxWords]byte
	lo, hi int
}

// WaitQ exposes the variable's kernel wait queue (for tests and
// debugging tools).
func (v *Var) WaitQ() *sim.WaitQ { return v.wq }

// Name returns the variable's system-wide identity string (the wait
// queue name), stable across the processes sharing it.
func (v *Var) Name() string { return v.wq.Name() }

// Words provides load/store access to the variable's state words
// inside a section. It works on the section's image of the mapped
// words, never on the object.
type Words struct{ v *Var }

// Load returns state word i.
func (w Words) Load(i int) uint64 {
	if uint(i) >= maxWords {
		badWord(i)
	}
	return binary.LittleEndian.Uint64(w.v.img[8*i:])
}

// Store sets state word i.
func (w Words) Store(i int, x uint64) {
	if uint(i) >= maxWords {
		badWord(i)
	}
	v := w.v
	binary.LittleEndian.PutUint64(v.img[8*i:], x)
	v.lo = min(v.lo, 8*i)
	v.hi = max(v.hi, 8*i+8)
}

func badWord(i int) {
	panic(fmt.Sprintf("usync: word %d is outside the variable (largest layout has %d words)", i, maxWords))
}

// begin opens a section: take the object's lock and read the
// variable's words from the mapped object, once. A read never grows
// the object; words past its end read as zero.
func (v *Var) begin() {
	v.obj.LockObject()
	if err := v.obj.ReadLocked(v.img[:], v.key.off); err != nil {
		v.obj.UnlockObject()
		panic(fmt.Sprintf("usync: load %s: %v", v.Name(), err))
	}
	v.lo, v.hi = len(v.img), 0
}

// end closes a section: write the dirtied words back in one store —
// through the highest word stored and no further, so the object grows
// exactly as far as the stores reached — and drop the object's lock.
func (v *Var) end() {
	var err error
	if v.lo < v.hi {
		err = v.obj.WriteLocked(v.img[v.lo:v.hi], v.key.off+int64(v.lo))
	}
	v.obj.UnlockObject()
	if err != nil {
		panic(fmt.Sprintf("usync: store %s: %v", v.Name(), err))
	}
}

// Atomically runs f in a section, giving f consistent access to the
// state words. This stands in for the load-store-conditional /
// test-and-set sequence of a real implementation: it involves no
// kernel entry, and costs one hold of the object's lock — one read and
// at most one write of the mapped words — however many f loads and
// stores.
func (v *Var) Atomically(f func(Words)) {
	v.begin()
	defer v.end()
	f(Words{v})
}

// SleepOpts re-exports the kernel sleep options for callers.
type SleepOpts = sim.SleepOpts

// SleepWhile blocks l on the variable's wait queue if cond (evaluated
// atomically with respect to Atomically sections) still holds at
// commit time. Returns the wake result and whether the LWP actually
// slept. Callers use the standard futex loop:
//
//	for {
//	    acquired := false
//	    v.Atomically(func(w Words){ ... try; acquired = ... })
//	    if acquired { return }
//	    v.SleepWhile(l, func(w Words) bool { return stillContended(w) }, opts)
//	}
func (v *Var) SleepWhile(l *sim.LWP, cond func(Words) bool, opts SleepOpts) (sim.WakeResult, bool) {
	k := v.reg.kern
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	res, slept, _ := k.SleepIf(l, v.wq, func() bool {
		v.begin()
		defer v.end()
		return cond(Words{v})
	}, opts)
	return res, slept
}

// Wake wakes up to n LWPs blocked on the variable (n < 0: all) and
// returns how many were woken. Callers must not be inside a section
// (i.e. call it after Atomically returns).
func (v *Var) Wake(n int) int {
	return v.reg.kern.Wakeup(v.wq, n)
}

// Waiters reports how many LWPs are blocked on the variable.
func (v *Var) Waiters() int { return v.wq.Len(v.reg.kern) }
