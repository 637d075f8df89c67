package core

import (
	"encoding/binary"
	"fmt"
)

// This file implements thread-local storage and the per-thread
// setjmp/longjmp rules.
//
// The paper's TLS model: "#pragma unshared" variables are collected
// by the compiler and linker; the run-time linker sums the
// requirements of the linked libraries at program start, after which
// the size never changes, so TLS can be allocated as part of stack
// storage and is zeroed initially (no static initialization). Go has
// no linker pragma, so libraries register their unshared variables
// with RegisterUnshared before the first thread starts — the moment
// the paper freezes the size — and get back a TLSVar offset handle.

// TLSVar is the handle for one registered unshared variable: a byte
// range in every thread's thread-local storage.
type TLSVar struct {
	off, size int
}

// RegisterUnshared reserves size bytes of thread-local storage for an
// unshared variable (the #pragma unshared analogue). It must be
// called before the first thread is created; afterwards the size of
// thread-local storage is frozen, exactly as the paper specifies
// ("Once the size is computed it is not changed").
func (m *Runtime) RegisterUnshared(size int) (TLSVar, error) {
	if size <= 0 {
		return TLSVar{}, fmt.Errorf("core: bad TLS size %d", size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tlsFrozen {
		return TLSVar{}, fmt.Errorf("core: thread-local storage size is frozen once threads start")
	}
	v := TLSVar{off: m.tlsSize, size: size}
	m.tlsSize += size
	return v, nil
}

// TLS returns the thread's bytes for the registered variable. The
// contents start zeroed. Only the owning thread should access them
// ("a correct thread must never attempt" to touch another thread's
// TLS).
func (t *Thread) TLS(v TLSVar) []byte {
	if v.off+v.size > len(t.tls) {
		panic(fmt.Sprintf("core: TLS var [%d,%d) outside storage of %d bytes", v.off, v.off+v.size, len(t.tls)))
	}
	return t.tls[v.off : v.off+v.size]
}

// TLSUint64 reads the variable as a little-endian uint64 (the
// variable must be at least 8 bytes).
func (t *Thread) TLSUint64(v TLSVar) uint64 {
	return binary.LittleEndian.Uint64(t.TLS(v))
}

// SetTLSUint64 writes the variable as a little-endian uint64.
func (t *Thread) SetTLSUint64(v TLSVar, x uint64) {
	binary.LittleEndian.PutUint64(t.TLS(v), x)
}

// --- errno --------------------------------------------------------------

// Errno returns the calling thread's errno — the paper's canonical
// example of an unshared variable. It is stored in the thread's TLS
// when errno was registered (Runtime s created by the mt package
// always register it); otherwise in a plain per-thread slot.
func (t *Thread) Errno() int {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.errno
}

// SetErrno sets the calling thread's errno.
func (t *Thread) SetErrno(e int) {
	t.m.mu.Lock()
	t.errno = e
	t.m.mu.Unlock()
}

// --- setjmp / longjmp ----------------------------------------------------

// Jmpbuf is a non-local-goto target. setjmp/longjmp work only within
// a particular thread; it is an error for a thread to longjmp into
// another thread (paper, "Non-local goto").
type Jmpbuf struct {
	t     *Thread
	val   int
	armed bool
}

type longjmpPanic struct{ jb *Jmpbuf }

// ErrJmpCrossThread reports a longjmp into another thread.
var ErrJmpCrossThread = fmt.Errorf("core: longjmp into another thread")

// Setjmp runs body with an armed jump buffer. It returns 0 if body
// ran to completion, or the (non-zero) value passed to Longjmp. This
// mirrors `if (v = setjmp(buf)) == 0 { body } else { handle v }`.
func (t *Thread) Setjmp(body func(jb *Jmpbuf)) (ret int) {
	jb := &Jmpbuf{t: t, armed: true}
	defer func() {
		jb.armed = false
		if r := recover(); r != nil {
			lj, ok := r.(longjmpPanic)
			if !ok || lj.jb != jb {
				panic(r)
			}
			ret = lj.jb.val
		}
	}()
	body(jb)
	return 0
}

// Longjmp unwinds the calling thread to the Setjmp that created jb,
// which must belong to the calling thread and still be on its stack.
// val must be non-zero.
func (t *Thread) Longjmp(jb *Jmpbuf, val int) error {
	if jb.t != t {
		return ErrJmpCrossThread
	}
	if !jb.armed {
		return fmt.Errorf("core: longjmp target no longer on stack")
	}
	if val == 0 {
		val = 1
	}
	jb.val = val
	panic(longjmpPanic{jb})
}
