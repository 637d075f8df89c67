package vfs

import (
	"io"
	"sync"

	"sunosmt/internal/sim"
)

// pipeCap is the pipe buffer capacity, matching the classic 5-page
// UNIX pipe.
const pipeCap = 5 * 4096

// Pipe is an anonymous FIFO. A read with an empty buffer blocks the
// calling LWP in the kernel on an indefinite, interruptible wait —
// which is exactly the kind of wait that can trigger SIGWAITING when
// every LWP of a process is stuck in one.
type Pipe struct {
	mu      sync.Mutex
	fs      *FS
	buf     []byte
	readers int
	writers int
	rq      *sim.WaitQ // blocked readers
	wq      *sim.WaitQ // blocked writers
	pollq   *sim.WaitQ // pollers
}

func (*Pipe) isNode() {}

// NewPipe creates a pipe against the FS's kernel.
func newPipe(fs *FS) *Pipe {
	return &Pipe{
		fs:    fs,
		rq:    sim.NewWaitQ("pipe-read"),
		wq:    sim.NewWaitQ("pipe-write"),
		pollq: sim.NewWaitQ("pipe-poll"),
	}
}

// Pipe creates a pipe and returns (read fd, write fd), like pipe(2).
func (pf *ProcFiles) Pipe(l *sim.LWP) (int, int, error) {
	k := pf.fs.kern
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	p := newPipe(pf.fs)
	r := &OpenFile{node: p, flags: ORdOnly, refs: 1, pipe: p, pipeRead: true}
	w := &OpenFile{node: p, flags: OWrOnly, refs: 1, pipe: p, pipeRead: false}
	p.addEnd(true, 1)
	p.addEnd(false, 1)
	return pf.install(r), pf.install(w), nil
}

// addEnd adjusts the reader/writer reference counts; closing the last
// end wakes the other side (EOF for readers, EPIPE for writers).
func (p *Pipe) addEnd(read bool, delta int) {
	p.mu.Lock()
	if read {
		p.readers += delta
	} else {
		p.writers += delta
	}
	wakeAll := (read && p.readers == 0) || (!read && p.writers == 0)
	p.mu.Unlock()
	if wakeAll {
		p.fs.kern.WakeupAll(p.rq, p.wq, p.pollq)
	}
}

// read implements pipe reads: blocks while empty and writers remain;
// returns EOF when empty with no writers. The sleep commits under the
// kernel lock only if the pipe is still empty (lock order k.mu → p.mu;
// every WakeupAll here is issued with p.mu released), so a write that
// lands after the check above cannot be missed.
func (p *Pipe) read(l *sim.LWP, b []byte) (int, error) {
	k := p.fs.kern
	for {
		p.mu.Lock()
		if len(p.buf) > 0 {
			n := copy(b, p.buf)
			if n == len(p.buf) {
				// Drained: keep the start of the backing array, or each
				// round trip walks the capacity away and append regrows it.
				p.buf = p.buf[:0]
			} else {
				p.buf = p.buf[n:]
			}
			p.mu.Unlock()
			k.WakeupAll(p.wq, p.pollq)
			return n, nil
		}
		if p.writers == 0 {
			p.mu.Unlock()
			return 0, io.EOF
		}
		p.mu.Unlock()
		res, _ := k.SleepIf(l, p.rq, p.readBlocks, sim.SleepOpts{Interruptible: true, Indefinite: true})
		if res == sim.WakeInterrupted {
			return 0, sim.ErrIntr
		}
	}
}

// write implements pipe writes: blocks while full; raises SIGPIPE and
// returns EPIPE with no readers. Its sleep commits like read's.
func (p *Pipe) write(l *sim.LWP, b []byte) (int, error) {
	k := p.fs.kern
	total := 0
	for len(b) > 0 {
		p.mu.Lock()
		if p.readers == 0 {
			p.mu.Unlock()
			k.PostSignalLWP(l, sim.SIGPIPE)
			return total, ErrPipe
		}
		space := pipeCap - len(p.buf)
		if space > 0 {
			n := min(space, len(b))
			p.buf = append(p.buf, b[:n]...)
			b = b[n:]
			total += n
			p.mu.Unlock()
			k.WakeupAll(p.rq, p.pollq)
			continue
		}
		p.mu.Unlock()
		res, _ := k.SleepIf(l, p.wq, p.writeBlocks, sim.SleepOpts{Interruptible: true, Indefinite: true})
		if res == sim.WakeInterrupted {
			return total, sim.ErrIntr
		}
	}
	return total, nil
}

// readBlocks and writeBlocks are the sleep conditions of read and
// write: whether the call still has to wait.
func (p *Pipe) readBlocks() bool  { return p.poll(PollIn)&PollIn == 0 }
func (p *Pipe) writeBlocks() bool { return p.poll(PollOut)&PollOut == 0 }

// poll reports which of the events in want hold now, plus PollHup once
// both ends are closed.
func (p *Pipe) poll(want PollEvents) PollEvents {
	p.mu.Lock()
	defer p.mu.Unlock()
	var got PollEvents
	if want&PollIn != 0 && (len(p.buf) > 0 || p.writers == 0) {
		got |= PollIn
	}
	if want&PollOut != 0 && (len(p.buf) < pipeCap || p.readers == 0) {
		got |= PollOut
	}
	if p.writers == 0 && p.readers == 0 {
		got |= PollHup
	}
	return got
}
