package vfs

import (
	"fmt"
	"io"
	"sync"

	"sunosmt/internal/sim"
)

// OpenFlags control Open, like open(2).
type OpenFlags int

// Open flags.
const (
	ORdOnly OpenFlags = 0
	OWrOnly OpenFlags = 1 << iota
	ORdWr
	OCreate
	OTrunc
	OAppend
	OExcl
	OCloExec
)

func (f OpenFlags) readable() bool { return f&OWrOnly == 0 }
func (f OpenFlags) writable() bool { return f&(OWrOnly|ORdWr) != 0 }

// Whence selects the Lseek origin.
type Whence int

// Seek origins.
const (
	SeekSet Whence = iota
	SeekCur
	SeekEnd
)

// OpenFile is an entry in the system open-file table. It is shared
// between descriptors created by dup and inherited across fork, so
// the seek offset is shared exactly as the paper warns: "another
// thread could change the seek position before the read or write".
type OpenFile struct {
	mu     sync.Mutex
	node   Node
	flags  OpenFlags
	offset int64
	refs   int
	// For pipe ends.
	pipe     *Pipe
	pipeRead bool
	// Snapshot for SynthFiles, generated at open.
	synth []byte
}

// Node returns the node this open file refers to.
func (of *OpenFile) Node() Node { return of.node }

func (of *OpenFile) incRef() {
	of.mu.Lock()
	of.refs++
	of.mu.Unlock()
	if of.pipe != nil {
		of.pipe.addEnd(of.pipeRead, 1)
	}
}

// ProcFiles is a process's file-descriptor table plus working
// directory. It lives in sim.Process.Files. All threads in the
// process share it.
type ProcFiles struct {
	fs   *FS
	proc *sim.Process
	mu   sync.Mutex
	fds  []*OpenFile
}

// NewProcFiles creates an empty descriptor table bound to proc.
func NewProcFiles(fs *FS, proc *sim.Process) *ProcFiles {
	pf := &ProcFiles{fs: fs, proc: proc}
	proc.Files = pf
	return pf
}

// Files returns the ProcFiles attached to a process.
func Files(p *sim.Process) *ProcFiles {
	pf, _ := p.Files.(*ProcFiles)
	return pf
}

// FS returns the file system this table opens into.
func (pf *ProcFiles) FS() *FS { return pf.fs }

func (pf *ProcFiles) install(of *OpenFile) int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	for i, slot := range pf.fds {
		if slot == nil {
			pf.fds[i] = of
			return i
		}
	}
	pf.fds = append(pf.fds, of)
	return len(pf.fds) - 1
}

func (pf *ProcFiles) get(fd int) (*OpenFile, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if fd < 0 || fd >= len(pf.fds) || pf.fds[fd] == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadF, fd)
	}
	return pf.fds[fd], nil
}

// Open opens name and returns a descriptor. It runs as a system call
// on the given LWP.
func (pf *ProcFiles) Open(l *sim.LWP, name string, flags OpenFlags) (int, error) {
	k := pf.fs.kern
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	cwd := pf.proc.Cwd()
	node, err := pf.fs.Lookup(cwd, name)
	if err != nil {
		if flags&OCreate == 0 {
			return -1, err
		}
		dir, leaf, rerr := pf.fs.resolve(cwd, name)
		if rerr != nil {
			return -1, rerr
		}
		dir.mu.Lock()
		if existing, ok := dir.children[leaf]; ok {
			node = existing
		} else {
			node = NewFile()
			dir.children[leaf] = node.(*File)
		}
		dir.mu.Unlock()
	} else if flags&OCreate != 0 && flags&OExcl != 0 {
		return -1, fmt.Errorf("%w: %s", ErrExist, name)
	}
	of := &OpenFile{node: node, flags: flags, refs: 1}
	switch n := node.(type) {
	case *Dir:
		if flags.writable() {
			return -1, fmt.Errorf("%w: %s", ErrIsDir, name)
		}
	case *File:
		if flags&OTrunc != 0 && flags.writable() {
			n.Truncate(0)
		}
	case *SynthFile:
		of.synth = n.Gen()
	case *Pipe:
		return -1, ErrNotSup
	}
	return pf.install(of), nil
}

// File returns the regular file behind fd, for mmap.
func (pf *ProcFiles) File(fd int) (*File, error) {
	of, err := pf.get(fd)
	if err != nil {
		return nil, err
	}
	f, ok := of.node.(*File)
	if !ok {
		return nil, ErrInval
	}
	return f, nil
}

// Read reads from the descriptor at its current offset, advancing it.
// Pipe reads may block the LWP in the kernel.
func (pf *ProcFiles) Read(l *sim.LWP, fd int, b []byte) (int, error) {
	k := pf.fs.kern
	of, err := pf.get(fd)
	if err != nil {
		return 0, err
	}
	if !of.flags.readable() {
		return 0, ErrBadF
	}
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	if of.pipe != nil {
		if !of.pipeRead {
			return 0, ErrBadF
		}
		return of.pipe.read(l, b)
	}
	switch n := of.node.(type) {
	case *File:
		of.mu.Lock()
		defer of.mu.Unlock()
		got := n.readAt(b, of.offset)
		of.offset += int64(got)
		if got == 0 && len(b) > 0 {
			return 0, io.EOF
		}
		return got, nil
	case *SynthFile:
		of.mu.Lock()
		defer of.mu.Unlock()
		if of.offset >= int64(len(of.synth)) {
			return 0, io.EOF
		}
		got := copy(b, of.synth[of.offset:])
		of.offset += int64(got)
		return got, nil
	case *Dir:
		return 0, ErrIsDir
	}
	return 0, ErrNotSup
}

// Write writes at the descriptor's current offset (or the end with
// OAppend), advancing it. Pipe writes may block when the pipe is full
// and raise SIGPIPE/EPIPE with no readers.
func (pf *ProcFiles) Write(l *sim.LWP, fd int, b []byte) (int, error) {
	k := pf.fs.kern
	of, err := pf.get(fd)
	if err != nil {
		return 0, err
	}
	if !of.flags.writable() {
		return 0, ErrBadF
	}
	k.SyscallEnter(l)
	defer k.SyscallExit(l)
	if of.pipe != nil {
		if of.pipeRead {
			return 0, ErrBadF
		}
		return of.pipe.write(l, b)
	}
	f, ok := of.node.(*File)
	if !ok {
		return 0, ErrNotSup
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	if of.flags&OAppend != 0 {
		of.offset = f.ObjectSize()
	}
	if err := f.WriteObject(b, of.offset); err != nil {
		return 0, err
	}
	of.offset += int64(len(b))
	return len(b), nil
}

// Lseek repositions the shared offset.
func (pf *ProcFiles) Lseek(fd int, off int64, whence Whence) (int64, error) {
	of, err := pf.get(fd)
	if err != nil {
		return 0, err
	}
	if of.pipe != nil {
		return 0, ErrInval
	}
	of.mu.Lock()
	defer of.mu.Unlock()
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = of.offset
	case SeekEnd:
		switch n := of.node.(type) {
		case *File:
			base = n.ObjectSize()
		case *SynthFile:
			base = int64(len(of.synth))
		default:
			return 0, ErrInval
		}
	default:
		return 0, ErrInval
	}
	next := base + off
	if next < 0 {
		return 0, ErrInval
	}
	of.offset = next
	return next, nil
}

// Dup duplicates a descriptor; both share one open-file entry (and
// therefore one offset).
func (pf *ProcFiles) Dup(fd int) (int, error) {
	of, err := pf.get(fd)
	if err != nil {
		return -1, err
	}
	of.incRef()
	return pf.install(of), nil
}

// Close closes a descriptor. Because the table is process-wide, a
// close by one thread closes the file for every thread (paper).
func (pf *ProcFiles) Close(fd int) error {
	pf.mu.Lock()
	if fd < 0 || fd >= len(pf.fds) || pf.fds[fd] == nil {
		pf.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrBadF, fd)
	}
	of := pf.fds[fd]
	pf.fds[fd] = nil
	pf.mu.Unlock()
	pf.release(of)
	return nil
}

func (pf *ProcFiles) release(of *OpenFile) {
	of.mu.Lock()
	of.refs--
	last := of.refs == 0
	of.mu.Unlock()
	if of.pipe != nil {
		of.pipe.addEnd(of.pipeRead, -1)
	}
	_ = last
}

// CloseAll releases every descriptor (process exit).
func (pf *ProcFiles) CloseAll() {
	pf.mu.Lock()
	fds := pf.fds
	pf.fds = nil
	pf.mu.Unlock()
	for _, of := range fds {
		if of != nil {
			pf.release(of)
		}
	}
}

// CloseOnExec drops descriptors opened with OCloExec (used by exec).
func (pf *ProcFiles) CloseOnExec() {
	pf.mu.Lock()
	var drop []*OpenFile
	for i, of := range pf.fds {
		if of != nil && of.flags&OCloExec != 0 {
			drop = append(drop, of)
			pf.fds[i] = nil
		}
	}
	pf.mu.Unlock()
	for _, of := range drop {
		pf.release(of)
	}
}

// ForkInto duplicates the descriptor table into child, sharing
// open-file entries (offsets included), exactly as fork(2) does.
func (pf *ProcFiles) ForkInto(child *sim.Process) *ProcFiles {
	cf := NewProcFiles(pf.fs, child)
	pf.mu.Lock()
	defer pf.mu.Unlock()
	cf.fds = make([]*OpenFile, len(pf.fds))
	for i, of := range pf.fds {
		if of == nil {
			continue
		}
		of.incRef()
		cf.fds[i] = of
	}
	return cf
}
