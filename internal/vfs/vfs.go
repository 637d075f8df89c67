// Package vfs is the file-system substrate: a rooted tree of
// directories, regular files and synthetic nodes, per-process file
// descriptor tables with UNIX sharing semantics, pipes, and poll.
//
// The paper leans on the file system in several places this package
// must reproduce:
//
//   - File descriptors are shared by all threads in a process: if one
//     thread closes a file it is closed for all; seek offsets live in
//     the shared open-file entry, so seeks and reads by different
//     threads (or a parent and child sharing the descriptor across
//     fork) interleave on one offset.
//   - Synchronization variables can be placed in files, which can be
//     mapped MAP_SHARED by several processes, and such variables have
//     lifetimes beyond that of the creating process. Files here
//     implement vm.Object so they can be mapped, and they persist in
//     the FS tree after their creator exits.
//   - Blocking I/O (pipe reads/writes, poll) blocks the calling LWP
//     in the kernel; other LWPs keep running, and an indefinite wait
//     by every LWP triggers SIGWAITING.
package vfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"sunosmt/internal/sim"
	"sunosmt/internal/vm"
)

// Errors mirroring the relevant errnos.
var (
	ErrNoEnt    = errors.New("vfs: no such file or directory")
	ErrExist    = errors.New("vfs: file exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrBadF     = errors.New("vfs: bad file descriptor")
	ErrPipe     = errors.New("vfs: broken pipe")
	ErrInval    = errors.New("vfs: invalid argument")
	ErrNotSup   = errors.New("vfs: operation not supported")
	ErrNotEmpty = errors.New("vfs: directory not empty")
)

// Node is any object in the file tree.
type Node interface {
	isNode()
}

// Dir is a directory node.
type Dir struct {
	mu       sync.Mutex
	children map[string]Node
}

func (*Dir) isNode() {}

// NewDir returns an empty directory.
func NewDir() *Dir { return &Dir{children: make(map[string]Node)} }

// File is a regular file. It implements vm.Object so it can be mapped
// into address spaces; synchronization variables placed in a mapped
// file are named (ObjectID, offset) and outlive any single process.
type File struct {
	id   uint64
	mu   sync.Mutex
	data []byte
}

func (*File) isNode() {}

// NewFile returns an empty regular file.
func NewFile() *File { return &File{id: vm.NextObjectID()} }

// ObjectID implements vm.Object.
func (f *File) ObjectID() uint64 { return f.id }

// ObjectSize implements vm.Object.
func (f *File) ObjectSize() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

// FileBacked implements vm.Object.
func (f *File) FileBacked() bool { return true }

// LockObject implements vm.Object.
func (f *File) LockObject() { f.mu.Lock() }

// UnlockObject implements vm.Object.
func (f *File) UnlockObject() { f.mu.Unlock() }

// ReadObject implements vm.Object.
func (f *File) ReadObject(b []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ReadLocked(b, off)
}

// WriteObject implements vm.Object.
func (f *File) WriteObject(b []byte, off int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.WriteLocked(b, off)
}

// ReadLocked implements vm.Object: reads beyond EOF return zeroes
// (mapped pages past the end are demand-zero here).
func (f *File) ReadLocked(b []byte, off int64) error {
	if off < 0 {
		return ErrInval
	}
	n := 0
	if off < int64(len(f.data)) {
		n = copy(b, f.data[off:])
	}
	clear(b[n:])
	return nil
}

// WriteLocked implements vm.Object, growing the file as needed.
func (f *File) WriteLocked(b []byte, off int64) error {
	if off < 0 {
		return ErrInval
	}
	if need := off + int64(len(b)); need > int64(len(f.data)) {
		grown := make([]byte, need)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:], b)
	return nil
}

// readAt copies file contents (no zero fill past EOF) and reports n.
func (f *File) readAt(b []byte, off int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= int64(len(f.data)) {
		return 0
	}
	return copy(b, f.data[off:])
}

// Truncate sets the file length.
func (f *File) Truncate(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case n < int64(len(f.data)):
		f.data = f.data[:n]
	case n > int64(len(f.data)):
		grown := make([]byte, n)
		copy(grown, f.data)
		f.data = grown
	}
}

// SynthFile is a synthetic read-only node whose contents are
// generated at open time; /proc status files are SynthFiles.
type SynthFile struct {
	Gen func() []byte
}

func (*SynthFile) isNode() {}

// FS is a mounted file-system tree.
type FS struct {
	kern *sim.Kernel
	root *Dir
}

// NewFS creates a file system with an empty root and a /tmp
// directory.
func NewFS(kern *sim.Kernel) *FS {
	fs := &FS{kern: kern, root: NewDir()}
	fs.root.children["tmp"] = NewDir()
	return fs
}

// Kernel returns the kernel this FS blocks against.
func (fs *FS) Kernel() *sim.Kernel { return fs.kern }

// WrapDir returns an FS view rooted at an existing directory, so
// synthetic trees (procfs) can be built with the path operations.
func WrapDir(kern *sim.Kernel, d *Dir) *FS { return &FS{kern: kern, root: d} }

// resolve walks name (absolute or relative to cwd) and returns the
// parent directory and final component. The final component need not
// exist.
func (fs *FS) resolve(cwd, name string) (*Dir, string, error) {
	if name == "" {
		return nil, "", ErrNoEnt
	}
	if !path.IsAbs(name) {
		name = path.Join(cwd, name)
	}
	name = path.Clean(name)
	if name == "/" {
		return nil, "", ErrIsDir
	}
	parts := strings.Split(strings.TrimPrefix(name, "/"), "/")
	dir := fs.root
	for _, comp := range parts[:len(parts)-1] {
		dir.mu.Lock()
		next, ok := dir.children[comp]
		dir.mu.Unlock()
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNoEnt, name)
		}
		nd, ok := next.(*Dir)
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, comp)
		}
		dir = nd
	}
	return dir, parts[len(parts)-1], nil
}

// Lookup returns the node at name.
func (fs *FS) Lookup(cwd, name string) (Node, error) {
	if path.Clean(name) == "/" {
		return fs.root, nil
	}
	dir, leaf, err := fs.resolve(cwd, name)
	if err != nil {
		return nil, err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	n, ok := dir.children[leaf]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoEnt, name)
	}
	return n, nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(cwd, name string) error {
	dir, leaf, err := fs.resolve(cwd, name)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	if _, ok := dir.children[leaf]; ok {
		return fmt.Errorf("%w: %s", ErrExist, name)
	}
	dir.children[leaf] = NewDir()
	return nil
}

// Attach places an externally built node (e.g. a procfs synthetic
// tree) at name, replacing any existing entry.
func (fs *FS) Attach(cwd, name string, n Node) error {
	dir, leaf, err := fs.resolve(cwd, name)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	dir.children[leaf] = n
	return nil
}

// Unlink removes a file (not a directory).
func (fs *FS) Unlink(cwd, name string) error {
	dir, leaf, err := fs.resolve(cwd, name)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	n, ok := dir.children[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoEnt, name)
	}
	if _, isDir := n.(*Dir); isDir {
		return fmt.Errorf("%w: %s", ErrIsDir, name)
	}
	delete(dir.children, leaf)
	return nil
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(cwd, name string) error {
	dir, leaf, err := fs.resolve(cwd, name)
	if err != nil {
		return err
	}
	dir.mu.Lock()
	defer dir.mu.Unlock()
	n, ok := dir.children[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoEnt, name)
	}
	d, isDir := n.(*Dir)
	if !isDir {
		return fmt.Errorf("%w: %s", ErrNotDir, name)
	}
	d.mu.Lock()
	empty := len(d.children) == 0
	d.mu.Unlock()
	if !empty {
		return fmt.Errorf("%w: %s", ErrNotEmpty, name)
	}
	delete(dir.children, leaf)
	return nil
}

// ReadDir lists the names in a directory, sorted.
func (fs *FS) ReadDir(cwd, name string) ([]string, error) {
	n, err := fs.Lookup(cwd, name)
	if err != nil {
		return nil, err
	}
	d, ok := n.(*Dir)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.children))
	for k := range d.children {
		names = append(names, k)
	}
	sort.Strings(names)
	return names, nil
}
