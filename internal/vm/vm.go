// Package vm is the address-space substrate: segments, mmap with
// MAP_SHARED/MAP_PRIVATE semantics, brk/sbrk, and page-granular fault
// accounting.
//
// The paper relies on the VM system in two ways this package must
// reproduce:
//
//   - Synchronization variables may be placed in memory that is
//     shared between processes (or in mapped files), and they work
//     even though the sharing processes map the object at different
//     virtual addresses. That requires resolving a virtual address to
//     the identity (object, offset) of the underlying mapped object,
//     which Resolve provides.
//   - Multiple threads may manipulate the shared address space at the
//     same time via mmap/brk/sbrk, so every operation here is safe
//     for concurrent use.
//
// The space distinguishes reserved from committed bytes. A carve
// (Mmap, MapStack, heap growth) reserves address space; pages are
// committed on first touch. Stack carves commit lazily in
// chunk-granular steps growing down toward the red zone, so a mostly
// idle thread costs kilobytes of committed memory against a much
// larger reservation. SetLimit bounds reservations (RLIMIT_AS);
// SetCommitLimit bounds committed bytes.
//
// Addresses are int64 byte offsets in a simulated 63-bit address
// space; there is no connection to Go pointers.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sunosmt/internal/chaos"
)

// PageSize is the simulated page size.
const PageSize = 4096

// commitChunk is the granularity of lazy stack commit: a first touch
// below a stack's commit watermark commits down to the enclosing
// chunk boundary, pre-faulting the pages in between, so a growing
// stack takes one fault per chunk rather than one per page.
const commitChunk = 4 * PageSize

// Errors returned by address-space operations.
var (
	// ErrFault is returned for accesses to unmapped addresses
	// (SIGSEGV territory; the threads layer turns it into a trap).
	ErrFault = errors.New("vm: segmentation fault")
	// ErrProt is returned for accesses violating segment
	// protections.
	ErrProt = errors.New("vm: protection violation")
	// ErrInval is returned for malformed requests.
	ErrInval = errors.New("vm: invalid argument")
	// ErrNoMem is returned when a carve would exceed the address
	// space's byte rlimit, when a first touch would exceed the
	// committed-byte rlimit, or when chaos injects a transient
	// allocation failure. ENOMEM territory: recoverable, retryable.
	ErrNoMem = errors.New("vm: address-space limit exceeded (ENOMEM)")
	// ErrRedZone is returned for a touch of a stack's red-zone guard
	// page — stack overflow caught at the page below the stack
	// instead of silent corruption. The threads layer turns it into
	// a SIGSEGV trap like any other fault.
	ErrRedZone = errors.New("vm: stack red-zone violation")
)

var objectIDs atomic.Uint64

// NextObjectID hands out process-global mapping-object identities.
// internal/vfs uses it so files and anonymous memory share one id
// space.
func NextObjectID() uint64 { return objectIDs.Add(1) }

// Object is a mappable backing object. Files (internal/vfs) and
// anonymous memory both implement it. An Object's identity — not the
// virtual address it happens to be mapped at — names synchronization
// variables shared between processes.
type Object interface {
	// ObjectID returns the object's unique identity.
	ObjectID() uint64
	// ObjectSize returns the current size in bytes.
	ObjectSize() int64
	// ReadObject copies len(b) bytes at off into b.
	ReadObject(b []byte, off int64) error
	// WriteObject copies b into the object at off, growing it if
	// needed.
	WriteObject(b []byte, off int64) error
	// FileBacked reports whether first-touch faults are major
	// (backed by a file) or minor (anonymous).
	FileBacked() bool
	// LockObject and UnlockObject bracket a read-modify-write of the
	// object's bytes: nothing else reads or writes them in between.
	// This is the hardware atomic that process-shared synchronization
	// variables are built from. The lock is a leaf — the holder calls
	// ReadLocked and WriteLocked and nothing that takes another lock —
	// and ReadObject and WriteObject are one such bracket each.
	LockObject()
	UnlockObject()
	// ReadLocked and WriteLocked are ReadObject and WriteObject for a
	// caller that holds the object's lock.
	ReadLocked(b []byte, off int64) error
	WriteLocked(b []byte, off int64) error
}

// Anon is an anonymous memory object.
type Anon struct {
	id   uint64
	mu   sync.Mutex
	data []byte
}

// NewAnon allocates a zeroed anonymous object of the given size.
func NewAnon(size int64) *Anon {
	return &Anon{id: NextObjectID(), data: make([]byte, size)}
}

// ObjectID implements Object.
func (a *Anon) ObjectID() uint64 { return a.id }

// ObjectSize implements Object.
func (a *Anon) ObjectSize() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int64(len(a.data))
}

// FileBacked implements Object.
func (a *Anon) FileBacked() bool { return false }

// LockObject implements Object.
func (a *Anon) LockObject() { a.mu.Lock() }

// UnlockObject implements Object.
func (a *Anon) UnlockObject() { a.mu.Unlock() }

// ReadObject implements Object.
func (a *Anon) ReadObject(b []byte, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ReadLocked(b, off)
}

// WriteObject implements Object.
func (a *Anon) WriteObject(b []byte, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.WriteLocked(b, off)
}

// ReadLocked implements Object. Reads beyond the end return zeroes
// (demand-zero pages).
func (a *Anon) ReadLocked(b []byte, off int64) error {
	if off < 0 {
		return ErrInval
	}
	n := 0
	if off < int64(len(a.data)) {
		n = copy(b, a.data[off:])
	}
	clear(b[n:])
	return nil
}

// WriteLocked implements Object, growing the object as needed.
func (a *Anon) WriteLocked(b []byte, off int64) error {
	if off < 0 {
		return ErrInval
	}
	if need := off + int64(len(b)); need > int64(len(a.data)) {
		grown := make([]byte, need)
		copy(grown, a.data)
		a.data = grown
	}
	copy(a.data[off:], b)
	return nil
}

// SparseAnon is demand-zero anonymous memory that materializes host
// bytes only for chunks that are actually written. Stack carves use
// it so a million reserved-but-idle stacks cost nothing until
// touched: reads of unwritten ranges return zeroes without allocating
// backing store.
type SparseAnon struct {
	id     uint64
	mu     sync.Mutex
	size   int64
	chunks map[int64][]byte // chunk index -> commitChunk bytes
}

// NewSparseAnon creates a sparse demand-zero object of the given
// nominal size. No backing bytes are allocated until the first write.
func NewSparseAnon(size int64) *SparseAnon {
	return &SparseAnon{id: NextObjectID(), size: size}
}

// ObjectID implements Object.
func (a *SparseAnon) ObjectID() uint64 { return a.id }

// ObjectSize implements Object.
func (a *SparseAnon) ObjectSize() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size
}

// FileBacked implements Object.
func (a *SparseAnon) FileBacked() bool { return false }

// LockObject implements Object.
func (a *SparseAnon) LockObject() { a.mu.Lock() }

// UnlockObject implements Object.
func (a *SparseAnon) UnlockObject() { a.mu.Unlock() }

// ReadObject implements Object.
func (a *SparseAnon) ReadObject(b []byte, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ReadLocked(b, off)
}

// WriteObject implements Object.
func (a *SparseAnon) WriteObject(b []byte, off int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.WriteLocked(b, off)
}

// ReadLocked implements Object: unwritten ranges read as zeroes.
func (a *SparseAnon) ReadLocked(b []byte, off int64) error {
	if off < 0 {
		return ErrInval
	}
	for n := int64(0); n < int64(len(b)); {
		p := off + n
		ci := p / commitChunk
		co := p % commitChunk
		span := min(commitChunk-co, int64(len(b))-n)
		if c, ok := a.chunks[ci]; ok {
			copy(b[n:n+span], c[co:])
		} else {
			clear(b[n : n+span])
		}
		n += span
	}
	return nil
}

// WriteLocked implements Object, materializing chunks on demand and
// growing the nominal size if needed.
func (a *SparseAnon) WriteLocked(b []byte, off int64) error {
	if off < 0 {
		return ErrInval
	}
	if need := off + int64(len(b)); need > a.size {
		a.size = need
	}
	for n := int64(0); n < int64(len(b)); {
		p := off + n
		ci := p / commitChunk
		co := p % commitChunk
		span := min(commitChunk-co, int64(len(b))-n)
		c, ok := a.chunks[ci]
		if !ok {
			c = make([]byte, commitChunk)
			if a.chunks == nil {
				a.chunks = make(map[int64][]byte)
			}
			a.chunks[ci] = c
		}
		copy(c[co:], b[n:n+span])
		n += span
	}
	return nil
}

// clone duplicates the sparse object chunk-by-chunk (fork of a
// private stack mapping): only materialized chunks are copied.
func (a *SparseAnon) clone() *SparseAnon {
	a.mu.Lock()
	defer a.mu.Unlock()
	c := NewSparseAnon(a.size)
	if len(a.chunks) > 0 {
		c.chunks = make(map[int64][]byte, len(a.chunks))
		for ci, data := range a.chunks {
			dup := make([]byte, len(data))
			copy(dup, data)
			c.chunks[ci] = dup
		}
	}
	return c
}

// snapshot returns a private copy of the object's current contents,
// used for MAP_PRIVATE and fork.
func snapshot(o Object) (*Anon, error) {
	size := o.ObjectSize()
	c := NewAnon(size)
	if size > 0 {
		buf := make([]byte, size)
		if err := o.ReadObject(buf, 0); err != nil {
			return nil, err
		}
		copy(c.data, buf)
	}
	return c, nil
}

// Prot is a segment protection bitmask.
type Prot int

// Protection bits.
const (
	ProtRead Prot = 1 << iota
	ProtWrite
	ProtExec
)

// MapFlags selects mapping semantics.
type MapFlags int

// Mapping flags.
const (
	// MapShared stores through to the underlying object: all
	// processes mapping the object see each other's writes, and
	// synchronization variables in the mapping synchronize across
	// processes.
	MapShared MapFlags = 1 << iota
	// MapPrivate takes a snapshot: modifications are not visible
	// to other processes. (Real kernels use copy-on-write; the
	// copy here is eager, which preserves the visible semantics.)
	MapPrivate
	// MapFixed places the mapping exactly at the requested
	// address, unmapping anything in the way.
	MapFixed
	// MapRedZone marks a stack guard page: never accessible, and a
	// touch reports ErrRedZone rather than a plain protection
	// violation. Set only by MapStack, never by callers of Mmap.
	MapRedZone
)

// guardObj backs every red-zone guard page. Guards are never
// readable or writable, so one zero-length object shared by all
// address spaces suffices — a million stacks carry no per-guard
// allocation.
var guardObj = NewAnon(0)

// Segment is one contiguous mapping in an address space.
type Segment struct {
	Base   int64
	Length int64
	Prot   Prot
	Flags  MapFlags
	obj    Object // the store target (private copy for MapPrivate)
	origin Object // the originally mapped object (== obj when shared)
	objOff int64
	// touched tracks first-touch pages for fault accounting,
	// allocated lazily on the first touch and keyed by absolute
	// page number (so split remainders can keep sharing it).
	touched map[int64]struct{}
	// stack marks a lazily-committed stack carve: pages in
	// [commitLow, end) are committed; a touch below the watermark
	// commits down in commitChunk steps toward the red zone.
	stack     bool
	commitLow int64
}

func (s *Segment) end() int64 { return s.Base + s.Length }

// AddressSpace is a process's simulated address space.
type AddressSpace struct {
	mu sync.Mutex
	// segs is sorted by descending Base: mmap carves walk down from
	// mapTop, so fresh carves append at the tail in O(1) and lookups
	// binary-search. Segments never overlap.
	segs        []*Segment
	brk         int64
	brkBase     int64
	heapObj     *Anon
	mapHint     int64
	mapped      int64 // bytes reserved, across all segments
	committed   int64 // bytes committed by first touch
	peakCommit  int64 // high-water mark of committed
	limit       int64 // max reserved bytes; 0 is unlimited
	commitLimit int64 // max committed bytes; 0 is unlimited
	chaos       *chaos.Source
	// FaultFn, if set, is called once per first-touched page.
	faultFn func(major bool)
	// gen counts changes to what addresses resolve to: every segment
	// inserted, unmapped or split, and Reset. Bumped under mu, read
	// without it (Generation).
	gen atomic.Uint64
}

// Layout constants: the heap grows from brkBase; mmap allocations
// grow down from mapTop.
const (
	brkBase = int64(0x0000_1000_0000)
	mapTop  = int64(0x7000_0000_0000)
)

// New creates an empty address space. faultFn (may be nil) is invoked
// for each first touch of a page, with major=true for file-backed
// pages.
func New(faultFn func(major bool)) *AddressSpace {
	as := &AddressSpace{
		brk:     brkBase,
		brkBase: brkBase,
		mapHint: mapTop,
		faultFn: faultFn,
	}
	return as
}

// SetFaultFn replaces the fault accounting callback.
func (as *AddressSpace) SetFaultFn(fn func(major bool)) {
	as.mu.Lock()
	as.faultFn = fn
	as.mu.Unlock()
}

// SetLimit installs the address-space byte rlimit: any carve (Mmap,
// MapStack, heap growth) that would push the reserved total past n
// fails with ErrNoMem. Zero removes the limit. Lowering the limit
// below the current total never unmaps anything; it only refuses
// growth, exactly as setrlimit(RLIMIT_AS) does.
func (as *AddressSpace) SetLimit(n int64) {
	as.mu.Lock()
	as.limit = n
	as.mu.Unlock()
}

// SetCommitLimit installs the committed-byte rlimit: a first touch
// that would push the committed total past n faults with ErrNoMem
// (the threads layer turns it into a SIGSEGV trap, like running out
// of swap). Zero removes the limit. Reservations are unaffected —
// overcommit is the point of the reserve/commit split.
func (as *AddressSpace) SetCommitLimit(n int64) {
	as.mu.Lock()
	as.commitLimit = n
	as.mu.Unlock()
}

// Mapped returns the number of bytes currently reserved.
func (as *AddressSpace) Mapped() int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.mapped
}

// Reserved is Mapped under its modern name: bytes of address space
// carved, whether or not any page has been touched.
func (as *AddressSpace) Reserved() int64 { return as.Mapped() }

// Committed returns the bytes committed by first touch — the
// simulated resident footprint, always <= Reserved().
func (as *AddressSpace) Committed() int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.committed
}

// PeakCommitted returns the high-water mark of Committed() over the
// address space's lifetime (since the last Reset). The 1M-thread
// bench tier gates its memory ceiling on this.
func (as *AddressSpace) PeakCommitted() int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.peakCommit
}

// SetChaos wires a fault-injection source into the allocation paths:
// when it fires, a carve fails with a transient ErrNoMem even below
// the rlimit. Nil injects nothing.
func (as *AddressSpace) SetChaos(s *chaos.Source) {
	as.mu.Lock()
	as.chaos = s
	as.mu.Unlock()
}

// reserveLocked admits a carve of delta new bytes: the chaos source
// may fail it transiently, and the byte rlimit bounds the total.
// Shrinking or size-preserving operations (delta <= 0) always pass.
func (as *AddressSpace) reserveLocked(delta int64) error {
	if delta <= 0 {
		return nil
	}
	if as.chaos.AllocFail() {
		return fmt.Errorf("transient allocation failure: %w", ErrNoMem)
	}
	if as.limit > 0 && as.mapped+delta > as.limit {
		return fmt.Errorf("%d mapped + %d > limit %d: %w", as.mapped, delta, as.limit, ErrNoMem)
	}
	return nil
}

func pageRound(n int64) int64 {
	return (n + PageSize - 1) &^ (PageSize - 1)
}

// Mmap maps length bytes of obj starting at objOff. If va is zero
// (and MapFixed unset) the kernel chooses an address. obj may be nil
// for fresh anonymous memory. Returns the mapped base address.
func (as *AddressSpace) Mmap(va, length int64, prot Prot, flags MapFlags, obj Object, objOff int64) (int64, error) {
	if length <= 0 || objOff < 0 {
		return 0, ErrInval
	}
	if flags&MapShared != 0 && flags&MapPrivate != 0 {
		return 0, ErrInval
	}
	if flags&(MapShared|MapPrivate) == 0 {
		return 0, ErrInval
	}
	length = pageRound(length)
	var origin Object
	if obj == nil {
		obj = NewAnon(length)
		origin = obj
	} else {
		origin = obj
		if flags&MapPrivate != 0 {
			snap, err := snapshot(obj)
			if err != nil {
				return 0, err
			}
			obj = snap
		}
	}

	as.mu.Lock()
	defer as.mu.Unlock()
	if flags&MapFixed != 0 {
		if va%PageSize != 0 {
			return 0, ErrInval
		}
		// Admission is judged net of the bytes the fixed mapping
		// replaces, and before anything is unmapped, so a refused
		// Mmap leaves the address space untouched.
		if err := as.reserveLocked(length - as.overlapBytesLocked(va, length)); err != nil {
			return 0, err
		}
		as.unmapLocked(va, length)
	} else {
		if err := as.reserveLocked(length); err != nil {
			return 0, err
		}
		va = as.findHoleLocked(length)
	}
	seg := &Segment{
		Base: va, Length: length, Prot: prot, Flags: flags,
		obj: obj, origin: origin, objOff: objOff,
	}
	as.insertLocked(seg)
	return va, nil
}

// Munmap removes mappings overlapping [va, va+length).
func (as *AddressSpace) Munmap(va, length int64) error {
	if length <= 0 || va%PageSize != 0 {
		return ErrInval
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.unmapLocked(va, pageRound(length))
	return nil
}

// findHoleLocked picks an unused range below the map hint.
func (as *AddressSpace) findHoleLocked(length int64) int64 {
	va := as.mapHint - length
	for {
		if as.overlapLocked(va, length) == nil {
			as.mapHint = va
			return va
		}
		va -= PageSize
	}
}

// searchLocked returns the index of the first segment with
// Base <= va in the descending-Base order (len(segs) if none).
func (as *AddressSpace) searchLocked(va int64) int {
	return sort.Search(len(as.segs), func(i int) bool {
		return as.segs[i].Base <= va
	})
}

// overlapBytesLocked counts the reserved bytes inside [va, va+length).
func (as *AddressSpace) overlapBytesLocked(va, length int64) int64 {
	end := va + length
	var n int64
	for i := as.searchLocked(end - 1); i < len(as.segs); i++ {
		s := as.segs[i]
		if s.end() <= va {
			break
		}
		lo, hi := max(va, s.Base), min(end, s.end())
		if lo < hi {
			n += hi - lo
		}
	}
	return n
}

// overlapLocked returns a segment overlapping [va, va+length), or
// nil. Segments are disjoint and sorted by descending Base, so the
// first segment based at or below the range's last byte is the only
// candidate whose extent can reach va.
func (as *AddressSpace) overlapLocked(va, length int64) *Segment {
	i := as.searchLocked(va + length - 1)
	if i < len(as.segs) && as.segs[i].end() > va {
		return as.segs[i]
	}
	return nil
}

func (as *AddressSpace) insertLocked(seg *Segment) {
	// First index whose Base is below the new segment's: insert
	// there to keep descending order. Stack and mmap carves walk
	// down from mapTop, so the common case appends at the tail.
	i := sort.Search(len(as.segs), func(i int) bool {
		return as.segs[i].Base < seg.Base
	})
	as.segs = append(as.segs, nil)
	copy(as.segs[i+1:], as.segs[i:])
	as.segs[i] = seg
	as.mapped += seg.Length
	as.gen.Add(1)
}

// unmapLocked removes or trims segments overlapping the range.
// Partial unmaps split segments. Committed accounting follows:
// touched pages (or the committed span of a stack watermark) inside
// the removed range are decommitted.
func (as *AddressSpace) unmapLocked(va, length int64) {
	end := va + length
	// Binary-search the overlap window: segments are disjoint in
	// descending Base order, so the overlapping ones are a contiguous
	// run starting at the first Base < end and ending before the first
	// segment entirely below va. Only that window is touched — the
	// common case (a thread exit unmapping the most recent carve at
	// the tail) splices in O(log n) with no slice rebuild.
	lo := as.searchLocked(end - 1)
	hi := lo
	var repl []*Segment
	for hi < len(as.segs) && as.segs[hi].end() > va {
		s := as.segs[hi]
		hi++
		clo, chi := max(va, s.Base), min(end, s.end())
		as.mapped -= chi - clo
		if s.stack {
			if c := max(clo, s.commitLow); c < chi {
				as.committed -= chi - c
			}
		} else if s.touched != nil {
			for pg := clo / PageSize; pg <= (chi-1)/PageSize; pg++ {
				if _, ok := s.touched[pg]; ok {
					delete(s.touched, pg)
					as.committed -= PageSize
				}
			}
		}
		// Remainders, right (higher base) before left to keep the
		// descending order. Both may share the touched map: its keys
		// are absolute page numbers and the removed range's entries
		// were deleted above.
		if end < s.end() {
			right := *s
			right.objOff = s.objOff + (end - s.Base)
			right.Base = end
			right.Length = s.end() - end
			if s.stack {
				right.commitLow = max(s.commitLow, end)
			}
			repl = append(repl, &right)
		}
		if s.Base < va {
			left := *s
			left.Length = va - s.Base
			if s.stack {
				left.commitLow = min(s.commitLow, va)
			}
			repl = append(repl, &left)
		}
	}
	if lo == hi {
		return
	}
	as.gen.Add(1)
	// Splice repl over segs[lo:hi] in place (copy is memmove-like, so
	// the overlapping shifts are safe). At most two remainders exist,
	// so the slice grows by at most one; when the window is at the
	// tail and repl is empty — a thread exit unmapping the most
	// recent carve — this is a pure truncation.
	if w := hi - lo; len(repl) <= w {
		copy(as.segs[lo:], repl)
		copy(as.segs[lo+len(repl):], as.segs[hi:])
		n := len(as.segs) - (w - len(repl))
		for i := n; i < len(as.segs); i++ {
			as.segs[i] = nil // release removed segments to the GC
		}
		as.segs = as.segs[:n]
	} else { // len(repl) == w+1: middle split of a single segment
		as.segs = append(as.segs, nil)
		copy(as.segs[lo+len(repl):], as.segs[hi:])
		copy(as.segs[lo:], repl)
	}
}

// findLocked returns the segment containing va.
func (as *AddressSpace) findLocked(va int64) *Segment {
	i := as.searchLocked(va)
	if i < len(as.segs) && va < as.segs[i].end() {
		return as.segs[i]
	}
	return nil
}

// touchLocked performs first-touch fault accounting for [va,va+n).
// For stack segments the commit watermark moves down to the chunk
// boundary enclosing va; for everything else pages commit
// individually. Fails with ErrNoMem when the committed-byte rlimit
// would be exceeded (a stack chunk commits all-or-nothing; the
// page-wise path stops at the page that hit the limit).
func (as *AddressSpace) touchLocked(s *Segment, va, n int64) error {
	if s.stack {
		low := max(va&^(commitChunk-1), s.Base)
		if low >= s.commitLow {
			return nil
		}
		delta := s.commitLow - low
		if as.commitLimit > 0 && as.committed+delta > as.commitLimit {
			return fmt.Errorf("%d committed + %d > commit limit %d: %w",
				as.committed, delta, as.commitLimit, ErrNoMem)
		}
		if as.faultFn != nil {
			for pg := low / PageSize; pg < s.commitLow/PageSize; pg++ {
				as.faultFn(false)
			}
		}
		as.committed += delta
		as.peakCommit = max(as.peakCommit, as.committed)
		s.commitLow = low
		return nil
	}
	first := va / PageSize
	last := (va + n - 1) / PageSize
	for pg := first; pg <= last; pg++ {
		if _, ok := s.touched[pg]; ok {
			continue
		}
		if as.commitLimit > 0 && as.committed+PageSize > as.commitLimit {
			return fmt.Errorf("%d committed + %d > commit limit %d: %w",
				as.committed, int64(PageSize), as.commitLimit, ErrNoMem)
		}
		if s.touched == nil {
			s.touched = make(map[int64]struct{})
		}
		s.touched[pg] = struct{}{}
		as.committed += PageSize
		as.peakCommit = max(as.peakCommit, as.committed)
		if as.faultFn != nil {
			as.faultFn(s.obj.FileBacked())
		}
	}
	return nil
}

// access validates an access and returns the segment. Accesses must
// fall within one segment.
func (as *AddressSpace) access(va, n int64, want Prot) (*Segment, error) {
	if n <= 0 {
		return nil, ErrInval
	}
	s := as.findLocked(va)
	if s != nil && s.Flags&MapRedZone != 0 {
		return nil, fmt.Errorf("%w: va %#x under stack base %#x", ErrRedZone, va, s.end())
	}
	if s == nil || va+n > s.end() {
		return nil, fmt.Errorf("%w: va %#x+%d", ErrFault, va, n)
	}
	if s.Prot&want != want {
		return nil, fmt.Errorf("%w: va %#x", ErrProt, va)
	}
	if err := as.touchLocked(s, va, n); err != nil {
		return nil, err
	}
	return s, nil
}

// Read copies memory at va into b.
func (as *AddressSpace) Read(va int64, b []byte) error {
	as.mu.Lock()
	s, err := as.access(va, int64(len(b)), ProtRead)
	if err != nil {
		as.mu.Unlock()
		return err
	}
	obj, off := s.obj, s.objOff+(va-s.Base)
	as.mu.Unlock()
	return obj.ReadObject(b, off)
}

// Write copies b into memory at va.
func (as *AddressSpace) Write(va int64, b []byte) error {
	as.mu.Lock()
	s, err := as.access(va, int64(len(b)), ProtWrite)
	if err != nil {
		as.mu.Unlock()
		return err
	}
	obj, off := s.obj, s.objOff+(va-s.Base)
	as.mu.Unlock()
	return obj.WriteObject(b, off)
}

// Resolve maps a virtual address to the identity of the backing
// object and the offset within it, and reports the mapping's flags.
// Synchronization variables placed in shared memory are named by this
// (object, offset) pair, which is how threads in different processes
// find the same variable even when the object is mapped at different
// virtual addresses — but only a MapShared mapping has an identity
// that survives fork, so callers naming a shared variable check for
// that flag. The caller will load and store the variable's words in
// the object itself, past access and its protection check, so the
// check is made here: a mapping that is not both readable and writable
// is ErrProt.
func (as *AddressSpace) Resolve(va int64) (Object, int64, MapFlags, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	s := as.findLocked(va)
	if s == nil {
		return nil, 0, 0, fmt.Errorf("%w: va %#x", ErrFault, va)
	}
	if rw := ProtRead | ProtWrite; s.Prot&rw != rw {
		return nil, 0, 0, fmt.Errorf("%w: va %#x", ErrProt, va)
	}
	return s.obj, s.objOff + (va - s.Base), s.Flags, nil
}

// Generation returns a number that moves whenever what some address
// resolves to may have changed (Mmap, Munmap, a stack carved or
// released, Reset): a Resolve result obtained after reading it holds
// for as long as it reads the same.
func (as *AddressSpace) Generation() uint64 { return as.gen.Load() }

// Brk sets the break to addr, like brk(2). It fails with ErrNoMem
// when the growth would exceed the address-space rlimit, leaving the
// break unchanged.
func (as *AddressSpace) Brk(addr int64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if addr < as.brkBase {
		return ErrInval
	}
	if err := as.ensureHeapLocked(addr); err != nil {
		return err
	}
	as.brk = addr
	return nil
}

// Sbrk adjusts the break by delta and returns the previous break.
func (as *AddressSpace) Sbrk(delta int64) (int64, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	old := as.brk
	next := old + delta
	if next < as.brkBase {
		return 0, ErrInval
	}
	if err := as.ensureHeapLocked(next); err != nil {
		return 0, err
	}
	as.brk = next
	return old, nil
}

// ensureHeapLocked keeps a heap segment covering [brkBase, addr).
func (as *AddressSpace) ensureHeapLocked(addr int64) error {
	need := pageRound(addr - as.brkBase)
	if need <= 0 {
		return nil
	}
	if as.heapObj == nil {
		if err := as.reserveLocked(need); err != nil {
			return err
		}
		as.heapObj = NewAnon(need)
		seg := &Segment{
			Base: as.brkBase, Length: need,
			Prot: ProtRead | ProtWrite, Flags: MapPrivate,
			obj: as.heapObj, origin: as.heapObj,
		}
		as.insertLocked(seg)
		return nil
	}
	// Grow the existing heap segment.
	if s := as.findLocked(as.brkBase); s != nil && s.obj == as.heapObj && s.Base == as.brkBase {
		if need > s.Length {
			if err := as.reserveLocked(need - s.Length); err != nil {
				return err
			}
			as.mapped += need - s.Length
			s.Length = need
		}
	}
	return nil
}

// MapStack carves a thread stack of size bytes guarded below by a
// red-zone page, the paper's defense against silent stack overflow:
// stacks grow down, so the first write past the bottom lands on the
// guard and faults with ErrRedZone (a SIGSEGV at the mt layer)
// instead of corrupting the neighboring mapping. Returns the base of
// the usable stack — the guard page sits at base-PageSize.
//
// The carve only reserves: no page is committed until first touch,
// at which point the stack commits down in commitChunk steps toward
// the red zone (see touchLocked). Reservation fails with ErrNoMem
// past the rlimit; the guard page counts toward the reserved limit
// like any other mapping.
func (as *AddressSpace) MapStack(size int64) (int64, error) {
	if size <= 0 {
		return 0, ErrInval
	}
	size = pageRound(size)
	total := size + PageSize
	as.mu.Lock()
	defer as.mu.Unlock()
	if err := as.reserveLocked(total); err != nil {
		return 0, err
	}
	va := as.findHoleLocked(total)
	guard := &Segment{
		Base: va, Length: PageSize, Prot: 0,
		Flags: MapPrivate | MapRedZone,
		obj:   guardObj, origin: guardObj,
	}
	stackObj := NewSparseAnon(size)
	stack := &Segment{
		Base: va + PageSize, Length: size,
		Prot: ProtRead | ProtWrite, Flags: MapPrivate,
		obj: stackObj, origin: stackObj,
		stack: true, commitLow: va + PageSize + size,
	}
	// Descending order: the stack (higher base) inserts before the
	// guard; both append at the tail for fresh carves.
	as.insertLocked(stack)
	as.insertLocked(guard)
	return stack.Base, nil
}

// TouchStack commits the top of a stack carve, modeling the first
// frame pushed when a thread starts running: the top chunk commits,
// moving the watermark off the reservation ceiling. A stack recycled
// through the thread library's cache is already committed and the
// touch is free. Fails with ErrNoMem past the committed-byte rlimit.
func (as *AddressSpace) TouchStack(base, size int64) error {
	if size <= 0 {
		return ErrInval
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	top := base + pageRound(size) - 1
	s := as.findLocked(top)
	if s == nil {
		return fmt.Errorf("%w: va %#x", ErrFault, top)
	}
	return as.touchLocked(s, top, 1)
}

// UnmapStack releases a MapStack carve: the stack and its red-zone
// guard page.
func (as *AddressSpace) UnmapStack(base, size int64) error {
	if size <= 0 || base%PageSize != 0 {
		return ErrInval
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.unmapLocked(base-PageSize, pageRound(size)+PageSize)
	return nil
}

// Brk0 returns the current break.
func (as *AddressSpace) Brk0() int64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.brk
}

// Segments returns a snapshot of the mappings, sorted by ascending
// base.
func (as *AddressSpace) Segments() []Segment {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]Segment, len(as.segs))
	for i, s := range as.segs {
		out[len(as.segs)-1-i] = *s
		out[len(as.segs)-1-i].touched = nil
	}
	return out
}

// Fork duplicates the address space for a child process: shared
// mappings refer to the same objects; private mappings (including the
// heap) are copied — sparse stack objects chunk-by-chunk, so idle
// stacks stay cheap across fork. The child's touch state is fresh:
// its committed total starts at zero and rebuilds as it faults pages
// in.
func (as *AddressSpace) Fork() (*AddressSpace, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	child := &AddressSpace{
		brk:     as.brk,
		brkBase: as.brkBase,
		mapHint: as.mapHint,
		mapped:  as.mapped,
		limit:   as.limit, // rlimits are inherited across fork
		chaos:   as.chaos,
		faultFn: nil, // the caller wires the child's accounting
	}
	child.commitLimit = as.commitLimit
	for _, s := range as.segs {
		ns := &Segment{
			Base: s.Base, Length: s.Length, Prot: s.Prot,
			Flags: s.Flags, obj: s.obj, origin: s.origin,
			objOff: s.objOff, stack: s.stack,
		}
		if ns.stack {
			ns.commitLow = ns.end()
		}
		if s.Flags&MapPrivate != 0 && s.obj != guardObj {
			if sp, ok := s.obj.(*SparseAnon); ok {
				ns.obj = sp.clone()
			} else {
				snap, err := snapshot(s.obj)
				if err != nil {
					return nil, err
				}
				ns.obj = snap
				if s.obj == as.heapObj {
					child.heapObj = snap
				}
			}
		}
		child.segs = append(child.segs, ns)
	}
	return child, nil
}

// Reset drops all mappings (used by exec).
func (as *AddressSpace) Reset() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.segs = nil
	as.heapObj = nil
	as.brk = as.brkBase
	as.mapHint = mapTop
	as.mapped = 0
	as.committed = 0
	as.peakCommit = 0
	as.gen.Add(1)
}
