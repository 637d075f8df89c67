package vm

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"sunosmt/internal/chaos"
)

func TestAnonReadBeyondEndIsZero(t *testing.T) {
	a := NewAnon(4)
	if err := a.WriteObject([]byte{1, 2, 3, 4}, 0); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 8)
	if err := a.ReadObject(b, 0); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 0, 0, 0, 0}
	if !bytes.Equal(b, want) {
		t.Fatalf("got %v, want %v", b, want)
	}
}

func TestAnonGrowsOnWrite(t *testing.T) {
	a := NewAnon(0)
	if err := a.WriteObject([]byte{9}, 100); err != nil {
		t.Fatal(err)
	}
	if a.ObjectSize() != 101 {
		t.Fatalf("size = %d, want 101", a.ObjectSize())
	}
	b := make([]byte, 1)
	a.ReadObject(b, 100)
	if b[0] != 9 {
		t.Fatalf("read back %d, want 9", b[0])
	}
}

func TestObjectIDsUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id := NewAnon(1).ObjectID()
		if seen[id] {
			t.Fatalf("duplicate object id %d", id)
		}
		seen[id] = true
	}
}

func TestMmapAndReadWrite(t *testing.T) {
	as := New(nil)
	va, err := as.Mmap(0, 100, ProtRead|ProtWrite, MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if va%PageSize != 0 {
		t.Fatalf("va %#x not page aligned", va)
	}
	if err := as.Write(va+10, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 5)
	if err := as.Read(va+10, b); err != nil {
		t.Fatal(err)
	}
	if string(b) != "hello" {
		t.Fatalf("read %q", b)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := New(nil)
	err := as.Read(0x1234, make([]byte, 4))
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
	err = as.Write(0x1234, []byte{1})
	if !errors.Is(err, ErrFault) {
		t.Fatalf("err = %v, want ErrFault", err)
	}
}

func TestProtectionEnforced(t *testing.T) {
	as := New(nil)
	va, err := as.Mmap(0, PageSize, ProtRead, MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Write(va, []byte{1}); !errors.Is(err, ErrProt) {
		t.Fatalf("write to read-only = %v, want ErrProt", err)
	}
	if err := as.Read(va, make([]byte, 1)); err != nil {
		t.Fatalf("read of read-only mapping failed: %v", err)
	}
}

func TestSharedMappingVisibleAcrossSpaces(t *testing.T) {
	obj := NewAnon(PageSize)
	as1 := New(nil)
	as2 := New(nil)
	va1, err := as1.Mmap(0, PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	va2, err := as2.Mmap(0, 2*PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The two mappings are at different virtual addresses, as the
	// paper requires for cross-process synchronization variables.
	if err := as1.Write(va1+8, []byte("record")); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 6)
	if err := as2.Read(va2+8, b); err != nil {
		t.Fatal(err)
	}
	if string(b) != "record" {
		t.Fatalf("shared mapping read %q", b)
	}
}

func TestResolveGivesSameIdentityAtDifferentVAs(t *testing.T) {
	obj := NewAnon(PageSize)
	as1 := New(nil)
	as2 := New(nil)
	va1, _ := as1.Mmap(0, PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
	va2, _ := as2.Mmap(0, PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
	o1, off1, fl1, err := as1.Resolve(va1 + 64)
	if err != nil {
		t.Fatal(err)
	}
	o2, off2, _, err := as2.Resolve(va2 + 64)
	if err != nil {
		t.Fatal(err)
	}
	if o1.ObjectID() != o2.ObjectID() || off1 != off2 {
		t.Fatalf("identities differ: (%d,%d) vs (%d,%d)", o1.ObjectID(), off1, o2.ObjectID(), off2)
	}
	if fl1&MapShared == 0 {
		t.Fatalf("flags %#x of a MapShared mapping lack MapShared", fl1)
	}
	vp, _ := as1.Mmap(0, PageSize, ProtRead|ProtWrite, MapPrivate, obj, 0)
	if _, _, fl, err := as1.Resolve(vp); err != nil || fl&MapShared != 0 {
		t.Fatalf("private mapping resolves with flags %#x, err %v", fl, err)
	}
}

func TestPrivateMappingIsolated(t *testing.T) {
	obj := NewAnon(PageSize)
	obj.WriteObject([]byte("original"), 0)
	as := New(nil)
	va, err := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapPrivate, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot sees the original contents...
	b := make([]byte, 8)
	as.Read(va, b)
	if string(b) != "original" {
		t.Fatalf("private read %q", b)
	}
	// ...writes do not reach the object...
	as.Write(va, []byte("modified"))
	obj.ReadObject(b, 0)
	if string(b) != "original" {
		t.Fatalf("private write leaked to object: %q", b)
	}
	// ...and later object writes are not seen.
	obj.WriteObject([]byte("rewritten"), 0)
	as.Read(va, b)
	if string(b) != "modified" {
		t.Fatalf("private mapping saw object write: %q", b)
	}
}

func TestMapFixedReplacesExisting(t *testing.T) {
	as := New(nil)
	va, err := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	as.Write(va, []byte("aaaa"))
	if _, err := as.Mmap(va, PageSize, ProtRead|ProtWrite, MapPrivate|MapFixed, nil, 0); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 4)
	as.Read(va, b)
	if !bytes.Equal(b, []byte{0, 0, 0, 0}) {
		t.Fatalf("fixed mapping did not replace: %v", b)
	}
}

func TestMunmapSplitsSegment(t *testing.T) {
	as := New(nil)
	va, err := as.Mmap(0, 3*PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	as.Write(va, []byte("left"))
	as.Write(va+2*PageSize, []byte("right"))
	if err := as.Munmap(va+PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 5)
	if err := as.Read(va, b[:4]); err != nil || string(b[:4]) != "left" {
		t.Fatalf("left remainder: %q err %v", b[:4], err)
	}
	if err := as.Read(va+2*PageSize, b); err != nil || string(b) != "right" {
		t.Fatalf("right remainder: %q err %v", b, err)
	}
	if err := as.Read(va+PageSize, b); !errors.Is(err, ErrFault) {
		t.Fatalf("hole read err = %v, want fault", err)
	}
}

func TestFaultAccounting(t *testing.T) {
	var minor, major int
	as := New(func(m bool) {
		if m {
			major++
		} else {
			minor++
		}
	})
	va, _ := as.Mmap(0, 2*PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	as.Write(va, []byte{1})
	as.Write(va, []byte{2}) // same page: no new fault
	as.Write(va+PageSize, []byte{3})
	if minor != 2 || major != 0 {
		t.Fatalf("minor=%d major=%d, want 2/0", minor, major)
	}
}

type fileLike struct{ *Anon }

func (fileLike) FileBacked() bool { return true }

func TestMajorFaultsForFileBacked(t *testing.T) {
	var major int
	as := New(func(m bool) {
		if m {
			major++
		}
	})
	f := fileLike{NewAnon(PageSize)}
	va, err := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapShared, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	as.Read(va, make([]byte, 1))
	if major != 1 {
		t.Fatalf("major = %d, want 1", major)
	}
}

func TestBrkSbrk(t *testing.T) {
	as := New(nil)
	start := as.Brk0()
	old, err := as.Sbrk(100)
	if err != nil {
		t.Fatal(err)
	}
	if old != start {
		t.Fatalf("sbrk returned %#x, want %#x", old, start)
	}
	if err := as.Write(start, []byte("heap")); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Sbrk(-(200)); !errors.Is(err, ErrInval) {
		t.Fatalf("sbrk below base err = %v, want ErrInval", err)
	}
	if err := as.Brk(start + PageSize*4); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(start+PageSize*3, []byte("far")); err != nil {
		t.Fatalf("write in grown heap: %v", err)
	}
}

func TestForkCopiesPrivateSharesShared(t *testing.T) {
	obj := NewAnon(PageSize)
	as := New(nil)
	shared, _ := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
	private, _ := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	as.Write(shared, []byte("S1"))
	as.Write(private, []byte("P1"))

	child, err := as.Fork()
	if err != nil {
		t.Fatal(err)
	}
	// Parent's later private write is invisible to the child.
	as.Write(private, []byte("P2"))
	b := make([]byte, 2)
	child.Read(private, b)
	if string(b) != "P1" {
		t.Fatalf("child private = %q, want P1", b)
	}
	// Shared stays shared both ways.
	as.Write(shared, []byte("S2"))
	child.Read(shared, b)
	if string(b) != "S2" {
		t.Fatalf("child shared = %q, want S2", b)
	}
	child.Write(shared, []byte("S3"))
	as.Read(shared, b)
	if string(b) != "S3" {
		t.Fatalf("parent shared = %q, want S3", b)
	}
}

func TestResetDropsEverything(t *testing.T) {
	as := New(nil)
	va, _ := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	as.Reset()
	if err := as.Read(va, make([]byte, 1)); !errors.Is(err, ErrFault) {
		t.Fatal("mapping survived Reset")
	}
	if len(as.Segments()) != 0 {
		t.Fatal("segments survived Reset")
	}
}

func TestMmapValidation(t *testing.T) {
	as := New(nil)
	if _, err := as.Mmap(0, 0, ProtRead, MapPrivate, nil, 0); !errors.Is(err, ErrInval) {
		t.Fatal("zero length accepted")
	}
	if _, err := as.Mmap(0, 10, ProtRead, MapShared|MapPrivate, nil, 0); !errors.Is(err, ErrInval) {
		t.Fatal("shared|private accepted")
	}
	if _, err := as.Mmap(0, 10, ProtRead, 0, nil, 0); !errors.Is(err, ErrInval) {
		t.Fatal("neither shared nor private accepted")
	}
	if _, err := as.Mmap(123, PageSize, ProtRead, MapPrivate|MapFixed, nil, 0); !errors.Is(err, ErrInval) {
		t.Fatal("unaligned MapFixed accepted")
	}
}

func TestConcurrentMmapAndAccess(t *testing.T) {
	as := New(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				va, err := as.Mmap(0, PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := as.Write(va, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				if err := as.Munmap(va, PageSize); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Property: data written through one shared mapping is read back
// identically through another mapping of the same object at any
// offset.
func TestSharedMappingRoundTripProperty(t *testing.T) {
	f := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw) % PageSize
		obj := NewAnon(2 * PageSize)
		as1, as2 := New(nil), New(nil)
		va1, err1 := as1.Mmap(0, 2*PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
		va2, err2 := as2.Mmap(0, 2*PageSize, ProtRead|ProtWrite, MapShared, obj, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		if int64(len(data)) > PageSize {
			data = data[:PageSize]
		}
		if err := as1.Write(va1+off, data); err != nil {
			return false
		}
		b := make([]byte, len(data))
		if err := as2.Read(va2+off, b); err != nil {
			return false
		}
		return bytes.Equal(b, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- resource-exhaustion error paths ------------------------------------

func TestMmapLimitENOMEM(t *testing.T) {
	as := New(nil)
	base := as.Mapped()
	as.SetLimit(base + 2*PageSize)
	va, err := as.Mmap(0, 2*PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One page over the limit: refused with ErrNoMem, space untouched.
	if _, err := as.Mmap(0, PageSize, ProtRead, MapPrivate, nil, 0); !errors.Is(err, ErrNoMem) {
		t.Fatalf("over-limit Mmap = %v, want ErrNoMem", err)
	}
	if got := as.Mapped(); got != base+2*PageSize {
		t.Fatalf("refused Mmap changed accounting: %d, want %d", got, base+2*PageSize)
	}
	// A fixed remap of an already-mapped range is judged net of the
	// bytes it replaces, so it fits even with the limit exhausted.
	if _, err := as.Mmap(va, 2*PageSize, ProtRead, MapPrivate|MapFixed, nil, 0); err != nil {
		t.Fatalf("fixed remap within limit failed: %v", err)
	}
	// Raising the fixed mapping's footprint past the limit is refused
	// before anything is unmapped.
	if _, err := as.Mmap(va, 3*PageSize, ProtRead, MapPrivate|MapFixed, nil, 0); !errors.Is(err, ErrNoMem) {
		t.Fatalf("growing fixed remap = %v, want ErrNoMem", err)
	}
	b := make([]byte, 1)
	if err := as.Read(va, b); err != nil {
		t.Fatalf("refused fixed remap tore down the old mapping: %v", err)
	}
	// Lifting the limit unblocks growth.
	as.SetLimit(0)
	if _, err := as.Mmap(0, 16*PageSize, ProtRead, MapPrivate, nil, 0); err != nil {
		t.Fatalf("Mmap after lifting limit: %v", err)
	}
}

func TestMmapTransientAllocFail(t *testing.T) {
	as := New(nil)
	cfg := chaos.DefaultConfig(1)
	cfg.AllocFail = 1000 // every carve fails
	as.SetChaos(chaos.New(cfg))
	if _, err := as.Mmap(0, PageSize, ProtRead, MapPrivate, nil, 0); !errors.Is(err, ErrNoMem) {
		t.Fatalf("chaos Mmap = %v, want ErrNoMem", err)
	}
	if _, err := as.MapStack(PageSize); !errors.Is(err, ErrNoMem) {
		t.Fatalf("chaos MapStack = %v, want ErrNoMem", err)
	}
	if _, err := as.Sbrk(PageSize); !errors.Is(err, ErrNoMem) {
		t.Fatalf("chaos Sbrk = %v, want ErrNoMem", err)
	}
	as.SetChaos(nil)
	if _, err := as.Mmap(0, PageSize, ProtRead, MapPrivate, nil, 0); err != nil {
		t.Fatalf("Mmap after clearing chaos: %v", err)
	}
}

func TestMunmapPartialUnmap(t *testing.T) {
	as := New(nil)
	base := as.Mapped()
	va, err := as.Mmap(0, 4*PageSize, ProtRead|ProtWrite, MapPrivate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.Munmap(va, 0); !errors.Is(err, ErrInval) {
		t.Fatalf("zero-length Munmap = %v, want ErrInval", err)
	}
	if err := as.Munmap(va+1, PageSize); !errors.Is(err, ErrInval) {
		t.Fatalf("unaligned Munmap = %v, want ErrInval", err)
	}
	// Punch out the middle two pages: the ends stay mapped, the hole
	// faults, and the accounting drops by exactly the hole.
	if err := as.Munmap(va+PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := as.Write(va, b); err != nil {
		t.Fatalf("low end unmapped by partial Munmap: %v", err)
	}
	if err := as.Write(va+3*PageSize, b); err != nil {
		t.Fatalf("high end unmapped by partial Munmap: %v", err)
	}
	if err := as.Write(va+PageSize, b); !errors.Is(err, ErrFault) {
		t.Fatalf("hole access = %v, want ErrFault", err)
	}
	if got := as.Mapped(); got != base+2*PageSize {
		t.Fatalf("partial unmap accounting: %d mapped, want %d", got, base+2*PageSize)
	}
}

func TestStackRedZoneFault(t *testing.T) {
	as := New(nil)
	base := as.Mapped()
	sp, err := as.MapStack(2 * PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := as.Mapped(); got != base+3*PageSize {
		t.Fatalf("stack+guard accounting: %d, want %d", got, base+3*PageSize)
	}
	b := make([]byte, 1)
	if err := as.Write(sp, b); err != nil {
		t.Fatalf("stack not writable: %v", err)
	}
	// The first byte below the stack lands on the guard page: a
	// distinguished red-zone fault, for reads and writes both.
	if err := as.Write(sp-1, b); !errors.Is(err, ErrRedZone) {
		t.Fatalf("write under stack = %v, want ErrRedZone", err)
	}
	if err := as.Read(sp-PageSize, b); !errors.Is(err, ErrRedZone) {
		t.Fatalf("read in guard page = %v, want ErrRedZone", err)
	}
	// Releasing the stack reclaims the guard page with it, and the
	// former guard address reverts to a plain segmentation fault.
	if err := as.UnmapStack(sp, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.Mapped(); got != base {
		t.Fatalf("UnmapStack accounting: %d mapped, want %d", got, base)
	}
	if err := as.Write(sp-1, b); !errors.Is(err, ErrFault) || errors.Is(err, ErrRedZone) {
		t.Fatalf("unmapped guard access = %v, want plain ErrFault", err)
	}
}

func TestMapStackLimitENOMEM(t *testing.T) {
	as := New(nil)
	base := as.Mapped()
	// Room for the stack but not its guard page: the carve must be
	// refused as a whole, leaving no half-mapped stack behind.
	as.SetLimit(base + 2*PageSize)
	if _, err := as.MapStack(2 * PageSize); !errors.Is(err, ErrNoMem) {
		t.Fatalf("MapStack past limit = %v, want ErrNoMem", err)
	}
	if got := as.Mapped(); got != base {
		t.Fatalf("refused MapStack leaked: %d mapped, want %d", got, base)
	}
	as.SetLimit(base + 3*PageSize)
	if _, err := as.MapStack(2 * PageSize); err != nil {
		t.Fatalf("MapStack at exact fit failed: %v", err)
	}
}
