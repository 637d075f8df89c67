package vfs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"sunosmt/internal/vm"
)

// sparseChunk is vm's commit chunk, the unit in which SparseAnon
// materializes backing bytes.
const sparseChunk = 4 * vm.PageSize

// TestHeldLockSectionMatchesReadWriteObject: a read-modify-write under
// LockObject — read the words once, store into the image, write the
// stored range back once — leaves every kind of mappable object with
// the bytes and the size that one ReadObject per load and one
// WriteObject per store leave its twin. Words past EOF load as zero
// and a section that only loads never grows the object; a store grows
// it through the highest word stored and no further; a section may
// span a SparseAnon chunk edge, written or not.
func TestHeldLockSectionMatchesReadWriteObject(t *testing.T) {
	const words = 6
	backings := []struct {
		name string
		make func(size int64) vm.Object
	}{
		{"File", func(size int64) vm.Object {
			f := NewFile()
			f.Truncate(size)
			return f
		}},
		{"Anon", func(size int64) vm.Object { return vm.NewAnon(size) }},
		{"SparseAnon", func(size int64) vm.Object { return vm.NewSparseAnon(size) }},
	}
	placements := []struct {
		name            string
		size, off, fill int64 // the first fill bytes are non-zero
	}{
		{"inside", 256, 64, 256},
		{"straddles EOF mid-word", 84, 64, 84},
		{"past EOF", 32, 64, 32},
		{"empty object", 0, 0, 0},
		{"spans a chunk edge", 2 * sparseChunk, sparseChunk - 16, 2 * sparseChunk},
		{"spans a chunk edge into unwritten bytes and EOF", sparseChunk + 8, sparseChunk - 16, sparseChunk - 8},
	}
	// A section is the words it stores to (it loads all six first).
	sections := [][]int{{}, {0}, {}, {5}, {1, 3}, {2}, {0, 5}, {}}

	image := func(o vm.Object, span int64) (int64, []byte) {
		b := make([]byte, span)
		if err := o.ReadObject(b, 0); err != nil {
			t.Fatal(err)
		}
		return o.ObjectSize(), b
	}
	for _, bk := range backings {
		for _, pl := range placements {
			name := fmt.Sprintf("%s, %s", bk.name, pl.name)
			real, model := bk.make(pl.size), bk.make(pl.size)
			if pl.fill > 0 {
				pattern := make([]byte, pl.fill)
				for i := range pattern {
					pattern[i] = byte(i%251) + 1
				}
				for _, o := range []vm.Object{real, model} {
					if err := o.WriteObject(pattern, 0); err != nil {
						t.Fatal(err)
					}
				}
			}
			span := max(pl.size, pl.off+8*words) + 64
			for si, stores := range sections {
				var img, word [8 * words]byte
				real.LockObject()
				if err := real.ReadLocked(img[:], pl.off); err != nil {
					t.Fatal(err)
				}
				lo, hi := len(img), 0
				for _, i := range stores {
					// What the model loads is what the image holds.
					if err := model.ReadObject(word[:8], pl.off+int64(8*i)); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(word[:8], img[8*i:8*i+8]) {
						t.Errorf("%s: section %d: word %d loads %x, model %x", name, si, i, img[8*i:8*i+8], word[:8])
					}
					x := binary.LittleEndian.Uint64(word[:8]) + uint64(si+1)<<32 + uint64(i+1)
					binary.LittleEndian.PutUint64(img[8*i:], x)
					lo, hi = min(lo, 8*i), max(hi, 8*i+8)
					if err := model.WriteObject(img[8*i:8*i+8], pl.off+int64(8*i)); err != nil {
						t.Fatal(err)
					}
				}
				if lo < hi {
					if err := real.WriteLocked(img[lo:hi], pl.off+int64(lo)); err != nil {
						t.Fatal(err)
					}
				}
				real.UnlockObject()
				gotSize, got := image(real, span)
				wantSize, want := image(model, span)
				if gotSize != wantSize {
					t.Fatalf("%s: after section %d: ObjectSize = %d, model %d", name, si, gotSize, wantSize)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: after section %d: object bytes differ from the model's", name, si)
				}
			}
		}
	}
	for _, bk := range backings {
		o := bk.make(64)
		o.LockObject()
		if err := o.ReadLocked(make([]byte, 8), -8); err != vm.ErrInval && err != ErrInval {
			t.Errorf("%s: ReadLocked at a negative offset: %v, want ErrInval", bk.name, err)
		}
		if err := o.WriteLocked(make([]byte, 8), -8); err != vm.ErrInval && err != ErrInval {
			t.Errorf("%s: WriteLocked at a negative offset: %v, want ErrInval", bk.name, err)
		}
		o.UnlockObject()
	}
}

// TestHeldLockExcludesReadWriteObject: ReadObject and WriteObject take
// the same lock a section holds, so a counter incremented by sections
// on some goroutines and by nothing else loses no update while others
// read and write its neighbours. Meant for -race.
func TestHeldLockExcludesReadWriteObject(t *testing.T) {
	const workers, rounds = 4, 2000
	for _, o := range []vm.Object{NewFile(), vm.NewAnon(0), vm.NewSparseAnon(0)} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				var b [8]byte
				for i := 0; i < rounds; i++ {
					o.LockObject()
					o.ReadLocked(b[:], 8)
					binary.LittleEndian.PutUint64(b[:], binary.LittleEndian.Uint64(b[:])+1)
					o.WriteLocked(b[:], 8)
					o.UnlockObject()
				}
			}()
			go func() {
				defer wg.Done()
				var b [24]byte
				for i := 0; i < rounds; i++ {
					o.WriteObject(b[:8], 0)
					o.ReadObject(b[:], 0)
					o.WriteObject(b[16:], 16)
				}
			}()
		}
		wg.Wait()
		var b [8]byte
		o.ReadObject(b[:], 8)
		if got := binary.LittleEndian.Uint64(b[:]); got != workers*rounds {
			t.Errorf("%T: counter = %d, want %d", o, got, workers*rounds)
		}
	}
}
