package usync

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"sunosmt/internal/sim"
	"sunosmt/internal/vfs"
	"sunosmt/internal/vm"
)

// TestWordsOutOfRangePanics: an index past the largest layout is the
// mapped object's next datum (in Figure 1's file, the record the lock
// guards), so Load and Store refuse it instead of reading or
// overwriting it.
func TestWordsOutOfRangePanics(t *testing.T) {
	reg := NewRegistry(sim.NewKernel(sim.Config{NCPU: 1}))
	obj := vm.NewAnon(vm.PageSize)
	neighbour := []byte("balance!")
	if err := obj.WriteObject(neighbour, 8*maxWords); err != nil {
		t.Fatal(err)
	}
	v := reg.Var(obj, 0)
	for _, i := range []int{maxWords, 16, -1} {
		for name, op := range map[string]func(Words){
			"Load":  func(w Words) { w.Load(i) },
			"Store": func(w Words) { w.Store(i, ^uint64(0)) },
		} {
			func() {
				defer func() {
					r := recover()
					if s, _ := r.(string); !strings.Contains(s, "outside the variable") {
						t.Errorf("%s(%d): recovered %v, want the out-of-range panic", name, i, r)
					}
				}()
				v.Atomically(op)
			}()
		}
	}
	got := make([]byte, len(neighbour))
	if err := obj.ReadObject(got, 8*maxWords); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, neighbour) {
		t.Fatalf("neighbouring bytes = %q, want %q untouched", got, neighbour)
	}
	// The word lock was released on the way out of each panic.
	v.Atomically(func(w Words) { w.Store(maxWords-1, 7) })
}

// naiveWords is the reference model of a section: every Load is one
// ReadObject of that word, every Store one WriteObject of it — the
// per-word path Words used to take.
type naiveWords struct {
	obj vm.Object
	off int64
}

func (n naiveWords) Load(i int) uint64 {
	var b [8]byte
	if err := n.obj.ReadObject(b[:], n.off+int64(8*i)); err != nil {
		panic(err)
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (n naiveWords) Store(i int, x uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], x)
	if err := n.obj.WriteObject(b[:], n.off+int64(8*i)); err != nil {
		panic(err)
	}
}

// sparseChunk is vm's commit chunk: SparseAnon materializes backing
// bytes in pieces this size, so a variable 16 bytes below a multiple
// of it straddles two of them.
const sparseChunk = 4 * vm.PageSize

// wordsBackings are the mappable objects a shared variable can live
// in, each made zeroed at the given size.
var wordsBackings = []struct {
	name string
	make func(size int64) vm.Object
}{
	{"vfs.File", func(size int64) vm.Object {
		f := vfs.NewFile()
		f.Truncate(size)
		return f
	}},
	{"vm.Anon", func(size int64) vm.Object { return vm.NewAnon(size) }},
	{"vm.SparseAnon", func(size int64) vm.Object { return vm.NewSparseAnon(size) }},
}

// wordsPlacements put the variable (maxWords*8 = 48 bytes at off) in
// an object of the given size whose first fill bytes hold a non-zero
// pattern, so that a stray write to a neighbour of the variable
// shows; the sparse placements leave the second chunk unwritten.
var wordsPlacements = []struct {
	name            string
	size, off, fill int64
}{
	{"inside", 256, 64, 256},
	{"straddles EOF mid-word", 84, 64, 84},
	{"ends at EOF", 112, 64, 112},
	{"past EOF", 32, 64, 32},
	{"empty object", 0, 0, 0},
	{"straddles a sparse chunk", 2 * sparseChunk, sparseChunk - 16, sparseChunk - 8},
	{"straddles a sparse chunk and EOF", sparseChunk + 8, sparseChunk - 16, sparseChunk - 8},
}

// objectImage returns the object's size and its bytes through a
// margin past whichever end matters.
func objectImage(t *testing.T, o vm.Object, span int64) (int64, []byte) {
	t.Helper()
	b := make([]byte, span)
	if err := o.ReadObject(b, 0); err != nil {
		t.Fatal(err)
	}
	return o.ObjectSize(), b
}

// FuzzWordsImage checks the section's word image against the naive
// per-word model: the same Load/Store sequence, driven through
// Atomically on one object and word by word on its twin, must return
// the same loads and leave the same bytes and the same ObjectSize
// after every section — for every backing object and every placement,
// including a variable straddling EOF and a sparse-chunk boundary.
//
// The script is a byte string: 0xFF ends a section; any other byte b
// is an op on word (b>>1)%maxWords — a Load if b is even, a Store of
// a value derived from b and its position if odd.
func FuzzWordsImage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0xFF})                         // load only: must not grow
	f.Add([]byte{0x01, 0xFF})                         // store word 0
	f.Add([]byte{0x0B, 0xFF, 0x0A, 0xFF})             // store word 5, reload
	f.Add([]byte{0x01, 0x07, 0xFF})                   // words 0 and 3: one range, gap rewritten
	f.Add([]byte{0x05, 0x04, 0x05, 0x02, 0xFF, 0x04}) // store, load back, restore, other load
	f.Add([]byte{0x03, 0xFF, 0x09, 0xFF, 0x01, 0x0B, 0xFF, 0x00, 0x02, 0x04, 0x06, 0x08, 0x0A})
	f.Add([]byte{0xFF, 0xFF, 0x07, 0x01})
	f.Fuzz(func(t *testing.T, script []byte) {
		reg := NewRegistry(sim.NewKernel(sim.Config{NCPU: 1}))
		for _, bk := range wordsBackings {
			for _, pl := range wordsPlacements {
				name := fmt.Sprintf("%s, %s", bk.name, pl.name)
				real, model := bk.make(pl.size), bk.make(pl.size)
				pattern := make([]byte, pl.fill)
				for i := range pattern {
					pattern[i] = byte(i%251) + 1
				}
				if pl.fill > 0 {
					for _, o := range []vm.Object{real, model} {
						if err := o.WriteObject(pattern, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				span := max(pl.size, pl.off+8*maxWords) + 64
				v := reg.Var(real, pl.off)
				ref := naiveWords{model, pl.off}

				rest := script
				for section := 0; ; section++ {
					ops := rest
					if i := bytes.IndexByte(rest, 0xFF); i >= 0 {
						ops, rest = rest[:i], rest[i+1:]
					} else {
						rest = nil
					}
					v.Atomically(func(w Words) {
						for pos, b := range ops {
							i := int(b>>1) % maxWords
							if b&1 == 0 {
								if got, want := w.Load(i), ref.Load(i); got != want {
									t.Errorf("%s: section %d op %d: Load(%d) = %#x, model %#x", name, section, pos, i, got, want)
								}
								continue
							}
							x := uint64(b)*0x0101010101010101 ^ uint64(section)<<32 ^ uint64(pos)
							w.Store(i, x)
							ref.Store(i, x)
						}
					})
					gotSize, gotBytes := objectImage(t, real, span)
					wantSize, wantBytes := objectImage(t, model, span)
					if gotSize != wantSize {
						t.Fatalf("%s: after section %d: ObjectSize = %d, model %d", name, section, gotSize, wantSize)
					}
					if !bytes.Equal(gotBytes, wantBytes) {
						t.Fatalf("%s: after section %d: object bytes differ from the model's", name, section)
					}
					if rest == nil {
						break
					}
				}
			}
		}
	})
}

// TestSharedWordsHammer: LWPs of two processes run a counting
// semaphore on one shared word — producers increment it through
// Atomically and wake one sleeper, consumers decrement it or
// SleepWhile it is zero. Produced and consumed totals are kept in two
// more words of the same sections. Every increment must land (the
// image's read-modify-write is atomic across processes), and every
// consumer must get its share (a wake between a sleeper's check and
// its sleep is not lost). Run under -race: the image is plain memory
// guarded only by the word lock.
func TestSharedWordsHammer(t *testing.T) {
	const (
		procs  = 2
		pairs  = 3 // producers, and consumers, per process
		perLWP = 2000
		total  = procs * pairs * perLWP
		off    = 128
	)
	// A CPU for every LWP: how they interleave is up to the host.
	k := sim.NewKernel(sim.Config{NCPU: 2 * procs * pairs, KernelSwitchCost: -1})
	reg := NewRegistry(k)
	file := vfs.NewFile()
	v := reg.Var(file, off)

	var done []<-chan struct{}
	var ps []*sim.Process
	for pi := 0; pi < procs; pi++ {
		p := k.NewProcess(fmt.Sprintf("p%d", pi), nil)
		ps = append(ps, p)
		for i := 0; i < pairs; i++ {
			done = append(done, animate(k, p, func(l *sim.LWP) {
				for n := 0; n < perLWP; {
					var got bool
					v.Atomically(func(w Words) {
						if got = w.Load(0) > 0; got {
							w.Store(0, w.Load(0)-1)
							w.Store(2, w.Load(2)+1)
						}
					})
					if got {
						n++
						continue
					}
					v.SleepWhile(l, func(w Words) bool { return w.Load(0) == 0 }, SleepOpts{})
				}
			}))
		}
	}
	// The producers start once every consumer is asleep on the empty
	// count, so each process's first wakes cross the process boundary.
	for v.Waiters() < procs*pairs {
		time.Sleep(100 * time.Microsecond)
	}
	for _, p := range ps {
		for i := 0; i < pairs; i++ {
			done = append(done, animate(k, p, func(l *sim.LWP) {
				for n := 0; n < perLWP; n++ {
					v.Atomically(func(w Words) {
						w.Store(0, w.Load(0)+1)
						w.Store(1, w.Load(1)+1)
					})
					v.Wake(1)
				}
			}))
		}
	}
	timeout := time.After(30 * time.Second)
	for _, d := range done {
		select {
		case <-d:
		case <-timeout:
			v.Atomically(func(w Words) {
				t.Errorf("stranded: count %d, produced %d, consumed %d of %d", w.Load(0), w.Load(1), w.Load(2), total)
			})
			t.Fatalf("%d LWPs still asleep", v.Waiters())
		}
	}
	var words [3]uint64
	for i := range words {
		words[i] = naiveWords{file, off}.Load(i)
	}
	if words != [3]uint64{0, total, total} {
		t.Fatalf("count, produced, consumed = %d, want [0 %d %d]", words, total, total)
	}
	if size := file.ObjectSize(); size != off+24 {
		t.Fatalf("file grew to %d bytes, want %d: through the highest word stored, no further", size, off+24)
	}
}
