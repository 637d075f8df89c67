package core

import (
	"math/rand"
	"sort"
	"testing"
)

// runqModel is the naive reference for runQueue: the queued threads in
// a slice kept in pop order — level descending, arrival ascending.
type runqModel struct {
	ts  []*Thread
	seq map[*Thread]int // arrival stamp of each queued thread
	n   int
}

func (q *runqModel) push(t *Thread) {
	q.n++
	q.seq[t] = q.n
	q.ts = append(q.ts, t)
	sort.SliceStable(q.ts, func(i, j int) bool {
		li, lj := prioLevel(int(q.ts[i].effPrio.Load())), prioLevel(int(q.ts[j].effPrio.Load()))
		if li != lj {
			return li > lj
		}
		return q.seq[q.ts[i]] < q.seq[q.ts[j]]
	})
}

func (q *runqModel) remove(t *Thread) bool {
	for i, x := range q.ts {
		if x == t {
			q.ts = append(q.ts[:i], q.ts[i+1:]...)
			delete(q.seq, t)
			return true
		}
	}
	return false
}

func (q *runqModel) maxPrio() int {
	best := -1
	for _, t := range q.ts {
		if p := int(t.effPrio.Load()); p > best {
			best = p
		}
	}
	return best
}

// runqProgram interprets prog as a sequence of three-byte run-queue
// operations (opcode, thread or position, priority) applied to a
// runQueue and the model side by side, comparing them after every step.
func runqProgram(t *testing.T, prog []byte) {
	var q runQueue
	model := runqModel{seq: make(map[*Thread]int)}
	// A fixed population: operations pick a thread by index, so the
	// program reaches queued and unqueued threads alike.
	pool := make([]*Thread, 24)
	for i := range pool {
		pool[i] = &Thread{id: ThreadID(i + 1)}
	}
	// Priorities 0..382 cover the levels below, at and far above the
	// NumPrioLevels-1 clamp.
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, arg, prio := prog[pc]%6, prog[pc+1], int32(prog[pc+2])*3/2
		th := pool[int(arg)%len(pool)]
		switch op {
		case 0: // push an unqueued thread
			if th.rqOn {
				continue
			}
			th.effPrio.Store(prio)
			q.push(th)
			model.push(th)
		case 1: // pop
			got := q.pop(nil)
			var want *Thread
			if len(model.ts) > 0 {
				want = model.ts[0]
				model.remove(want)
			}
			if got != want {
				t.Fatalf("step %d: pop = %v, model says %v", pc/3, tid(got), tid(want))
			}
		case 2: // remove, queued or not
			if got, want := q.remove(th), model.remove(th); got != want {
				t.Fatalf("step %d: remove(%v) = %v, model says %v", pc/3, tid(th), got, want)
			}
		case 3: // re-level: new priority, then requeue (a no-op when unqueued)
			th.effPrio.Store(prio)
			q.requeue(th)
			if model.remove(th) {
				model.push(th)
			}
		case 4: // nth, in range and one past the end
			k := int(arg) % (len(model.ts) + 1)
			var want *Thread
			if k < len(model.ts) {
				want = model.ts[k]
			}
			if got := q.nth(k); got != want {
				t.Fatalf("step %d: nth(%d) = %v, model says %v", pc/3, k, tid(got), tid(want))
			}
		case 5: // clear, rarely: most programs should build up depth
			if arg%8 != 0 {
				continue
			}
			q.clear()
			model.ts = model.ts[:0]
			for _, x := range pool {
				if x.rqOn || x.rqNext != nil || x.rqPrev != nil {
					t.Fatalf("step %d: clear left %v linked", pc/3, tid(x))
				}
			}
		}
		if q.len() != len(model.ts) {
			t.Fatalf("step %d: len = %d, model says %d", pc/3, q.len(), len(model.ts))
		}
		if got, want := q.maxPrio(), model.maxPrio(); got != want {
			t.Fatalf("step %d: maxPrio = %d, model says %d", pc/3, got, want)
		}
		// The bitmap marks exactly the levels the model occupies.
		var occupied [len(q.bitmap)]uint64
		for _, x := range model.ts {
			lvl := prioLevel(int(x.effPrio.Load()))
			occupied[lvl>>6] |= 1 << (lvl & 63)
		}
		if q.bitmap != occupied {
			t.Fatalf("step %d: bitmap = %x, model occupies %x", pc/3, q.bitmap, occupied)
		}
	}
}

func tid(t *Thread) ThreadID {
	if t == nil {
		return 0
	}
	return t.id
}

// TestRunQueueModel runs fixed-seed random programs against the model.
func TestRunQueueModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		prog := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(prog)
		runqProgram(t, prog)
	}
}

// FuzzRunQueueModel lets the fuzzer write the programs:
//
//	go test -run '^$' -fuzz FuzzRunQueueModel -fuzztime 20s ./internal/core
func FuzzRunQueueModel(f *testing.F) {
	f.Add([]byte{0, 1, 7, 0, 2, 7, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 1, 84, 0, 2, 255, 3, 1, 200, 4, 2, 0, 2, 1, 0, 5, 8, 0, 1, 0, 0})
	prog := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(prog)
	f.Add(prog)
	f.Fuzz(runqProgram)
}
