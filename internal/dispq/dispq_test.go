package dispq

import (
	"math/rand"
	"testing"
)

type item struct {
	id   int
	prio int
	link Link[item]
}

// model is the naive reference for Queue: the queued items in a slice
// kept in dispatch order — level descending, arrival ascending. An
// item's level is the one it was pushed at, which its prio may since
// have left (an aged LWP waiting for the re-level).
type model struct {
	es []entry
	n  int
}

type entry struct {
	x        *item
	lvl, seq int
}

func (m *model) push(x *item) {
	m.n++
	e := entry{x, Level(x.prio), m.n}
	i := len(m.es)
	for i > 0 && (m.es[i-1].lvl < e.lvl || m.es[i-1].lvl == e.lvl && m.es[i-1].seq > e.seq) {
		i--
	}
	m.es = append(m.es, entry{})
	copy(m.es[i+1:], m.es[i:])
	m.es[i] = e
}

func (m *model) remove(x *item) bool {
	for i, e := range m.es {
		if e.x == x {
			m.es = append(m.es[:i], m.es[i+1:]...)
			return true
		}
	}
	return false
}

// kept returns the queued items keep accepts, in dispatch order.
func (m *model) kept(keep func(*item) bool) []*item {
	var out []*item
	for _, e := range m.es {
		if keep == nil || keep(e.x) {
			out = append(out, e.x)
		}
	}
	return out
}

// keepFilter returns the filter of mode 0-3: none, or the items whose
// id is not a multiple of mode+1.
func keepFilter(mode int) func(*item) bool {
	if mode == 0 {
		return nil
	}
	return func(x *item) bool { return x.id%(mode+1) != 0 }
}

func id(x *item) int {
	if x == nil {
		return 0
	}
	return x.id
}

// queueProgram interprets prog as a sequence of three-byte queue
// operations (opcode, item or position, priority) applied to a Queue
// and the model side by side, comparing them after every step. Nth,
// Count and the pop run under the current keep filter, as the
// kernel's pick does under its CPU's eligibility.
func queueProgram(t *testing.T, prog []byte) {
	var q Queue[item]
	var m model
	// A fixed population: operations pick an item by index, so the
	// program reaches queued and unqueued items alike.
	pool := make([]*item, 24)
	for i := range pool {
		pool[i] = &item{id: i + 1}
	}
	var keep func(*item) bool
	// Priorities -20..362 cover the levels below 0, every level, and
	// far above the Levels-1 clamp.
	for pc := 0; pc+2 < len(prog); pc += 3 {
		op, arg, prio := prog[pc]%9, int(prog[pc+1]), int(prog[pc+2])*3/2-20
		x := pool[arg%len(pool)]
		switch op {
		case 0: // push an unqueued item
			if x.link.Queued() {
				continue
			}
			x.prio = prio
			q.Push(&x.link, x, prio)
			m.push(x)
		case 1: // pop the best item keep accepts
			got := q.Nth(0, keep)
			var want *item
			if ks := m.kept(keep); len(ks) > 0 {
				want = ks[0]
			}
			if got != want {
				t.Fatalf("step %d: pop = %d, model says %d", pc/3, id(got), id(want))
			}
			if got != nil {
				q.Remove(&got.link)
				m.remove(want)
			}
		case 2: // remove, queued or not
			if got, want := q.Remove(&x.link), m.remove(x); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, model says %v", pc/3, x.id, got, want)
			}
		case 3: // new priority, then requeue (nothing when unqueued)
			x.prio = prio
			if q.Remove(&x.link) {
				q.Push(&x.link, x, prio)
			}
			if m.remove(x) {
				m.push(x)
			}
		case 4: // Nth, in range and one past the end
			ks := m.kept(keep)
			k := arg % (len(ks) + 1)
			var want *item
			if k < len(ks) {
				want = ks[k]
			}
			if got := q.Nth(k, keep); got != want {
				t.Fatalf("step %d: Nth(%d) = %d, model says %d", pc/3, k, id(got), id(want))
			}
		case 5: // switch the keep filter
			keep = keepFilter(arg % 4)
		case 6: // walk: drop some items, move the stale ones to their level
			drop := func(x *item) bool { return x.id%3 == arg%3 }
			for _, e := range append([]entry(nil), m.es...) {
				switch {
				case drop(e.x):
					m.remove(e.x)
				case Level(e.x.prio) != e.lvl:
					m.remove(e.x)
					m.push(e.x)
				}
			}
			q.Walk(func(x *item) {
				switch {
				case drop(x):
					q.Remove(&x.link)
				case Level(x.prio) != x.link.Level():
					q.Remove(&x.link)
					q.Push(&x.link, x, x.prio)
				}
			})
		case 7: // age: a new priority the queue does not see yet
			x.prio = prio
		case 8: // clear, rarely: most programs should build up depth
			if arg%8 != 0 {
				continue
			}
			q.Clear()
			m.es = m.es[:0]
		}
		check(t, pc/3, &q, &m, pool, keep)
	}
}

// check compares the queue with the model: length, filtered count,
// dispatch order, each item's link, and the occupancy bitmap.
func check(t *testing.T, step int, q *Queue[item], m *model, pool []*item, keep func(*item) bool) {
	t.Helper()
	if q.Len() != len(m.es) || q.Count(nil) != len(m.es) {
		t.Fatalf("step %d: Len = %d, Count(nil) = %d, model says %d", step, q.Len(), q.Count(nil), len(m.es))
	}
	if got, want := q.Count(keep), len(m.kept(keep)); got != want {
		t.Fatalf("step %d: Count = %d, model says %d", step, got, want)
	}
	i := 0
	q.Walk(func(x *item) {
		if i >= len(m.es) || m.es[i].x != x || x.link.Level() != m.es[i].lvl {
			t.Fatalf("step %d: walk position %d holds %d at level %d, model disagrees", step, i, x.id, x.link.Level())
		}
		i++
	})
	queued := map[*item]bool{}
	var occupied [len(q.bitmap)]uint64
	for _, e := range m.es {
		queued[e.x] = true
		occupied[e.lvl>>6] |= 1 << (e.lvl & 63)
	}
	for _, x := range pool {
		if x.link.Queued() != queued[x] {
			t.Fatalf("step %d: item %d Queued = %v, model says %v", step, x.id, x.link.Queued(), queued[x])
		}
		if !queued[x] && (x.link.next != nil || x.link.prev != nil) {
			t.Fatalf("step %d: unqueued item %d still linked", step, x.id)
		}
	}
	if q.bitmap != occupied {
		t.Fatalf("step %d: bitmap = %x, model occupies %x", step, q.bitmap, occupied)
	}
}

// TestQueueModel runs fixed-seed random programs against the model.
func TestQueueModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		prog := make([]byte, 4000)
		rand.New(rand.NewSource(seed)).Read(prog)
		queueProgram(t, prog)
	}
}

// FuzzQueueModel lets the fuzzer write the programs:
//
//	go test -run '^$' -fuzz FuzzQueueModel -fuzztime 15s ./internal/dispq/
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 1, 7, 0, 2, 7, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{0, 1, 84, 0, 2, 255, 3, 1, 200, 4, 2, 0, 2, 1, 0, 7, 2, 10, 5, 1, 0, 6, 0, 0, 1, 0, 0, 8, 8, 0, 1, 0, 0})
	prog := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(prog)
	f.Add(prog)
	f.Fuzz(queueProgram)
}

// TestQueueOrder checks the dispatch order directly: strict priority
// order with FIFO among equals, across pushes and pops.
func TestQueueOrder(t *testing.T) {
	type op struct {
		push   string // id to push, "" for pop
		lvl    int
		expect string // for pops: id expected at the head
	}
	cases := []struct {
		name string
		ops  []op
	}{
		{"fifo-among-equals", []op{
			{push: "a", lvl: 30}, {push: "b", lvl: 30}, {push: "c", lvl: 30},
			{expect: "a"}, {expect: "b"}, {expect: "c"},
		}},
		{"higher-level-first", []op{
			{push: "lo", lvl: 10}, {push: "hi", lvl: 50}, {push: "mid", lvl: 30},
			{expect: "hi"}, {expect: "mid"}, {expect: "lo"},
		}},
		{"interleaved", []op{
			{push: "a", lvl: 30}, {push: "b", lvl: 59}, {push: "c", lvl: 30},
			{expect: "b"}, {expect: "a"},
			{push: "d", lvl: 30},
			{expect: "c"}, {expect: "d"},
		}},
		{"rt-beats-ts", []op{
			{push: "ts", lvl: 59}, {push: "rt", lvl: 100},
			{expect: "rt"}, {expect: "ts"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var q Queue[item]
			items := map[string]*item{}
			for _, o := range tc.ops {
				if o.push != "" {
					x := &item{}
					items[o.push] = x
					q.Push(&x.link, x, o.lvl)
					continue
				}
				h := q.Nth(0, nil)
				if h != items[o.expect] {
					t.Fatalf("head = %p, want %q", h, o.expect)
				}
				q.Remove(&h.link)
			}
			if q.Len() != 0 || q.Nth(0, nil) != nil {
				t.Fatalf("queue not drained: Len = %d", q.Len())
			}
		})
	}
}
