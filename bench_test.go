package sunosmt

// Repository-level benchmarks: one per row of the paper's evaluation
// tables (Figure 5: thread creation; Figure 6: thread
// synchronization), plus the ablation benchmarks DESIGN.md calls out
// (mutex variants, M:N ratio, window-system creation scaling,
// fork vs fork1, local vs process-shared locks).
//
// Regenerate the paper's tables with ratio columns via:
//
//	go run ./cmd/mtbench
//
// and per-row times via:
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"sunosmt/internal/benchkit"
	"sunosmt/mt"
)

// --- Figure 5: thread creation time -------------------------------------

func BenchmarkFig5UnboundThreadCreate(b *testing.B) {
	d := benchkit.UnboundCreate(b.N)
	b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/create")
}

func BenchmarkFig5BoundThreadCreate(b *testing.B) {
	d := benchkit.BoundCreate(b.N)
	b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/create")
}

// --- Figure 6: thread synchronization time -------------------------------

func BenchmarkFig6SetjmpLongjmp(b *testing.B) {
	d := benchkit.SetjmpLongjmp(b.N)
	b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/op-paper")
}

func BenchmarkFig6UnboundSync(b *testing.B) {
	d := benchkit.SyncPingPong(b.N, false)
	b.ReportMetric(float64(d.Nanoseconds())/float64(2*b.N), "ns/sync")
}

func BenchmarkFig6BoundSync(b *testing.B) {
	d := benchkit.SyncPingPong(b.N, true)
	b.ReportMetric(float64(d.Nanoseconds())/float64(2*b.N), "ns/sync")
}

func BenchmarkFig6CrossProcessSync(b *testing.B) {
	d := benchkit.CrossProcessSync(b.N)
	b.ReportMetric(float64(d.Nanoseconds())/float64(2*b.N), "ns/sync")
}

// --- Dispatcher queues ----------------------------------------------------

// BenchmarkDispatchLatency measures the push+pop dispatch hot path
// with 1, 64 and 1024 unrelated runnable threads resident in the run
// queue. The per-priority bitmap queue keeps per-op cost flat in the
// queue depth (within 2×); a linear-scan pop does not.
func BenchmarkDispatchLatency(b *testing.B) {
	for _, queued := range []int{1, 64, 1024} {
		queued := queued
		b.Run(itoa(queued)+"queued", func(b *testing.B) {
			d := benchkit.DispatchLatency(queued, b.N)
			b.ReportMetric(float64(d.Nanoseconds())/float64(b.N), "ns/dispatch")
		})
	}
}

// BenchmarkBroadcastWake measures Cond.Broadcast wake throughput with
// 64 waiters: each op is one waiter made runnable and re-parked.
func BenchmarkBroadcastWake(b *testing.B) {
	const waiters = 64
	rounds := b.N/waiters + 1
	d := benchkit.BroadcastWake(waiters, rounds)
	b.ReportMetric(float64(d.Nanoseconds())/float64(rounds*waiters), "ns/wake")
}

// --- Ablations ------------------------------------------------------------

// runInProc runs body as the main thread of a fresh single-process
// system and waits for it.
func runInProc(b *testing.B, ncpu int, body func(p *mt.Proc, t *mt.Thread)) {
	b.Helper()
	sys := mt.NewSystem(mt.Options{NCPU: ncpu})
	ch := make(chan *mt.Proc, 1)
	p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
		body(<-ch, t)
	}, nil, mt.ProcConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ch <- p
	p.WaitExit()
}

// BenchmarkMutexVariant compares the implementation variants the
// paper allows a mutex to be initialized with, under contention from
// 4 threads on 2 LWPs.
func BenchmarkMutexVariant(b *testing.B) {
	variants := []struct {
		name string
		v    mt.Variant
	}{
		{"default", mt.VariantDefault},
		{"spin", mt.VariantSpin},
		{"adaptive", mt.VariantAdaptive},
	}
	for _, tc := range variants {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			runInProc(b, 2, func(p *mt.Proc, t *mt.Thread) {
				r := t.Runtime()
				r.SetConcurrency(2)
				var mu mt.Mutex
				mu.Init(tc.v)
				const workers = 4
				per := b.N/workers + 1
				var ids []mt.ThreadID
				b.ResetTimer()
				for w := 0; w < workers; w++ {
					c, _ := r.Create(func(c *mt.Thread, _ any) {
						for i := 0; i < per; i++ {
							mu.Enter(c)
							mu.Exit(c)
						}
					}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
					ids = append(ids, c.ID())
				}
				for _, id := range ids {
					t.Wait(id)
				}
			})
		})
	}
}

// BenchmarkMNRatio exercises the paper's "Why have both?" argument:
// a fixed amount of parallel work split across more threads than LWPs
// pays for the extra thread switches. 4 LWPs; 4, 64 and 512 threads.
func BenchmarkMNRatio(b *testing.B) {
	for _, threads := range []int{4, 64, 512} {
		threads := threads
		b.Run(itoa(threads)+"threads-4lwps", func(b *testing.B) {
			runInProc(b, 4, func(p *mt.Proc, t *mt.Thread) {
				r := t.Runtime()
				r.SetConcurrency(4)
				total := b.N * 256
				per := total/threads + 1
				var ids []mt.ThreadID
				b.ResetTimer()
				for w := 0; w < threads; w++ {
					c, _ := r.Create(func(c *mt.Thread, _ any) {
						acc := 0
						for i := 0; i < per; i++ {
							acc += i
							if i%64 == 0 {
								c.Yield() // the switch overhead under test
							}
						}
						sink = acc
					}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
					ids = append(ids, c.ID())
				}
				for _, id := range ids {
					t.Wait(id)
				}
			})
		})
	}
}

var sink int

// BenchmarkWindowSystemCreateJoin is the motivating window-system
// workload: create a crowd of threads on one LWP and join them all.
func BenchmarkWindowSystemCreateJoin(b *testing.B) {
	runInProc(b, 1, func(p *mt.Proc, t *mt.Thread) {
		r := t.Runtime()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			const widgets = 100
			ids := make([]mt.ThreadID, 0, widgets)
			for w := 0; w < widgets; w++ {
				c, _ := r.Create(func(c *mt.Thread, _ any) {
					c.Yield() // handle one "event"
				}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				t.Wait(id)
			}
		}
	})
}

// BenchmarkForkVsFork1 measures the paper's rationale for fork1:
// duplicating a process with several LWPs (fork) versus only the
// calling thread (fork1).
func BenchmarkForkVsFork1(b *testing.B) {
	for _, mode := range []string{"fork1", "fork"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			runInProc(b, 2, func(p *mt.Proc, t *mt.Thread) {
				r := t.Runtime()
				// Extra bound threads so full fork has LWPs to duplicate.
				for i := 0; i < 3; i++ {
					r.Create(func(c *mt.Thread, _ any) {
						c.SetForkContinuation(func(*mt.Thread, any) {}, nil)
						c.Park()
					}, nil, mt.CreateOpts{Flags: mt.ThreadDaemon | mt.ThreadBindLWP})
				}
				t.Yield()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if mode == "fork" {
						_, err = p.Fork(t, func(ct *mt.Thread, _ any) {}, nil)
					} else {
						_, err = p.Fork1(t, func(ct *mt.Thread, _ any) {}, nil)
					}
					if err != nil {
						b.Error(err)
						return
					}
					p.WaitChild(t, -1)
				}
			})
		})
	}
}

// BenchmarkMutexLocalVsShared compares an unshared mutex (atomic
// fast path) to a process-shared one (state in mapped memory) when
// uncontended — the overhead of shared placement alone.
func BenchmarkMutexLocalVsShared(b *testing.B) {
	b.Run("local", func(b *testing.B) {
		runInProc(b, 1, func(p *mt.Proc, t *mt.Thread) {
			var mu mt.Mutex
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mu.Enter(t)
				mu.Exit(t)
			}
		})
	})
	b.Run("shared", func(b *testing.B) {
		runInProc(b, 1, func(p *mt.Proc, t *mt.Thread) {
			fd, _ := p.Open(t, "/tmp/lock", mt.OCreate|mt.ORdWr)
			va, _ := p.Mmap(t, 0, mt.PageSize, mt.ProtRead|mt.ProtWrite, mt.MapShared, fd, 0)
			mu, err := p.SharedMutexAt(t, va)
			if err != nil {
				b.Error(err)
				return
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mu.Enter(t)
				mu.Exit(t)
			}
		})
	})
}

// BenchmarkSigwaitingGrowthLatency measures how long a runnable
// thread waits for SIGWAITING-driven pool growth when every LWP
// blocks indefinitely — the responsiveness of the deadlock-avoidance
// mechanism.
func BenchmarkSigwaitingGrowthLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := mt.NewSystem(mt.Options{NCPU: 2})
		ch := make(chan *mt.Proc, 1)
		p, err := sys.Spawn("bench", func(t *mt.Thread, _ any) {
			p := <-ch
			rfd, wfd, _ := p.Pipe(t)
			t.Runtime().Create(func(c *mt.Thread, _ any) {
				p.Write(c, wfd, []byte("x"))
			}, nil, mt.CreateOpts{})
			fds := []mt.PollFD{{FD: rfd, Events: mt.PollIn}}
			p.Poll(t, fds, 0)
		}, nil, mt.ProcConfig{})
		if err != nil {
			b.Fatal(err)
		}
		ch <- p
		p.WaitExit()
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// Silence the unused-variable check for the time import used in doc
// comments only on some build configurations.
var _ = time.Nanosecond
