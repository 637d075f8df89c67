package mt

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sunosmt/internal/chaos"
	"sunosmt/internal/procfs"
	"sunosmt/internal/vfs"
)

// TestNetServerSoak is examples/netserver as a soak: a listener creates
// a thread per request, the worker makes a round trip to a directory
// process under one mutex and answers the client, and eight clients run
// request/reply lockstep. Every wait is a plain blocking Read — no
// bounded guard poll in front of it — with chaos preemption moving the
// LWPs around between a reader's check and its sleep. A wake-up lost
// there hangs the run for good, which is what the watchdog is for: a
// read that tested the pipe, dropped its lock and only then queued used
// to hang such a server within a few thousand requests.
//
// The run also holds the request path's allocation sheet: thread create
// is what is left of it (ROADMAP 3b), and chaos journals each decision
// it injects, so the ceiling is on a final stretch with chaos off.
func TestNetServerSoak(t *testing.T) {
	requests := 200_000
	if testing.Short() {
		requests = 50_000
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			preempt := chaos.New(chaos.Config{Seed: uint64(procs), Preempt: 100, ThreadPreempt: 150})
			netSoak(t, requests, preempt, 0)
		})
	}
	t.Run("allocs", func(t *testing.T) { netSoak(t, 20_000, nil, 5) })
}

const soakClients = 8

// netSoak serves n requests and fails on a 60 s stall, on any wrong
// reply, and — when maxAllocs is positive — on more host allocations
// per request than that over the whole run.
func netSoak(t *testing.T, n int, src *ChaosSource, maxAllocs float64) {
	sys := NewSystem(Options{NCPU: 2, Chaos: src})
	pfs, err := procfs.Mount(sys.Kern, sys.FS)
	if err != nil {
		t.Fatal(err)
	}
	var served, bad atomic.Int64
	fail := func(format string, args ...any) {
		bad.Add(1)
		t.Errorf(format, args...)
	}
	per := n / soakClients
	n = per * soakClients

	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	server := spawn(t, sys, "netsoak", ProcConfig{}, func(p *Proc, tt *Thread) {
		pipe := func() (r, w int) {
			r, w, err := p.Pipe(tt)
			if err != nil {
				panic(err)
			}
			return r, w
		}
		acceptR, acceptW := pipe()
		dreqR, dreqW := pipe()
		drepR, drepW := pipe()
		var replyR, replyW [soakClients]int
		for i := range replyR {
			replyR[i], replyW[i] = pipe()
		}
		fork := func(body func(cp *Proc, ct *Thread)) {
			ch := make(chan *Proc, 1)
			c, err := p.Fork1(tt, func(ct *Thread, _ any) { body(<-ch, ct) }, nil)
			if err != nil {
				panic(err)
			}
			pfs.RegisterRuntime(c.RT)
			ch <- c
		}

		// The directory answers each byte with its high bit flipped,
		// until the last writer closes.
		fork(func(dp *Proc, dt *Thread) {
			dp.Close(dt, dreqW)
			var b [1]byte
			for {
				if _, err := dp.Read(dt, dreqR, b[:]); err != nil {
					if !errors.Is(err, io.EOF) {
						fail("directory: read: %v", err)
					}
					return
				}
				b[0] ^= 0x80
				if _, err := dp.Write(dt, drepW, b[:]); err != nil {
					fail("directory: write: %v", err)
					return
				}
			}
		})
		fork(func(cp *Proc, ct *Thread) {
			cp.Close(ct, dreqW)
			var ids [soakClients]ThreadID
			for i := range ids {
				c, err := ct.Runtime().Create(func(c *Thread, _ any) {
					req, rep := [1]byte{byte(i)}, [1]byte{}
					for j := 0; j < per; j++ {
						if _, err := cp.Write(c, acceptW, req[:]); err != nil {
							fail("client %d: write: %v", i, err)
							return
						}
						if _, err := cp.Read(c, replyR[i], rep[:]); err != nil || rep[0] != 'K' {
							fail("client %d: reply %q, %v", i, rep[0], err)
							return
						}
						served.Add(1)
					}
				}, nil, CreateOpts{Flags: ThreadWait})
				if err != nil {
					panic(err)
				}
				ids[i] = c.ID()
			}
			for _, id := range ids {
				ct.Wait(id)
			}
		})

		var dirMu Mutex
		work := func(c *Thread, arg any) {
			client := arg.(int)
			req, rep, out := [1]byte{byte(client)}, [1]byte{}, [1]byte{'E'}
			dirMu.Enter(c)
			if _, err := p.Write(c, dreqW, req[:]); err != nil {
				fail("worker: write to directory: %v", err)
			} else if _, err := p.Read(c, drepR, rep[:]); err != nil {
				fail("worker: read directory reply: %v", err)
			} else if rep[0] == req[0]^0x80 {
				out[0] = 'K'
			}
			dirMu.Exit(c)
			if _, err := p.Write(c, replyW[client], out[:]); err != nil {
				fail("worker: write reply: %v", err)
			}
		}
		r := tt.Runtime()
		var workers []ThreadID
		var b [1]byte
		for accepted := 0; accepted < n && bad.Load() == 0; accepted++ {
			if _, err := p.Read(tt, acceptR, b[:]); err != nil {
				fail("listener: read: %v", err)
				break
			}
			w, err := r.Create(work, int(b[0]), CreateOpts{Flags: ThreadWait})
			if err != nil {
				fail("listener: create: %v", err)
				break
			}
			if workers = append(workers, w.ID()); len(workers) == 64 {
				for _, id := range workers {
					tt.Wait(id)
				}
				workers = workers[:0]
			}
		}
		for _, id := range workers {
			tt.Wait(id)
		}
		p.Close(tt, dreqW) // the directory's EOF
		for i := 0; i < 2; i++ {
			if _, err := p.WaitChild(tt, -1); err != nil {
				fail("server: wait child: %v", err)
			}
		}
	})
	pfs.RegisterRuntime(server.RT)

	done := make(chan struct{})
	go func() {
		server.WaitExit()
		close(done)
	}()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	last, idle := int64(0), 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-tick.C:
			if now := served.Load(); now != last {
				last, idle = now, 0
			} else if idle++; idle == 60 {
				t.Fatalf("no request served for 60 s at %d of %d\n%s", last, n, soakDump(sys, pfs))
			}
		}
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if got := served.Load(); got != int64(n) {
		t.Errorf("served %d requests, want %d", got, n)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / float64(n)
	t.Logf("%d requests, %.2f host allocs/request", n, perReq)
	if maxAllocs > 0 && perReq > maxAllocs {
		t.Errorf("%.2f host allocs per request, want <= %.0f", perReq, maxAllocs)
	}
}

// soakDump renders every process's lwps, threads and lstatus files
// straight from the synthetic nodes: the simulation it describes is the
// one that stalled.
func soakDump(sys *System, pfs *procfs.ProcFS) string {
	var sb strings.Builder
	if err := pfs.Refresh(); err != nil {
		return err.Error()
	}
	pids, _ := sys.FS.ReadDir("/", "/proc")
	for _, pid := range pids {
		for _, f := range []string{"lwps", "threads", "lstatus"} {
			path := "/proc/" + pid + "/" + f
			if n, err := sys.FS.Lookup("/", path); err == nil {
				if sf, ok := n.(*vfs.SynthFile); ok {
					fmt.Fprintf(&sb, "--- %s ---\n%s", path, sf.Gen())
				}
			}
		}
	}
	return sb.String()
}
