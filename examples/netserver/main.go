// Network server: the paper's server example — a service that
// "indirectly needs its own service (and therefore another thread of
// control) to handle requests". A listener thread polls a set of
// client pipes; each arriving request gets its own worker thread
// (cheap, unbound); workers consult a directory service in a child
// process over another pipe, demonstrating threads blocking in the
// kernel on I/O while the rest of the server keeps running. Every
// request gets a one-byte reply: 'K' for a completed lookup, 'E' when
// the server sheds the request.
//
// With -overload the same server runs under resource exhaustion: the
// process gets an LWP rlimit of 4 against 8 concurrent clients (2x
// the limit), a thread watermark just above the limit, and a slowed
// directory service so workers pile up blocked in the kernel. At the
// watermark Create fails with EAGAIN and the listener sheds the
// request with an error reply instead of crashing; SIGWAITING pool
// growth hits the rlimit and backs off instead of spinning. The run
// must complete with served+shed == total and zero crashes.
//
// The client and directory-service processes are fork1() children of
// the server, so they inherit the pipe descriptors exactly as UNIX
// processes would.
//
// The pipe Reads and the WaitChild here are plain blocking calls with
// nothing bounding them, so the demo depends on those sleeps never
// losing a wake-up: each commits under the kernel lock with its
// condition re-checked there (DESIGN.md, "Which sleeps commit under
// k.mu"). Only the listener's Poll, being over several pipes, is still
// re-checked by the kernel every millisecond. mt/netsoak_test.go runs
// the blocking-Read shape for 200 000 requests.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"sunosmt/mt"
)

const (
	nClients     = 8
	reqPerClient = 25
	total        = nClients * reqPerClient

	// Overload-mode limits: demand is nClients concurrent requests
	// against an LWP rlimit of half that, and the thread watermark
	// admits the listener plus overloadMaxThreads-1 workers.
	overloadLWPLimit   = nClients / 2
	overloadMaxThreads = overloadLWPLimit + 2
)

// Per-request failures are recorded here rather than silently
// dropped (or fatally logged from a worker thread, which would take
// the whole demo down mid-flight). Every process in the demo reports
// into the same collector; main prints the summary and exits
// non-zero if anything failed, so CI catches regressions in the I/O
// paths.
var (
	errMu sync.Mutex
	errs  []error
)

func fail(context string, err error) {
	errMu.Lock()
	errs = append(errs, fmt.Errorf("%s: %w", context, err))
	errMu.Unlock()
}

func main() {
	overload := flag.Bool("overload", false,
		"run under resource exhaustion: LWP rlimit at half the client count, thread watermark, slowed directory service")
	flag.Parse()

	sys := mt.NewSystem(mt.Options{NCPU: 2})
	cfg := mt.ProcConfig{}
	if *overload {
		cfg.LWPLimit = overloadLWPLimit
		cfg.MaxThreads = overloadMaxThreads
	}
	done := make(chan struct{})
	ch := make(chan *mt.Proc, 1)
	server, err := sys.Spawn("netserver", func(t *mt.Thread, _ any) {
		defer close(done)
		p := <-ch
		r := t.Runtime()

		// One request pipe and one reply pipe per client, plus a
		// request/reply pair for the directory service. Children
		// inherit these descriptors.
		type pipePair struct{ r, w int }
		var cps, rps [nClients]pipePair
		for i := range cps {
			rfd, wfd, err := p.Pipe(t)
			if err != nil {
				log.Fatal(err)
			}
			cps[i] = pipePair{rfd, wfd}
			rfd, wfd, err = p.Pipe(t)
			if err != nil {
				log.Fatal(err)
			}
			rps[i] = pipePair{rfd, wfd}
		}
		dreqR, dreqW, err := p.Pipe(t)
		if err != nil {
			log.Fatal(err)
		}
		drepR, drepW, err := p.Pipe(t)
		if err != nil {
			log.Fatal(err)
		}

		// fork1: the directory service. It serves until the request
		// pipe drains to EOF — under overload some requests are shed
		// at the server and never reach the directory, so a fixed
		// request count would hang here.
		dirCh := make(chan *mt.Proc, 1)
		dir, err := p.Fork1(t, func(dt *mt.Thread, _ any) {
			dp := <-dirCh
			// Close the inherited copies of the ends this process
			// does not use, or the server's close of dreqW could
			// never produce EOF below.
			if err := dp.Close(dt, dreqW); err != nil {
				fail("dir: close dreqW", err)
			}
			if err := dp.Close(dt, drepR); err != nil {
				fail("dir: close drepR", err)
			}
			buf := make([]byte, 1)
			for i := 0; ; i++ {
				if _, err := dp.Read(dt, dreqR, buf); err != nil {
					if errors.Is(err, io.EOF) {
						return
					}
					fail(fmt.Sprintf("dir: read request %d", i), err)
					return
				}
				if *overload {
					// A slow backend is what piles workers up
					// against the rlimit.
					dp.Sleep(dt, time.Millisecond)
				}
				buf[0] ^= 0x80 // the "lookup"
				if _, err := dp.Write(dt, drepW, buf); err != nil {
					fail(fmt.Sprintf("dir: write reply %d", i), err)
					return
				}
			}
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		dirCh <- dir

		// fork1: the clients, one thread per connection. Each client
		// runs request/reply lockstep and tallies how its requests
		// fared.
		cliCh := make(chan *mt.Proc, 1)
		cli, err := p.Fork1(t, func(ct *mt.Thread, _ any) {
			cp := <-cliCh
			// The LWP rlimit and the thread cap are inherited across
			// fork; the overload experiment constrains the server,
			// not the clients, so the client child lifts its own
			// limits (setrlimit) to keep demand at the full 2x the
			// server's rlimit.
			cp.Process().SetLWPLimit(0)
			ct.Runtime().SetMaxThreads(0)
			if err := cp.Close(ct, dreqW); err != nil {
				fail("client: close dreqW", err)
			}
			var ids []mt.ThreadID
			for i := 0; i < nClients; i++ {
				i := i
				c, err := ct.Runtime().Create(func(c *mt.Thread, _ any) {
					rep := make([]byte, 1)
					for j := 0; j < reqPerClient; j++ {
						if _, err := cp.Write(c, cps[i].w, []byte{byte(i)}); err != nil {
							fail(fmt.Sprintf("client %d: write request %d", i, j), err)
							return
						}
						if _, err := cp.Read(c, rps[i].r, rep); err != nil {
							fail(fmt.Sprintf("client %d: read reply %d", i, j), err)
							return
						}
						if rep[0] != 'K' && rep[0] != 'E' {
							fail(fmt.Sprintf("client %d", i),
								fmt.Errorf("request %d: bad reply byte %#x", j, rep[0]))
							return
						}
					}
				}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
				if err != nil {
					log.Fatal(err)
				}
				ids = append(ids, c.ID())
			}
			for _, id := range ids {
				if _, err := ct.Wait(id); err != nil {
					fail(fmt.Sprintf("client: wait %d", id), err)
				}
			}
		}, nil)
		if err != nil {
			log.Fatal(err)
		}
		cliCh <- cli

		// The listener loop: poll, accept, thread-per-request. When
		// Create hits the thread watermark it returns EAGAIN and the
		// listener sheds the request — error reply, not a crash.
		var mu mt.Mutex
		served := 0
		shed := 0
		accepted := 0
		var workers []mt.ThreadID
		for accepted < total {
			fds := make([]mt.PollFD, nClients)
			for i, cp := range cps {
				fds[i] = mt.PollFD{FD: cp.r, Events: mt.PollIn}
			}
			if _, err := p.Poll(t, fds, 0); err != nil {
				log.Fatal(err)
			}
			for i := range fds {
				if fds[i].Revents&mt.PollIn == 0 {
					continue
				}
				i := i
				buf := make([]byte, 1)
				if _, err := p.Read(t, cps[i].r, buf); err != nil {
					log.Fatal(err)
				}
				w, err := r.Create(func(c *mt.Thread, _ any) {
					// Blocking round trip to the directory
					// service: this thread's LWP parks in the
					// kernel; SIGWAITING grows the pool if
					// everyone is waiting (up to the rlimit). The
					// client always gets a reply byte: 'K' on a
					// completed lookup, 'E' if the round trip
					// failed.
					rep := []byte{'E'}
					if _, err := p.Write(c, dreqW, buf); err != nil {
						fail("worker: write to directory", err)
					} else if _, err := p.Read(c, drepR, rep); err != nil {
						fail("worker: read directory reply", err)
						rep[0] = 'E'
					} else {
						rep[0] = 'K'
					}
					if _, err := p.Write(c, rps[i].w, rep); err != nil {
						fail("worker: write reply", err)
						return
					}
					if rep[0] == 'K' {
						mu.Enter(c)
						served++
						mu.Exit(c)
					}
				}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
				if err != nil {
					if !errors.Is(err, mt.ErrAgain) {
						log.Fatal(err)
					}
					// At the watermark: shed the request with an
					// error reply and keep serving.
					if _, werr := p.Write(t, rps[i].w, []byte{'E'}); werr != nil {
						fail("server: write shed reply", werr)
					}
					shed++
					accepted++
					continue
				}
				workers = append(workers, w.ID())
				accepted++
			}
			// Reap completed workers (Find only returns live
			// threads; the rest are zombies ready to wait for).
			var pending []mt.ThreadID
			for _, id := range workers {
				if _, ok := r.Find(id); ok {
					pending = append(pending, id)
					continue
				}
				if _, err := t.Wait(id); err != nil {
					fail(fmt.Sprintf("server: reap worker %d", id), err)
				}
			}
			workers = pending
		}
		for _, id := range workers {
			if _, err := t.Wait(id); err != nil {
				fail(fmt.Sprintf("server: wait worker %d", id), err)
			}
		}
		// All workers are done with the directory; closing the last
		// request-pipe writer sends the directory EOF.
		if err := p.Close(t, dreqW); err != nil {
			fail("server: close dreqW", err)
		}
		// Wait for the children.
		for i := 0; i < 2; i++ {
			if _, err := p.WaitChild(t, -1); err != nil {
				fail("server: wait child", err)
			}
		}
		if served+shed != total {
			fail("server", fmt.Errorf("served %d + shed %d != %d requests", served, shed, total))
		}
		if *overload && shed == 0 {
			fail("server", errors.New("overload run shed nothing: watermark never hit"))
		}
		if !*overload && served != total {
			fail("server", fmt.Errorf("served %d of %d requests", served, total))
		}
		growFail, growDefer, _ := r.GrowthStats()
		fmt.Printf("server: served %d, shed %d of %d requests; LWP pool grew to %d (growth failures %d, deferred %d)\n",
			served, shed, total, r.PoolSize(), growFail, growDefer)
	}, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ch <- server
	<-done
	server.WaitExit()
	errMu.Lock()
	failed := errs
	errMu.Unlock()
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "netserver: %d request error(s):\n", len(failed))
		for _, e := range failed {
			fmt.Fprintln(os.Stderr, "  "+e.Error())
		}
		os.Exit(1)
	}
	fmt.Println("netserver demo complete")
}
