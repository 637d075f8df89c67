// Command mtstat is a prstat-like viewer over the simulated /proc
// file system: it boots a machine, runs a demonstration workload, and
// periodically prints every process's status, LWPs, and — through the
// debugger/library cooperation interface — its user-level threads.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"sunosmt/internal/procfs"
	"sunosmt/internal/vfs"
	"sunosmt/mt"
)

func main() {
	ticks := flag.Int("ticks", 3, "number of /proc snapshots to print")
	interval := flag.Duration("interval", 20*time.Millisecond, "snapshot interval")
	locks := flag.Bool("locks", false, "also print /proc/<pid>/lstatus (lock wait-for edges and deadlocks)")
	micro := flag.Bool("m", false, "also print /proc/<pid>/usage (microstate accounting columns)")
	health := flag.Bool("health", false, "also print /proc/<pid>/health (deadman-watchdog report)")
	flag.Parse()

	sys := mt.NewSystem(mt.Options{NCPU: 2})
	pfs, err := procfs.Mount(sys.Kern, sys.FS)
	if err != nil {
		log.Fatal(err)
	}

	// Workload: a process with a mix of bound, unbound and blocked
	// threads.
	stopCh := make(chan struct{})
	ch := make(chan *mt.Proc, 1)
	work, err := sys.Spawn("workload", func(t *mt.Thread, _ any) {
		p := <-ch
		r := t.Runtime()
		r.SetConcurrency(2)
		var ids []mt.ThreadID
		// A held mutex with a waiter, so -locks has an edge to show;
		// ticket policy so the lstatus POLICY column shows a
		// non-default entry.
		var mu mt.Mutex
		mu.InitPolicy(mt.PolicyTicket)
		mu.Enter(t)
		w, _ := r.Create(func(c *mt.Thread, _ any) {
			mu.Enter(c)
			mu.Exit(c)
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
		ids = append(ids, w.ID())
		for i := 0; i < 4; i++ {
			c, _ := r.Create(func(c *mt.Thread, _ any) {
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					c.Yield()
				}
			}, nil, mt.CreateOpts{Flags: mt.ThreadWait})
			ids = append(ids, c.ID())
		}
		b, _ := r.Create(func(c *mt.Thread, _ any) {
			for {
				select {
				case <-stopCh:
					return
				default:
				}
				p.Sleep(c, time.Millisecond)
			}
		}, nil, mt.CreateOpts{Flags: mt.ThreadWait | mt.ThreadBindLWP})
		ids = append(ids, b.ID())
		// Bind the bound thread's LWP to CPU 1 so psinfo's BOUND-CPU
		// column has a row to show.
		if err := sys.BindCPU(b, 1); err != nil {
			log.Fatal(err)
		}
		for {
			select {
			case <-stopCh:
			default:
				t.Yield()
				continue
			}
			break
		}
		mu.Exit(t)
		for _, id := range ids {
			t.Wait(id)
		}
	}, nil, mt.ProcConfig{})
	if err != nil {
		log.Fatal(err)
	}
	ch <- work
	pfs.RegisterRuntime(work.RT)

	// The observer process reads /proc like a debugger would.
	obsDone := make(chan struct{})
	obsCh := make(chan *mt.Proc, 1)
	obs, err := sys.Spawn("mtstat", func(t *mt.Thread, _ any) {
		defer close(obsDone)
		p := <-obsCh
		for tick := 0; tick < *ticks; tick++ {
			if err := pfs.Refresh(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("=== snapshot %d ===\n", tick+1)
			if data, err := readFile(p, t, "/proc/sched"); err == nil {
				fmt.Printf("--- /proc/sched ---\n%s", data)
			}
			pids, err := sys.FS.ReadDir("/", "/proc")
			if err != nil {
				log.Fatal(err)
			}
			files := []string{"status", "lwps", "threads", "psinfo"}
			if *micro {
				files = append(files, "usage")
			}
			if *locks {
				files = append(files, "lstatus")
			}
			if *health {
				files = append(files, "health")
			}
			for _, pid := range pids {
				for _, f := range files {
					path := "/proc/" + pid + "/" + f
					data, err := readFile(p, t, path)
					if err != nil {
						continue
					}
					fmt.Printf("--- %s ---\n%s", path, data)
				}
			}
			p.Sleep(t, *interval)
		}
	}, nil, mt.ProcConfig{})
	if err != nil {
		log.Fatal(err)
	}
	obsCh <- obs
	<-obsDone
	close(stopCh)
	work.WaitExit()
	obs.WaitExit()
}

func readFile(p *mt.Proc, t *mt.Thread, path string) (string, error) {
	fd, err := p.Open(t, path, vfs.ORdOnly)
	if err != nil {
		return "", err
	}
	defer p.Close(t, fd)
	var out []byte
	buf := make([]byte, 512)
	for {
		n, err := p.Read(t, fd, buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return string(out), nil
		}
		if err != nil {
			return "", err
		}
	}
}
