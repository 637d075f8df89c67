package mt

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sunosmt/internal/core"
	"sunosmt/internal/sim"
)

// createsUntilCap creates stopped threads until Create refuses and
// returns how many it made and the refusal. Stopped threads stay live,
// so each success counts against MaxThreads and holds its stack.
func createsUntilCap(tt *Thread) (int, error) {
	for n := 0; n < 16; n++ {
		if _, err := tt.Runtime().Create(func(*Thread, any) {}, nil, CreateOpts{Flags: ThreadStop}); err != nil {
			return n, err
		}
	}
	return 16, nil
}

// TestForkChildInheritsProcConfig: the child of fork1 and of fork runs
// under the parent's library configuration, the way it already runs
// under the parent's rlimits — the thread cap still caps (the main
// thread counts, so MaxThreads 3 admits two more) and a zero Mutex
// resolves to the parent's process-default lock policy.
func TestForkChildInheritsProcConfig(t *testing.T) {
	forks := map[string]func(*Proc, *Thread, Func, any) (*Proc, error){
		"fork1": (*Proc).Fork1,
		"fork":  (*Proc).Fork,
	}
	for name, fork := range forks {
		t.Run(name, func(t *testing.T) {
			sys := NewSystem(Options{NCPU: 2})
			cfg := ProcConfig{MaxThreads: 3, LockPolicy: PolicyTicket}
			p := spawn(t, sys, "parent", cfg, func(p *Proc, tt *Thread) {
				child, err := fork(p, tt, func(ct *Thread, _ any) {
					n, err := createsUntilCap(ct)
					if n != 2 || !errors.Is(err, ErrAgain) {
						t.Errorf("child made %d threads before %v, want 2 then ErrAgain (MaxThreads 3)", n, err)
					}
					// The child may lift the inherited cap, as it may its rlimits.
					ct.Runtime().SetMaxThreads(0)
					if n, err := createsUntilCap(ct); err != nil {
						t.Errorf("create %d after lifting the cap: %v", n, err)
					}
					var mu Mutex
					mu.Enter(ct)
					mu.Exit(ct)
					if got := mu.LockPolicy(); got != PolicyTicket.String() {
						t.Errorf("child's zero Mutex resolved to policy %q, want %q", got, PolicyTicket)
					}
					ct.ExitProcess(0)
				}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := p.WaitChild(tt, child.PID()); err != nil {
					t.Error(err)
				}
			})
			waitProc(t, p)
		})
	}
}

// TestExecImageKeepsStackMemAndLimits: the image exec builds keeps the
// process's address space for its stacks — so a Create reserves a
// stack plus its guard page and the byte rlimit refuses the create that
// would pass it — and keeps the thread cap.
func TestExecImageKeepsStackMemAndLimits(t *testing.T) {
	const (
		stack = 64 << 10
		carve = stack + 4096 // stack + red-zone guard page
	)
	for _, tc := range []struct {
		name  string
		cfg   ProcConfig
		want  int // creates the new image gets before the refusal
		nomem bool
	}{
		// Main's stack and two more fit under the byte limit, a third
		// does not; the thread cap is out of the way.
		{"ASLimitBytes", ProcConfig{DefaultStackSize: stack, ASLimitBytes: 3*carve + 4096}, 2, true},
		{"MaxThreads", ProcConfig{DefaultStackSize: stack, MaxThreads: 3}, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(Options{NCPU: 1})
			p := spawn(t, sys, "orig", tc.cfg, func(p *Proc, tt *Thread) {
				err := p.Exec(tt, "newimage", func(nt *Thread, _ any) {
					before := p.AS.Reserved()
					n, err := createsUntilCap(nt)
					if n != tc.want || !errors.Is(err, ErrAgain) || errors.Is(err, ErrNoMem) != tc.nomem {
						t.Errorf("new image made %d threads before %v, want %d then ErrAgain (ErrNoMem: %v)", n, err, tc.want, tc.nomem)
					}
					if got := p.AS.Reserved() - before; got != int64(n)*carve {
						t.Errorf("%d creates after exec reserved %d bytes, want %d each", n, got, carve)
					}
					nt.ExitProcess(0) // the stopped threads would keep the process alive
				}, nil)
				t.Errorf("Exec returned: %v", err)
			})
			select {
			case <-p.Process().Exited():
			case <-time.After(60 * time.Second):
				t.Fatal("timeout waiting for exec'd process")
			}
		})
	}
}

// walkRepo parses every .go file of the repository (dot directories
// skipped: .git, .bench_build) and hands each to visit with its
// slash-separated path from the repository root.
func walkRepo(t *testing.T, visit func(rel string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != ".." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(filepath.ToSlash(strings.TrimPrefix(path, "../")), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEveryOptionHasASetter keeps the configuration honest: every
// exported field of sim.Config (= Options), core.Config and ProcConfig
// is written somewhere in the repository — a composite-literal key or
// an assignment target in a test, command, example or bench workload —
// outside the three declaring files. A knob nothing sets is a constant.
// Matching is by name, so a core.Config field forwarded from the
// same-named ProcConfig field (mt.go's runtimeConfig, also excluded)
// is covered by that field's setters.
func TestEveryOptionHasASetter(t *testing.T) {
	plumbing := map[string]bool{"StackMem": true, "InitialLWP": true} // wired by mt, not chosen by callers
	declaring := map[string]bool{"internal/sim/kernel.go": true, "internal/core/core.go": true, "mt/mt.go": true}
	set := map[string]bool{}
	walkRepo(t, func(rel string, f *ast.File) {
		if declaring[rel] {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					set[id.Name] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						set[sel.Sel.Name] = true
					}
				}
			}
			return true
		})
	})
	for _, typ := range []reflect.Type{reflect.TypeOf(sim.Config{}), reflect.TypeOf(core.Config{}), reflect.TypeOf(ProcConfig{})} {
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Field(i).Name; typ.Field(i).IsExported() && !plumbing[name] && !set[name] {
				t.Errorf("%v.%s is set nowhere in the repository: make it a constant, or give it a caller", typ, name)
			}
		}
	}
}

// TestEveryExportHasACaller keeps the surface honest the same way:
// every exported function or method declared in a non-test file of mt
// or internal/* is named somewhere in the repository — tests,
// commands, examples and bench/ included — other than at a
// declaration. Matching is by name: a method is covered by a call of
// any same-named method. Methods that exist to satisfy a standard
// library interface (fmt.Stringer, error, heap.Interface) are called
// through it, never by name.
func TestEveryExportHasACaller(t *testing.T) {
	viaInterface := map[string]bool{"String": true, "Error": true, "Less": true}
	declared := map[string]string{} // exported name -> a file declaring it
	decls, idents := map[string]int{}, map[string]int{}
	walkRepo(t, func(rel string, f *ast.File) {
		product := !strings.HasSuffix(rel, "_test.go") && (strings.HasPrefix(rel, "mt/") || strings.HasPrefix(rel, "internal/"))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decls[n.Name.Name]++
				if product && n.Name.IsExported() && !viaInterface[n.Name.Name] {
					declared[n.Name.Name] = rel
				}
			case *ast.Ident:
				idents[n.Name]++
			}
			return true
		})
	})
	for name, rel := range declared {
		if idents[name] == decls[name] {
			t.Errorf("%s (%s) is named nowhere but its declaration: delete it, or give it a caller", name, rel)
		}
	}
}
