package core

import "sync"

// SchedLock exposes Runtime.mu to the package's external tests, which
// show that an operation never takes it by calling it while holding it.
func (m *Runtime) SchedLock() *sync.Mutex { return &m.mu }
