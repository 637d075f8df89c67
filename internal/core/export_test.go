package core

import "sync"

// SchedLock exposes Runtime.mu to the package's external tests, which
// show that an operation never takes it by calling it while holding it.
func (m *Runtime) SchedLock() *sync.Mutex { return &m.mu }

// LockSleepqShards takes every sleep-queue shard lock, and
// UnlockSleepqShards releases them: a call made while a test holds them
// all takes none, whichever shard its channel hashed to.
func LockSleepqShards() {
	for i := range sleepqLock {
		sleepqLock[i].Lock()
	}
}

func UnlockSleepqShards() {
	for i := range sleepqLock {
		sleepqLock[i].Unlock()
	}
}
