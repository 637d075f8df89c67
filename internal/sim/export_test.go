package sim

// CalloutLen reports how many timed sleeps the kernel's callout holds,
// for tests outside the package that check it is empty at quiesce.
func (k *Kernel) CalloutLen() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.callout.q)
}
