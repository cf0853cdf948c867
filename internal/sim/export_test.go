package sim

// SetNewKernelHook installs fn to run on every kernel NewKernel returns;
// nil removes it. Tests that use it must not run in parallel.
func SetNewKernelHook(fn func(*Kernel)) { newKernelHook = fn }

// KernelFingerprint digests k's terminal state: clock, events scheduled
// and executed, and live processes.
func KernelFingerprint(k *Kernel) uint64 { return k.fingerprint() }

// DeferNextTie books a mutation at time t: it takes the next event due
// at t and re-books it behind every other event due at t, so two model
// events of one instant run in the opposite order. An event alone at its
// instant keeps its place.
func DeferNextTie(k *Kernel, t Time) { k.AtCall(t, deferTie, k) }

func deferTie(a any) {
	k := a.(*Kernel)
	if t, ok := k.q.peek(); !ok || t != k.now {
		return
	}
	e := k.q.pop()
	k.seq++
	e.seq = k.seq
	k.q.push(e)
}
