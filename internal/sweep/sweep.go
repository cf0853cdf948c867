// Package sweep is the repository's parallel sweep engine: a worker pool
// that executes many independent simulations (experiment grid cells,
// simcheck seeds) concurrently across GOMAXPROCS.
//
// Every simulation in this repository is a pure function of its inputs —
// workload.Run builds a private kernel, machine, and file system per call
// — so jobs never share mutable state and can run on any OS thread.
// Determinism is preserved by construction: results are always collected
// and delivered in job-index order, never completion order, so a sweep at
// any worker count produces bit-identical digests and tables to a serial
// run. The only thing parallelism may change is wall-clock time.
//
// Workers pull job indices from a shared atomic counter (work stealing by
// subtraction: the slow jobs end up spread across the pool without any
// up-front partitioning). A worker count of one — or a job count of one —
// degenerates to a plain loop on the calling goroutine, with no
// goroutines spawned, so the serial path stays trivially identical.
package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// clampWorkers resolves a requested pool width against the job count.
// Zero or negative means "use every CPU".
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// MapErr evaluates fn(i) for every i in [0, n) across a pool of workers
// goroutines and returns the results in index order. Every job runs
// regardless of other jobs' failures (grid cells are independent; there
// is no partial result to protect), and the error returned is the failing
// job with the lowest index — the same error a serial in-order loop would
// have returned first — so error text is deterministic at any worker
// count. A panic in any job is captured and re-raised on the calling
// goroutine after the pool has drained, as a serial loop would raise it.
func MapErr[T any](workers, n int, fn func(int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	errs := make([]error, n)
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = fn(i)
			if errs[i] != nil {
				// Serial semantics: stop at the first failure.
				return nil, errs[i]
			}
		}
		return out, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make(chan any, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					select {
					case panics <- r:
					default:
					}
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Stream evaluates fn(i) for i in [0, n) across the pool and calls emit
// exactly once per completed job, always in index order, as soon as the
// contiguous prefix of results allows — job 3's report is never shown
// before job 2's, but the pool keeps computing ahead of the emission
// point. emit runs on the calling goroutine. Returning false from emit
// stops the sweep: no new jobs are started (jobs already in flight
// finish and are discarded) and Stream returns after the pool drains.
// With one worker this is exactly the classic serial loop: compute, emit,
// maybe stop, compute the next.
func Stream[T any](workers, n int, fn func(int) T, emit func(int, T) bool) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if !emit(i, fn(i)) {
				return
			}
		}
		return
	}

	type result struct {
		i int
		v T
	}
	results := make(chan result, workers)
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results <- result{i, fn(i)}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder completion-ordered results into index order before emitting.
	pending := make(map[int]T)
	emitAt := 0
	live := true
	for r := range results {
		if !live {
			continue // drain without emitting after a stop
		}
		pending[r.i] = r.v
		for {
			v, ok := pending[emitAt]
			if !ok {
				break
			}
			delete(pending, emitAt)
			emitAt++
			if !emit(emitAt-1, v) {
				stopped.Store(true)
				live = false
				break
			}
		}
	}
}
