// Package parallel provides the deterministic work pool used to fan
// independent simulation runs out across CPUs. Jobs are enumerated up
// front, executed on a bounded number of worker goroutines, and their
// results are returned in submission order — so a caller that aggregates
// over the result slice is bit-identical to a serial loop no matter how
// many workers ran or in which order jobs finished.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Workers resolves a requested parallelism: values > 0 are used as given,
// anything else defaults to runtime.GOMAXPROCS(0).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a job panic converted into an ordinary error: the sweep
// machinery quarantines the job instead of crashing the process (one
// corrupted simulation must not take down a multi-hour sweep).
type PanicError struct {
	Index int    // job index that panicked
	Value any    // the recovered panic value
	Stack string // goroutine stack at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", e.Index, e.Value)
}

// safeCall runs fn(i), converting a panic into a *PanicError.
func safeCall[T any](i int, fn func(i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &PanicError{Index: i, Value: r, Stack: string(buf)}
		}
	}()
	return fn(i)
}

// MapAll runs fn(0), fn(1), ..., fn(n-1) on up to workers goroutines and
// returns the results indexed by job: out[i] and errs[i] are fn(i)'s value
// and error regardless of which worker ran it or when it finished (errs[i]
// == nil on success; panics surface as *PanicError). Every job runs to
// completion even when others fail, so a caller that skips failed indices
// aggregates the survivors bit-identically to a serial loop over the same
// surviving set.
//
// workers <= 1 degenerates to a plain serial loop on the calling goroutine,
// in index order.
func MapAll[T any](workers, n int, fn func(i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return out, errs
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i], errs[i] = safeCall(i, fn)
		}
		return out, errs
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i], errs[i] = safeCall(i, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, errs
}
