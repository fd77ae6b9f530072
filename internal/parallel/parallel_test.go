package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

// TestMapPreservesOrder checks that MapAll's results sit at their job
// indices even when later jobs finish first.
func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, errs := MapAll(workers, 37, func(i int) (int, error) {
			// Stagger completion so later jobs often finish first.
			time.Sleep(time.Duration(37-i) * 100 * time.Microsecond)
			return i * i, nil
		})
		for i, v := range out {
			if errs[i] != nil {
				t.Fatalf("workers=%d: errs[%d] = %v", workers, i, errs[i])
			}
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapSerialRunsInOrder checks that MapAll's serial path runs the jobs
// on the calling goroutine in index order.
func TestMapSerialRunsInOrder(t *testing.T) {
	var order []int
	MapAll(1, 5, func(i int) (int, error) {
		order = append(order, i) // no goroutines in the serial path
		return i, nil
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("serial path ran %d jobs, want 5", len(order))
	}
}

// TestMapActuallyRunsConcurrently checks that MapAll's pool overlaps jobs.
func TestMapActuallyRunsConcurrently(t *testing.T) {
	var inFlight, peak atomic.Int64
	MapAll(4, 16, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	})
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}
