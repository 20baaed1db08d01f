package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoRunsEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{1, 1}, {7, 1}, {7, 3}, {100, 4}, {5, 16}, {64, 0}} {
		calls := make([]atomic.Int32, c.n)
		if err := Do(c.n, c.workers, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d workers=%d: %v", c.n, c.workers, err)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, got)
			}
		}
	}
}

// TestDoReturnsLowestIndexError makes index 9 fail first and index 2
// fail only once index 9 has failed: Do must still report index 2.
func TestDoReturnsLowestIndexError(t *testing.T) {
	failed9 := make(chan struct{})
	err := Do(12, 3, func(i int) error {
		switch i {
		case 2:
			<-failed9
			return fmt.Errorf("index %d", i)
		case 9:
			defer close(failed9)
			return fmt.Errorf("index %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "index 2" {
		t.Fatalf("Do = %v, want the error of index 2", err)
	}
}

func TestDoBoundsCallsInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var mu sync.Mutex
		inFlight, peak := 0, 0
		if err := Do(40, workers, func(int) error {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if peak > workers {
			t.Fatalf("workers=%d: %d calls in flight at once", workers, peak)
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	if err := Do(0, 4, func(int) error {
		t.Error("fn called with n = 0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
