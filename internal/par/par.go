// Package par runs independent, index-addressed jobs on a bounded pool
// of goroutines. Callers write each job's result into a slot indexed by
// the job, so what they compute never depends on how the jobs were
// scheduled: the calibration campaign, the offline scheduler's group
// simulations, solo profiles and sweep cells all run this way.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) once for every i in [0, n) on min(workers, n)
// goroutines; workers <= 0 means runtime.NumCPU(). The workers take
// indices in ascending order. Do returns after every call has returned,
// with the error of the lowest index that failed, or nil.
func Do(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
