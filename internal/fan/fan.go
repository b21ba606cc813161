// Package fan is the work-stealing fan-out shared by the paper's figure
// suite (internal/exp) and the scenario engine's replay executor. It imports
// only the standard library, so the replay engine can use it without
// linking the figure code.
package fan

import (
	"sync"
	"sync/atomic"
)

// Run fans fn over [0, n) across at most workers goroutines (workers <= 1
// runs serially); results land in input order, the first error by index
// wins. Workers pull the next index from a shared atomic cursor, so a worker
// that drew a cheap index steals the next one instead of idling behind a
// slow sibling. budget, when non-nil, is a shared token channel bounding
// concurrently-executing calls across cooperating fan-outs; fn must not fan
// out further while holding a token.
func Run[R any](workers, n int, budget chan struct{}, fn func(i int) (R, error)) ([]R, error) {
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 && budget == nil {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if budget != nil {
					budget <- struct{}{}
				}
				out[i], errs[i] = fn(i)
				if budget != nil {
					<-budget
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
