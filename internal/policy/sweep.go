package policy

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/harc"
)

// Violations returns the subset of policies the HARC currently violates,
// in input order.
func Violations(h *harc.HARC, policies []Policy) []Policy {
	violated, _ := ViolationsCtx(context.Background(), h, policies)
	return violated
}

// ViolationsCtx is Violations under a context. Policies are checked on
// GOMAXPROCS workers; the sweep stops at the first cancelled check and
// returns ctx's error. Verifying one policy is graph work (no solver),
// so cancellation granularity is one policy.
func ViolationsCtx(ctx context.Context, h *harc.HARC, policies []Policy) ([]Policy, error) {
	return sweep(ctx, policies, runtime.GOMAXPROCS(0), func() func(Policy) bool {
		return func(p Policy) bool { return Check(h, p) }
	})
}

// StateViolations returns the policies violated by an explicit HARC
// state, in input order, checked on up to workers goroutines. Each
// worker keeps its own StateChecker, so policies on one traffic class
// that land on one worker share its graphs.
func StateViolations(h *harc.HARC, st *harc.State, policies []Policy, workers int) []Policy {
	violated, _ := sweep(context.Background(), policies, workers, func() func(Policy) bool {
		return NewStateChecker(h, st).Check
	})
	return violated
}

// sweep is the one policy-sweep implementation: workers goroutines
// (at most one per policy) claim policies by index from a shared
// counter, each with the check newCheck made for it, and record one
// verdict per index. Violations are then collected in input order, so
// the result does not depend on the schedule or the worker count.
func sweep(ctx context.Context, policies []Policy, workers int, newCheck func() func(Policy) bool) ([]Policy, error) {
	if workers > len(policies) {
		workers = len(policies)
	}
	if workers < 1 {
		workers = 1
	}
	bad := make([]bool, len(policies))
	var next atomic.Int64
	var cancelled atomic.Bool
	work := func() {
		check := newCheck()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(policies) || cancelled.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			bad[i] = !check(policies[i])
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	var violated []Policy
	for i, b := range bad {
		if b {
			violated = append(violated, policies[i])
		}
	}
	return violated, nil
}
