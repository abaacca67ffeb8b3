package policy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/harc"
	"repro/internal/topology"
)

// mixedPolicies returns every policy class on every traffic class of
// Figure 2a (PC3 at K 1..3, PC4 along the class's current shortest device
// path and along a wrong one, isolation against the next class), so the
// verdicts mix holds and violations of every kind.
func mixedPolicies(n *topology.Network) []Policy {
	tcs := n.TrafficClasses()
	var out []Policy
	for i, tc := range tcs {
		out = append(out,
			Policy{Kind: AlwaysBlocked, TC: tc},
			Policy{Kind: AlwaysWaypoint, TC: tc},
			Policy{Kind: PrimaryPath, TC: tc, Path: []string{"A", "B", "C"}},
			Policy{Kind: PrimaryPath, TC: tc, Path: []string{"A", "C"}},
			Policy{Kind: Isolated, TC: tc, TC2: tcs[(i+1)%len(tcs)]},
		)
		for k := 1; k <= 3; k++ {
			out = append(out, Policy{Kind: KReachable, TC: tc, K: k})
		}
	}
	return out
}

// withProcs runs fn at each GOMAXPROCS setting, restoring the original.
func withProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs%d", procs), fn)
		runtime.GOMAXPROCS(prev)
	}
}

// TestViolationsMatchSerial pins the parallel sweep to the serial loop:
// the same violations, in input order, whatever the worker count.
func TestViolationsMatchSerial(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	st := harc.StateOf(h)
	ps := mixedPolicies(n)
	var want, wantState []Policy
	for _, p := range ps {
		if !Check(h, p) {
			want = append(want, p)
		}
		if !CheckState(h, st, p) {
			wantState = append(wantState, p)
		}
	}
	if len(want) == 0 || len(want) == len(ps) {
		t.Fatalf("want a mix of verdicts, got %d of %d violated", len(want), len(ps))
	}
	withProcs(t, func(t *testing.T) {
		if got := Violations(h, ps); !reflect.DeepEqual(got, want) {
			t.Errorf("Violations = %v, want %v", got, want)
		}
		got, err := ViolationsCtx(context.Background(), h, ps)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ViolationsCtx = %v, %v; want %v", got, err, want)
		}
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0), len(ps) + 5} {
			if got := StateViolations(h, st, ps, workers); !reflect.DeepEqual(got, wantState) {
				t.Errorf("StateViolations(workers=%d) = %v, want %v", workers, got, wantState)
			}
		}
	})
}

func TestViolationsCtxCancelled(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	withProcs(t, func(t *testing.T) {
		if got, err := ViolationsCtx(ctx, h, mixedPolicies(n)); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("ViolationsCtx = %v, %v; want nil, context.Canceled", got, err)
		}
		if got, err := ViolationsCtx(ctx, h, nil); err != nil || got != nil {
			t.Errorf("ViolationsCtx(no policies) = %v, %v; want nil, nil", got, err)
		}
	})
}
