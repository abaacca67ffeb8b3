package main

import (
	"testing"
	"time"
)

// firstN trims a workload's generated inputs to its first n networks.
func firstN(gen func(int64) ([]network, error), n int) func(int64) ([]network, error) {
	return func(seed int64) ([]network, error) {
		nets, err := gen(seed)
		if len(nets) > n {
			nets = nets[:n]
		}
		return nets, err
	}
}

// smallWorkloads are the workloads at a size a test can run twice.
func smallWorkloads() map[string]func(runConfig) (*report, error) {
	corpus := corpusSpec()
	corpus.generate = firstN(corpus.generate, 6)
	ft := fatTreeSpec()
	ft.generate = firstN(ft.generate, 1)
	churn := defaultChurn()
	churn.segmentRounds, churn.replayRounds = 6, 6
	w := map[string]func(runConfig) (*report, error){
		"corpus":      func(rc runConfig) (*report, error) { return runOneShot(rc, corpus) },
		"pc4-fattree": func(rc runConfig) (*report, error) { return runOneShot(rc, ft) },
		"churn":       func(rc runConfig) (*report, error) { return runChurn(rc, churn) },
	}
	if !testing.Short() {
		w["dc256"] = workloads["dc256"]
	}
	return w
}

// TestExactRepeatCounters runs each workload twice with the same seed,
// untraced and traced, and requires its exact counters to be identical:
// a count that drifts means nondeterminism, not noise.
func TestExactRepeatCounters(t *testing.T) {
	exact := map[bool][]string{
		false: {"patch_lines"},
		true:  {"core.problems", "core.softs", "sat.conflicts", "sat.propagations", "maxsat.cores"},
	}
	for name, run := range smallWorkloads() {
		for _, trace := range []bool{false, true} {
			var first map[string]metric
			for i := 0; i < 2; i++ {
				rc := runConfig{seed: 3, trace: trace}
				if trace {
					rc.spans = newTracer()
				}
				rep, err := run(rc)
				if err != nil {
					t.Fatalf("%s trace=%v: %v", name, trace, err)
				}
				for _, m := range exact[trace] {
					if _, ok := rep.metrics[m]; !ok {
						t.Fatalf("%s trace=%v: no %s", name, trace, m)
					}
				}
				if first == nil {
					first = rep.metrics
					continue
				}
				for _, m := range exact[trace] {
					if a, b := first[m].Value, rep.metrics[m].Value; a != b {
						t.Errorf("%s: %s is %v, then %v on the same seed", name, m, a, b)
					}
				}
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 1)
	child := tr.begin("core.repair", root, 1)
	time.Sleep(2 * time.Millisecond)
	tr.end(child)
	tr.end(root)
	self := tr.selfTimes()
	rootSpan, childSpan := tr.spans[root-1], tr.spans[child-1]
	want := time.Duration((rootSpan.End - rootSpan.Start) - (childSpan.End - childSpan.Start))
	if got := self["op"].self; got != want {
		t.Errorf("op self time %v, want %v", got, want)
	}
	if got := self["core.repair"].self; got < 2*time.Millisecond {
		t.Errorf("core.repair self time %v, want at least 2ms", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.85, 3.55}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
