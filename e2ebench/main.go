// Command e2ebench is the end-to-end CPR benchmark. It generates a
// workload's networks from a seed, hands the program only configuration
// text and policy-specification text, times the path from that text to
// verified patched configuration text, checks every output outside the
// timed region, and prints one JSON result object as its last line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload corpus --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written to --tracedir. The process exits non-zero when any
// operation fails or any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run returns: operation counts, the output
// check failures, and the metrics of the selected mode.
type report struct {
	attempted int
	failed    int
	// problems lists each failed operation or check, for stderr.
	problems []string
	metrics  map[string]metric
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) set(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig carries the command-line settings into a workload.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// spans collects the traced run's spans; nil when untraced.
	spans *tracer
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"corpus":      func(rc runConfig) (*report, error) { return runOneShot(rc, corpusSpec()) },
	"dc256":       func(rc runConfig) (*report, error) { return runOneShot(rc, dc256Spec()) },
	"pc4-fattree": func(rc runConfig) (*report, error) { return runOneShot(rc, fatTreeSpec()) },
	"churn":       func(rc runConfig) (*report, error) { return runChurn(rc, defaultChurn()) },
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: corpus, dc256, pc4-fattree or churn")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "run length: one-shot workloads repeat whole passes until they have taken this long; churn runs a number of rounds fixed by it")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		traceDir = flag.String("tracedir", ".bench_build/traces", "directory for the traced run's span file")
	)
	flag.Parse()
	runner, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 0 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "e2ebench: need --workload (one of %v), --seconds >= 0 and --trace 0|1\n", names)
		return 2
	}
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if rc.trace {
		rc.spans = newTracer()
	}
	rep, err := runner(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	if rc.trace {
		path, err := rc.spans.writeFile(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", rc.spans.len(), path)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: FAIL %s\n", p)
	}
	printHuman(rep)
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct || res.Attempted == 0 {
		return 1
	}
	return 0
}

// printHuman prints each metric on its own line, sorted by name, ahead of
// the JSON result line.
func printHuman(rep *report) {
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-28s %14.4f (%d of %d operations)\n", "failed_frac", frac, rep.failed, rep.attempted)
}
