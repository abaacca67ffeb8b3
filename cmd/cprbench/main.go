// Command cprbench runs the headline repair benchmarks and emits a JSON
// snapshot in the BENCH_baseline.json shape, so benchmark trajectories
// can be compared across PRs with benchstat.
//
// Usage:
//
//	cprbench [-bench REGEX] [-count 5] [-benchtime 1x] [-o FILE]
//
// The snapshot embeds the raw `go test -bench` lines (the format
// benchstat consumes) plus a parsed per-benchmark summary. To compare a
// snapshot against the committed baseline:
//
//	go run ./cmd/cprbench -o current.json
//	jq -r '.lines[]' BENCH_baseline.json > baseline.txt
//	jq -r '.lines[]' current.json > current.txt
//	benchstat baseline.txt current.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// HeadlineBenchmarks are the benchmarks tracked across PRs: the Figure
// 2a repair encoding, the per-destination decomposition on a mid-size
// data center, the cprd warm and churn (incremental delta) repair
// paths, the symmetry-compression speedup pair on the broken
// fattree-k8 preset plus the quotient-build micro-benchmark, the
// quotient-side vs concrete patch-verification pair with the
// incremental-state micro-benchmarks behind it, the SAT-core
// microbenchmarks (conflict-heavy search, incremental assumptions, and
// learned-clause reduction with arena GC), the MaxSAT engine pair
// (core-guided OLL vs linear descent), the whole-core.Repair dc-256 pair
// whose solve-ns/op metric is the OLL speedup evidence, and the dc-256
// translate and state-clone benchmarks of the copy-on-write repair
// state.
const HeadlineBenchmarks = "BenchmarkTable2RepairEncodingFig2a$|BenchmarkAblationGranularityPerDst$|BenchmarkServerRepairWarm$|BenchmarkServerRepairChurn$|BenchmarkCompressRepairFatTreeOn$|BenchmarkCompressRepairFatTreeOff$|BenchmarkCompressQuotientBuild$|BenchmarkCompressVerifyQuotientOn$|BenchmarkCompressVerifyQuotientOff$|BenchmarkHarcStateOfDelta$|BenchmarkHarcStateOfFull$|BenchmarkSATPigeonhole$|BenchmarkSATIncrementalAssumptions$|BenchmarkSATReduceAndGC$|BenchmarkMaxSATOLL$|BenchmarkMaxSATLinear$|BenchmarkMaxSATWeightedOLL$|BenchmarkMaxSATWeightedLinear$|BenchmarkCoreRepairDC256OLL$|BenchmarkCoreRepairDC256Linear$|BenchmarkTranslateDC256$|BenchmarkStateCloneDC256$"

// HeadlinePackages are the packages holding the headline benchmarks.
const HeadlinePackages = "repro,repro/internal/compress,repro/internal/smt/sat,repro/internal/smt/maxsat"

// Snapshot is the JSON shape of BENCH_baseline.json.
type Snapshot struct {
	Captured   string `json:"captured"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Benchtime  string `json:"benchtime"`
	Count      int    `json:"count"`
	// Lines are the raw benchmark result lines, directly consumable by
	// benchstat after extraction with jq -r '.lines[]'.
	Lines []string `json:"lines"`
	// Benchmarks summarizes each benchmark's runs (parsed from Lines).
	Benchmarks map[string]*Series `json:"benchmarks"`
}

// Series collects one benchmark's per-run measurements. SolveNsPerOp
// is the repair benchmarks' custom solve-stage metric (time spent in
// MaxSAT search, excluding encode/concretize/verify).
type Series struct {
	NsPerOp      []float64 `json:"ns_per_op"`
	BytesPerOp   []float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp  []float64 `json:"allocs_per_op,omitempty"`
	SolveNsPerOp []float64 `json:"solve_ns_per_op,omitempty"`
}

var resultLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

func main() {
	var (
		bench     = flag.String("bench", HeadlineBenchmarks, "benchmark regex to run")
		count     = flag.Int("count", 5, "runs per benchmark")
		benchtime = flag.String("benchtime", "1x", "go test -benchtime value")
		pkg       = flag.String("pkg", HeadlinePackages, "comma-separated packages holding the benchmarks")
		out       = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if err := run(*bench, *benchtime, *pkg, *out, *count); err != nil {
		fmt.Fprintln(os.Stderr, "cprbench:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime, pkg, out string, count int) error {
	args := []string{"test", "-run", "^$",
		"-bench", bench, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count)}
	args = append(args, strings.Split(pkg, ",")...)
	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go test -bench: %w", err)
	}
	snap := &Snapshot{
		Captured:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  benchtime,
		Count:      count,
		Benchmarks: map[string]*Series{},
	}
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		m := resultLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		snap.Lines = append(snap.Lines, line)
		name := strings.SplitN(m[1], "-", 2)[0] // strip -GOMAXPROCS suffix
		s := snap.Benchmarks[name]
		if s == nil {
			s = &Series{}
			snap.Benchmarks[name] = s
		}
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				s.NsPerOp = append(s.NsPerOp, v)
			case "B/op":
				s.BytesPerOp = append(s.BytesPerOp, v)
			case "allocs/op":
				s.AllocsPerOp = append(s.AllocsPerOp, v)
			case "solve-ns/op":
				s.SolveNsPerOp = append(s.SolveNsPerOp, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(snap.Lines) == 0 {
		return fmt.Errorf("no benchmark results matched %q", bench)
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}
