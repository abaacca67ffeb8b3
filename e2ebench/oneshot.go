package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/translate"
)

// network is one generated input: configuration text by hostname and
// the policy specification text. The program sees nothing else.
type network struct {
	name    string
	configs map[string]string
	spec    string
}

func networkOf(inst *generate.Instance) network {
	n := network{name: inst.Name, configs: map[string]string{}, spec: policy.Format(inst.Policies)}
	for _, c := range inst.Configs {
		n.configs[c.Hostname] = c.Print()
	}
	return n
}

// oneShotSpec describes a workload of independent networks, each
// repaired from a loaded System to patched text once per pass.
type oneShotSpec struct {
	generate func(seed int64) ([]network, error)
	opts     cpr.Options
	// simSample is how many policies not violated before the repair are
	// also checked by simulation, per network.
	simSample int
}

// corpusSpec is the paper's Fig. 7 set: the 96-network synthetic
// data-center corpus at its fixed default seed. The workload seed orders
// the repairs and picks the simulator's sample.
func corpusSpec() oneShotSpec {
	return oneShotSpec{
		generate: func(int64) ([]network, error) {
			insts, err := generate.Corpus(generate.DefaultCorpus())
			if err != nil {
				return nil, err
			}
			nets := make([]network, len(insts))
			for i, inst := range insts {
				nets[i] = networkOf(inst)
			}
			return nets, nil
		},
		opts:      cpr.DefaultOptions(),
		simSample: 2,
	}
}

// dc256Spec is the broken dc-256 preset at its default generation seed
// (cprgen's). The workload seed picks the simulator's sample.
func dc256Spec() oneShotSpec {
	return oneShotSpec{
		generate: func(int64) ([]network, error) {
			inst, err := generate.Preset("dc-256", 1)
			if err != nil {
				return nil, err
			}
			return []network{networkOf(inst)}, nil
		},
		opts:      cpr.DefaultOptions(),
		simSample: 8,
	}
}

// fatTreeTrees is the number of k=4 fat-trees in the pc4-fattree
// workload.
const fatTreeTrees = 4

// fatTreeSpec is four broken k=4 fat-trees with six PC4 policies each,
// generated at the fixed seeds 1..4: solve time differs by a factor of
// two between instances, so trees drawn from the workload seed would
// make the run-to-run spread mostly a spread of inputs. The workload
// seed orders the repairs and picks the simulator's sample. Repairs run
// on one solve worker: the merged PC4 sub-problem dominates, and racing
// the small ones beside it only adds noise.
func fatTreeSpec() oneShotSpec {
	opts := cpr.DefaultOptions()
	opts.Parallelism = 1
	return oneShotSpec{
		generate: func(int64) ([]network, error) {
			var nets []network
			for s := int64(1); s <= fatTreeTrees; s++ {
				inst, err := generate.FatTree(generate.FatTreeOptions{
					K: 4, SubnetsPerEdge: 1, PC1: 3, PC2: 3, PC3: 3, PC4: 6, Seed: s,
				})
				if err != nil {
					return nil, err
				}
				if err := generate.BreakFatTree(inst, s+1, 4); err != nil {
					return nil, err
				}
				inst.Name = fmt.Sprintf("fattree-%d", s)
				nets = append(nets, networkOf(inst))
			}
			return nets, nil
		},
		opts:      opts,
		simSample: 4,
	}
}

// Set-up repeats until it has run minSetupReps times and at least
// minSetupTime in all, or maxSetupReps times, so that the median of small
// set-ups rests on many samples; setup_s is the median.
const (
	minSetupReps = 3
	minSetupTime = time.Second
	maxSetupReps = 50
)

// counts are exact per-repair counters taken from the returned Result.
type counts struct {
	problems, softs, reused    int
	conflicts, props, cores    int64
	patchLines                 int
	problemNs, encodeNs        int64
	solveNs, quotientNs        int64
	concretizeNs, reverifyNs   int64
	compressed, compressFailed int
}

func (c *counts) add(o counts) {
	c.problems += o.problems
	c.softs += o.softs
	c.reused += o.reused
	c.conflicts += o.conflicts
	c.props += o.props
	c.cores += o.cores
	c.patchLines += o.patchLines
	c.problemNs += o.problemNs
	c.encodeNs += o.encodeNs
	c.solveNs += o.solveNs
	c.quotientNs += o.quotientNs
	c.concretizeNs += o.concretizeNs
	c.reverifyNs += o.reverifyNs
	c.compressed += o.compressed
	c.compressFailed += o.compressFailed
}

func countsOf(res *core.Result) counts {
	c := counts{
		problems:       len(res.Stats),
		reused:         res.Reused,
		conflicts:      res.Solver.Conflicts,
		props:          res.Solver.Propagations,
		cores:          res.Solver.CoresExtracted,
		compressed:     res.Compressed,
		compressFailed: res.CompressFallbacks,
	}
	for _, st := range res.Stats {
		c.softs += st.Softs
		c.problemNs += st.Duration.Nanoseconds()
		c.encodeNs += st.EncodeNs
		c.solveNs += st.SolveNs
		c.quotientNs += st.HarcBuildNs
		c.concretizeNs += st.ConcretizeNs
		c.reverifyNs += st.ReverifyNs
	}
	return c
}

// opOutput is what one repair operation leaves for the output checks.
type opOutput struct {
	violated  []string // policies violated before the repair
	explained int      // counterexample lines returned by Explain
	plan      *translate.Plan
	patched   map[string]string
	counts    counts
}

func outputOf(out *cpr.RepairOutput, violated []cpr.Policy, explained int) *opOutput {
	o := &opOutput{explained: explained, plan: out.Plan, patched: out.PatchedConfigs, counts: countsOf(out.Result)}
	for _, p := range violated {
		o.violated = append(o.violated, p.String())
	}
	if out.Plan != nil {
		o.counts.patchLines = out.Plan.NumLines()
	}
	return o
}

// sameOutput reports whether two repairs of one network produced the
// same patch and patched text.
func sameOutput(a, b *opOutput) bool {
	if a.plan.String() != b.plan.String() || len(a.patched) != len(b.patched) {
		return false
	}
	for host, text := range a.patched {
		if b.patched[host] != text {
			return false
		}
	}
	return true
}

// repairOp is one untraced operation through the public API: from a
// loaded System to patched text.
func repairOp(sys *cpr.System, spec string, opts cpr.Options) (*opOutput, error) {
	ps, err := sys.ParsePolicies(spec)
	if err != nil {
		return nil, err
	}
	violated := sys.Verify(ps)
	explained := sys.Explain(violated)
	out, err := sys.Repair(ps, opts)
	if err != nil {
		return nil, err
	}
	if !out.Solved() {
		return nil, fmt.Errorf("repair not solved (%d degraded, %d failed)", out.Result.Degraded, out.Result.Failed)
	}
	return outputOf(out, violated, len(explained)), nil
}

// tracedLoad replays cpr.Load as the same sequence of public calls, with
// a span around each call into a layer. It returns the parsed configs by
// label along with the System.
func tracedLoad(t *tracer, op int, configs map[string]string, allocs *tracedAllocs) (*cpr.System, map[string]*config.Config, error) {
	root := t.begin("load", 0, op)
	defer t.end(root)
	parsed := make(map[string]*config.Config, len(configs))
	for _, k := range sortedKeys(configs) {
		s := t.begin("config.parse", root, op)
		c, err := config.Parse(k, configs[k])
		t.end(s)
		if err != nil {
			return nil, nil, err
		}
		parsed[k] = c
	}
	sys, err := tracedBuild(t, root, op, parsed, allocs)
	return sys, parsed, err
}

// tracedBuild replays the System construction shared by cpr.Load and
// Session.Delta: extract the network from parsed configs in label
// order, then build its HARC.
func tracedBuild(t *tracer, parent, op int, parsed map[string]*config.Config, allocs *tracedAllocs) (*cpr.System, error) {
	byHost := make(map[string]*config.Config, len(parsed))
	ordered := make([]*config.Config, 0, len(parsed))
	for _, k := range sortedKeys(parsed) {
		c := parsed[k]
		if _, dup := byHost[c.Hostname]; dup {
			return nil, fmt.Errorf("duplicate hostname %q", c.Hostname)
		}
		byHost[c.Hostname] = c
		ordered = append(ordered, c)
	}
	s := t.begin("config.extract", parent, op)
	n, err := config.Extract(ordered)
	t.end(s)
	if err != nil {
		return nil, err
	}
	a0 := heapAllocs()
	s = t.begin("harc.build", parent, op)
	h := harc.Build(n)
	t.end(s)
	allocs.build += heapAllocs() - a0
	allocs.loads++
	return &cpr.System{Configs: byHost, Network: n, HARC: h}, nil
}

// tracedAllocs accumulates the traced run's allocation counters and the
// number of traced System builds.
type tracedAllocs struct {
	build, repair, translate uint64
	loads                    int
}

// tracedRepairOp replays one operation — ParsePolicies, Verify, Explain
// and System.RepairCtx — as the sequence of public calls they make, with
// a span around each call into a layer.
func tracedRepairOp(t *tracer, op int, sys *cpr.System, spec string, opts cpr.Options, allocs *tracedAllocs) (*opOutput, error) {
	// The pre-repair state core.RepairCtx derives internally, timed on
	// its own outside the operation.
	s := t.begin("harc.stateof", 0, op)
	harc.StateOf(sys.HARC)
	t.end(s)

	root := t.begin("op", 0, op)
	defer t.end(root)
	s = t.begin("policy.parse", root, op)
	ps, err := policy.Parse(sys.Network, spec)
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("policy.verify", root, op)
	violated := policy.Violations(sys.HARC, ps)
	t.end(s)
	s = t.begin("policy.explain", root, op)
	explained := policy.ExplainAll(sys.HARC, violated)
	t.end(s)
	out, err := tracedRepair(t, root, op, sys, ps, opts, allocs)
	if err != nil {
		return nil, err
	}
	return outputOf(out, violated, len(explained)), nil
}

// tracedRepair replays System.RepairCtx: the core repair, the
// incremental re-verification, translation to patched text and, for
// compressed repairs, the replay of the patched text.
func tracedRepair(t *tracer, parent, op int, sys *cpr.System, ps []cpr.Policy, opts cpr.Options, allocs *tracedAllocs) (*cpr.RepairOutput, error) {
	ctx := context.Background()
	for {
		a0 := heapAllocs()
		s := t.begin("core.repair", parent, op)
		res, err := core.RepairCtx(ctx, sys.HARC, ps, opts)
		t.end(s)
		allocs.repair += heapAllocs() - a0
		if err != nil {
			return nil, err
		}
		if !res.Solved {
			return nil, fmt.Errorf("repair not solved (%d degraded, %d failed)", res.Degraded, res.Failed)
		}
		s = t.begin("cpr.verify_incremental", parent, op)
		bad := core.VerifyRepairIncremental(sys.HARC, res.State, res.Repaired, res.Touched, opts.Workers())
		t.end(s)
		if len(bad) != 0 {
			return nil, fmt.Errorf("repair violates %d policies", len(bad))
		}
		a0 = heapAllocs()
		s = t.begin("translate.translate", parent, op)
		cfgs, err := translate.CloneConfigs(sys.Configs)
		var plan *translate.Plan
		if err == nil {
			plan, err = translate.Translate(sys.HARC, res.Orig, res.State, cfgs)
		}
		t.end(s)
		if err != nil {
			return nil, err
		}
		s = t.begin("translate.print", parent, op)
		patched := make(map[string]string, len(cfgs))
		for host, c := range cfgs {
			patched[host] = c.Print()
		}
		t.end(s)
		allocs.translate += heapAllocs() - a0
		out := &cpr.RepairOutput{Result: res, Plan: plan, PatchedConfigs: patched}
		if res.Compressed == 0 {
			return out, nil
		}
		s = t.begin("cpr.replay", parent, op)
		ok := replayPatched(patched, res.Repaired, res.State)
		t.end(s)
		if ok {
			return out, nil
		}
		// System.RepairCtx redoes a compressed repair uncompressed when
		// the patched text disagrees with the verified state.
		opts.Compress = core.CompressOff
	}
}

// replayPatched mirrors System.RepairCtx's final check on compressed
// repairs: re-parse the patched text and confirm that the network it
// describes carries the verified repaired state on the repaired
// policies' classes, or, failing that, satisfies each of them.
func replayPatched(patched map[string]string, policies []cpr.Policy, want *harc.State) bool {
	parsed := make([]*config.Config, 0, len(patched))
	for _, k := range sortedKeys(patched) {
		c, err := config.Parse(k, patched[k])
		if err != nil {
			return false
		}
		parsed = append(parsed, c)
	}
	n, err := config.Extract(parsed)
	if err != nil {
		return false
	}
	rebind := func(tc cpr.TrafficClass) (cpr.TrafficClass, bool) {
		src, dst := n.Subnet(tc.Src.Name), n.Subnet(tc.Dst.Name)
		return cpr.TrafficClass{Src: src, Dst: dst}, src != nil && dst != nil
	}
	seen := map[string]bool{}
	var tcs []cpr.TrafficClass
	rebound := make([]cpr.Policy, 0, len(policies))
	for _, p := range policies {
		tc, ok := rebind(p.TC)
		if !ok {
			return false
		}
		p.TC = tc
		classes := []cpr.TrafficClass{tc}
		if p.Kind == policy.Isolated {
			if p.TC2, ok = rebind(p.TC2); !ok {
				return false
			}
			classes = append(classes, p.TC2)
		}
		for _, c := range classes {
			if !seen[c.Key()] {
				seen[c.Key()] = true
				tcs = append(tcs, c)
			}
		}
		rebound = append(rebound, p)
	}
	if statesMatch(harc.StateOf(harc.BuildLite(n, tcs)), want, tcs) {
		return true
	}
	h := harc.BuildForTCs(n, tcs)
	for _, p := range rebound {
		if !policy.Check(h, p) {
			return false
		}
	}
	return true
}

// statesMatch compares the maps the policy checks read: costs,
// waypoints, and per-class and per-destination presence on tcs.
func statesMatch(got, want *harc.State, tcs []cpr.TrafficClass) bool {
	if !boolMapsEqual(got.Waypoint, want.Waypoint) || len(got.Cost) != len(want.Cost) {
		return false
	}
	for k, v := range got.Cost {
		if w, ok := want.Cost[k]; !ok || w != v {
			return false
		}
	}
	for _, tc := range tcs {
		if !boolMapsEqual(got.TC[tc.Key()], want.TC[tc.Key()]) || !boolMapsEqual(got.Dst[tc.Dst.Name], want.Dst[tc.Dst.Name]) {
			return false
		}
	}
	return true
}

func boolMapsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// runOneShot runs a one-shot workload: set-up loads every network
// several times, then whole passes repair every network in a seeded
// order until the passes have taken the run's time. The outputs of the
// first pass are checked in full; later passes must reproduce them
// exactly.
func runOneShot(rc runConfig, spec oneShotSpec) (*report, error) {
	nets, err := spec.generate(rc.seed)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	rng := rand.New(rand.NewSource(rc.seed))
	order := rng.Perm(len(nets))
	if rc.trace {
		return runOneShotTraced(rc, spec, nets, order, rng)
	}
	rep := &report{}

	var systems []*cpr.System
	var setup []float64
	var spent time.Duration
	for r := 0; r < minSetupReps || (spent < minSetupTime && r < maxSetupReps); r++ {
		systems = nil
		runtime.GC()
		t0 := time.Now()
		for _, n := range nets {
			sys, err := cpr.Load(n.configs)
			if err != nil {
				return nil, fmt.Errorf("load %s: %w", n.name, err)
			}
			systems = append(systems, sys)
		}
		spent += time.Since(t0)
		setup = append(setup, time.Since(t0).Seconds())
	}
	mem := startRSSSampler()
	defer mem.stop()
	first := make([]*opOutput, len(nets))
	var lat []time.Duration
	var peaks []float64
	perNet := make([][]float64, len(nets))
	var wall time.Duration
	for pass := 0; pass == 0 || wall < rc.seconds; pass++ {
		// Each pass starts from a collected heap, and its peak memory is
		// measured on its own; peak_rss_mb is the median over passes.
		debug.FreeOSMemory()
		mem.reset()
		start := time.Now()
		for _, i := range order {
			t0 := time.Now()
			out, err := repairOp(systems[i], nets[i].spec, spec.opts)
			lat = append(lat, time.Since(t0))
			perNet[i] = append(perNet[i], ms(lat[len(lat)-1]))
			rep.attempted++
			switch {
			case err != nil:
				rep.fail("%s pass %d: %v", nets[i].name, pass, err)
			case pass == 0:
				first[i] = out
			case first[i] != nil && !sameOutput(first[i], out):
				rep.fail("%s pass %d: repair differs from pass 0", nets[i].name, pass)
			}
		}
		wall += time.Since(start)
		peak, err := mem.peakMB()
		if err != nil {
			return nil, fmt.Errorf("resident memory: %w", err)
		}
		peaks = append(peaks, peak)
	}
	systems = nil

	var total counts
	for i, out := range first {
		if out == nil {
			continue
		}
		total.add(out.counts)
		if err := checkOutput(nets[i], out, rng.Int63(), spec.simSample); err != nil {
			rep.fail("%s: output check: %v", nets[i].name, err)
		}
	}
	l := durationsMS(lat)
	rep.set("setup_s", "s", quantile(setup, 0.5))
	rep.set("latency_p50_ms", "ms", quantile(l, 0.5))
	rep.set("ops_per_s", "1/s", float64(len(lat))/wall.Seconds())
	rep.set("peak_rss_mb", "MiB", quantile(peaks, 0.5))
	rep.set("patch_lines", "count", float64(total.patchLines))
	fmt.Printf("latency over %d operations: min %.1f, p50 %.1f, max %.1f ms\n", len(l), quantile(l, 0), quantile(l, 0.5), quantile(l, 1))
	if len(nets) <= 8 {
		for i, xs := range perNet {
			fmt.Printf("latency of %s: %.1f ms\n", nets[i].name, xs)
		}
	}
	if len(l) >= 67 {
		fmt.Printf("latency_p85_ms %.4f ms over %d operations\n", quantile(l, 0.85), len(l))
	}
	return rep, nil
}

// runOneShotTraced is the traced run of a one-shot workload. Each load
// and each operation runs twice, through the public API and as a traced
// replay of the calls it makes, alternating which goes first; the
// replay's spans give the per-layer metrics and the difference in wall
// time gives the tracing overhead. The replay's output must equal the
// public API's and passes the same checks.
func runOneShotTraced(rc runConfig, spec oneShotSpec, nets []network, order []int, rng *rand.Rand) (*report, error) {
	rep := &report{}
	t := rc.spans
	var plainNs, tracedNs int64
	var allocs tracedAllocs
	op := 0

	systems := make([]*cpr.System, len(nets))
	for i, n := range nets {
		op++
		runPlain := func() {
			t0 := time.Now()
			if _, err := cpr.Load(n.configs); err != nil {
				rep.fail("%s: load: %v", n.name, err)
			}
			plainNs += time.Since(t0).Nanoseconds()
		}
		if op%2 == 0 {
			runPlain()
		}
		t0 := time.Now()
		sys, _, err := tracedLoad(t, op, n.configs, &allocs)
		tracedNs += time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", n.name, err)
		}
		if op%2 == 1 {
			runPlain()
		}
		systems[i] = sys
	}

	first := make([]*opOutput, len(nets))
	var exact, timed counts
	ops := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < rc.seconds; pass++ {
		for _, i := range order {
			op++
			var plain *opOutput
			runPlain := func() {
				t0 := time.Now()
				out, err := repairOp(systems[i], nets[i].spec, spec.opts)
				plainNs += time.Since(t0).Nanoseconds()
				if err != nil {
					rep.fail("%s: %v", nets[i].name, err)
				}
				plain = out
			}
			if op%2 == 0 {
				runPlain()
			}
			t0 := time.Now()
			out, err := tracedRepairOp(t, op, systems[i], nets[i].spec, spec.opts, &allocs)
			// The probe of harc.StateOf runs outside the operation.
			tracedNs += time.Since(t0).Nanoseconds()
			if op%2 == 1 {
				runPlain()
			}
			rep.attempted++
			ops++
			switch {
			case err != nil:
				rep.fail("%s traced: %v", nets[i].name, err)
				continue
			case plain != nil && !sameOutput(plain, out):
				rep.fail("%s: traced replay differs from the public API", nets[i].name)
			}
			timed.add(out.counts)
			if pass == 0 {
				first[i] = out
				exact.add(out.counts)
			}
		}
	}
	for i, out := range first {
		if out == nil {
			continue
		}
		if err := checkOutput(nets[i], out, rng.Int63(), spec.simSample); err != nil {
			rep.fail("%s: output check: %v", nets[i].name, err)
		}
	}

	self := t.selfTimes()
	// The harc.StateOf probe is not part of the public API's work.
	tracedNs -= self["harc.stateof"].self.Nanoseconds()
	setLayerMetrics(rep, self, ops, exact, timed, allocs, plainNs, tracedNs)
	return rep, nil
}

// setLayerMetrics reports the per-layer metrics. Times are means per
// network load for the set-up layers and per operation for the rest,
// over every traced operation (timed sums their counts); counters are
// exact totals over one pass of the workload's inputs (c).
func setLayerMetrics(rep *report, self map[string]layerTime, ops int, c, timed counts, a tracedAllocs, plainNs, tracedNs int64) {
	loads := a.loads
	perLoad := func(name string) float64 { return ms(self[name].self) / float64(max(loads, 1)) }
	perOp := func(name string) float64 { return ms(self[name].self) / float64(max(ops, 1)) }
	nsPerOp := func(ns int64) float64 { return float64(ns) / 1e6 / float64(max(ops, 1)) }

	rep.set("config.parse_ms", "ms", perLoad("config.parse"))
	rep.set("config.extract_ms", "ms", perLoad("config.extract"))
	rep.set("harc.build_ms", "ms", perLoad("harc.build"))
	rep.set("harc.build_alloc_mb", "MiB", mib(a.build)/float64(max(loads, 1)))
	rep.set("harc.stateof_ms", "ms", perOp("harc.stateof"))
	rep.set("policy.parse_ms", "ms", perOp("policy.parse"))
	rep.set("policy.verify_ms", "ms", perOp("policy.verify"))
	rep.set("policy.explain_ms", "ms", perOp("policy.explain"))
	rep.set("core.repair_ms", "ms", perOp("core.repair"))
	rep.set("core.repair_alloc_mb", "MiB", mib(a.repair)/float64(max(ops, 1)))
	rep.set("core.problem_ms", "ms", nsPerOp(timed.problemNs))
	rep.set("core.encode_ms", "ms", nsPerOp(timed.encodeNs))
	rep.set("core.solve_ms", "ms", nsPerOp(timed.solveNs))
	rep.set("core.problems", "count", float64(c.problems))
	rep.set("core.softs", "count", float64(c.softs))
	reused := 0.0
	if c.problems > 0 {
		reused = float64(c.reused) / float64(c.problems)
	}
	rep.set("core.reused_frac", "frac", reused)
	rep.set("sat.conflicts", "count", float64(c.conflicts))
	rep.set("sat.propagations", "count", float64(c.props))
	rep.set("maxsat.cores", "count", float64(c.cores))
	rep.set("cpr.verify_incremental_ms", "ms", perOp("cpr.verify_incremental"))
	rep.set("translate.translate_ms", "ms", perOp("translate.translate"))
	rep.set("translate.print_ms", "ms", perOp("translate.print"))
	rep.set("translate.alloc_mb", "MiB", mib(a.translate)/float64(max(ops, 1)))
	rep.set("op.self_ms", "ms", perOp("op"))
	rep.set("trace.overhead_pct", "%", 100*float64(tracedNs-plainNs)/float64(plainNs))

	// Layers that run on only some workloads are printed, not put in the
	// result line, which carries the same metrics on every workload.
	fmt.Printf("compress.quotient_ms %.4f ms\n", nsPerOp(timed.quotientNs))
	fmt.Printf("compress.concretize_ms %.4f ms\n", nsPerOp(timed.concretizeNs))
	fmt.Printf("compress.reverify_ms %.4f ms\n", nsPerOp(timed.reverifyNs))
	fmt.Printf("compress.problems %d compressed, %d fell back\n", c.compressed, c.compressFailed)
	fmt.Printf("cpr.replay_ms %.4f ms\n", perOp("cpr.replay"))
}
