// Benchmarks regenerating every table and figure of the paper's
// evaluation (§8), plus ablations over CPR's design choices and
// micro-benchmarks of the substrates. Each figure benchmark runs its
// experiment at a reduced-but-representative scale; cmd/cpreval runs the
// same experiments at the paper's full dimensions.
package cpr_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	cpr "repro"
	"repro/internal/arc"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/generate"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
	"repro/internal/topology"
	"repro/internal/translate"
)

// benchCfg is the reduced scale shared by the figure benchmarks.
func benchCfg() eval.Config {
	cfg := eval.Quick()
	cfg.CorpusNetworks = 3
	cfg.SubnetScale = 0.3
	cfg.PolicySweep = []int{6}
	cfg.SizeSweepK = []int{4}
	cfg.Fig8aPolicies = 4
	cfg.Fig8cPolicies = 6
	cfg.AllTCsBudget = 100000
	return cfg
}

// --- Table 1: policy-class verification characteristics ---

func benchVerify(b *testing.B, kind policy.Kind) {
	n := topology.Figure2a()
	h := harc.Build(n)
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	var p policy.Policy
	switch kind {
	case policy.AlwaysBlocked:
		p = policy.Policy{Kind: kind, TC: topology.TrafficClass{Src: s, Dst: u}}
	case policy.AlwaysWaypoint:
		p = policy.Policy{Kind: kind, TC: topology.TrafficClass{Src: s, Dst: tt}}
	case policy.KReachable:
		p = policy.Policy{Kind: kind, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}}
	case policy.PrimaryPath:
		p = policy.Policy{Kind: kind, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Check(h, p)
	}
}

func BenchmarkTable1VerifyPC1(b *testing.B) { benchVerify(b, policy.AlwaysBlocked) }
func BenchmarkTable1VerifyPC2(b *testing.B) { benchVerify(b, policy.AlwaysWaypoint) }
func BenchmarkTable1VerifyPC3(b *testing.B) { benchVerify(b, policy.KReachable) }
func BenchmarkTable1VerifyPC4(b *testing.B) { benchVerify(b, policy.PrimaryPath) }

// --- Table 2/3: encoding and translation of the Figure 2a repair ---

func BenchmarkTable2RepairEncodingFig2a(b *testing.B) {
	n := topology.Figure2a()
	h := harc.Build(n)
	spec := figure2aPoliciesBench(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, spec, core.DefaultOptions())
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
	}
}

func BenchmarkTable3TranslateFig2a(b *testing.B) {
	sys, err := cpr.Load(config.Figure2aConfigs())
	if err != nil {
		b.Fatal(err)
	}
	spec := figure2aPoliciesBench(sys.Network)
	res, err := core.Repair(sys.HARC, spec, core.DefaultOptions())
	if err != nil || !res.Solved {
		b.Fatal("repair failed")
	}
	orig := harc.StateOf(sys.HARC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs, err := translate.CloneConfigs(sys.Configs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := translate.Translate(sys.HARC, orig, res.State, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func figure2aPoliciesBench(n *topology.Network) []policy.Policy {
	s, tt, u, r := n.Subnet("S"), n.Subnet("T"), n.Subnet("U"), n.Subnet("R")
	return []policy.Policy{
		{Kind: policy.AlwaysBlocked, TC: topology.TrafficClass{Src: s, Dst: u}},
		{Kind: policy.AlwaysWaypoint, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.KReachable, K: 2, TC: topology.TrafficClass{Src: s, Dst: tt}},
		{Kind: policy.PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: r, Dst: tt}},
	}
}

// --- Figures 6-11 ---

func benchFigure(b *testing.B, run func(*eval.Context) (*eval.Report, error)) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := eval.NewContext(benchCfg())
		rep, err := run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Rows) == 0 {
			b.Fatal("no rows produced")
		}
	}
}

func BenchmarkFig6PolicyMix(b *testing.B)      { benchFigure(b, eval.Fig6) }
func BenchmarkFig7RepairTime(b *testing.B)     { benchFigure(b, eval.Fig7) }
func BenchmarkFig8aPolicyClass(b *testing.B)   { benchFigure(b, eval.Fig8a) }
func BenchmarkFig8bPolicyCount(b *testing.B)   { benchFigure(b, eval.Fig8b) }
func BenchmarkFig8cNetworkSize(b *testing.B)   { benchFigure(b, eval.Fig8c) }
func BenchmarkFig9Minimality(b *testing.B)     { benchFigure(b, eval.Fig9) }
func BenchmarkFig11VsHandwritten(b *testing.B) { benchFigure(b, eval.Fig11) }

// --- Ablations over CPR's design choices (DESIGN.md) ---

// benchDCRepair times a repair of one mid-size corpus network.
func benchDCRepair(b *testing.B, opts core.Options) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "bench", Routers: 8, Subnets: 14, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 4, Seed: 77,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, inst.Policies, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v %+v", err, res)
		}
	}
}

// Granularity ablation (the §5.3 scalability claim).
func BenchmarkAblationGranularityPerDst(b *testing.B) {
	benchDCRepair(b, core.DefaultOptions())
}

func BenchmarkAblationGranularityAllTCs(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Granularity = core.AllTCs
	benchDCRepair(b, opts)
}

// MaxSAT algorithm ablation (linear descent vs stratified OLL, the
// default).
func BenchmarkAblationMaxSATLinear(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Algorithm = maxsat.LinearDescent
	benchDCRepair(b, opts)
}

func BenchmarkAblationMaxSATOLL(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Algorithm = maxsat.OLL
	benchDCRepair(b, opts)
}

// benchCoreRepairDC256 times all of core.Repair on the broken dc-256
// preset — state derivation and cloning, per-problem quotient, encode,
// solve, concretize and re-verify, merge — and reports the SAT-solve
// stage alone (summed SolveNs across sub-problems, about 2% of the
// total) as solve-ns/op. The OLL/Linear pair's solve-ns/op is the
// core-guided engine's speedup evidence in BENCH_baseline.json; ns/op
// and B/op track the pipeline around the solver.
func benchCoreRepairDC256(b *testing.B, algo maxsat.Algorithm) {
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	opts := core.DefaultOptions()
	opts.Algorithm = algo
	var solveNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, inst.Policies, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
		for _, st := range res.Stats {
			solveNs += st.SolveNs
		}
	}
	b.ReportMetric(float64(solveNs)/float64(b.N), "solve-ns/op")
}

func BenchmarkCoreRepairDC256OLL(b *testing.B) {
	benchCoreRepairDC256(b, maxsat.OLL)
}

func BenchmarkCoreRepairDC256Linear(b *testing.B) {
	benchCoreRepairDC256(b, maxsat.LinearDescent)
}

// BenchmarkTranslateDC256 times translate.Translate on one dc-256
// repair: turning the repaired state into configuration edits. Only the
// classes the repair wrote differ from the pre-repair state by map
// identity, so the ACL pass visits those and skips the rest.
func BenchmarkTranslateDC256(b *testing.B) {
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	res, err := core.Repair(h, inst.Policies, core.DefaultOptions())
	if err != nil || !res.Solved {
		b.Fatalf("repair failed: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfgs, err := translate.CloneConfigs(inst.Configs)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := translate.Translate(h, res.Orig, res.State, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateCloneDC256 times cloning the dc-256 pre-repair state,
// which every repair does once for its result and once per realized
// sub-problem: the flat and outer maps are copied, the per-class and
// per-destination maps shared.
func BenchmarkStateCloneDC256(b *testing.B) {
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	st := harc.StateOf(inst.Harc())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stateSink = st.Clone()
	}
}

// stateSink keeps the compiler from discarding benchmarked results.
var stateSink *harc.State

// BenchmarkPolicyViolationsDC256 times policy.Violations over all 2256
// policies of the broken dc-256 preset on the HARC's prebuilt tcETGs:
// the sweep System.Verify runs and core.Repair's decomposition runs
// again. It fans out over GOMAXPROCS workers, so run it at -cpu 1 and
// at the machine's default to separate the per-policy cost from the
// parallel speedup.
func BenchmarkPolicyViolationsDC256(b *testing.B) {
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(policy.Violations(h, inst.Policies)) == 0 {
			b.Fatal("broken preset has no violations")
		}
	}
}

// BenchmarkBuildTCETGFromStateDC256 times rebuilding every dc-256
// traffic class's tcETG from the pre-repair state, one after another:
// the per-class graph the repaired-state verifiers and the greedy
// fallback build.
func BenchmarkBuildTCETGFromStateDC256(b *testing.B) {
	inst, err := generate.Preset("dc-256", 7)
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	st := harc.StateOf(h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range h.TCs {
			etgSink = harc.BuildTCETGFromState(h, st, tc)
		}
	}
}

// etgSink keeps the compiler from discarding benchmarked graphs.
var etgSink *arc.ETG

// Parallel per-destination solving (the "10 problems in parallel" claim).
func BenchmarkAblationParallel4(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Parallelism = 4
	benchDCRepair(b, opts)
}

// Objective ablation: minimal devices changed instead of minimal lines
// (§5.2's alternative objective).
func BenchmarkAblationObjectiveDevices(b *testing.B) {
	opts := core.DefaultOptions()
	opts.Objective = core.MinDevices
	benchDCRepair(b, opts)
}

// Greedy graph-algorithm baseline (§5's rejected alternative): repairs
// each violated policy in isolation with min-cut/max-flow, without
// cross-policy reasoning or minimality guarantees.
func BenchmarkAblationGreedyBaseline(b *testing.B) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "bench", Routers: 8, Subnets: 14, BlockedFrac: 0.3,
		FullyBlockedDsts: 1, Violations: 4, Seed: 77,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := greedy.Repair(h, inst.Policies); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Symmetry compression (Bonsai-style quotient repair, DESIGN.md) ---

// benchCompressRepair times an end-to-end repair with compression forced
// on or off; the On/Off pairs below are the compression speedup evidence
// tracked in BENCH_baseline.json.
func benchCompressRepair(b *testing.B, h *harc.HARC, ps []policy.Policy, mode core.CompressMode) {
	opts := core.DefaultOptions()
	opts.Compress = mode
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, ps, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
		if mode == core.CompressOn && res.Compressed == 0 {
			b.Fatalf("compression never engaged (fallbacks=%d)", res.CompressFallbacks)
		}
	}
}

// compressFatTreeInstance is the acceptance scenario: the fattree-k8
// preset (80 routers) with 12 violated policies across 8 destinations.
func compressFatTreeInstance(b *testing.B) (*harc.HARC, []policy.Policy) {
	b.Helper()
	inst, err := generate.Preset("fattree-k8", 11)
	if err != nil {
		b.Fatal(err)
	}
	if err := generate.BreakFatTree(inst, 13, 12); err != nil {
		b.Fatal(err)
	}
	return inst.Harc(), inst.Policies
}

// compressDCInstance is a mid-size leaf-spine network (64 routers, the
// dc-256 preset's shape at benchmarkable scale): symmetric enough to
// compress well, but with repair time dominated by the concrete-side
// HARC work, so the On/Off gap shows the compression floor rather than
// the fat-tree's best case.
func compressDCInstance(b *testing.B) (*harc.HARC, []policy.Policy) {
	b.Helper()
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "dc64", Routers: 64, Subnets: 24,
		BlockedFrac: 0.3, FullyBlockedDsts: 2, Violations: 6, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst.Harc(), inst.Policies
}

func BenchmarkCompressRepairFatTreeOn(b *testing.B) {
	h, ps := compressFatTreeInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOn)
}

func BenchmarkCompressRepairFatTreeOff(b *testing.B) {
	h, ps := compressFatTreeInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOff)
}

func BenchmarkCompressRepairDCOn(b *testing.B) {
	h, ps := compressDCInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOn)
}

func BenchmarkCompressRepairDCOff(b *testing.B) {
	h, ps := compressDCInstance(b)
	benchCompressRepair(b, h, ps, core.CompressOff)
}

// benchCompressVerify isolates the patch-acceptance stage of a
// compressed repair: quotient-side verification plus a concrete
// spot-check (the default) against full concrete re-verification of
// every policy (CompressConcreteVerify). The instance is the
// concrete-side-dominated leaf-spine DC, where acceptance cost is the
// gap between the two.
func benchCompressVerify(b *testing.B, concrete bool) {
	h, ps := compressDCInstance(b)
	opts := core.DefaultOptions()
	opts.Compress = core.CompressOn
	opts.CompressConcreteVerify = concrete
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Repair(h, ps, opts)
		if err != nil || !res.Solved {
			b.Fatalf("repair failed: %v", err)
		}
		if res.Compressed == 0 {
			b.Fatalf("compression never engaged (fallbacks=%d)", res.CompressFallbacks)
		}
	}
}

func BenchmarkCompressVerifyQuotientOn(b *testing.B)  { benchCompressVerify(b, false) }
func BenchmarkCompressVerifyQuotientOff(b *testing.B) { benchCompressVerify(b, true) }

// BenchmarkHarcStateOfDelta measures the incremental pre-repair state
// derivation against the from-scratch build it replaces: one leaf's
// config "changes", and StateOfDelta recomputes only the process
// presences and per-TC graphs that device can influence, cloning the
// rest from the base state.
func BenchmarkHarcStateOfDelta(b *testing.B) {
	h, _ := compressDCInstance(b)
	base := harc.StateOf(h)
	changed := map[string]bool{h.Network.Devices()[0].Name: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := harc.StateOfDelta(h, base, changed); st == nil {
			b.Fatal("delta derivation bailed to a full rebuild")
		}
	}
}

// BenchmarkHarcStateOfFull is the from-scratch baseline for
// BenchmarkHarcStateOfDelta, on the same instance.
func BenchmarkHarcStateOfFull(b *testing.B) {
	h, _ := compressDCInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = harc.StateOf(h)
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkSubstrateSATRandom3SAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rand.New(rand.NewSource(int64(i)))
		s := sat.New()
		const nvars = 120
		for v := 0; v < nvars; v++ {
			s.NewVar()
		}
		for c := 0; c < 4*nvars; c++ {
			s.AddClause(
				sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0),
				sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0),
				sat.MkLit(sat.Var(r.Intn(nvars)), r.Intn(2) == 0),
			)
		}
		s.Solve()
	}
}

func BenchmarkSubstrateETGConstruction(b *testing.B) {
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC3: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n := inst.Network
	tcs := n.TrafficClasses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slots := arc.Slots(n)
		arc.BuildTCETG(slots, tcs[i%len(tcs)])
	}
}

func BenchmarkSubstrateHARCBuild(b *testing.B) {
	inst, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC3: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harc.Build(inst.Network)
	}
}

func BenchmarkSubstrateParseExtract(b *testing.B) {
	texts := config.Figure2aConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cfgs []*config.Config
		for name, text := range texts {
			c, err := config.Parse(name, text)
			if err != nil {
				b.Fatal(err)
			}
			cfgs = append(cfgs, c)
		}
		if _, err := config.Extract(cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateFatTreeGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := generate.FatTree(generate.FatTreeOptions{K: 4, PC1: 2, PC3: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubstrateVerifyAllPolicies(b *testing.B) {
	inst, err := generate.DataCenter(generate.DCOptions{
		Name: "bench", Routers: 8, Subnets: 12, BlockedFrac: 0.3, Violations: 2, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := inst.Harc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Violations(h, inst.Policies)
	}
}

// --- cprd daemon benchmarks ---

// benchPost is the JSON POST helper shared by the server benchmarks.
func benchPost(b *testing.B, url, path string, body, out any) {
	b.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s status = %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		b.Fatal(err)
	}
}

func benchStatsz(b *testing.B, url string) server.Statsz {
	b.Helper()
	var sz server.Statsz
	resp, err := http.Get(url + "/statsz")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sz); err != nil {
		b.Fatal(err)
	}
	return sz
}

// BenchmarkServerRepairWarm measures a repair against an already-loaded
// session: after the single cold load, every iteration goes straight to
// the solver — no config parsing, no HARC build. The session solve cache
// is disabled so every iteration really re-encodes and re-solves (the
// replayed-repair regime is BenchmarkServerRepairChurn's subject).
// Compare with BenchmarkEndToEndPublicAPI, which pays Load on every
// iteration. The final statsz assertion proves the warm path never
// rebuilt.
func BenchmarkServerRepairWarm(b *testing.B) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var lr server.LoadResponse
	benchPost(b, ts.URL, "/v1/load", server.LoadRequest{Configs: config.Figure2aConfigs()}, &lr)
	const spec = "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"
	opts := cpr.OptionFlags{SolveCache: "off"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rr server.RepairResponse
		benchPost(b, ts.URL, "/v1/repair", server.RepairRequest{Session: lr.Session, Policies: spec, Options: opts}, &rr)
		if !rr.Solved {
			b.Fatal("repair unsolved")
		}
		if rr.Reused != 0 {
			b.Fatal("warm bench replayed a sub-problem despite solve_cache=off")
		}
	}
	b.StopTimer()

	if sz := benchStatsz(b, ts.URL); sz.Cache.Builds != 1 {
		b.Fatalf("builds = %d, want 1 (warm repairs must skip parse/build)", sz.Cache.Builds)
	}
}

// BenchmarkServerRepairChurn measures the incremental-repair regime:
// each iteration posts a one-device config delta (toggling an ACL on a
// device no policy traffic class crosses) and repairs the resulting
// session. After the first toggle cycle both content keys are cached
// with warm solve caches, so the steady state is one /v1/delta cache hit
// plus one /v1/repair that replays every sub-problem — no SAT solving.
// The target pinned by BENCH_baseline.json is ≥10× below
// BenchmarkServerRepairWarm's full re-solve.
func BenchmarkServerRepairChurn(b *testing.B) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	configs := config.Figure2aConfigs()
	var lr server.LoadResponse
	benchPost(b, ts.URL, "/v1/load", server.LoadRequest{Configs: configs}, &lr)
	const spec = "always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n"

	// Warm the base session's solve cache once, then alternate between
	// the original device C text and a variant with an extra ACL.
	var rr server.RepairResponse
	benchPost(b, ts.URL, "/v1/repair", server.RepairRequest{Session: lr.Session, Policies: spec}, &rr)
	if !rr.Solved {
		b.Fatal("warmup repair unsolved")
	}
	variants := [2]string{
		configs["C"] + "ip access-list extended CHURN\n deny ip 10.40.0.0 0.0.255.255 10.10.0.0 0.0.255.255\n permit ip any any\n!\n",
		configs["C"],
	}

	// One full toggle cycle before the timer builds both delta sessions
	// and warms their caches, so even a single timed iteration measures
	// the steady state rather than the first-toggle session build.
	session := lr.Session
	churn := func(i int) {
		var dr server.DeltaResponse
		benchPost(b, ts.URL, "/v1/delta", server.DeltaRequest{
			Session: session,
			Configs: map[string]string{"C": variants[i%2]},
		}, &dr)
		session = dr.Session
		var rr server.RepairResponse
		benchPost(b, ts.URL, "/v1/repair", server.RepairRequest{Session: session, Policies: spec}, &rr)
		if !rr.Solved {
			b.Fatal("churn repair unsolved")
		}
		if rr.Reused != len(rr.Problems) {
			b.Fatalf("churn repair reused %d of %d sub-problems, want all (the bench must measure replay, not re-solving)",
				rr.Reused, len(rr.Problems))
		}
	}
	for i := 0; i < 4; i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
	b.StopTimer()

	sz := benchStatsz(b, ts.URL)
	if sz.Cache.Builds != 1 {
		b.Fatalf("builds = %d, want 1", sz.Cache.Builds)
	}
	// Only the first toggle of each variant derives a new session; all
	// later deltas hit the cache by content key.
	if sz.Cache.DeltaBuilds > 2 {
		b.Fatalf("delta builds = %d, want ≤2 (oscillating churn must hit the session cache)", sz.Cache.DeltaBuilds)
	}
}

// Sanity: the bench configuration still produces a verifiable repair.
func BenchmarkEndToEndPublicAPI(b *testing.B) {
	texts := config.Figure2aConfigs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys, err := cpr.Load(texts)
		if err != nil {
			b.Fatal(err)
		}
		spec, err := sys.ParsePolicies(fmt.Sprintf("reachable S T %d\n", 2))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := sys.Repair(spec, cpr.DefaultOptions())
		if err != nil || !rep.Solved() {
			b.Fatal("repair failed")
		}
	}
}
