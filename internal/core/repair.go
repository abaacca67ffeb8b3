package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arc"
	"repro/internal/greedy"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/maxsat"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// Granularity selects the MaxSMT decomposition of §5.3.
type Granularity int

// Decomposition granularities.
const (
	// AllTCs formulates a single MaxSMT problem over every traffic class
	// (maxsmt-all-tcs).
	AllTCs Granularity = iota
	// PerDst formulates one MaxSMT problem per destination with at least
	// one violated policy, solvable in parallel (maxsmt-per-dst). PC4
	// policies are merged into a single problem because link costs cannot
	// be customized per destination.
	PerDst
)

func (g Granularity) String() string {
	if g == PerDst {
		return "maxsmt-per-dst"
	}
	return "maxsmt-all-tcs"
}

// Objective selects the minimality dimension (§5.2).
type Objective int

// Minimality objectives.
const (
	// MinLines minimizes the number of configuration lines changed
	// (Table 2, the paper's primary objective).
	MinLines Objective = iota
	// MinDevices minimizes the number of devices whose configuration
	// changes (the alternative objective sketched in §5.2).
	MinDevices
)

func (o Objective) String() string {
	if o == MinDevices {
		return "min-devices"
	}
	return "min-lines"
}

// IsolationMode selects how per-destination sub-problem failures are
// contained.
type IsolationMode int

// Isolation modes.
const (
	// IsolationOff gives each sub-problem one attempt and no fallback:
	// the first SolveError (an encode error or a recovered solver panic)
	// cancels every sibling, and Repair returns it with no Result.
	IsolationOff IsolationMode = iota
	// IsolationOn gives each per-destination sub-problem its own failure
	// domain (PerDst granularity only): solver panics become typed
	// SolveErrors, each attempt runs under a watchdog deadline derived
	// from the request budget, transient Unknown verdicts retry with an
	// escalating conflict budget, and exhausted sub-problems degrade to
	// the greedy baseline (where the policy classes allow it) or are
	// marked failed — while every other destination still returns a
	// verified repair.
	IsolationOn
)

func (m IsolationMode) String() string {
	if m == IsolationOn {
		return "on"
	}
	return "off"
}

// Outcome classifies one sub-problem's final disposition.
type Outcome int

// Sub-problem outcomes.
const (
	// OutcomeSolved: the MaxSMT solve found an optimal repair.
	OutcomeSolved Outcome = iota
	// OutcomeDegraded: the MaxSMT solve was exhausted, but the greedy
	// baseline produced a repair for this sub-problem's policies that
	// verified after construct realization.
	OutcomeDegraded
	// OutcomeFailed: no usable repair for this sub-problem
	// (unsatisfiable, cancelled, or every attempt and fallback failed).
	OutcomeFailed
)

func (o Outcome) String() string {
	switch o {
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFailed:
		return "failed"
	}
	return "solved"
}

// SolveError is a typed per-sub-problem failure under fault isolation:
// a recovered solver panic, an encoding error, or a transient
// exhaustion, tagged with the sub-problem and attempt it occurred on.
type SolveError struct {
	Label   string // sub-problem label (destination name, "pc4-merged", "all-tcs")
	Phase   string // "encode" or "solve"
	Attempt int    // 1-based attempt number
	Panic   any    // recovered panic value when the failure was a panic
	Err     error  // underlying error otherwise
}

func (e *SolveError) Error() string {
	if e.Panic != nil {
		return fmt.Sprintf("core: problem %s attempt %d: panic during %s: %v", e.Label, e.Attempt, e.Phase, e.Panic)
	}
	return fmt.Sprintf("core: problem %s attempt %d: %s: %v", e.Label, e.Attempt, e.Phase, e.Err)
}

func (e *SolveError) Unwrap() error { return e.Err }

// Options configures the repair engine.
type Options struct {
	Granularity Granularity
	Algorithm   maxsat.Algorithm
	Objective   Objective
	// Parallelism bounds concurrent per-destination solves. Zero (the
	// default) means runtime.GOMAXPROCS(0) — one worker per available
	// core, matching cprd's -workers convention; negative values are
	// treated as 1 (sequential). Results are byte-identical at every
	// setting: sub-problems are scheduled largest-first for wall-clock,
	// but models are extracted and merged in deterministic problem order.
	Parallelism int
	// ConflictBudget bounds each SAT call (0 = unlimited); exceeding it
	// yields an Unknown problem status, CPR's analogue of the paper's
	// 8-hour limit. Under isolation, retries escalate the budget.
	ConflictBudget int64
	// Isolation contains per-destination failures instead of aborting the
	// whole batch; it applies to PerDst granularity only.
	Isolation IsolationMode
	// DisableFallback turns off greedy degradation under isolation:
	// exhausted sub-problems are marked failed instead.
	DisableFallback bool
	// Compress selects Bonsai-style symmetry compression for eligible
	// per-destination sub-problems: repair a quotient of role-equivalent
	// routers, concretize the patch onto every class member, and accept
	// it only after it re-verifies on the uncompressed state (falling
	// back to the uncompressed solve otherwise).
	Compress CompressMode
	// CompressRedundancy overrides the representative members kept per
	// equivalence class (0 = derive from the problem: max(2, largest
	// PC3 K)). Values at or above the largest class size make the
	// quotient lossless.
	CompressRedundancy int
	// CompressConcreteVerify restores the pre-quotient-verify acceptance
	// check for compressed sub-problems: every policy re-verified on the
	// concretized state, instead of the quotient check plus deterministic
	// concrete spot-check (see verifyOnQuotient). It is the differential
	// oracle and A/B benchmark baseline for quotient-side verification.
	CompressConcreteVerify bool
	// Cache, when set, memoizes terminal sub-problem solves across Repair
	// calls keyed by the sub-problem's full encoding fingerprint, and
	// retains the live encoder/solver of each hit source. Hits replay
	// results byte-identical to a fresh solve (see SolveCache). Sessions
	// (cpr.Session, cprd) inject their per-session cache here.
	Cache *SolveCache
	// DisableSolveCache bypasses Cache for this call even when the
	// session carries one (the request-level solve_cache=off escape
	// hatch for A/B measurement).
	DisableSolveCache bool
}

// retryAttempts bounds the solve attempts of one sub-problem under
// isolation; without isolation each sub-problem gets one attempt.
const retryAttempts = 3

// Workers resolves Options.Parallelism to a worker count: zero means
// one worker per available core, negative means sequential. Callers
// running their own verification fan-out use it to match the repair's
// parallelism.
func (o Options) Workers() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Parallelism, 1)
}

// budgetEscalation multiplies the conflict budget on each isolated
// retry, so a sub-problem that merely needed more search gets it before
// the fallback fires.
const budgetEscalation = 4

// DefaultOptions returns the configuration used throughout the paper's
// evaluation reproduction, with per-destination fault isolation on.
func DefaultOptions() Options {
	return Options{
		Granularity: PerDst,
		Algorithm:   maxsat.OLL,
		Parallelism: 0, // all available cores
		Isolation:   IsolationOn,
	}
}

// ProblemStat records one MaxSMT sub-problem's outcome.
type ProblemStat struct {
	Label      string // destination name, "pc4-merged", or "all-tcs"
	TCs        int
	Policies   int
	Vars       int
	Softs      int
	Violations int // violated softs = modeled configuration changes
	Status     sat.Status
	// Outcome is the sub-problem's disposition: solved, degraded (greedy
	// fallback), or failed.
	Outcome Outcome
	// Attempts is the number of solve attempts made (0 when the
	// sub-problem was cancelled before starting).
	Attempts int
	// Fallback names the degradation provenance ("greedy") when Outcome
	// is OutcomeDegraded.
	Fallback string
	// Err describes the terminal solver failure, when there was one. A
	// degraded sub-problem keeps the error that forced the fallback.
	Err string
	// Conflicts is the SAT solver's conflict count for this sub-problem
	// (summed across isolated attempts).
	Conflicts int64
	// Solver holds the full solver counter snapshot for this sub-problem
	// (summed across isolated attempts); Solver.Conflicts == Conflicts.
	Solver   sat.Stats
	Duration time.Duration
	// Compressed marks a sub-problem solved on a symmetry-compressed
	// quotient network whose concretized patch re-verified on the
	// uncompressed state. Vars/Softs then describe the quotient problem.
	Compressed bool
	// DeviceClasses and QuotientDevices describe the quotient when
	// compression was attempted: role-equivalence class count and
	// quotient device count; CompressRatio is concrete devices per
	// quotient device.
	DeviceClasses   int
	QuotientDevices int
	CompressRatio   float64
	// CompressFallback names the stage at which an attempted compression
	// was abandoned for the uncompressed path ("quotient", "remap",
	// "incompressible", "encode", "solve", "trivial", "concretize",
	// "qverify", "spot-check", "verify", or "panic"; empty when
	// compression succeeded or was not attempted).
	CompressFallback string
	// Per-stage wall-clock breakdown in nanoseconds, summed across
	// isolated attempts. EncodeNs and SolveNs cover every solve path;
	// HarcBuildNs (quotient HARC construction), ConcretizeNs (patch
	// fan-out) and ReverifyNs (the quotient-verify/spot-check ladder, or
	// the full concrete re-verification under CompressConcreteVerify) are
	// populated only when compression was attempted.
	HarcBuildNs  int64
	EncodeNs     int64
	SolveNs      int64
	ConcretizeNs int64
	ReverifyNs   int64
	// Reused marks a sub-problem replayed from the session solve cache
	// instead of solved fresh; all other counters (Vars, Conflicts,
	// Solver, ...) are the original solve's, which a fresh solve would
	// reproduce exactly. Duration is the replay's own wall-clock.
	Reused bool
}

// Result is the outcome of a Repair call.
type Result struct {
	// State is the repaired HARC state. Under fault isolation it reflects
	// every solved and degraded sub-problem even when some failed.
	State *harc.State
	// Changes is the total number of violated soft constraints across
	// sub-problems: the modeled count of configuration changes. Degraded
	// sub-problems contribute the greedy baseline's change count.
	Changes int
	// Solved reports that every sub-problem found an optimal repair.
	Solved bool
	// Degraded and Failed count sub-problems by outcome; Solved is false
	// whenever either is nonzero.
	Degraded int
	Failed   int
	// Repaired lists the policies covered by solved or degraded
	// sub-problems: the subset of the specification guaranteed to hold on
	// State. Callers verifying partial results check exactly these.
	Repaired []policy.Policy
	// Conflicts is the total SAT conflict count across sub-problems.
	Conflicts int64
	// Solver aggregates the solver counters (restarts, learned literals,
	// DB reductions, arena GCs, binary propagations, ...) across
	// sub-problems.
	Solver sat.Stats
	Stats  []ProblemStat
	// Compressed counts sub-problems solved via symmetry compression;
	// CompressFallbacks counts attempted compressions that fell back to
	// the uncompressed path.
	Compressed        int
	CompressFallbacks int
	// Reused counts sub-problems replayed from the session solve cache.
	Reused int
	// Duration is the wall-clock time of the Repair call; Sequential sums
	// the individual sub-problem durations (the paper's serial baseline).
	Duration   time.Duration
	Sequential time.Duration
	// Orig is the pre-repair state the repair was computed against,
	// exposed (read-only) so callers translating State into configuration
	// patches need not recompute it.
	Orig *harc.State
	// Touched is the set of traffic-class keys whose state the repair may
	// have altered: solved classes, every class of a solved destination,
	// and all classes when the shared aETG changed. Policies on classes
	// outside Touched were verified satisfied before the repair and their
	// state is bit-identical to Orig's (waypoint additions only ever
	// strengthen PC2), so VerifyRepairIncremental may skip them.
	// CheckTouched verifies the claim.
	Touched map[string]bool
}

// Usable reports that at least one sub-problem produced a verified
// repair (solved or degraded) — the partial-result analogue of Solved.
func (r *Result) Usable() bool { return len(r.Repaired) > 0 }

// CheckTouched verifies Touched against the copy-on-write state: every
// traffic class of h outside Touched must still share its tcETG map,
// and its destination's dETG map, with Orig. A shared map was never
// written, so sharing proves the class state is Orig's. It returns an
// error naming the first class that breaks the claim.
func (r *Result) CheckTouched(h *harc.HARC) error {
	for _, tc := range h.TCs {
		key := tc.Key()
		if r.Touched[key] {
			continue
		}
		if !r.State.SharesTC(r.Orig, key) {
			return fmt.Errorf("core: class %s is outside Touched but its tcETG state was written", key)
		}
		if !r.State.SharesDst(r.Orig, tc.Dst.Name) {
			return fmt.Errorf("core: class %s is outside Touched but dETG(%s) was written", key, tc.Dst.Name)
		}
	}
	return nil
}

// problem is one MaxSMT sub-problem of the decomposition.
type problem struct {
	label    string
	tcs      []topology.TrafficClass
	policies []policy.Policy
	// violated is the subset of policies violated before the repair —
	// the reason the sub-problem exists. The compressed path's concrete
	// spot-check always re-verifies exactly these.
	violated []policy.Policy
	freeze   bool
	enc      *encoder
	// realized is a construct-realized repair state staged for the serial
	// merge instead of a model extraction: the greedy fallback for
	// degraded problems (realizeGreedy) or the concretized quotient
	// repair for compressed ones (concretizePatch).
	realized        *harc.State
	realizedChanges int
	// cached is set when the problem was replayed from the solve cache;
	// the serial merge applies its captured extraction instead of reading
	// a (non-existent) fresh model.
	cached *solveEntry
	stat   ProblemStat
}

// dsts returns the problem's unique destination subnets.
func (pr *problem) dsts() []*topology.Subnet {
	seen := map[string]bool{}
	var out []*topology.Subnet
	for _, tc := range pr.tcs {
		if !seen[tc.Dst.Name] {
			seen[tc.Dst.Name] = true
			out = append(out, tc.Dst)
		}
	}
	return out
}

func uniqueTCs(ps []policy.Policy) []topology.TrafficClass {
	seen := map[string]bool{}
	var out []topology.TrafficClass
	add := func(tc topology.TrafficClass) {
		if tc.Src != nil && tc.Dst != nil && !seen[tc.Key()] {
			seen[tc.Key()] = true
			out = append(out, tc)
		}
	}
	for _, p := range ps {
		add(p.TC)
		if p.Kind == policy.Isolated {
			add(p.TC2)
		}
	}
	return out
}

// Repair computes a minimal repair of the network's HARC so that every
// policy holds. It returns an error for malformed inputs; an
// unsatisfiable specification yields Solved == false with per-problem
// statuses.
func Repair(h *harc.HARC, policies []policy.Policy, opts Options) (*Result, error) {
	return RepairCtx(context.Background(), h, policies, opts)
}

// RepairCtx is Repair under a context. Cancelling ctx interrupts every
// in-flight SAT solve (the CDCL search loop polls an interruption flag).
// Without isolation RepairCtx returns ctx's error, or the first
// sub-problem's SolveError, instead of a partial result; under
// isolation it returns the partial Result — completed destinations keep
// their solved statuses, pending ones are marked failed — alongside
// ctx's error.
func RepairCtx(ctx context.Context, h *harc.HARC, policies []policy.Policy, opts Options) (*Result, error) {
	start := time.Now()
	var orig *harc.State
	if !opts.DisableSolveCache {
		orig = opts.Cache.OrigState(h)
	}
	if orig == nil {
		orig = harc.StateOf(h)
	}
	out := orig.Clone()
	res := &Result{State: out, Solved: true, Orig: orig}

	problems, err := buildProblems(h, policies, opts)
	if err != nil {
		return nil, err
	}
	// The read-only tables are shared by every sub-problem encoder,
	// including across parallel workers.
	tb := newTables(h, problems)

	// Isolation applies to the per-destination decomposition, whose
	// sub-problems are naturally independent; the single all-tcs problem
	// has no siblings to protect.
	isolated := opts.Isolation == IsolationOn && opts.Granularity == PerDst
	err = runProblems(ctx, h, tb, orig, problems, opts, isolated)
	if !isolated {
		// Without isolation a cancelled or failed batch has no result.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil {
			return nil, err
		}
	}

	// Serial merge: extract each usable sub-problem's model (or realized
	// fallback state) into the shared repaired state.
	solvedDsts := map[string]bool{}
	solvedTCs := map[string]bool{}
	for _, pr := range problems {
		res.Sequential += pr.stat.Duration
		res.Conflicts += pr.stat.Conflicts
		res.Solver.Accumulate(pr.stat.Solver)
		if pr.stat.CompressFallback != "" {
			res.CompressFallbacks++
		}
		if pr.stat.Reused {
			res.Reused++
		}
		switch pr.stat.Outcome {
		case OutcomeSolved:
			res.Changes += pr.stat.Violations
			if pr.stat.Compressed {
				res.Compressed++
				mergeRealized(h, orig, out, pr)
			} else if pr.cached != nil {
				applyExtracted(out, pr.cached.extracted)
			} else {
				pr.enc.extract(out)
			}
		case OutcomeDegraded:
			res.Changes += pr.realizedChanges
			res.Degraded++
			res.Solved = false
			mergeRealized(h, orig, out, pr)
		case OutcomeFailed:
			res.Failed++
			res.Solved = false
			res.Stats = append(res.Stats, pr.stat)
			continue
		}
		res.Stats = append(res.Stats, pr.stat)
		for _, d := range pr.dsts() {
			solvedDsts[d.Name] = true
		}
		for _, tc := range pr.tcs {
			solvedTCs[tc.Key()] = true
		}
		res.Repaired = append(res.Repaired, pr.policies...)
	}
	sort.Slice(res.Stats, func(i, j int) bool { return res.Stats[i].Label < res.Stats[j].Label })

	// Policies outside every sub-problem were already satisfied (their
	// destination group had no violations) and per-destination repairs
	// leave their state untouched, so they remain covered by the result.
	if len(res.Repaired) > 0 || len(problems) == 0 {
		inProblem := map[string]bool{}
		for _, pr := range problems {
			for _, p := range pr.policies {
				inProblem[p.String()] = true
			}
		}
		for _, p := range policies {
			if !inProblem[p.String()] {
				res.Repaired = append(res.Repaired, p)
			}
		}
	}

	allChanged := applyFollowRules(h, orig, out, solvedDsts, solvedTCs)
	res.Touched = make(map[string]bool, len(solvedTCs))
	for _, tc := range h.TCs {
		if allChanged || solvedTCs[tc.Key()] || solvedDsts[tc.Dst.Name] {
			res.Touched[tc.Key()] = true
		}
	}
	res.Duration = time.Since(start)
	if isolated {
		if err := ctx.Err(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// buildProblems decomposes the specification per Options.Granularity.
func buildProblems(h *harc.HARC, policies []policy.Policy, opts Options) ([]*problem, error) {
	var problems []*problem
	switch opts.Granularity {
	case AllTCs:
		problems = append(problems, &problem{
			label:    "all-tcs",
			tcs:      uniqueTCs(policies),
			policies: policies,
			freeze:   false,
		})
	case PerDst:
		groups := policy.GroupByDst(policies)
		// One parallel sweep decides every group: grouping the violated
		// policies by destination keeps each group's input order.
		violated := policy.GroupByDst(policy.Violations(h, policies))
		// Destinations coupled by an isolation policy must be solved
		// together; collect the set of coupled destination names.
		coupledDst := map[string]bool{}
		for _, p := range policies {
			if p.Kind == policy.Isolated && p.TC.Dst.Name != p.TC2.Dst.Name {
				coupledDst[p.TC.Dst.Name] = true
				coupledDst[p.TC2.Dst.Name] = true
			}
		}
		var pc4Group, pc4Viol []policy.Policy
		for _, name := range policy.SortedGroupNames(groups) {
			g := groups[name]
			merge := coupledDst[name]
			for _, p := range g {
				if p.Kind == policy.PrimaryPath {
					merge = true
				}
			}
			if merge {
				// Link costs are shared across destinations (PC4), and
				// isolation couples classes across destinations, so such
				// groups are merged into one problem.
				pc4Group = append(pc4Group, g...)
				pc4Viol = append(pc4Viol, violated[name]...)
				continue
			}
			viol := violated[name]
			if len(viol) == 0 {
				continue // no violated policy for this destination
			}
			problems = append(problems, &problem{
				label:    name,
				tcs:      uniqueTCs(g),
				policies: g,
				violated: viol,
				freeze:   true,
			})
		}
		if len(pc4Viol) > 0 {
			problems = append(problems, &problem{
				label:    "pc4-merged",
				tcs:      uniqueTCs(pc4Group),
				policies: pc4Group,
				violated: pc4Viol,
				freeze:   true,
			})
		}
	default:
		return nil, fmt.Errorf("core: unknown granularity %d", opts.Granularity)
	}
	for _, pr := range problems {
		pr.stat.Label = pr.label
		pr.stat.TCs = len(pr.tcs)
		pr.stat.Policies = len(pr.policies)
	}
	return problems, nil
}

// scheduleOrder returns the problems largest-first (stable on the
// original order for ties), so the parallel fan-out never strands the
// biggest sub-problem at the tail of the schedule. Scheduling order is
// invisible in results: RepairCtx merges models in original problem
// order and sorts Stats by label.
func scheduleOrder(problems []*problem) []*problem {
	out := make([]*problem, len(problems))
	copy(out, problems)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].sizeHint() > out[j].sizeHint()
	})
	return out
}

// sizeHint estimates a sub-problem's encoding size for scheduling.
// Traffic classes dominate the variable count; policies break ties.
func (pr *problem) sizeHint() int { return len(pr.tcs)*16 + len(pr.policies) }

// runProblems is the one sub-problem scheduler: a pool of
// min(Workers(), len(problems)) goroutines drains the queue
// largest-first (deterministic dispatch under Parallelism 1). Under
// isolation every problem resolves to solved, degraded, or failed —
// never to an aborted batch — and runProblems returns nil. Without
// isolation each problem gets one attempt and no fallback, and the
// first SolveError cancels every sibling and is returned.
func runProblems(ctx context.Context, h *harc.HARC, tb *tables, orig *harc.State, problems []*problem, opts Options, isolated bool) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		abortOnce sync.Once
		firstErr  error
		pending   atomic.Int64
		wg        sync.WaitGroup
	)
	workers := min(opts.Workers(), len(problems))
	pending.Store(int64(len(problems)))
	queue := make(chan *problem, len(problems))
	for _, pr := range scheduleOrder(problems) {
		queue <- pr
	}
	close(queue)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pr := range queue {
				if err := solveProblem(ctx, h, tb, orig, pr, opts, isolated, workers, &pending); err != nil {
					abortOnce.Do(func() {
						firstErr = err
						cancel()
					})
				}
				pending.Add(-1)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// solveProblem drives one sub-problem to a terminal outcome. Under
// isolation it retries transient failures with an escalating budget,
// each attempt under a watchdog deadline, and degrades an exhausted
// sub-problem to the greedy fallback. Without isolation it makes one
// attempt and returns the SolveError of a failed encode or solve.
func solveProblem(ctx context.Context, h *harc.HARC, tb *tables, orig *harc.State, pr *problem, opts Options, isolated bool, workers int, pending *atomic.Int64) error {
	t0 := time.Now()
	defer func() { pr.stat.Duration = time.Since(t0) }()

	fp, memo := problemMemo(tb, orig, pr, opts)
	if memo {
		if ent := opts.Cache.lookup(fp); ent != nil {
			ent.replay(pr)
			return nil
		}
	}
	if tryCompressed(ctx, h, orig, pr, opts) {
		if memo && cacheableOutcome(pr, ctx.Err()) {
			opts.Cache.store(fp, entryFor(pr))
		}
		return nil
	}
	attempts := 1
	if isolated {
		attempts = retryAttempts
	}
	budget := opts.ConflictBudget
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			pr.stat.Outcome = OutcomeFailed
			pr.stat.Err = "cancelled: " + err.Error()
			return nil
		}
		pr.stat.Attempts = attempt
		wctx, cancel := ctx, context.CancelFunc(func() {})
		if isolated {
			wctx, cancel = watchdogCtx(ctx, workers, pending)
		}
		enc, cost, status, err := solveOnce(wctx, tb, orig, pr, budget, opts, attempt)
		cancel()
		if enc != nil {
			pr.enc = enc
			pr.stat.Vars = enc.s.NumVars()
			pr.stat.Softs = len(enc.softs)
			pr.stat.Conflicts += enc.s.Conflicts
			pr.stat.Solver.Accumulate(enc.s.Snapshot())
		}
		pr.stat.Status = status
		if err == nil {
			switch status {
			case sat.Sat:
				pr.stat.Outcome = OutcomeSolved
				pr.stat.Violations = cost
				if memo && cacheableOutcome(pr, ctx.Err()) {
					opts.Cache.store(fp, entryFor(pr))
				}
				return nil
			case sat.Unsat:
				// Deterministic: no retry, and no fallback either — the
				// greedy baseline cannot satisfy an unsatisfiable group.
				pr.stat.Outcome = OutcomeFailed
				pr.stat.Err = "unsatisfiable"
				if memo && cacheableOutcome(pr, ctx.Err()) {
					opts.Cache.store(fp, entryFor(pr))
				}
				return nil
			}
			// Unknown: watchdog expiry, a spurious interrupt, or budget
			// exhaustion — transient either way; retry with more budget.
			lastErr = &SolveError{Label: pr.label, Phase: "solve", Attempt: attempt,
				Err: fmt.Errorf("solver returned unknown (budget %d)", budget)}
		} else if !isolated {
			pr.stat.Outcome = OutcomeFailed
			pr.stat.Err = err.Error()
			return err
		} else {
			lastErr = err
		}
		if ctx.Err() != nil {
			pr.stat.Outcome = OutcomeFailed
			pr.stat.Err = "cancelled: " + ctx.Err().Error()
			return nil
		}
		if budget > 0 {
			budget *= budgetEscalation
		}
	}
	degrade(h, orig, pr, !isolated || opts.DisableFallback, lastErr)
	return nil
}

// solveOnce builds a fresh encoder and solver and runs one attempt.
// Panics anywhere in encoding or search are recovered into SolveErrors,
// so a pathological destination cannot kill the process or its sibling
// solves.
func solveOnce(ctx context.Context, tb *tables, orig *harc.State, pr *problem, budget int64, opts Options, attempt int) (enc *encoder, cost int, status sat.Status, err error) {
	phase := "encode"
	defer func() {
		if r := recover(); r != nil {
			err = &SolveError{Label: pr.label, Phase: phase, Attempt: attempt, Panic: r}
			status = sat.Unknown
		}
	}()
	o := opts
	o.ConflictBudget = budget
	enc = newEncoder(tb, orig, pr.tcs, pr.policies, pr.freeze, o)
	te := time.Now()
	if eerr := enc.encode(ctx); eerr != nil {
		pr.stat.EncodeNs += time.Since(te).Nanoseconds()
		return enc, 0, sat.Unknown, &SolveError{Label: pr.label, Phase: "encode", Attempt: attempt, Err: eerr}
	}
	pr.stat.EncodeNs += time.Since(te).Nanoseconds()
	phase = "solve"
	ts := time.Now()
	cost, status = enc.solve(ctx)
	pr.stat.SolveNs += time.Since(ts).Nanoseconds()
	return enc, cost, status, nil
}

// watchdogCtx derives one attempt's deadline: a fair share of the
// request's remaining budget (remaining time divided by the number of
// solve waves left). Without a deadline the parent context is used
// as-is, so the common no-deadline path allocates nothing.
func watchdogCtx(ctx context.Context, workers int, pending *atomic.Int64) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return ctx, func() {}
	}
	p := pending.Load()
	if p < 1 {
		p = 1
	}
	waves := (p + int64(workers) - 1) / int64(workers)
	return context.WithTimeout(ctx, remaining/time.Duration(waves))
}

// degrade resolves an exhausted sub-problem: greedy fallback when it is
// allowed, the policy classes support it and the realized repair
// verifies, failed otherwise.
func degrade(h *harc.HARC, orig *harc.State, pr *problem, noFallback bool, lastErr error) {
	pr.stat.Outcome = OutcomeFailed
	if lastErr != nil {
		pr.stat.Err = lastErr.Error()
	}
	if noFallback || !greedyEligible(pr.policies) {
		return
	}
	gres, err := greedy.Repair(h, pr.policies)
	if err != nil || !gres.Clean {
		return
	}
	realized, changes, ok := realizeGreedy(h, orig, pr, gres)
	if !ok {
		return
	}
	pr.realized = realized
	pr.realizedChanges = changes
	pr.stat.Outcome = OutcomeDegraded
	pr.stat.Fallback = "greedy"
}

// greedyEligible reports whether every policy in the group belongs to a
// class the greedy baseline can repair (PC1-PC3; PC4 and isolation are
// out of its scope).
func greedyEligible(ps []policy.Policy) bool {
	for _, p := range ps {
		switch p.Kind {
		case policy.AlwaysBlocked, policy.AlwaysWaypoint, policy.KReachable:
		default:
			return false
		}
	}
	return true
}

// realizeGreedy translates a clean greedy repair into per-destination
// constructs (static routes for added inter-device dETG edges, route-
// filter removals for intra and dest edges) and recomputes the presence
// those constructs imply on a private trial state. Construct edits can
// open edges the greedy state never asked for — clearing one route
// filter unblocks every edge it gated — so the fallback is accepted only
// if the realized state still satisfies the sub-problem's policies.
func realizeGreedy(h *harc.HARC, orig *harc.State, pr *problem, gres *greedy.Result) (*harc.State, int, bool) {
	gst := gres.State
	trial := orig.Clone()
	dsts := pr.dsts()
	for _, dst := range dsts {
		gdm, odm := gst.Dst[dst.Name], orig.Dst[dst.Name]
		for _, s := range h.Slots {
			if !applicableDst(s, dst) {
				continue
			}
			key := s.Key()
			if gdm[key] == odm[key] || !gdm[key] {
				continue // greedy repairs only add dETG edges
			}
			switch s.Kind {
			case arc.SlotInterDevice:
				trial.Static[harc.StaticKey(dst.Name, key)] = true
			case arc.SlotIntraSelf, arc.SlotDest:
				trial.RouteFilter[harc.RFKey(dst.Name, s.FromProc.Name())] = false
			case arc.SlotIntraRedist:
				// Per-dst repairs freeze the aETG: an absent
				// redistribution adjacency cannot be recreated by any
				// per-destination construct.
				if !orig.All[key] {
					return nil, 0, false
				}
				trial.RouteFilter[harc.RFKey(dst.Name, s.FromProc.Name())] = false
				trial.RouteFilter[harc.RFKey(dst.Name, s.ToProc.Name())] = false
			}
		}
	}
	for link, v := range gst.Waypoint {
		if v {
			trial.Waypoint[link] = true
		}
	}
	for _, dst := range dsts {
		realizeDstPresence(h, orig, trial, dst)
	}
	for _, tc := range pr.tcs {
		realizeTCPresence(h, orig, trial, gst, tc)
	}
	for _, p := range pr.policies {
		if !policy.CheckState(h, trial, p) {
			return nil, 0, false
		}
	}
	return trial, gres.Changes, true
}

// impliedDst evaluates a destination-level edge's presence from the
// construct maps in st (mirroring the encoder's hierarchy constraints).
func impliedDst(st *harc.State, dst string, s *arc.Slot, staticProcs map[string]bool) bool {
	rf := func(proc string) bool { return st.RouteFilter[harc.RFKey(dst, proc)] }
	switch s.Kind {
	case arc.SlotIntraSelf:
		return !rf(s.FromProc.Name()) || staticProcs[s.FromProc.Name()]
	case arc.SlotIntraRedist:
		return (st.All[s.Key()] && !rf(s.FromProc.Name()) && !rf(s.ToProc.Name())) ||
			staticProcs[s.FromProc.Name()]
	case arc.SlotInterDevice:
		return (st.All[s.Key()] && !rf(s.ToProc.Name())) || st.Static[harc.StaticKey(dst, s.Key())]
	case arc.SlotDest:
		return !rf(s.FromProc.Name())
	}
	return false
}

// realizeDstPresence updates trial's dETG presence for dst wherever the
// construct edits changed an edge's implied value. Only slots whose
// implication flipped relative to the original constructs are touched,
// so untouched edges keep their observed (config-derived) presence.
func realizeDstPresence(h *harc.HARC, orig, trial *harc.State, dst *topology.Subnet) {
	origStatics := staticProcsOf(h, orig, dst.Name)
	trialStatics := staticProcsOf(h, trial, dst.Name)
	for _, s := range h.Slots {
		if !applicableDst(s, dst) {
			continue
		}
		oldv := impliedDst(orig, dst.Name, s, origStatics)
		newv := impliedDst(trial, dst.Name, s, trialStatics)
		if oldv != newv {
			trial.SetDst(dst.Name, s.Key(), newv)
		}
	}
}

// staticProcsOf collects the processes that own a static route for dst.
func staticProcsOf(h *harc.HARC, st *harc.State, dst string) map[string]bool {
	out := map[string]bool{}
	for _, s := range h.Slots {
		if s.Kind == arc.SlotInterDevice && st.Static[harc.StaticKey(dst, s.Key())] {
			out[s.FromProc.Name()] = true
		}
	}
	return out
}

// realizeTCPresence aligns trial's tc-level presence with the realized
// dETG: intra edges follow the parent exactly (no ACL can act inside a
// device), ACL-capable edges keep the greedy deviation where it deviated
// and follow the parent where it was aligned.
func realizeTCPresence(h *harc.HARC, orig, trial, gst *harc.State, tc topology.TrafficClass) {
	tck := tc.Key()
	gm := gst.TC[tck]
	gdm := gst.Dst[tc.Dst.Name]
	dm := trial.Dst[tc.Dst.Name]
	for _, s := range h.Slots {
		if !applicableTC(s, tc) {
			continue
		}
		key := s.Key()
		switch s.Kind {
		case arc.SlotSource:
			// No dETG parent; a source edge still needs the gateway to
			// have a route (no route filter on the receiving process).
			v := gm[key]
			if trial.RouteFilter[harc.RFKey(tc.Dst.Name, s.ToProc.Name())] {
				v = false
			}
			trial.SetTC(tck, key, v)
		case arc.SlotIntraSelf, arc.SlotIntraRedist:
			trial.SetTC(tck, key, dm[key])
		default:
			if gm[key] == gdm[key] {
				trial.SetTC(tck, key, dm[key]) // aligned child follows the realized parent
			} else {
				trial.SetTC(tck, key, gm[key] && dm[key]) // deviation (ACL) is preserved
			}
		}
	}
}

// mergeRealized copies a degraded or compressed problem's realized
// state into the shared repaired state: its destinations' dETG maps, its
// traffic classes' maps, the per-destination construct entries (all
// keyed by destination name), and any added waypoints.
//
// The realized state was cloned from orig, so each of its inner maps
// holds every key of orig's and overrides some values. Where out has not
// written a class or destination yet (it still shares orig's map), the
// merged map is therefore exactly the realized one, and out adopts it
// instead of copying it; realized states are immutable once staged.
func mergeRealized(h *harc.HARC, orig, out *harc.State, pr *problem) {
	trial := pr.realized
	for _, dst := range pr.dsts() {
		if out.SharesDst(orig, dst.Name) {
			out.AdoptDst(dst.Name, trial.Dst[dst.Name])
		} else {
			for key, v := range trial.Dst[dst.Name] {
				out.SetDst(dst.Name, key, v)
			}
		}
		prefix := dst.Name + "|"
		for key, v := range trial.RouteFilter {
			if len(key) > len(prefix) && key[:len(prefix)] == prefix && v != orig.RouteFilter[key] {
				out.RouteFilter[key] = v
			}
		}
		for key, v := range trial.Static {
			if len(key) > len(prefix) && key[:len(prefix)] == prefix && v != orig.Static[key] {
				out.Static[key] = v
			}
		}
	}
	for _, tc := range pr.tcs {
		tck := tc.Key()
		if out.SharesTC(orig, tck) {
			out.AdoptTC(tck, trial.TC[tck])
			continue
		}
		for key, v := range trial.TC[tck] {
			out.SetTC(tck, key, v)
		}
	}
	for link, v := range trial.Waypoint {
		if v {
			out.Waypoint[link] = true
		}
	}
}

// applyFollowRules propagates repaired parent levels to unsolved child
// levels: a child that was aligned with its parent stays aligned (zero
// configuration changes), while an existing deviation (ACL, route
// filter, static route) is preserved. This realizes the paper's
// observation that destination-based routing makes parent changes apply
// to all children by default. It reports whether the shared aETG
// changed (the condition under which unsolved destinations were
// rewritten), so the caller can bound the repair's blast radius.
func applyFollowRules(h *harc.HARC, orig, out *harc.State, solvedDsts, solvedTCs map[string]bool) bool {
	// Per-destination repairs freeze the aETG, so the parent level is
	// usually untouched; skipping the propagation scans then keeps this
	// pass O(solved destinations) instead of O(all traffic classes).
	allChanged := false
	for k, v := range out.All {
		if orig.All[k] != v {
			allChanged = true
			break
		}
	}
	for _, dst := range h.Dsts {
		if solvedDsts[dst.Name] || !allChanged {
			continue
		}
		origDm := orig.Dst[dst.Name]
		for _, s := range h.Slots {
			if !applicableDst(s, dst) || s.Kind == arc.SlotDest {
				continue
			}
			key := s.Key()
			if origDm[key] == orig.All[key] {
				out.SetDst(dst.Name, key, out.All[key])
			}
		}
	}
	for _, tc := range h.TCs {
		if solvedTCs[tc.Key()] {
			continue
		}
		if !allChanged && !solvedDsts[tc.Dst.Name] {
			continue // parent levels untouched; the child is already aligned
		}
		tck := tc.Key()
		origM := orig.TC[tck]
		dm := out.Dst[tc.Dst.Name]
		origDm := orig.Dst[tc.Dst.Name]
		for _, s := range h.Slots {
			if !applicableTC(s, tc) || s.Kind == arc.SlotSource {
				continue
			}
			key := s.Key()
			if origM[key] == origDm[key] {
				out.SetTC(tck, key, dm[key])
			}
		}
	}
	return allChanged
}

// VerifyRepair checks that every policy holds on the repaired state.
func VerifyRepair(h *harc.HARC, st *harc.State, policies []policy.Policy) []policy.Policy {
	return VerifyRepairIncremental(h, st, policies, nil, 1)
}

// VerifyRepairIncremental is VerifyRepair restricted to the policies a
// repair could have affected: those whose traffic class (either class,
// for isolation policies) is in touched. A nil touched set checks every
// policy. Policies outside the set were verified satisfied before the
// repair and their class state is untouched (see Result.Touched), so
// skipping them loses nothing. Checks fan out over workers goroutines
// (policy.StateViolations) and the returned violations are in input
// order regardless of parallelism.
func VerifyRepairIncremental(h *harc.HARC, st *harc.State, policies []policy.Policy, touched map[string]bool, workers int) []policy.Policy {
	need := policies
	if touched != nil {
		need = make([]policy.Policy, 0, len(policies))
		for _, p := range policies {
			if touched[p.TC.Key()] || (p.Kind == policy.Isolated && touched[p.TC2.Key()]) {
				need = append(need, p)
			}
		}
	}
	return policy.StateViolations(h, st, need, workers)
}
