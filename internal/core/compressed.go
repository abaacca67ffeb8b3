package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"repro/internal/arc"
	"repro/internal/compress"
	"repro/internal/faultinject"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/smt/sat"
	"repro/internal/topology"
)

// CompressMode selects the Bonsai-style symmetry-compression front end
// (internal/compress): repair eligible per-destination sub-problems on
// a quotient network of role-equivalence classes, then concretize the
// abstract patch onto every class member and re-verify it on the
// uncompressed state.
type CompressMode int

// Compression modes.
const (
	// CompressAuto (the default) compresses eligible sub-problems when
	// the network is large enough to plausibly pay for the quotient
	// construction (compressAutoMinDevices).
	CompressAuto CompressMode = iota
	// CompressOn compresses every eligible sub-problem regardless of
	// network size.
	CompressOn
	// CompressOff disables compression.
	CompressOff
)

func (m CompressMode) String() string {
	switch m {
	case CompressOn:
		return "on"
	case CompressOff:
		return "off"
	}
	return "auto"
}

// compressAutoMinDevices is the network size at which CompressAuto
// engages: below it the quotient bookkeeping costs more than the
// uncompressed solve (the paper's own scenarios top out at 24 routers).
const compressAutoMinDevices = 24

// compressEligible reports whether a sub-problem may be solved on a
// quotient. PC4 and isolation policies are excluded: link costs are
// global and isolation couples destinations, so neither survives
// per-class collapsing.
func compressEligible(h *harc.HARC, pr *problem, opts Options) bool {
	if !pr.freeze {
		return false
	}
	switch opts.Compress {
	case CompressOff:
		return false
	case CompressAuto:
		if h.Network.NumDevices() < compressAutoMinDevices {
			return false
		}
	}
	for _, p := range pr.policies {
		switch p.Kind {
		case policy.PrimaryPath, policy.Isolated:
			return false
		}
	}
	return true
}

// compressRedundancy derives the representatives kept per class: at
// least the largest PC3 K of the problem (collapsing below K destroys
// the K-link-disjoint structure the policy needs), with a floor of 2 so
// class-internal path diversity survives.
func compressRedundancy(pr *problem, opts Options) int {
	if opts.CompressRedundancy > 0 {
		return opts.CompressRedundancy
	}
	r := 2
	for _, p := range pr.policies {
		if p.Kind == policy.KReachable && p.K > r {
			r = p.K
		}
	}
	return r
}

// tryCompressed attempts the compressed solve for one sub-problem:
// build the quotient, repair it with the unchanged encoder, concretize
// the patch onto every class member, and accept only if the realized
// state satisfies the sub-problem's policies on the uncompressed HARC.
// On success the problem is marked solved with the realized state
// staged for the serial merge; on any failure it records the fallback
// stage in the stats and returns false so the caller proceeds with the
// normal uncompressed path.
func tryCompressed(ctx context.Context, h *harc.HARC, orig *harc.State, pr *problem, opts Options) (ok bool) {
	if !compressEligible(h, pr, opts) {
		return false
	}
	defer func() {
		if r := recover(); r != nil {
			pr.stat.CompressFallback = "panic"
			ok = false
		}
	}()
	q, err := compress.Build(h.Network, compress.Spec{
		TCs:        pr.tcs,
		Redundancy: compressRedundancy(pr, opts),
	})
	if err != nil {
		pr.stat.CompressFallback = "quotient"
		return false
	}
	pr.stat.DeviceClasses = len(q.Classes)
	pr.stat.QuotientDevices = q.Net.NumDevices()
	pr.stat.CompressRatio = q.Ratio()
	// A quotient no smaller than the network cannot pay for itself.
	if opts.Compress != CompressOn && 4*q.Net.NumDevices() > 3*h.Network.NumDevices() {
		pr.stat.CompressFallback = "incompressible"
		return false
	}

	qtcs, qpolicies, rerr := remapToQuotient(q.Net, pr)
	if rerr != nil {
		pr.stat.CompressFallback = "remap"
		return false
	}
	t0 := time.Now()
	qh := harc.BuildForTCs(q.Net, qtcs)
	qorig := harc.StateOf(qh)
	pr.stat.HarcBuildNs += time.Since(t0).Nanoseconds()
	qpr := &problem{label: pr.label, tcs: qtcs, policies: qpolicies, freeze: true}
	qtb := newTables(qh, []*problem{qpr})
	enc := newEncoder(qtb, qorig, qtcs, qpolicies, true, opts)
	t0 = time.Now()
	if err := enc.encode(ctx); err != nil {
		pr.stat.EncodeNs += time.Since(t0).Nanoseconds()
		pr.stat.CompressFallback = "encode"
		return false
	}
	pr.stat.EncodeNs += time.Since(t0).Nanoseconds()
	t0 = time.Now()
	cost, status := enc.solve(ctx)
	pr.stat.SolveNs += time.Since(t0).Nanoseconds()
	pr.stat.Vars = enc.s.NumVars()
	pr.stat.Softs = len(enc.softs)
	pr.stat.Conflicts += enc.s.Conflicts
	pr.stat.Solver.Accumulate(enc.s.Snapshot())
	if status != sat.Sat {
		pr.stat.CompressFallback = "solve"
		return false
	}
	if cost == 0 {
		// The concrete problem has violations the quotient cannot see
		// (symmetry hid the offending path); compression is unsound here.
		pr.stat.CompressFallback = "trivial"
		return false
	}
	qrep := qorig.Clone()
	enc.extract(qrep)

	t0 = time.Now()
	trial, changes, touched, cok := concretizePatch(h, orig, pr, q, qh, qorig, qrep, opts)
	pr.stat.ConcretizeNs += time.Since(t0).Nanoseconds()
	if !cok {
		pr.stat.CompressFallback = "concretize"
		return false
	}
	// The safety net: verify the patch on the quotient plus a
	// deterministic concrete spot-check sample (or, under
	// CompressConcreteVerify, on every policy concretely). Any over-merge
	// the refiner committed surfaces here and sends the destination down
	// the uncompressed path with the failing stage recorded.
	t0 = time.Now()
	vok := verifyOnQuotient(h, qh, qrep, trial, pr, qpolicies, q, touched, opts)
	pr.stat.ReverifyNs += time.Since(t0).Nanoseconds()
	if !vok {
		return false
	}
	pr.realized = trial
	pr.realizedChanges = changes
	pr.stat.Violations = changes
	pr.stat.Status = sat.Sat
	pr.stat.Outcome = OutcomeSolved
	pr.stat.Compressed = true
	if pr.stat.Attempts == 0 {
		pr.stat.Attempts = 1
	}
	return true
}

// verifyOnQuotient decides whether a concretized patch is accepted. The
// pre-quotient-verify behavior (every policy re-checked concretely on
// trial) is kept behind Options.CompressConcreteVerify as the oracle and
// benchmark baseline. The default ladder has two rungs, each naming its
// own fallback stage:
//
//  1. "qverify" — every remapped policy is verified on the quotient HARC
//     against the extracted quotient state. The solver's hard constraints
//     make this pass by construction, so a failure means the extraction
//     or remap is broken; the same stage also absorbs an injected
//     core/qverify-error fault, degrading to the uncompressed solve.
//  2. "spot-check" — a deterministic concrete sample: every policy the
//     sub-problem was created to fix (violated pre-repair), plus one
//     seeded policy per equivalence class the patch touched. Checking a
//     policy on the concrete trial state exercises every member of the
//     touched classes (policy endpoints stay concrete; class members are
//     interior, so any class-crossing path traverses non-representative
//     members), which is where count-based concretization can go wrong.
//
// Either failure returns false with ProblemStat.CompressFallback set, so
// the caller re-solves uncompressed — the same full concrete guarantee
// as before, reached only when the cheap checks disagree. Fallback
// stages are never cached (cacheableOutcome requires an empty stage).
func verifyOnQuotient(h, qh *harc.HARC, qrep, trial *harc.State, pr *problem, qpolicies []policy.Policy, q *compress.Quotient, touched map[string]bool, opts Options) bool {
	if opts.CompressConcreteVerify {
		checker := policy.NewStateChecker(h, trial)
		for _, p := range pr.policies {
			if !checker.Check(p) {
				pr.stat.CompressFallback = "verify"
				return false
			}
		}
		return true
	}
	if faultinject.Eval(faultinject.CoreQVerifyError) != nil {
		pr.stat.CompressFallback = "qverify"
		return false
	}
	qchecker := policy.NewStateChecker(qh, qrep)
	for _, qp := range qpolicies {
		if !qchecker.Check(qp) {
			pr.stat.CompressFallback = "qverify"
			return false
		}
	}
	if faultinject.Eval(faultinject.CoreSpotCheckError) != nil {
		pr.stat.CompressFallback = "spot-check"
		return false
	}
	checker := policy.NewStateChecker(h, trial)
	for _, p := range spotCheckSample(pr, q, touched) {
		if !checker.Check(p) {
			pr.stat.CompressFallback = "spot-check"
			return false
		}
	}
	return true
}

// spotCheckSample selects the concrete policies to verify after a
// quotient-verified patch: every policy violated before the repair (the
// ones the patch must fix), plus one policy per lossy equivalence class
// holding a device the patch touched, chosen by a seed derived from the
// sub-problem label so the sample is identical at every parallelism
// setting and across runs. Classes the patch left alone cannot have
// changed state; lossless classes (every member kept) concretize
// per-slot byte-exactly and need no sampling.
func spotCheckSample(pr *problem, q *compress.Quotient, touched map[string]bool) []policy.Policy {
	if len(pr.policies) == 0 {
		return nil
	}
	picked := make(map[int]bool, len(pr.violated)+4)
	var sample []policy.Policy
	byString := make(map[string]int, len(pr.policies))
	for i, p := range pr.policies {
		byString[p.String()] = i
	}
	for _, p := range pr.violated {
		if i, ok := byString[p.String()]; ok && !picked[i] {
			picked[i] = true
			sample = append(sample, pr.policies[i])
		}
	}
	seed := fnv.New64a()
	seed.Write([]byte(pr.label))
	base := seed.Sum64()
	for ci, c := range q.Classes {
		if len(c.Members) <= len(c.Kept) {
			continue
		}
		hit := false
		for _, m := range c.Members {
			if touched[m] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		idx := int((base ^ (uint64(ci)*0x9e3779b97f4a7c15 + 1)) % uint64(len(pr.policies)))
		for tries := 0; tries < len(pr.policies); tries++ {
			if !picked[idx] {
				picked[idx] = true
				sample = append(sample, pr.policies[idx])
				break
			}
			idx = (idx + 1) % len(pr.policies)
		}
	}
	return sample
}

// remapToQuotient rebinds the sub-problem's traffic classes and
// policies onto the quotient network's subnets.
func remapToQuotient(qn *topology.Network, pr *problem) ([]topology.TrafficClass, []policy.Policy, error) {
	remap := func(tc topology.TrafficClass) (topology.TrafficClass, error) {
		src, dst := qn.Subnet(tc.Src.Name), qn.Subnet(tc.Dst.Name)
		if src == nil || dst == nil {
			return topology.TrafficClass{}, fmt.Errorf("core: subnet missing from quotient")
		}
		return topology.TrafficClass{Src: src, Dst: dst}, nil
	}
	qtcs := make([]topology.TrafficClass, 0, len(pr.tcs))
	for _, tc := range pr.tcs {
		qtc, err := remap(tc)
		if err != nil {
			return nil, nil, err
		}
		qtcs = append(qtcs, qtc)
	}
	qpolicies := make([]policy.Policy, 0, len(pr.policies))
	for _, p := range pr.policies {
		qp := p
		qtc, err := remap(p.TC)
		if err != nil {
			return nil, nil, err
		}
		qp.TC = qtc
		qpolicies = append(qpolicies, qp)
	}
	return qtcs, qpolicies, nil
}

// procSuffix is a device-independent process identifier ("ospf1").
func procSuffix(p *topology.Process) string {
	return p.Proto.String() + strconv.Itoa(p.ID)
}

// interGroups indexes inter-device slots by originating device and
// symmetry group — (from class, to class, from proc, to proc) — the
// granularity at which quotient repairs transfer to class members.
type interGroups struct {
	byDev    map[string]map[string][]*arc.Slot // device → group key → slots (slot order)
	devOrder map[string][]string               // device → group keys in first-seen order
}

func groupInterSlots(h *harc.HARC, classOf map[string]int) *interGroups {
	g := &interGroups{
		byDev:    make(map[string]map[string][]*arc.Slot),
		devOrder: make(map[string][]string),
	}
	for _, s := range h.Slots {
		if s.Kind != arc.SlotInterDevice {
			continue
		}
		from, to := s.FromProc.Device.Name, s.ToProc.Device.Name
		gk := fmt.Sprintf("%d>%d %s>%s", classOf[from], classOf[to], procSuffix(s.FromProc), procSuffix(s.ToProc))
		m := g.byDev[from]
		if m == nil {
			m = make(map[string][]*arc.Slot)
			g.byDev[from] = m
		}
		if _, seen := m[gk]; !seen {
			g.devOrder[from] = append(g.devOrder[from], gk)
		}
		m[gk] = append(m[gk], s)
	}
	return g
}

// concretizePatch fans the quotient repair out onto the concrete
// network and recomputes the presence the edited constructs imply,
// exactly as the greedy fallback's realization does. Per-slot construct
// edits transfer by direct key where the concrete slot survives in the
// quotient verbatim (always the case on a lossless quotient, making the
// concretized cost byte-exact) and by per-group counts otherwise: if
// the solver added one static route from a representative toward a
// class, each member assigned to that representative adds one. Returns
// the trial state, the concrete modeled-change count, the set of
// concrete devices whose constructs the patch edited (driving the
// spot-check sample and the incremental re-check), and whether every
// quotient edit found a concrete home.
func concretizePatch(h *harc.HARC, orig *harc.State, pr *problem, q *compress.Quotient, qh *harc.HARC, qorig, qrep *harc.State, opts Options) (*harc.State, int, map[string]bool, bool) {
	// Per-destination repairs with no PC4 never touch link costs.
	for ck, v := range qrep.Cost {
		if v != qorig.Cost[ck] {
			return nil, 0, nil, false
		}
	}
	trial := orig.Clone()
	changes := 0
	touched := map[string]bool{}
	dsts := pr.dsts()

	// Waypoint additions fan out class-pair-wide: the quotient link's
	// endpoint classes identify every concrete link the middlebox must
	// cover for the PC2 argument to transfer.
	type cpair struct{ a, b int }
	wanted := map[cpair]bool{}
	for _, l := range qh.Network.Links {
		name := l.Name()
		if qrep.Waypoint[name] && !qorig.Waypoint[name] {
			a, b := q.ClassOf[l.A.Device.Name], q.ClassOf[l.B.Device.Name]
			if a > b {
				a, b = b, a
			}
			wanted[cpair{a, b}] = true
		}
	}
	if len(wanted) > 0 {
		for _, l := range h.Network.Links {
			a, b := q.ClassOf[l.A.Device.Name], q.ClassOf[l.B.Device.Name]
			if a > b {
				a, b = b, a
			}
			if wanted[cpair{a, b}] && !trial.Waypoint[l.Name()] {
				trial.Waypoint[l.Name()] = true
				changes++
				touched[l.A.Device.Name] = true
				touched[l.B.Device.Name] = true
			}
		}
	}

	// Route filters are per (destination, process): a flip on a
	// representative applies to every member assigned to it.
	for _, dst := range dsts {
		for _, d := range h.Network.Devices() {
			rep := q.Rep[d.Name]
			if rep == "" {
				return nil, 0, nil, false
			}
			for _, p := range d.Processes {
				qkey := harc.RFKey(dst.Name, rep+":"+procSuffix(p))
				v, ok := qrep.RouteFilter[qkey]
				if !ok || v == qorig.RouteFilter[qkey] {
					continue
				}
				key := harc.RFKey(dst.Name, p.Name())
				if trial.RouteFilter[key] != v {
					trial.RouteFilter[key] = v
					changes++
					touched[d.Name] = true
				}
			}
		}
	}

	qGroups := groupInterSlots(qh, q.ClassOf)
	cGroups := groupInterSlots(h, q.ClassOf)

	// Static routes: per destination, transfer per-slot where the key
	// survives, then settle per-group count deltas on the remaining
	// member slots.
	for _, dst := range dsts {
		for _, d := range h.Network.Devices() {
			rep := q.Rep[d.Name]
			for _, gk := range cGroups.devOrder[d.Name] {
				qslots := qGroups.byDev[rep][gk]
				type flip struct{ on, off bool }
				direct := make(map[string]flip, len(qslots))
				addN, delN := 0, 0
				for _, qs := range qslots {
					qk := harc.StaticKey(dst.Name, qs.Key())
					was, now := qorig.Static[qk], qrep.Static[qk]
					direct[qs.Key()] = flip{on: now && !was, off: was && !now}
					if now && !was {
						addN++
					}
					if was && !now {
						delN++
					}
				}
				if addN == 0 && delN == 0 {
					continue
				}
				var unmatched []*arc.Slot
				for _, s := range cGroups.byDev[d.Name][gk] {
					f, ok := direct[s.Key()]
					if !ok {
						unmatched = append(unmatched, s)
						continue
					}
					key := harc.StaticKey(dst.Name, s.Key())
					if f.on && !trial.Static[key] {
						trial.Static[key] = true
						changes++
						touched[d.Name] = true
						addN--
					}
					if f.off && trial.Static[key] {
						trial.Static[key] = false
						changes++
						touched[d.Name] = true
						delN--
					}
				}
				for _, s := range unmatched {
					key := harc.StaticKey(dst.Name, s.Key())
					if addN > 0 && !trial.Static[key] {
						trial.Static[key] = true
						changes++
						touched[d.Name] = true
						addN--
					} else if delN > 0 && trial.Static[key] {
						trial.Static[key] = false
						changes++
						touched[d.Name] = true
						delN--
					}
				}
				if addN > 0 || delN > 0 {
					return nil, 0, nil, false // quotient edit with no concrete home
				}
			}
		}
	}

	for _, dst := range dsts {
		realizeDstPresence(h, orig, trial, dst)
	}

	// tcETG level: source and dest attachment slots live on concrete
	// (policy endpoint) devices and transfer by identical key; inter
	// slots transfer their ACL-deviation deltas per slot or per group
	// like statics do.
	for _, tc := range pr.tcs {
		tck := tc.Key()
		origM := orig.TC[tck]
		dm, origDm := trial.Dst[tc.Dst.Name], orig.Dst[tc.Dst.Name]
		qm, qom := qrep.TC[tck], qorig.TC[tck]
		qdm, qodm := qrep.Dst[tc.Dst.Name], qorig.Dst[tc.Dst.Name]

		// Plan inter-slot deviation flips for this class.
		plan := map[string]bool{} // slot key → desired deviation
		for _, d := range h.Network.Devices() {
			rep := q.Rep[d.Name]
			for _, gk := range cGroups.devOrder[d.Name] {
				qslots := qGroups.byDev[rep][gk]
				type dflip struct {
					matched  bool
					was, now bool
				}
				direct := make(map[string]dflip, len(qslots))
				addN, delN := 0, 0
				for _, qs := range qslots {
					qk := qs.Key()
					was := qodm[qk] && !qom[qk]
					now := qdm[qk] && !qm[qk]
					direct[qk] = dflip{matched: true, was: was, now: now}
					if now && !was {
						addN++
					}
					if was && !now {
						delN++
					}
				}
				if addN == 0 && delN == 0 {
					continue
				}
				var unmatched []*arc.Slot
				for _, s := range cGroups.byDev[d.Name][gk] {
					key := s.Key()
					f, ok := direct[key]
					was := origDm[key] && !origM[key]
					if !ok {
						unmatched = append(unmatched, s)
						continue
					}
					if f.now != was {
						plan[key] = f.now
						changes++
						touched[d.Name] = true
						if f.now && !f.was {
							addN--
						}
						if f.was && !f.now {
							delN--
						}
					} else if f.now != f.was {
						// The quotient flipped a slot whose concrete twin
						// already had the target deviation; consume the
						// count without a concrete change.
						if f.now {
							addN--
						} else {
							delN--
						}
					}
				}
				for _, s := range unmatched {
					key := s.Key()
					was := origDm[key] && !origM[key]
					if addN > 0 && !was {
						plan[key] = true
						changes++
						touched[d.Name] = true
						addN--
					} else if delN > 0 && was {
						plan[key] = false
						changes++
						touched[d.Name] = true
						delN--
					}
				}
				if addN > 0 || delN > 0 {
					return nil, 0, nil, false
				}
			}
		}

		for _, s := range h.Slots {
			if !applicableTC(s, tc) {
				continue
			}
			key := s.Key()
			switch s.Kind {
			case arc.SlotSource:
				v, ok := qm[key]
				if !ok {
					return nil, 0, nil, false // endpoint slot must exist in the quotient
				}
				if v != origM[key] {
					changes++
					touched[s.ToProc.Device.Name] = true
				}
				if trial.RouteFilter[harc.RFKey(tc.Dst.Name, s.ToProc.Name())] {
					v = false
				}
				trial.SetTC(tck, key, v)
			case arc.SlotIntraSelf, arc.SlotIntraRedist:
				trial.SetTC(tck, key, dm[key])
			case arc.SlotDest:
				if _, ok := qdm[key]; !ok {
					return nil, 0, nil, false
				}
				was := origDm[key] && !origM[key]
				now := qdm[key] && !qm[key]
				if now != was {
					changes++
					touched[s.FromProc.Device.Name] = true
				}
				trial.SetTC(tck, key, dm[key] && !now)
			case arc.SlotInterDevice:
				dev, planned := plan[key]
				if !planned {
					dev = origDm[key] && !origM[key]
				}
				trial.SetTC(tck, key, dm[key] && !dev)
			}
		}
	}
	return trial, changes, touched, true
}
