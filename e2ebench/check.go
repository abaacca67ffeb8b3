package main

import (
	"fmt"
	"math/rand"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/policy"
	"repro/internal/simulate"
	"repro/internal/topology"
	"repro/internal/translate"
)

// checkOutput runs the output checks of one repair, outside any timed
// region:
//
//   - the returned plan, applied with translate.ApplyPlan to an
//     independent parse of the input text, reproduces the patched text
//     byte for byte;
//   - Explain gave one counterexample per violated policy;
//   - the patched text re-loads with zero violations on a fresh HARC;
//   - the hop-by-hop simulator, which shares no code with the ETG
//     abstraction, agrees for every policy violated before the repair
//     and for a seeded sample of simSample others.
func checkOutput(n network, out *opOutput, seed int64, simSample int) error {
	if out.plan == nil {
		return fmt.Errorf("no plan")
	}
	if out.explained != len(out.violated) {
		return fmt.Errorf("explain gave %d lines for %d violated policies", out.explained, len(out.violated))
	}
	applied := make(map[string]*config.Config, len(n.configs))
	for host, text := range n.configs {
		c, err := config.Parse(host, text)
		if err != nil {
			return fmt.Errorf("input of %s does not parse: %w", host, err)
		}
		applied[host] = c
	}
	if err := translate.ApplyPlan(applied, out.plan); err != nil {
		return fmt.Errorf("plan does not apply: %w", err)
	}
	if len(out.patched) != len(applied) {
		return fmt.Errorf("%d patched configs for %d inputs", len(out.patched), len(applied))
	}
	for host, c := range applied {
		if c.Print() != out.patched[host] {
			return fmt.Errorf("applied plan differs from the patched text of %s", host)
		}
	}
	return checkPatched(out.patched, n.spec, out.violated, seed, simSample)
}

// checkPatched re-loads patched text, requires every policy of spec to
// hold on its fresh HARC, and has the simulator confirm the policies
// named in mustSim plus a seeded sample of simSample others.
func checkPatched(patched map[string]string, spec string, mustSim []string, seed int64, simSample int) error {
	sys, err := cpr.Load(patched)
	if err != nil {
		return fmt.Errorf("patched text does not load: %w", err)
	}
	ps, err := sys.ParsePolicies(spec)
	if err != nil {
		return fmt.Errorf("policies do not parse on the patched network: %w", err)
	}
	if bad := sys.Verify(ps); len(bad) != 0 {
		return fmt.Errorf("patched text violates %d policies (first: %s)", len(bad), bad[0])
	}
	want := make(map[string]bool, len(mustSim))
	for _, s := range mustSim {
		want[s] = true
	}
	var sim, rest []cpr.Policy
	for _, p := range ps {
		if want[p.String()] {
			sim = append(sim, p)
		} else {
			rest = append(rest, p)
		}
	}
	if len(sim) != len(want) {
		return fmt.Errorf("%d violated policies, %d found in the spec", len(want), len(sim))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(len(rest))[:min(simSample, len(rest))] {
		sim = append(sim, rest[i])
	}
	for _, p := range sim {
		if detail := simulateHolds(sys.Network, p); detail != "" {
			return fmt.Errorf("simulator disagrees on %s: %s", p, detail)
		}
	}
	return nil
}

// simFailures bounds the link-failure sets the simulator enumerates:
// single failures on networks of at most simSmallLinks links, none on
// larger ones, where every failure set would cost a full route
// computation.
const (
	simFailures   = 1
	simSmallLinks = 64
	steerBudget   = 4
)

// simulateHolds checks one policy on the network by hop-by-hop
// forwarding, under every failure set within the budget. It returns ""
// when the policy holds, and a description otherwise.
func simulateHolds(n *topology.Network, p cpr.Policy) string {
	fails := 0
	if len(n.Links) <= simSmallLinks {
		fails = simFailures
	}
	switch p.Kind {
	case policy.AlwaysBlocked:
		if !simulate.BlockedUnderFailures(n, p.TC, fails) {
			return fmt.Sprintf("delivered under some %d-failure scenario", fails)
		}
	case policy.AlwaysWaypoint:
		if !simulate.WaypointUnderFailures(n, p.TC, fails) {
			return fmt.Sprintf("delivered without a waypoint under some %d-failure scenario", fails)
		}
	case policy.KReachable:
		// K-reachability is pathset semantics: after fewer than K
		// failures a usable path survives, though deterministic routing
		// need not take it (routing avoids failures, not ACLs). From each
		// failure set, delivery must be reachable by failing a few more
		// links to steer routing onto the surviving path.
		ok := simulate.ForEachFailureSet(n, min(fails, p.K-1), func(failed map[*topology.Link]bool) bool {
			return steerable(n, p.TC, failed, steerBudget)
		})
		if !ok {
			return "no surviving path under some failure scenario"
		}
	case policy.PrimaryPath:
		out, path, ambiguous := simulate.Forward(n, p.TC, nil)
		if out != simulate.Delivered {
			return fmt.Sprintf("%v with no failures", out)
		}
		if !ambiguous && fmt.Sprint(path) != fmt.Sprint(p.Path) {
			return fmt.Sprintf("forwarding took %v", path)
		}
	}
	return ""
}

// steerable reports whether tc can be delivered from the given failure
// set, possibly after failing up to budget more links chosen among the
// next hops of the devices the packet walked. failed is restored before
// it returns.
func steerable(n *topology.Network, tc topology.TrafficClass, failed map[*topology.Link]bool, budget int) bool {
	out, path, _ := simulate.Forward(n, tc, failed)
	if out == simulate.Delivered {
		return true
	}
	if budget == 0 {
		return false
	}
	sim := simulate.New(n, tc.Dst, failed)
	var next []*topology.Link
	for _, name := range path {
		if d := n.Device(name); d != nil {
			if l, hasRoute, _ := sim.NextHop(d); hasRoute && l != nil && !failed[l] {
				next = append(next, l)
			}
		}
	}
	for _, l := range next {
		failed[l] = true
		ok := steerable(n, tc, failed, budget-1)
		delete(failed, l)
		if ok {
			return true
		}
	}
	return false
}
