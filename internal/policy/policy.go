// Package policy defines the reachability policy classes of Table 1
// (PC1-PC4), a textual specification format, verification against a HARC,
// and the policy-inference procedure the paper uses to derive
// specifications for networks whose operators' intent is unknown (§8).
package policy

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arc"
	"repro/internal/harc"
	"repro/internal/topology"
)

// Kind is the policy class.
type Kind int

// Policy classes (Table 1).
const (
	// AlwaysBlocked (PC1): traffic from SRC to DST is always blocked.
	AlwaysBlocked Kind = iota + 1
	// AlwaysWaypoint (PC2): traffic from SRC to DST always traverses a
	// waypoint.
	AlwaysWaypoint
	// KReachable (PC3): SRC can always reach DST when there are < K link
	// failures.
	KReachable
	// PrimaryPath (PC4): traffic from SRC to DST uses the given device
	// path in the absence of failures.
	PrimaryPath
	// Isolated requires two traffic classes to share no ETG edge (the
	// additional policy sketched at the end of §5.1:
	// edge_tc1 ⇒ ¬edge_tc2 for every edge, and vice versa).
	Isolated
)

func (k Kind) String() string {
	switch k {
	case AlwaysBlocked:
		return "PC1"
	case AlwaysWaypoint:
		return "PC2"
	case KReachable:
		return "PC3"
	case PrimaryPath:
		return "PC4"
	case Isolated:
		return "ISO"
	}
	return fmt.Sprintf("PC?(%d)", int(k))
}

// Policy is one operator requirement on one traffic class (or, for
// Isolated, a pair of traffic classes).
type Policy struct {
	Kind Kind
	TC   topology.TrafficClass
	K    int                   // KReachable: tolerate K-1 link failures
	Path []string              // PrimaryPath: device names in order
	TC2  topology.TrafficClass // Isolated: the second class
}

// String renders the policy in the specification syntax.
func (p Policy) String() string {
	switch p.Kind {
	case AlwaysBlocked:
		return fmt.Sprintf("always-blocked %s %s", p.TC.Src.Name, p.TC.Dst.Name)
	case AlwaysWaypoint:
		return fmt.Sprintf("always-waypoint %s %s", p.TC.Src.Name, p.TC.Dst.Name)
	case KReachable:
		return fmt.Sprintf("reachable %s %s %d", p.TC.Src.Name, p.TC.Dst.Name, p.K)
	case PrimaryPath:
		return fmt.Sprintf("primary-path %s %s %s", p.TC.Src.Name, p.TC.Dst.Name, strings.Join(p.Path, ","))
	case Isolated:
		return fmt.Sprintf("isolated %s %s %s %s", p.TC.Src.Name, p.TC.Dst.Name, p.TC2.Src.Name, p.TC2.Dst.Name)
	}
	return "?"
}

// Check verifies the policy against the HARC's current tcETG.
func Check(h *harc.HARC, p Policy) bool {
	if p.Kind == Isolated {
		return checkIsolated(tcETGOf(h, p.TC), tcETGOf(h, p.TC2))
	}
	if p.Kind == PrimaryPath {
		// PC4 compares against the routing graph: route selection is
		// ACL-blind, so the tcETG alone cannot decide which path traffic
		// takes.
		return arc.VerifyPrimaryPath(tcETGOf(h, p.TC), arc.BuildRoutingETG(h.Slots, p.TC), p.Path)
	}
	return checkETG(tcETGOf(h, p.TC), p)
}

func tcETGOf(h *harc.HARC, tc topology.TrafficClass) *arc.ETG {
	if etg := h.TCETG(tc); etg != nil {
		return etg
	}
	return arc.BuildTCETG(h.Slots, tc)
}

// CheckState verifies the policy against the tcETG encoded in an explicit
// HARC state (used to validate repairs before translation).
func CheckState(h *harc.HARC, st *harc.State, p Policy) bool {
	etg := harc.BuildTCETGFromState(h, st, p.TC)
	if p.Kind == Isolated {
		return checkIsolated(etg, harc.BuildTCETGFromState(h, st, p.TC2))
	}
	if p.Kind == PrimaryPath {
		return arc.VerifyPrimaryPath(etg, harc.BuildRoutingETGFromState(h, st, p.TC), p.Path)
	}
	return checkETG(etg, p)
}

// checkIsolated reports whether the two tcETGs share no edge slot
// (edge_tc1 ⇒ ¬edge_tc2 for every edge, §5.1).
func checkIsolated(a, b *arc.ETG) bool {
	return a.FirstSharedSlot(b) == nil
}

func checkETG(etg *arc.ETG, p Policy) bool {
	switch p.Kind {
	case AlwaysBlocked:
		return arc.VerifyAlwaysBlocked(etg)
	case AlwaysWaypoint:
		return arc.VerifyAlwaysWaypoint(etg)
	case KReachable:
		return arc.VerifyKReachable(etg, p.K)
	}
	return false
}

// Parse reads a specification: one policy per line, "#" comments, blank
// lines ignored. Subnet names must exist in the network.
func Parse(n *topology.Network, text string) ([]Policy, error) {
	var out []Policy
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		subnet := func(name string) (*topology.Subnet, error) {
			s := n.Subnet(name)
			if s == nil {
				return nil, fmt.Errorf("policy: line %d: unknown subnet %q", lineno+1, name)
			}
			return s, nil
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("policy: line %d: too few fields", lineno+1)
		}
		src, err := subnet(fields[1])
		if err != nil {
			return nil, err
		}
		dst, err := subnet(fields[2])
		if err != nil {
			return nil, err
		}
		p := Policy{TC: topology.TrafficClass{Src: src, Dst: dst}}
		switch fields[0] {
		case "always-blocked":
			p.Kind = AlwaysBlocked
		case "always-waypoint":
			p.Kind = AlwaysWaypoint
		case "reachable":
			p.Kind = KReachable
			if len(fields) != 4 {
				return nil, fmt.Errorf("policy: line %d: reachable wants SRC DST K", lineno+1)
			}
			if _, err := fmt.Sscanf(fields[3], "%d", &p.K); err != nil || p.K < 1 {
				return nil, fmt.Errorf("policy: line %d: bad K %q", lineno+1, fields[3])
			}
		case "primary-path":
			p.Kind = PrimaryPath
			if len(fields) != 4 {
				return nil, fmt.Errorf("policy: line %d: primary-path wants SRC DST DEV,DEV,...", lineno+1)
			}
			p.Path = strings.Split(fields[3], ",")
			for _, dev := range p.Path {
				if n.Device(dev) == nil {
					return nil, fmt.Errorf("policy: line %d: unknown device %q", lineno+1, dev)
				}
			}
		case "isolated":
			p.Kind = Isolated
			if len(fields) != 5 {
				return nil, fmt.Errorf("policy: line %d: isolated wants SRC1 DST1 SRC2 DST2", lineno+1)
			}
			src2, err := subnet(fields[3])
			if err != nil {
				return nil, err
			}
			dst2, err := subnet(fields[4])
			if err != nil {
				return nil, err
			}
			p.TC2 = topology.TrafficClass{Src: src2, Dst: dst2}
		default:
			return nil, fmt.Errorf("policy: line %d: unknown policy kind %q", lineno+1, fields[0])
		}
		out = append(out, p)
	}
	return out, nil
}

// Format renders policies in the specification syntax, one per line.
func Format(policies []Policy) string {
	var b strings.Builder
	for _, p := range policies {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Infer derives the PC1/PC3 policies a network currently satisfies, the
// procedure the paper applies to the real data-center snapshots (§8): a
// traffic class that is always blocked yields PC1; one that remains
// reachable under any single failure yields PC3 with K=2; one reachable
// only without failures yields PC3 with K=1. A traffic class cannot have
// both (PC1 and PC3 are mutually exclusive).
func Infer(n *topology.Network) []Policy {
	slots := arc.Slots(n)
	var out []Policy
	for _, tc := range n.TrafficClasses() {
		etg := arc.BuildTCETG(slots, tc)
		if arc.VerifyAlwaysBlocked(etg) {
			out = append(out, Policy{Kind: AlwaysBlocked, TC: tc})
			continue
		}
		if arc.VerifyKReachable(etg, 2) {
			out = append(out, Policy{Kind: KReachable, TC: tc, K: 2})
		} else {
			out = append(out, Policy{Kind: KReachable, TC: tc, K: 1})
		}
	}
	return out
}

// GroupByDst partitions policies by destination subnet, the granularity
// of the maxsmt-per-dst decomposition (§5.3). PC4 policies are all placed
// in the group of their destination, and GroupByDst reports whether more
// than one group would carry PC4 policies (which the decomposition must
// avoid by merging; see core.Repair).
func GroupByDst(policies []Policy) map[string][]Policy {
	groups := make(map[string][]Policy)
	for _, p := range policies {
		groups[p.TC.Dst.Name] = append(groups[p.TC.Dst.Name], p)
	}
	return groups
}

// SortedGroupNames returns group keys in deterministic order.
func SortedGroupNames(groups map[string][]Policy) []string {
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// CountByKind tallies policies per class (used for Figure 6).
func CountByKind(policies []Policy) map[Kind]int {
	out := make(map[Kind]int)
	for _, p := range policies {
		out[p.Kind]++
	}
	return out
}
