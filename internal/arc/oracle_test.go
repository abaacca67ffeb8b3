package arc

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Reference verifiers the property tests compare the production ones
// against. They are exponential or approximate and have no production
// callers.

// MaxDisjointFlow returns the max-flow from SRC to DST in the unit-weight
// ETG (Table 1's PC3 characteristic): inter-device edges have capacity 1,
// intra-device and attachment edges are uncapacitated.
func MaxDisjointFlow(e *ETG) int {
	const big = int64(1) << 40
	flow, _ := e.G.MaxFlow(e.Src, e.Dst, func(id graph.E) int64 {
		if e.SlotOf[id].Kind == SlotInterDevice {
			return 1
		}
		return big
	})
	return int(flow)
}

// VerifyKReachableExhaustive is the ground-truth PC3 semantics: it
// enumerates every (k-1)-subset of the network's links and checks
// connectivity of the surviving tcETG. It is exponential in k and kept as
// the differential oracle for VerifyKReachable.
func VerifyKReachableExhaustive(e *ETG, n *topology.Network, k int) bool {
	if k < 1 {
		return true
	}
	links := n.Links
	// Connectivity under failing a set S implies connectivity under every
	// subset of S, so checking all subsets of size exactly m suffices —
	// where m is capped at the number of links actually available.
	m := k - 1
	if m > len(links) {
		m = len(links)
	}
	failed := make(map[*topology.Link]bool)
	var rec func(start, remaining int) bool
	rec = func(start, remaining int) bool {
		if remaining == 0 {
			return e.WithoutLinks(failed).G.PathExists(e.Src, e.Dst)
		}
		for i := start; i <= len(links)-remaining; i++ {
			failed[links[i]] = true
			ok := rec(i+1, remaining-1)
			delete(failed, links[i])
			if !ok {
				return false
			}
		}
		return true
	}
	return rec(0, m)
}

// WithoutLinks returns a copy of the ETG with every inter-device edge over
// one of the given (failed) physical links removed. The copy shares the
// original's vertex/edge storage (only removal flags are duplicated), so
// it supports reachability queries but must not be extended.
func (e *ETG) WithoutLinks(failed map[*topology.Link]bool) *ETG {
	c := *e
	c.G = e.G.CloneEdgesShared()
	for id, s := range e.SlotOf {
		if s.Kind == SlotInterDevice && failed[s.Link] {
			c.G.RemoveEdge(graph.E(id))
		}
	}
	return &c
}

// TestPooledFlowNetAcrossNetworks: one pooled linkFlowNet serving a
// large network and then a small one (and the reverse) must give every
// check the verdict and link order of a fresh net, and leave its link
// index scratch cleared for the next network.
func TestPooledFlowNetAcrossNetworks(t *testing.T) {
	var large, small *topology.Network
	for seed := int64(1); seed <= 200; seed++ {
		n := randomNetwork(rand.New(rand.NewSource(seed)))
		if len(n.Subnets) < 2 || len(n.Links) == 0 {
			continue
		}
		if large == nil || len(n.Links) > len(large.Links) {
			large = n
		}
		if small == nil || len(n.Links) < len(small.Links) {
			small = n
		}
	}
	if len(large.Links) < 2*len(small.Links) {
		t.Fatalf("networks too alike: %d and %d links", len(large.Links), len(small.Links))
	}
	for _, order := range [][]*topology.Network{{large, small}, {small, large}} {
		pooled := new(linkFlowNet)
		for _, n := range order {
			slots := Slots(n)
			for _, tc := range n.TrafficClasses() {
				etg := BuildTCETG(slots, tc)
				for k := 1; k <= 4; k++ {
					pooled.build(etg, k)
					got := pooled.maxFlow(int32(etg.Src), int32(etg.Dst), k)
					fresh := new(linkFlowNet)
					fresh.build(etg, k)
					want := fresh.maxFlow(int32(etg.Src), int32(etg.Dst), k)
					if got != want {
						t.Fatalf("%d links, %s, k=%d: pooled flow %d, fresh %d", len(n.Links), tc, k, got, want)
					}
					if !reflect.DeepEqual(pooled.linkSeq, fresh.linkSeq) {
						t.Fatalf("%d links, %s, k=%d: pooled link order differs", len(n.Links), tc, k)
					}
					for pos, li := range pooled.linkID {
						if li != -1 {
							t.Fatalf("link position %d left mapped to %d after a build", pos, li)
						}
					}
				}
			}
		}
	}
}

// referenceTCETG is the incremental tcETG construction Build replaced:
// AddVertex by name (hashing every name) and AddEdge per present slot.
func referenceTCETG(slots []*Slot, tc topology.TrafficClass) (g *graph.Digraph, src, dst graph.V) {
	g = graph.New()
	src, dst = g.AddVertex("SRC"), g.AddVertex("DST")
	for _, s := range slots {
		if s.Kind == SlotSource && s.Subnet != tc.Src || s.Kind == SlotDest && s.Subnet != tc.Dst || !s.PresentTC(tc) {
			continue
		}
		g.AddEdge(g.AddVertex(s.FromVertex()), g.AddVertex(s.ToVertex()), s.Weight(tc.Dst))
	}
	return g, src, dst
}

// TestBuildMatchesReference: the bulk builder, its pooled scratch
// carried from one slot table to the next, numbers vertices and edges
// exactly as the incremental construction does, and its slot lookups
// agree with its edges.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		n := randomNetwork(rand.New(rand.NewSource(seed)))
		slots := Slots(n)
		for _, tc := range n.TrafficClasses() {
			etg := BuildTCETG(slots, tc)
			ref, src, dst := referenceTCETG(slots, tc)
			if etg.Src != src || etg.Dst != dst || etg.G.NumVertices() != ref.NumVertices() || etg.G.NumEdges() != ref.NumEdges() {
				t.Fatalf("seed %d %s: shape differs from the reference", seed, tc)
			}
			for v := graph.V(0); v < graph.V(ref.NumVertices()); v++ {
				if etg.G.Name(v) != ref.Name(v) {
					t.Fatalf("seed %d %s: vertex %d is %q, reference %q", seed, tc, v, etg.G.Name(v), ref.Name(v))
				}
			}
			inETG := map[*Slot]bool{}
			for id, s := range etg.SlotOf {
				if etg.G.Edge(graph.E(id)) != ref.Edge(graph.E(id)) {
					t.Fatalf("seed %d %s: edge %d differs from the reference", seed, tc, id)
				}
				if etg.G.Name(etg.G.Edge(graph.E(id)).From) != s.FromVertex() {
					t.Fatalf("seed %d %s: edge %d does not start at its slot's vertex", seed, tc, id)
				}
				inETG[s] = true
			}
			for _, s := range slots {
				if etg.HasSlot(s) != inETG[s] {
					t.Fatalf("seed %d %s: HasSlot(%s) = %v", seed, tc, s.Key(), !inETG[s])
				}
			}
		}
	}
}
