package arc

import "repro/internal/graph"

// VerifyAlwaysBlocked implements PC1 of Table 1: SRC and DST are in
// separate components of the tcETG, i.e. no path exists under any failure
// combination (ETGs are pathset-equivalent, so absence of a path in the
// full ETG implies absence under every failure).
func VerifyAlwaysBlocked(e *ETG) bool {
	return !e.G.PathExists(e.Src, e.Dst)
}

// VerifyAlwaysWaypoint implements PC2 of Table 1: after removing edges
// with waypoints, SRC and DST are in separate components, i.e. every
// possible path traverses a waypoint.
func VerifyAlwaysWaypoint(e *ETG) bool {
	return !e.G.PathExistsAvoiding(e.Src, e.Dst, func(id graph.E) bool {
		return e.WaypointEdge(id)
	})
}

// VerifyKReachable implements PC3 of Table 1 exactly: SRC can reach DST
// whenever fewer than k physical links have failed. By Menger's theorem
// over whole-link failures this holds iff at least k pairwise
// link-disjoint SRC→DST paths exist (see kflow.go); the equivalence with
// the ground-truth subset enumeration is pinned by property tests.
func VerifyKReachable(e *ETG, k int) bool {
	if k < 1 {
		return true
	}
	return LinkDisjointFlow(e, k) >= k
}

// VerifyPrimaryPath implements PC4 of Table 1: in the absence of
// failures, traffic from SRC to DST uses exactly the given device path.
// Forwarding follows the shortest path of the ROUTING graph (route
// selection is ACL-blind), so the required path must be the unique
// shortest path there — and every edge it crosses must additionally be
// usable in the tcETG: an ACL on the routed path drops traffic rather
// than steering it onto another path.
func VerifyPrimaryPath(tcETG, routing *ETG, devices []string) bool {
	path, unique := routing.G.ShortestPathUnique(routing.Src, routing.Dst)
	if path == nil || !unique {
		return false
	}
	got := routing.DevicePath(path)
	if len(got) != len(devices) {
		return false
	}
	for i := range got {
		if got[i] != devices[i] {
			return false
		}
	}
	// Traffic takes the minimum-weight live edge at each hop; that edge's
	// slot must still exist at the tc level or the packet is dropped.
	for i := 0; i+1 < len(path); i++ {
		s := minEdgeSlot(routing, path[i], path[i+1])
		if s == nil {
			return false
		}
		if !tcETG.HasSlot(s) {
			return false
		}
	}
	return true
}

// minEdgeSlot returns the slot of the lowest-weight live edge from u to
// v in the ETG (the edge Dijkstra relaxes), or nil if none exists.
func minEdgeSlot(e *ETG, u, v graph.V) *Slot {
	var best *Slot
	var bestW int64
	e.G.Out(u, func(id graph.E, ed graph.Edge) {
		if ed.To != v {
			return
		}
		if best == nil || ed.Weight < bestW {
			best, bestW = e.SlotOf[id], ed.Weight
		}
	})
	return best
}
