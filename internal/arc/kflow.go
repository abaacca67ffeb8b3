package arc

import (
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/topology"
)

// PC3 ("reachable under < k physical-link failures") is decided exactly by
// a max-flow computation instead of enumerating every (k-1)-subset of
// links. By Menger's theorem lifted to whole-link failures, SRC reaches DST
// under every failure of fewer than k physical links iff the minimum number
// of physical links whose removal disconnects SRC from DST is at least k.
// That quantity is the max flow of an auxiliary network with one capacity-1
// bottleneck per physical link: every tcETG edge over a link is routed
// through its link's bottleneck, so two ETG edges sharing a link (the two
// directions, or parallel process pairs) can never count as disjoint.
// Intra-device and attachment edges never fail; their capacity is clamped
// to k, which preserves the "flow >= k" verdict while keeping the flow
// finite. The computation stops as soon as k augmenting paths exist, so a
// typical PC3 check costs O(k * |E|) instead of O(C(links, k-1) * |E|).
//
// The package tests keep the ground-truth subset enumeration
// (VerifyKReachableExhaustive in oracle_test.go);
// TestKFlowMatchesExhaustive pins the equivalence on randomized networks.

// flowEdge is one direction of a residual pair. Arcs are created in pairs
// with adjacent ids, so the reverse of arc id is id^1.
type flowEdge struct {
	to  int32
	cap int32
}

// linkFlowNet is the auxiliary flow network in CSR form. Vertices
// 0..nv-1 mirror the ETG's vertices; two extra vertices per physical link
// carry its capacity-1 bottleneck edge. Construction order follows ETG
// edge ids, so the network — and every BFS over it — is deterministic.
//
// Verification runs one PC3 check per policy across the whole repair, so
// the arrays (and the BFS scratch) are pooled and reused across checks
// instead of reallocated: a steady-state check allocates nothing.
type linkFlowNet struct {
	edges    []flowEdge
	adjOff   []int32 // CSR row offsets per vertex, len = V+1
	adjList  []int32 // arc ids grouped by tail vertex, len = len(edges)
	linkSeq  []*Slot // per link in first-seen order: its first slot
	linkEdge []int32 // bottleneck arc id per linkSeq entry

	// Scratch reused across pooled checks. linkID maps a network link
	// position (Slot.link) to its linkSeq index; it is -1 everywhere
	// between builds and grows to the largest position seen, so one
	// pooled net serves networks of any size.
	linkID  []int32
	eKind   []int32 // per ETG edge: link index, or -1 for non-failable
	eFrom   []int32
	eTo     []int32
	cur     []int32 // CSR fill cursors
	pred    []int32
	visited []int32
	queue   []int32
	stamp   int32
}

var lfPool = sync.Pool{
	New: func() any { return new(linkFlowNet) },
}

// grow returns s resized to n, reusing its backing array when possible.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// build assembles the auxiliary network for the ETG with non-failable
// capacities clamped to k. Two passes over the ETG's edges: the first
// classifies edges and counts per-vertex arc degrees, the second fills
// the CSR arrays in the same deterministic order.
func (f *linkFlowNet) build(e *ETG, k int) {
	nv := e.G.NumVertices()
	f.linkSeq = f.linkSeq[:0]
	f.eKind = f.eKind[:0]
	f.eFrom = f.eFrom[:0]
	f.eTo = f.eTo[:0]
	e.G.Edges(func(id graph.E, ed graph.Edge) {
		li := int32(-1)
		if s := e.SlotOf[id]; s.Kind == SlotInterDevice {
			for len(f.linkID) <= s.link {
				f.linkID = append(f.linkID, -1)
			}
			li = f.linkID[s.link]
			if li < 0 {
				li = int32(len(f.linkSeq))
				f.linkID[s.link] = li
				f.linkSeq = append(f.linkSeq, s)
			}
		}
		f.eKind = append(f.eKind, li)
		f.eFrom = append(f.eFrom, int32(ed.From))
		f.eTo = append(f.eTo, int32(ed.To))
	})
	for _, s := range f.linkSeq {
		f.linkID[s.link] = -1
	}

	L := len(f.linkSeq)
	nInter, nOther := 0, 0
	for _, li := range f.eKind {
		if li >= 0 {
			nInter++
		} else {
			nOther++
		}
	}
	V := nv + 2*L
	A := 2 * (L + 2*nInter + nOther)
	f.adjOff = grow(f.adjOff, V+1)
	for i := range f.adjOff {
		f.adjOff[i] = 0
	}
	f.adjList = grow(f.adjList, A)
	if cap(f.edges) < A {
		f.edges = make([]flowEdge, A)
	} else {
		f.edges = f.edges[:A]
	}
	f.linkEdge = grow(f.linkEdge, L)

	// Link i's bottleneck endpoints.
	linkIn := func(i int32) int32 { return int32(nv) + 2*i }
	linkOut := func(i int32) int32 { return int32(nv) + 2*i + 1 }

	// Degree counting: each arc (forward and residual) occupies one
	// adjacency slot at its tail. Offsets are shifted by one so the
	// fill pass can use adjOff[v+1] as a cursor.
	deg := func(v int32) { f.adjOff[v+1]++ }
	for i := int32(0); i < int32(L); i++ {
		deg(linkIn(i))
		deg(linkOut(i))
	}
	for j, li := range f.eKind {
		u, v := f.eFrom[j], f.eTo[j]
		if li >= 0 {
			deg(u)
			deg(linkIn(li))
			deg(linkOut(li))
			deg(v)
		} else {
			deg(u)
			deg(v)
		}
	}
	for v := 0; v < V; v++ {
		f.adjOff[v+1] += f.adjOff[v]
	}

	// Fill forward through a cursor per row, so within-row arc order
	// matches the order the previous implementation appended them: per
	// ETG edge, bottleneck pair first on a link's first sighting, then
	// the attachment pairs.
	f.cur = grow(f.cur, V)
	copy(f.cur, f.adjOff[:V])
	next := int32(0)
	addArc := func(u, v, capacity int32) int32 {
		id := next
		next += 2
		f.edges[id] = flowEdge{to: v, cap: capacity}
		f.edges[id+1] = flowEdge{to: u, cap: 0}
		f.adjList[f.cur[u]] = id
		f.cur[u]++
		f.adjList[f.cur[v]] = id + 1
		f.cur[v]++
		return id
	}
	kcap := int32(k)
	for li := range f.linkEdge {
		f.linkEdge[li] = -1
	}
	for j, li := range f.eKind {
		u, v := f.eFrom[j], f.eTo[j]
		if li >= 0 {
			if f.linkEdge[li] < 0 {
				f.linkEdge[li] = addArc(linkIn(li), linkOut(li), 1)
			}
			addArc(u, linkIn(li), kcap)
			addArc(linkOut(li), v, kcap)
		} else {
			addArc(u, v, kcap)
		}
	}
}

// out iterates vertex v's arcs.
func (f *linkFlowNet) out(v int32) []int32 {
	return f.adjList[f.adjOff[v]:f.adjOff[v+1]]
}

// maxFlow runs BFS augmenting paths from src to dst, stopping once the
// flow reaches want.
func (f *linkFlowNet) maxFlow(src, dst int32, want int) int {
	if src == dst {
		return want
	}
	total := 0
	n := len(f.adjOff) - 1
	f.pred = grow(f.pred, n)
	if cap(f.visited) < n {
		f.visited = make([]int32, n)
		f.stamp = 0
	}
	f.visited = f.visited[:n]
	if cap(f.queue) < n {
		f.queue = make([]int32, 0, n)
	}
	for total < want {
		f.stamp++
		queue := f.queue[:0]
		queue = append(queue, src)
		f.visited[src] = f.stamp
		found := false
	bfs:
		for i := 0; i < len(queue); i++ {
			v := queue[i]
			for _, id := range f.out(v) {
				ed := &f.edges[id]
				if ed.cap <= 0 || f.visited[ed.to] == f.stamp {
					continue
				}
				f.visited[ed.to] = f.stamp
				f.pred[ed.to] = id
				if ed.to == dst {
					found = true
					break bfs
				}
				queue = append(queue, ed.to)
			}
		}
		f.queue = queue[:0]
		if !found {
			return total
		}
		bottleneck := int32(want - total)
		for v := dst; v != src; {
			ed := &f.edges[f.pred[v]]
			if ed.cap < bottleneck {
				bottleneck = ed.cap
			}
			v = f.edges[f.pred[v]^1].to
		}
		for v := dst; v != src; {
			id := f.pred[v]
			f.edges[id].cap -= bottleneck
			f.edges[id^1].cap += bottleneck
			v = f.edges[id^1].to
		}
		total += int(bottleneck)
	}
	return total
}

// LinkDisjointFlow returns min(k, the maximum number of pairwise
// physical-link-disjoint SRC→DST paths in the ETG). A return of k means
// "at least k" — the computation stops early.
func LinkDisjointFlow(e *ETG, k int) int {
	if k < 1 {
		return 0
	}
	if e.Src == graph.V(graph.None) || e.Dst == graph.V(graph.None) {
		return 0
	}
	f := lfPool.Get().(*linkFlowNet)
	f.build(e, k)
	flow := f.maxFlow(int32(e.Src), int32(e.Dst), k)
	lfPool.Put(f)
	return flow
}

// MinLinkCut returns a minimum-cardinality set of physical links whose
// simultaneous failure disconnects SRC from DST, provided that set has
// fewer than k links; ok=false means every disconnecting set needs at
// least k links (the PC3 policy holds). The returned links are sorted by
// name. An empty set with ok=true means SRC cannot reach DST even with no
// failures.
func MinLinkCut(e *ETG, k int) (links []*topology.Link, ok bool) {
	if k < 1 {
		return nil, false
	}
	if e.Src == graph.V(graph.None) || e.Dst == graph.V(graph.None) {
		return nil, true
	}
	if !e.G.PathExists(e.Src, e.Dst) {
		return nil, true
	}
	f := lfPool.Get().(*linkFlowNet)
	defer lfPool.Put(f)
	f.build(e, k)
	if f.maxFlow(int32(e.Src), int32(e.Dst), k) >= k {
		return nil, false
	}
	// Residual-reachable side of the cut: the bottleneck edges crossing it
	// are exactly a minimum set of links to fail.
	n := len(f.adjOff) - 1
	seen := make([]bool, n)
	seen[e.Src] = true
	stack := []int32{int32(e.Src)}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range f.out(v) {
			ed := &f.edges[id]
			if ed.cap <= 0 || seen[ed.to] {
				continue
			}
			seen[ed.to] = true
			stack = append(stack, ed.to)
		}
	}
	for i, id := range f.linkEdge {
		ed := f.edges[id]
		from := f.edges[id^1].to
		if seen[from] && !seen[ed.to] {
			links = append(links, f.linkSeq[i].Link)
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].Name() < links[j].Name() })
	return links, true
}
