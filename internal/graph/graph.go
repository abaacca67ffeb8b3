// Package graph provides the directed-graph substrate used by ARC and HARC:
// a compact digraph with named vertices and weighted edges, plus the
// algorithms Table 1 of the CPR paper needs (reachability, shortest paths,
// max-flow/min-cut, and edge-disjoint path extraction).
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// V identifies a vertex within a single Digraph.
type V int

// E identifies an edge within a single Digraph.
type E int

// None is returned by lookups that find no vertex or edge.
const None = -1

// Edge is a directed, weighted edge. Weight semantics are caller-defined
// (ETGs use routing costs; max-flow uses capacities supplied separately).
type Edge struct {
	From   V
	To     V
	Weight int64
}

// Digraph is a mutable directed multigraph with string-named vertices.
// The zero value is an empty graph ready to use.
type Digraph struct {
	names   []string
	index   map[string]V
	edges   []Edge
	removed []bool // removed[e] marks edge e as deleted without reindexing
	out     [][]E
	in      [][]E
	nlive   int
}

// New returns an empty digraph.
func New() *Digraph {
	return &Digraph{index: make(map[string]V)}
}

// FromEdges returns the digraph with the given vertex names (vertex i
// is names[i]) and edges (edge i is edges[i]), taking ownership of both
// slices. Every adjacency list is carved from one backing array per
// direction, so a graph whose vertices and edges are known up front
// (ETG construction) costs a handful of allocations instead of a few
// per vertex. Names must be distinct. The graph has no name index until
// the first AddVertex: Vertex scans the names instead.
func FromEdges(names []string, edges []Edge) *Digraph {
	g := &Digraph{
		names:   names,
		edges:   edges,
		removed: make([]bool, len(edges)),
		out:     make([][]E, len(names)),
		in:      make([][]E, len(names)),
		nlive:   len(edges),
	}
	g.carve()
	return g
}

// carve fills every vertex's out- and in-list with its edge ids in id
// order, as full-capacity windows of one array per direction: a later
// AddEdge reallocates the list it grows rather than overwrite the
// neighbouring vertex's.
func (g *Digraph) carve() {
	nv := len(g.names)
	off := make([]int32, 2*(nv+1))
	outOff, inOff := off[:nv+1], off[nv+1:]
	for _, ed := range g.edges {
		outOff[ed.From+1]++
		inOff[ed.To+1]++
	}
	for v := 0; v < nv; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	backing := make([]E, 2*len(g.edges))
	outB, inB := backing[:len(g.edges)], backing[len(g.edges):]
	for v := 0; v < nv; v++ {
		g.out[v] = outB[outOff[v]:outOff[v]:outOff[v+1]]
		g.in[v] = inB[inOff[v]:inOff[v]:inOff[v+1]]
	}
	for i, ed := range g.edges {
		g.out[ed.From] = append(g.out[ed.From], E(i))
		g.in[ed.To] = append(g.in[ed.To], E(i))
	}
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		names:   append([]string(nil), g.names...),
		edges:   append([]Edge(nil), g.edges...),
		removed: append([]bool(nil), g.removed...),
		out:     make([][]E, len(g.out)),
		in:      make([][]E, len(g.in)),
		nlive:   g.nlive,
	}
	if g.index != nil {
		c.index = make(map[string]V, len(g.index))
		for k, v := range g.index {
			c.index[k] = v
		}
	}
	for i := range g.out {
		c.out[i] = append([]E(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]E(nil), g.in[i]...)
	}
	return c
}

// CloneEdgesShared returns a copy that shares g's vertex and edge
// storage but owns its removal flags: RemoveEdge/RestoreEdge on the
// copy do not affect g, and all read operations work. The copy must
// not have vertices or edges added to it. Use this instead of Clone
// for transient what-if queries (e.g. reachability under failed links),
// which only toggle removal flags.
func (g *Digraph) CloneEdgesShared() *Digraph {
	c := *g
	c.removed = append([]bool(nil), g.removed...)
	return &c
}

// AddVertex adds a vertex named name, or returns the existing vertex with
// that name.
func (g *Digraph) AddVertex(name string) V {
	if g.index == nil {
		g.index = make(map[string]V, len(g.names))
		for i, n := range g.names {
			g.index[n] = V(i)
		}
	}
	if v, ok := g.index[name]; ok {
		return v
	}
	v := V(len(g.names))
	g.names = append(g.names, name)
	g.index[name] = v
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return v
}

// Vertex returns the vertex named name, or None if absent. On a graph
// without a name index (FromEdges) it is a linear scan; no hot path
// looks vertices up by name.
func (g *Digraph) Vertex(name string) V {
	if g.index == nil {
		for i, n := range g.names {
			if n == name {
				return V(i)
			}
		}
		return V(None)
	}
	if v, ok := g.index[name]; ok {
		return v
	}
	return V(None)
}

// HasVertex reports whether a vertex named name exists.
func (g *Digraph) HasVertex(name string) bool { return g.Vertex(name) != V(None) }

// Name returns the name of vertex v.
func (g *Digraph) Name(v V) string { return g.names[v] }

// NumVertices returns the number of vertices.
func (g *Digraph) NumVertices() int { return len(g.names) }

// NumEdges returns the number of live (non-removed) edges.
func (g *Digraph) NumEdges() int { return g.nlive }

// AddEdge adds a directed edge from→to with the given weight and returns
// its id. Parallel edges are permitted.
func (g *Digraph) AddEdge(from, to V, weight int64) E {
	e := E(len(g.edges))
	g.edges = append(g.edges, Edge{From: from, To: to, Weight: weight})
	g.removed = append(g.removed, false)
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.nlive++
	return e
}

// RemoveEdge marks edge e as removed. Removing an already-removed edge is
// a no-op.
func (g *Digraph) RemoveEdge(e E) {
	if !g.removed[e] {
		g.removed[e] = true
		g.nlive--
	}
}

// RestoreEdge undoes RemoveEdge.
func (g *Digraph) RestoreEdge(e E) {
	if g.removed[e] {
		g.removed[e] = false
		g.nlive++
	}
}

// EdgeLive reports whether edge e is present (not removed).
func (g *Digraph) EdgeLive(e E) bool { return !g.removed[e] }

// Edge returns the endpoints and weight of edge e (live or removed).
func (g *Digraph) Edge(e E) Edge { return g.edges[e] }

// SetWeight updates the weight of edge e.
func (g *Digraph) SetWeight(e E, w int64) { g.edges[e].Weight = w }

// FindEdge returns the id of a live edge from→to, or None.
func (g *Digraph) FindEdge(from, to V) E {
	for _, e := range g.out[from] {
		if !g.removed[e] && g.edges[e].To == to {
			return e
		}
	}
	return E(None)
}

// Out calls fn for each live out-edge of v.
func (g *Digraph) Out(v V, fn func(e E, edge Edge)) {
	for _, e := range g.out[v] {
		if !g.removed[e] {
			fn(e, g.edges[e])
		}
	}
}

// In calls fn for each live in-edge of v.
func (g *Digraph) In(v V, fn func(e E, edge Edge)) {
	for _, e := range g.in[v] {
		if !g.removed[e] {
			fn(e, g.edges[e])
		}
	}
}

// Edges calls fn for each live edge.
func (g *Digraph) Edges(fn func(e E, edge Edge)) {
	for i := range g.edges {
		if !g.removed[i] {
			fn(E(i), g.edges[i])
		}
	}
}

// String renders the graph as "name -> name (w)" lines, sorted, for tests
// and debugging.
func (g *Digraph) String() string {
	var lines []string
	g.Edges(func(_ E, ed Edge) {
		lines = append(lines, fmt.Sprintf("%s -> %s (%d)", g.names[ed.From], g.names[ed.To], ed.Weight))
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
