package arc

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Level selects which control-plane constructs an ETG models.
type Level int

// Abstraction levels (paper §4.3).
const (
	// LevelAll models routing adjacencies and redistribution only (aETG).
	LevelAll Level = iota
	// LevelDst additionally models route filters and static routes (dETG).
	LevelDst
	// LevelTC additionally models ACLs (tcETG).
	LevelTC
)

// ETG is an extended topology graph: the per-level digraph derived from a
// network's slot table. Src/Dst are graph.None at levels where the vertex
// does not apply (aETG has neither; dETGs have no single SRC).
//
// Both directions of the edge/slot correspondence are index-addressed:
// edge ids are dense, so SlotOf is a slice, and the reverse lookup is a
// bitset over slot-table positions. An ETG therefore answers HasSlot
// only for slots of the table it was built from.
type ETG struct {
	Level     Level
	TC        topology.TrafficClass // set for LevelTC
	DstSubnet *topology.Subnet      // set for LevelDst and LevelTC

	G   *graph.Digraph
	Src graph.V
	Dst graph.V

	// SlotOf maps each edge id to the slot it instantiates.
	SlotOf []*Slot
	// slotSet marks the slot-table positions of the slots in SlotOf.
	slotSet []uint64

	// Waypoints, when non-nil, overrides link waypoint presence (keyed by
	// Link.Name()). Used when verifying repaired states that add or
	// remove middleboxes.
	Waypoints map[string]bool
}

// presentSlot is a slot admitted by an edge rule, with its weight.
type presentSlot struct {
	s *Slot
	w int64
}

// buildScratch is one build's reusable state. vertex maps slot-table
// vertex ids to graph vertices; it is -1 everywhere between builds and
// grows to the largest id seen, so one scratch serves slot tables of any
// size. ids and names list the vertices added so far, in graph order.
type buildScratch struct {
	present []presentSlot
	vertex  []int32
	ids     []int
	names   []string
}

// scratchPool recycles build scratch (HARC and verification builds run
// on several goroutines at once).
var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// addVertex returns the graph vertex for slot-table vertex id, adding it
// (named name) on first sight.
func (b *buildScratch) addVertex(id int, name string) graph.V {
	for len(b.vertex) <= id {
		b.vertex = append(b.vertex, -1)
	}
	if v := b.vertex[id]; v >= 0 {
		return graph.V(v)
	}
	b.vertex[id] = int32(len(b.names))
	b.ids = append(b.ids, id)
	b.names = append(b.names, name)
	return graph.V(len(b.names) - 1)
}

// vertexOf returns the graph vertex of slot-table vertex id, or None.
func (b *buildScratch) vertexOf(id int) graph.V {
	if id < len(b.vertex) && b.vertex[id] >= 0 {
		return graph.V(b.vertex[id])
	}
	return graph.V(graph.None)
}

// Build assembles the ETG at level from a slot table: every slot for
// which edge reports presence becomes one edge, with the reported
// weight, in slot-table order. It is the one ETG builder — the
// structural builders below and the state-driven builders of package
// harc differ only in their edge rule. Builds run in two passes (gather
// the present slots, then number their vertices through the slot
// table's vertex ids and hand the exact vertex and edge lists to
// graph.FromEdges), so no name is hashed and every slice is allocated
// once at its final size. Level decides the fixed vertices: LevelTC
// adds SRC and DST first, so verification is well-defined even when
// every attachment edge is absent; LevelDst adds DST.
func Build(slots []*Slot, level Level, tc topology.TrafficClass, dst *topology.Subnet, edge func(*Slot) (weight int64, ok bool)) *ETG {
	b := scratchPool.Get().(*buildScratch)
	for _, s := range slots {
		if w, ok := edge(s); ok {
			b.present = append(b.present, presentSlot{s, w})
		}
	}
	switch level {
	case LevelTC:
		b.addVertex(0, "SRC")
		b.addVertex(1, "DST")
	case LevelDst:
		b.addVertex(1, "DST")
	}
	e := &ETG{
		Level:     level,
		TC:        tc,
		DstSubnet: dst,
		SlotOf:    make([]*Slot, len(b.present)),
		slotSet:   make([]uint64, (len(slots)+63)/64),
	}
	edges := make([]graph.Edge, len(b.present))
	for i, p := range b.present {
		s := p.s
		edges[i] = graph.Edge{From: b.addVertex(s.fromID, s.FromVertex()), To: b.addVertex(s.toID, s.ToVertex()), Weight: p.w}
		e.SlotOf[i] = s
		e.slotSet[s.index>>6] |= 1 << (s.index & 63)
	}
	e.Src, e.Dst = b.vertexOf(0), b.vertexOf(1)
	e.G = graph.FromEdges(append([]string(nil), b.names...), edges)

	for _, id := range b.ids {
		b.vertex[id] = -1
	}
	clear(b.present)
	clear(b.names)
	b.present, b.ids, b.names = b.present[:0], b.ids[:0], b.names[:0]
	scratchPool.Put(b)
	return e
}

// BuildTCETG builds the traffic-class ETG for tc (Algorithm 1).
func BuildTCETG(slots []*Slot, tc topology.TrafficClass) *ETG {
	return Build(slots, LevelTC, tc, tc.Dst, func(s *Slot) (int64, bool) {
		if s.Kind == SlotSource && s.Subnet != tc.Src || s.Kind == SlotDest && s.Subnet != tc.Dst {
			return 0, false
		}
		if !s.PresentTC(tc) {
			return 0, false
		}
		return s.Weight(tc.Dst), true
	})
}

// BuildRoutingETG builds the graph route selection operates on for tc:
// the dETG for tc.Dst augmented with tc's SRC and DST attachment edges.
// ACLs are deliberately ignored — they drop packets but do not influence
// shortest-path computation — so this graph can strictly contain the
// tcETG. PC4 verification walks this graph, then checks tcETG usability
// of the resulting path.
func BuildRoutingETG(slots []*Slot, tc topology.TrafficClass) *ETG {
	return Build(slots, LevelTC, tc, tc.Dst, func(s *Slot) (int64, bool) {
		if s.Kind == SlotSource && s.Subnet != tc.Src || s.Kind == SlotDest && s.Subnet != tc.Dst {
			return 0, false
		}
		if !s.PresentRouting(tc) {
			return 0, false
		}
		return s.Weight(tc.Dst), true
	})
}

// BuildDstETG builds the destination ETG for dst: route filters and static
// routes apply, ACLs do not, and all sources are represented (source slots
// are omitted; the DST vertex is present).
func BuildDstETG(slots []*Slot, dst *topology.Subnet) *ETG {
	return Build(slots, LevelDst, topology.TrafficClass{}, dst, func(s *Slot) (int64, bool) {
		if s.Kind == SlotSource || s.Kind == SlotDest && s.Subnet != dst {
			return 0, false
		}
		if !s.PresentDst(dst) {
			return 0, false
		}
		return s.Weight(dst), true
	})
}

// BuildAllETG builds the aETG: adjacencies and redistribution only.
func BuildAllETG(slots []*Slot) *ETG {
	return Build(slots, LevelAll, topology.TrafficClass{}, nil, func(s *Slot) (int64, bool) {
		if s.Kind == SlotSource || s.Kind == SlotDest || !s.PresentAll() {
			return 0, false
		}
		return s.Weight(nil), true
	})
}

// HasSlot reports whether the slot's edge is present in the ETG. The
// slot must come from the slot table the ETG was built from.
func (e *ETG) HasSlot(s *Slot) bool {
	w := s.index >> 6
	return w < len(e.slotSet) && e.slotSet[w]&(1<<(s.index&63)) != 0
}

// FirstSharedSlot returns the first slot, in e's edge order, that is
// also present in o, or nil when the two ETGs share no slot. Both must
// be built from the same slot table.
func (e *ETG) FirstSharedSlot(o *ETG) *Slot {
	for _, s := range e.SlotOf {
		if o.HasSlot(s) {
			return s
		}
	}
	return nil
}

// WaypointEdge reports whether edge id carries a waypoint, honoring the
// Waypoints override for inter-device edges.
func (e *ETG) WaypointEdge(id graph.E) bool {
	s := e.SlotOf[id]
	if e.Waypoints != nil && s.Kind == SlotInterDevice {
		if v, ok := e.Waypoints[s.Link.Name()]; ok {
			return v
		}
	}
	return s.Waypoint()
}

// DevicePath collapses an ETG vertex path into the sequence of device
// names it traverses (SRC/DST vertices are dropped).
func (e *ETG) DevicePath(path []graph.V) []string {
	var out []string
	for _, v := range path {
		name := e.G.Name(v)
		if name == "SRC" || name == "DST" {
			continue
		}
		// Vertex names are "<device>:<proto><id>:<I|O>".
		dev := name
		for i := 0; i < len(name); i++ {
			if name[i] == ':' {
				dev = name[:i]
				break
			}
		}
		if len(out) == 0 || out[len(out)-1] != dev {
			out = append(out, dev)
		}
	}
	return out
}
