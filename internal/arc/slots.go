// Package arc implements the Abstract Representation for Control planes:
// extended topology graphs (ETGs) built from a network model (Algorithm 1
// in the CPR paper) and the policy verifiers of Table 1.
//
// The central concept is the edge *slot*: a potential ETG edge backed by a
// physical link or an intra-device channel. Each slot has a presence rule
// per abstraction level (aETG / dETG / tcETG); ETGs at every level are
// derived from the same slot table, which makes the HARC hierarchy hold by
// construction and gives each edge an explicit provenance (which
// control-plane construct explains it).
package arc

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// SlotKind classifies candidate ETG edges.
type SlotKind int

// Slot kinds.
const (
	// SlotInterDevice is procO -> proc'I over a physical link.
	SlotInterDevice SlotKind = iota
	// SlotIntraSelf is procI -> procO within one process.
	SlotIntraSelf
	// SlotIntraRedist is proc'I -> procO between two processes on one
	// device (route redistribution).
	SlotIntraRedist
	// SlotSource is SRC -> procO on a device attached to a source subnet.
	SlotSource
	// SlotDest is procI -> DST on a device attached to a destination
	// subnet.
	SlotDest
)

func (k SlotKind) String() string {
	switch k {
	case SlotInterDevice:
		return "inter"
	case SlotIntraSelf:
		return "self"
	case SlotIntraRedist:
		return "redist"
	case SlotSource:
		return "src"
	case SlotDest:
		return "dst"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Slot is a candidate ETG edge together with the control-plane context
// needed to decide its presence at each level and to translate repairs.
type Slot struct {
	Kind SlotKind
	// FromProc/ToProc are the processes at the tail/head of the edge.
	// For SlotSource only ToProc is set; for SlotDest only FromProc.
	FromProc *topology.Process
	ToProc   *topology.Process
	// Link and the directed interfaces for SlotInterDevice.
	Link     *topology.Link
	FromIntf *topology.Interface // egress interface on the tail device
	ToIntf   *topology.Interface // ingress interface on the head device
	// Subnet and its attachment interface for SlotSource / SlotDest.
	Subnet *topology.Subnet
	Intf   *topology.Interface

	key string // cached Key(), filled by Slots
	// costKey caches CostKey() for inter-device slots, filled by Slots.
	costKey string

	// index is the slot's position in its slot table and link the
	// position of Link in the network's link list (inter-device slots
	// only), both filled by Slots: ETGs and the PC3 flow network address
	// per-slot and per-link data by them instead of by key.
	index, link int

	// fromV/toV cache FromVertex()/ToVertex(), and fromID/toID number
	// those names within the slot table (SRC is 0, DST is 1), filled by
	// Slots: the builder maps table vertices to graph vertices through
	// a slice instead of hashing names once per ETG per slot.
	fromV, toV   string
	fromID, toID int
	// adjUp caches adjacencyUp() (valid when adjCached): adjacency
	// depends only on the immutable interface/passive configuration, and
	// the uncached path scans every process interface per call.
	adjUp, adjCached bool
}

// Key returns a stable identifier unique within a network. Slots are
// immutable once enumerated, so Slots precomputes the key; the
// formatting path below only runs for hand-built slots.
func (s *Slot) Key() string {
	if s.key != "" {
		return s.key
	}
	return s.keyUncached()
}

func (s *Slot) keyUncached() string {
	switch s.Kind {
	case SlotInterDevice:
		return fmt.Sprintf("inter:%s>%s@%s/%s", s.FromProc.Name(), s.ToProc.Name(), s.FromIntf.Name, s.ToIntf.Name)
	case SlotIntraSelf:
		return "self:" + s.FromProc.Name()
	case SlotIntraRedist:
		return fmt.Sprintf("redist:%s>%s", s.ToProc.Name(), s.FromProc.Name())
	case SlotSource:
		return fmt.Sprintf("src:%s>%s", s.Subnet.Name, s.ToProc.Name())
	case SlotDest:
		return fmt.Sprintf("dst:%s>%s", s.FromProc.Name(), s.Subnet.Name)
	}
	return "?"
}

// CostKey names the egress interface ("<device>/<interface>") of an
// inter-device slot, the unit its edge cost is configured at, and is
// empty for every other kind. Slots precomputes it.
func (s *Slot) CostKey() string {
	if s.costKey != "" || s.Kind != SlotInterDevice {
		return s.costKey
	}
	return s.FromIntf.Device.Name + "/" + s.FromIntf.Name
}

// FromVertex returns the tail ETG vertex name.
func (s *Slot) FromVertex() string {
	if s.fromV != "" {
		return s.fromV
	}
	return s.fromVertexUncached()
}

func (s *Slot) fromVertexUncached() string {
	switch s.Kind {
	case SlotSource:
		return "SRC"
	case SlotIntraRedist:
		return s.ToProc.Name() + ":I" // traffic enters via the redistributing process
	case SlotIntraSelf, SlotDest:
		return s.FromProc.Name() + ":I"
	default: // SlotInterDevice
		return s.FromProc.Name() + ":O"
	}
}

// ToVertex returns the head ETG vertex name.
func (s *Slot) ToVertex() string {
	if s.toV != "" {
		return s.toV
	}
	return s.toVertexUncached()
}

func (s *Slot) toVertexUncached() string {
	switch s.Kind {
	case SlotDest:
		return "DST"
	case SlotInterDevice:
		return s.ToProc.Name() + ":I"
	case SlotSource:
		return s.ToProc.Name() + ":O"
	default:
		// Intra-device edges end at the route owner's outgoing vertex.
		return s.FromProc.Name() + ":O"
	}
}

// Slots enumerates every candidate edge slot of the network in a
// deterministic order (by key) and numbers them by position. Every call
// returns a fresh table, so positions are stable within one table and
// meaningless across tables.
func Slots(n *topology.Network) []*Slot {
	var slots []*Slot

	// Intra-device slots.
	for _, dev := range n.Devices() {
		for _, p := range dev.Processes {
			slots = append(slots, &Slot{Kind: SlotIntraSelf, FromProc: p})
		}
		for _, owner := range dev.Processes {
			for _, entry := range dev.Processes {
				if owner == entry {
					continue
				}
				// Edge entryI -> ownerO: present when entry redistributes
				// routes from owner. FromProc is the route owner (edge head
				// is ownerO); ToProc is the entry process.
				slots = append(slots, &Slot{Kind: SlotIntraRedist, FromProc: owner, ToProc: entry})
			}
		}
	}

	// Inter-device slots: one per direction per same-protocol process
	// pair over each physical link.
	for li, l := range n.Links {
		ends := [2][2]*topology.Interface{{l.A, l.B}, {l.B, l.A}}
		for _, pair := range ends {
			from, to := pair[0], pair[1]
			for _, pf := range from.Device.Processes {
				for _, pt := range to.Device.Processes {
					if pf.Proto != pt.Proto {
						continue
					}
					slots = append(slots, &Slot{
						Kind:     SlotInterDevice,
						FromProc: pf,
						ToProc:   pt,
						Link:     l,
						FromIntf: from,
						ToIntf:   to,
						link:     li,
					})
				}
			}
		}
	}

	// Source and destination attachment slots.
	for _, dev := range n.Devices() {
		for _, intf := range dev.Interfaces() {
			if intf.Subnet == nil {
				continue
			}
			for _, p := range dev.Processes {
				slots = append(slots,
					&Slot{Kind: SlotSource, ToProc: p, Subnet: intf.Subnet, Intf: intf},
					&Slot{Kind: SlotDest, FromProc: p, Subnet: intf.Subnet, Intf: intf})
			}
		}
	}

	for _, s := range slots {
		s.key = s.keyUncached()
		s.fromV = s.fromVertexUncached()
		s.toV = s.toVertexUncached()
		if s.Kind == SlotInterDevice {
			s.costKey = s.CostKey()
			s.adjUp = s.adjacencyUpUncached()
			s.adjCached = true
		}
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].Key() < slots[j].Key() })
	vertexID := map[string]int{"SRC": 0, "DST": 1}
	number := func(name string) int {
		id, ok := vertexID[name]
		if !ok {
			id = len(vertexID)
			vertexID[name] = id
		}
		return id
	}
	for i, s := range slots {
		s.index = i
		s.fromID = number(s.fromV)
		s.toID = number(s.toV)
	}
	return slots
}

// PresentAll reports whether the slot's edge exists in the aETG, which
// models only routing adjacencies and redistribution (constructs that
// apply to all traffic classes).
func (s *Slot) PresentAll() bool {
	switch s.Kind {
	case SlotIntraSelf, SlotSource, SlotDest:
		return true
	case SlotIntraRedist:
		for _, src := range s.ToProc.RedistributesFrom {
			if src == s.FromProc {
				return true
			}
		}
		return false
	case SlotInterDevice:
		return s.adjacencyUp()
	}
	return false
}

// adjacencyUp reports whether a routing adjacency is configured over the
// slot's link: both processes run over their respective interfaces and
// neither side is passive.
func (s *Slot) adjacencyUp() bool {
	if s.adjCached {
		return s.adjUp
	}
	return s.adjacencyUpUncached()
}

func (s *Slot) adjacencyUpUncached() bool {
	if !s.FromProc.UsesInterface(s.FromIntf) || !s.ToProc.UsesInterface(s.ToIntf) {
		return false
	}
	if s.FromProc.IsPassive(s.FromIntf) || s.ToProc.IsPassive(s.ToIntf) {
		return false
	}
	return true
}

// StaticBacked reports whether a static route on the tail device for dst
// points across this slot's link (next hop = head interface address).
func (s *Slot) StaticBacked(dst *topology.Subnet) *topology.StaticRoute {
	if s.Kind != SlotInterDevice {
		return nil
	}
	for _, sr := range s.FromProc.Device.Statics {
		if sr.Prefix == dst.Prefix && s.ToIntf.Prefix.IsValid() && sr.NextHop == s.ToIntf.Prefix.Addr() {
			return sr
		}
	}
	return nil
}

// ProcStaticFor reports whether a static route for dst on the process's
// device exits through a link that the process's protocol peers over
// (so the corresponding inter-device slot exists and carries the edge).
// Such a FIB-level static lets traffic entering the device through any
// process leave via owner's outgoing vertex, backing the intra-device
// edges into it.
func ProcStaticFor(owner *topology.Process, dst *topology.Subnet) bool {
	for _, sr := range owner.Device.Statics {
		if sr.Prefix != dst.Prefix {
			continue
		}
		for _, intf := range owner.Device.Interfaces() {
			peer := intf.Peer()
			if peer == nil || !peer.Prefix.IsValid() || peer.Prefix.Addr() != sr.NextHop {
				continue
			}
			for _, q := range peer.Device.Processes {
				if q.Proto == owner.Proto {
					return true
				}
			}
		}
	}
	return false
}

// PresentDst reports whether the slot's edge exists in the dETG for dst,
// which additionally models route filters and static routes.
func (s *Slot) PresentDst(dst *topology.Subnet) bool {
	switch s.Kind {
	case SlotIntraSelf:
		// A route filter on the process removes its ability to forward
		// toward dst (Algorithm 1, lines 4-5) — unless a static route
		// through this process's links makes the FIB authoritative.
		return !s.FromProc.BlocksDestination(dst.Prefix) ||
			ProcStaticFor(s.FromProc, dst)
	case SlotIntraRedist:
		if ProcStaticFor(s.FromProc, dst) {
			return true
		}
		if !s.PresentAll() {
			return false
		}
		// The entry process must accept routes to dst and the owner must
		// have them (Algorithm 1, lines 6-8).
		return !s.ToProc.BlocksDestination(dst.Prefix) && !s.FromProc.BlocksDestination(dst.Prefix)
	case SlotInterDevice:
		if s.StaticBacked(dst) != nil {
			return true
		}
		// The receiving process must advertise routes to dst back to the
		// sender (Algorithm 1, lines 10-13).
		return s.adjacencyUp() && !s.ToProc.BlocksDestination(dst.Prefix)
	case SlotSource:
		return true
	case SlotDest:
		return s.Subnet == dst && !s.FromProc.BlocksDestination(dst.Prefix)
	}
	return false
}

// PresentRouting reports whether the slot's edge exists in the graph
// route selection operates on for tc. Routing is ACL-blind — an ACL
// drops packets but never steers them elsewhere — so presence is
// destination-level for every slot except the source attachment, which
// only exists for tc's own source and still requires the gateway
// process to hold a route to the destination.
func (s *Slot) PresentRouting(tc topology.TrafficClass) bool {
	if s.Kind == SlotSource {
		return s.Subnet == tc.Src && !s.ToProc.BlocksDestination(tc.Dst.Prefix)
	}
	return s.PresentDst(tc.Dst)
}

// PresentTC reports whether the slot's edge exists in the tcETG for tc,
// which additionally models ACLs (Algorithm 1, lines 14-15).
func (s *Slot) PresentTC(tc topology.TrafficClass) bool {
	if !s.PresentDst(tc.Dst) {
		return false
	}
	switch s.Kind {
	case SlotInterDevice:
		if s.aclBlocks(s.FromIntf.OutACL, s.FromIntf.Device, tc) {
			return false
		}
		if s.aclBlocks(s.ToIntf.InACL, s.ToIntf.Device, tc) {
			return false
		}
	case SlotSource:
		if s.Subnet != tc.Src {
			return false
		}
		// Traffic cannot enter the network through a process that has no
		// route to the destination (route filter on the gateway).
		if s.ToProc.BlocksDestination(tc.Dst.Prefix) {
			return false
		}
		if s.aclBlocks(s.Intf.InACL, s.Intf.Device, tc) {
			return false
		}
	case SlotDest:
		if s.aclBlocks(s.Intf.OutACL, s.Intf.Device, tc) {
			return false
		}
	}
	return true
}

// aclBlocks reports whether the named ACL on dev blocks tc.
func (s *Slot) aclBlocks(name string, dev *topology.Device, tc topology.TrafficClass) bool {
	if name == "" {
		return false
	}
	return dev.ACLs[name].Blocks(tc.Src.Prefix, tc.Dst.Prefix)
}

// Weight returns the slot's edge weight for destination dst: the egress
// interface cost for adjacency-backed inter-device edges, the configured
// administrative distance for static-backed edges, and 0 for intra-device
// and attachment edges (matching the ETG weighting of §4.1).
func (s *Slot) Weight(dst *topology.Subnet) int64 {
	if s.Kind != SlotInterDevice {
		return 0
	}
	if s.adjacencyUp() {
		return int64(s.FromIntf.Cost)
	}
	if dst != nil {
		if sr := s.StaticBacked(dst); sr != nil {
			return int64(sr.Distance)
		}
	}
	return int64(s.FromIntf.Cost)
}

// Waypoint reports whether the slot's edge carries an on-path middlebox:
// inter-device edges over waypoint links, and intra-device edges on
// waypoint devices.
func (s *Slot) Waypoint() bool {
	switch s.Kind {
	case SlotInterDevice:
		return s.Link.Waypoint
	case SlotIntraSelf, SlotIntraRedist:
		return s.FromProc.Device.Waypoint
	}
	return false
}

// Device returns the device this slot's configuration lives on for
// translation purposes: the tail device for inter-device and dest slots,
// the owning device for intra slots, the attachment device for source
// slots.
func (s *Slot) Device() *topology.Device {
	switch s.Kind {
	case SlotInterDevice, SlotIntraSelf, SlotDest:
		return s.FromProc.Device
	case SlotIntraRedist, SlotSource:
		return s.ToProc.Device
	}
	return nil
}
