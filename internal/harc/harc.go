// Package harc implements the Hierarchical Abstract Representation for
// Control planes (paper §4.3): a traffic-class ETG per (src,dst) pair, a
// destination ETG per destination subnet, and one all-traffic-classes
// ETG, all derived from a shared slot table so the hierarchy invariants
// hold by construction.
//
// The package also defines State — the assignment of per-level presence
// booleans and edge costs that the repair engine searches over — and can
// rebuild ETGs from a repaired State for re-verification.
package harc

import (
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/arc"
	"repro/internal/graph"
	"repro/internal/topology"
)

// HARC bundles the three ETG layers of a network for a set of traffic
// classes.
type HARC struct {
	Network *topology.Network
	Slots   []*arc.Slot
	ByKey   map[string]*arc.Slot

	TCs  []topology.TrafficClass
	Dsts []*topology.Subnet

	A  *arc.ETG
	D  map[string]*arc.ETG // keyed by destination subnet name
	TC map[string]*arc.ETG // keyed by TrafficClass.Key()
}

// Build constructs the HARC over every traffic class of the network.
func Build(n *topology.Network) *HARC {
	return BuildForTCs(n, n.TrafficClasses())
}

// BuildForTCs constructs the HARC restricted to the given traffic classes
// (used by the per-destination decomposition of §5.3).
func BuildForTCs(n *topology.Network, tcs []topology.TrafficClass) *HARC {
	slots := arc.Slots(n)
	h := &HARC{
		Network: n,
		Slots:   slots,
		ByKey:   make(map[string]*arc.Slot, len(slots)),
		TCs:     tcs,
		D:       make(map[string]*arc.ETG),
		TC:      make(map[string]*arc.ETG),
	}
	for _, s := range slots {
		h.ByKey[s.Key()] = s
	}
	h.A = arc.BuildAllETG(slots)
	seen := map[string]bool{}
	for _, tc := range tcs {
		if !seen[tc.Dst.Name] {
			seen[tc.Dst.Name] = true
			h.Dsts = append(h.Dsts, tc.Dst)
		}
	}
	// Each per-class and per-destination ETG is a pure function of the
	// (immutable, key-precached) slot table, so they build concurrently
	// over the same pool shape StateOf uses; the index maps are assembled
	// serially in input order, keeping the HARC byte-identical to a
	// sequential build.
	tcOut := make([]*arc.ETG, len(tcs))
	dstOut := make([]*arc.ETG, len(h.Dsts))
	total := len(tcs) + len(h.Dsts)
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if i < len(h.Dsts) {
					dstOut[i] = arc.BuildDstETG(slots, h.Dsts[i])
				} else {
					tcOut[i-len(h.Dsts)] = arc.BuildTCETG(slots, tcs[i-len(h.Dsts)])
				}
			}
		}()
	}
	wg.Wait()
	for i, dst := range h.Dsts {
		h.D[dst.Name] = dstOut[i]
	}
	for i, tc := range tcs {
		h.TC[tc.Key()] = tcOut[i]
	}
	return h
}

// BuildLite constructs the slot table and class/destination indexes of
// a HARC without materializing any ETG — enough for StateOf and the
// *FromState builders, which read only Slots and the indexes. Verifiers
// that compare states (rather than graphs) use it to skip the dominant
// cost of BuildForTCs.
func BuildLite(n *topology.Network, tcs []topology.TrafficClass) *HARC {
	slots := arc.Slots(n)
	h := &HARC{
		Network: n,
		Slots:   slots,
		ByKey:   make(map[string]*arc.Slot, len(slots)),
		TCs:     tcs,
		D:       make(map[string]*arc.ETG),
		TC:      make(map[string]*arc.ETG),
	}
	for _, s := range slots {
		h.ByKey[s.Key()] = s
	}
	seen := map[string]bool{}
	for _, tc := range tcs {
		if !seen[tc.Dst.Name] {
			seen[tc.Dst.Name] = true
			h.Dsts = append(h.Dsts, tc.Dst)
		}
	}
	return h
}

// TCETG returns the tcETG for tc.
func (h *HARC) TCETG(tc topology.TrafficClass) *arc.ETG { return h.TC[tc.Key()] }

// DETG returns the dETG for dst.
func (h *HARC) DETG(dst *topology.Subnet) *arc.ETG { return h.D[dst.Name] }

// ValidateHierarchy checks the HARC well-formedness invariants of §4.3:
// every tcETG edge exists in the corresponding dETG, and every dETG edge
// exists in the aETG or (inter-device only) is backed by a static route.
func (h *HARC) ValidateHierarchy() error {
	for _, tc := range h.TCs {
		tcETG := h.TCETG(tc)
		dETG := h.DETG(tc.Dst)
		for _, s := range h.Slots {
			if s.Kind == arc.SlotSource {
				continue // source edges exist only at the tc level
			}
			if tcETG.HasSlot(s) && !dETG.HasSlot(s) {
				return fmt.Errorf("harc: edge %s in tcETG(%s) but not dETG(%s)", s.Key(), tc, tc.Dst.Name)
			}
		}
	}
	for _, dst := range h.Dsts {
		dETG := h.DETG(dst)
		for _, s := range h.Slots {
			if !dETG.HasSlot(s) {
				continue
			}
			switch s.Kind {
			case arc.SlotInterDevice:
				if !h.A.HasSlot(s) && s.StaticBacked(dst) == nil {
					return fmt.Errorf("harc: inter-device edge %s in dETG(%s) without aETG edge or static route", s.Key(), dst.Name)
				}
			case arc.SlotIntraSelf, arc.SlotIntraRedist:
				if !h.A.HasSlot(s) && !arc.ProcStaticFor(s.FromProc, dst) {
					return fmt.Errorf("harc: intra-device edge %s in dETG(%s) but not aETG", s.Key(), dst.Name)
				}
			}
		}
	}
	return nil
}

// CostKey identifies the shared cost variable of an inter-device slot: the
// directed egress interface. Routing protocols do not allow per-class or
// per-destination costs (paper §5.1, constraint 13 discussion), so every
// slot leaving the same interface shares one cost.
func CostKey(s *arc.Slot) string {
	if s.Kind != arc.SlotInterDevice {
		return ""
	}
	return s.FromIntf.Device.Name + "/" + s.FromIntf.Name
}

// State is an explicit assignment of edge presence per HARC level plus
// shared edge costs: the search space of the repair engine. Maps are
// keyed by Slot.Key(); absent keys mean "absent edge". Costs are keyed by
// CostKey.
//
// States are copy-on-write at the granularity of one traffic class or
// one destination: Clone shares every inner TC and Dst map with its
// source, and SetTC/SetDst copy an inner map the first time a write
// changes one of its values. Code holding a State that may share inner
// maps must therefore never write an inner map directly; the flat maps
// (All, Cost, Waypoint, RouteFilter, Static) are copied by Clone and may
// be written freely.
type State struct {
	All  map[string]bool
	Dst  map[string]map[string]bool // dst subnet name → slot key → present
	TC   map[string]map[string]bool // tc key → slot key → present
	Cost map[string]int64
	// Waypoint records per-link middlebox presence (keyed by Link.Name());
	// repairs may add waypoints (paper §2.2, footnote 2).
	Waypoint map[string]bool
	// RouteFilter records per-(destination, process) filtering, keyed
	// "dst|procName"; Static records per-(destination, inter slot) static
	// routes, keyed "dst|slotKey". These are the constructs the presence
	// maps are derived from; the translator reads them directly.
	RouteFilter map[string]bool
	Static      map[string]bool

	// ownTC and ownDst name the inner maps this state copied (or
	// created) through SetTC/SetDst and may therefore write in place.
	// Every other inner map may be shared with another state.
	ownTC, ownDst map[string]bool
}

// RFKey builds a RouteFilter key.
func RFKey(dstName, procName string) string { return dstName + "|" + procName }

// StaticKey builds a Static key.
func StaticKey(dstName, slotKey string) string { return dstName + "|" + slotKey }

// NewState returns an empty state with allocated maps.
func NewState() *State {
	return &State{
		All:         make(map[string]bool),
		Dst:         make(map[string]map[string]bool),
		TC:          make(map[string]map[string]bool),
		Cost:        make(map[string]int64),
		Waypoint:    make(map[string]bool),
		RouteFilter: make(map[string]bool),
		Static:      make(map[string]bool),
	}
}

// Clone returns a copy that shares every inner TC and Dst map with st
// and copies the flat maps. Afterwards neither state owns a shared inner
// map, so a later SetTC/SetDst on either copies before writing. Cloning
// a state that owns no inner map (any StateOf result) does not modify
// it, so such a state may be cloned concurrently.
func (st *State) Clone() *State {
	c := &State{
		All:         copyMap(st.All),
		Dst:         make(map[string]map[string]bool, len(st.Dst)),
		TC:          make(map[string]map[string]bool, len(st.TC)),
		Cost:        copyMap(st.Cost),
		Waypoint:    copyMap(st.Waypoint),
		RouteFilter: copyMap(st.RouteFilter),
		Static:      copyMap(st.Static),
	}
	for d, m := range st.Dst {
		c.Dst[d] = m
	}
	for t, m := range st.TC {
		c.TC[t] = m
	}
	if st.ownTC != nil {
		st.ownTC = nil
	}
	if st.ownDst != nil {
		st.ownDst = nil
	}
	return c
}

func copyMap[V any](m map[string]V) map[string]V {
	c := make(map[string]V, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// SetTC records slot's presence v in traffic class tc's map. A write
// that leaves the map unchanged (the slot already holds v) is a no-op;
// otherwise a map this state does not own is copied first, so states it
// shares the map with never see the write.
func (st *State) SetTC(tc, slot string, v bool) {
	setInner(st.TC, &st.ownTC, tc, slot, v)
}

// SetDst is SetTC for destination dst's map.
func (st *State) SetDst(dst, slot string, v bool) {
	setInner(st.Dst, &st.ownDst, dst, slot, v)
}

func setInner(outer map[string]map[string]bool, own *map[string]bool, key, slot string, v bool) {
	m := outer[key]
	if old, ok := m[slot]; ok && old == v {
		return
	}
	if !(*own)[key] {
		m = copyMap(m)
		outer[key] = m
		if *own == nil {
			*own = make(map[string]bool)
		}
		(*own)[key] = true
	}
	m[slot] = v
}

// AdoptTC makes m traffic class tc's map, shared: the state does not
// own it, so a later SetTC copies it first. The caller must not write m
// afterwards either.
func (st *State) AdoptTC(tc string, m map[string]bool) {
	st.TC[tc] = m
	delete(st.ownTC, tc)
}

// AdoptDst is AdoptTC for destination dst's map.
func (st *State) AdoptDst(dst string, m map[string]bool) {
	st.Dst[dst] = m
	delete(st.ownDst, dst)
}

// SharesTC reports whether st and o hold the same map object for
// traffic class tc — in which case the two states agree on the class
// without comparing its entries. Two absent maps count as shared.
func (st *State) SharesTC(o *State, tc string) bool {
	return sameMap(st.TC[tc], o.TC[tc])
}

// SharesDst is SharesTC for destination dst's map.
func (st *State) SharesDst(o *State, dst string) bool {
	return sameMap(st.Dst[dst], o.Dst[dst])
}

func sameMap(a, b map[string]bool) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// ApproxBytes estimates the heap this state holds on its own: its flat
// maps, its outer TC/Dst maps, and the inner maps it owns. Inner maps
// shared with the state it was cloned from are that state's to count,
// so a retained repair state is charged for what its repair changed,
// not again for the whole network.
func (st *State) ApproxBytes() int64 {
	if st == nil {
		return 0
	}
	perEntry := func(m map[string]bool) int64 {
		var b int64
		for k := range m {
			b += int64(len(k)) + 24
		}
		return b
	}
	n := perEntry(st.All) + perEntry(st.Waypoint) + perEntry(st.RouteFilter) + perEntry(st.Static)
	for k := range st.Cost {
		n += int64(len(k)) + 24
	}
	for k, m := range st.Dst {
		n += int64(len(k)) + 16
		if st.ownDst[k] {
			n += perEntry(m)
		}
	}
	for k, m := range st.TC {
		n += int64(len(k)) + 16
		if st.ownTC[k] {
			n += perEntry(m)
		}
	}
	return n
}

// Equal reports whether two states hold the same entries in every map,
// explicit false entries included. Sharing is not compared.
func (st *State) Equal(o *State) bool {
	if len(st.Dst) != len(o.Dst) || len(st.TC) != len(o.TC) {
		return false
	}
	for d, m := range st.Dst {
		om, ok := o.Dst[d]
		if !ok || !mapsEqual(m, om) {
			return false
		}
	}
	for t, m := range st.TC {
		om, ok := o.TC[t]
		if !ok || !mapsEqual(m, om) {
			return false
		}
	}
	return mapsEqual(st.All, o.All) && mapsEqual(st.Cost, o.Cost) &&
		mapsEqual(st.Waypoint, o.Waypoint) && mapsEqual(st.RouteFilter, o.RouteFilter) &&
		mapsEqual(st.Static, o.Static)
}

func mapsEqual[V comparable](a, b map[string]V) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// StateOf extracts the current state of the HARC: presence of every slot
// at every level and the cost of every directed interface. The
// per-destination and per-traffic-class scans are independent and run
// on one worker per core (the concrete maps are staged per index and
// merged serially, so the result is deterministic).
func StateOf(h *HARC) *State {
	sz := sizesOf(h)
	st := &State{
		All:         make(map[string]bool, sz.core),
		Dst:         make(map[string]map[string]bool, len(h.Dsts)),
		TC:          make(map[string]map[string]bool, len(h.TCs)),
		Cost:        make(map[string]int64, sz.inter),
		Waypoint:    make(map[string]bool, len(h.Network.Links)),
		RouteFilter: make(map[string]bool, sz.self*len(h.Dsts)),
		Static:      make(map[string]bool, sz.inter*len(h.Dsts)),
	}
	for _, s := range h.Slots {
		key := s.Key()
		if s.Kind != arc.SlotSource && s.Kind != arc.SlotDest {
			st.All[key] = s.PresentAll()
		}
		if ck := CostKey(s); ck != "" {
			st.Cost[ck] = int64(s.FromIntf.Cost)
		}
	}
	for _, l := range h.Network.Links {
		st.Waypoint[l.Name()] = l.Waypoint
	}

	type dstMaps struct {
		m, rf, static map[string]bool
	}
	dstOut := make([]dstMaps, len(h.Dsts))
	tcOut := make([]map[string]bool, len(h.TCs))
	total := len(h.Dsts) + len(h.TCs)
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if i < len(h.Dsts) {
					dst := h.Dsts[i]
					dstOut[i] = dstMaps{m: stateOfDst(h, dst, sz.core+sz.dst[dst])}
					dstOut[i].rf, dstOut[i].static = stateOfConstructs(h, dst, sz)
				} else {
					tc := h.TCs[i-len(h.Dsts)]
					tcOut[i-len(h.Dsts)] = stateOfTC(h, tc, sz.core+sz.src[tc.Src]+sz.dst[tc.Dst])
				}
			}
		}()
	}
	wg.Wait()
	for i, dst := range h.Dsts {
		st.Dst[dst.Name] = dstOut[i].m
		for k, v := range dstOut[i].rf {
			st.RouteFilter[k] = v
		}
		for k, v := range dstOut[i].static {
			st.Static[k] = v
		}
	}
	for i, tc := range h.TCs {
		st.TC[tc.Key()] = tcOut[i]
	}
	return st
}

// stateSizes counts a HARC's slots by the maps StateOf files them in, so
// every map can be allocated at its final size instead of growing:
// core slots (neither attachment kind) appear at every level, attachment
// slots only in the classes and destinations of their subnet.
type stateSizes struct {
	core, self, inter int
	src, dst          map[*topology.Subnet]int
}

func sizesOf(h *HARC) stateSizes {
	sz := stateSizes{src: map[*topology.Subnet]int{}, dst: map[*topology.Subnet]int{}}
	for _, s := range h.Slots {
		switch s.Kind {
		case arc.SlotSource:
			sz.src[s.Subnet]++
			continue
		case arc.SlotDest:
			sz.dst[s.Subnet]++
			continue
		case arc.SlotIntraSelf:
			sz.self++
		case arc.SlotInterDevice:
			sz.inter++
		}
		sz.core++
	}
	return sz
}

// slotTouches reports whether a slot's presence can depend on the
// configuration of any device in changed: its end processes' devices
// and (for attachment slots) the attachment interface's device.
func slotTouches(s *arc.Slot, changed map[string]bool) bool {
	if s.FromProc != nil && changed[s.FromProc.Device.Name] {
		return true
	}
	if s.ToProc != nil && changed[s.ToProc.Device.Name] {
		return true
	}
	if s.Intf != nil && changed[s.Intf.Device.Name] {
		return true
	}
	return false
}

// StateOfDelta computes StateOf(h) assuming base is the state of a HARC
// whose network differs from h's only in the configurations of the
// devices named in changed: slots touching a changed device are
// recomputed from the slot rules, everything else is copied from base.
// It returns nil — directing the caller to a full StateOf — whenever
// the assumption is not checkable: base lacks a destination, class,
// slot, link, cost, or construct key the new network has (the change
// was structural, not just behavioral).
//
// Soundness rests on slot presence being a function of its end devices'
// configurations and the subnet prefixes: every rule the slot evaluates
// (route filters, ACLs, static routes, redistribution) lives in the
// config of a device slotTouches covers. Prefix changes break that
// locality — an ACL on an unchanged device matches against remote
// prefixes — so callers must not use the delta path when any subnet's
// prefix differs between the two networks (session.Delta enforces
// this).
func StateOfDelta(h *HARC, base *State, changed map[string]bool) *State {
	if base == nil || len(changed) == 0 {
		return nil
	}
	for _, dst := range h.Dsts {
		if base.Dst[dst.Name] == nil {
			return nil
		}
	}
	for _, tc := range h.TCs {
		if base.TC[tc.Key()] == nil {
			return nil
		}
	}
	st := NewState()
	for _, s := range h.Slots {
		key := s.Key()
		t := slotTouches(s, changed)
		if s.Kind != arc.SlotSource && s.Kind != arc.SlotDest {
			if t {
				st.All[key] = s.PresentAll()
			} else if v, ok := base.All[key]; ok {
				st.All[key] = v
			} else {
				return nil
			}
		}
		if ck := CostKey(s); ck != "" {
			if t {
				st.Cost[ck] = int64(s.FromIntf.Cost)
			} else if v, ok := base.Cost[ck]; ok {
				st.Cost[ck] = v
			} else {
				return nil
			}
		}
	}
	for _, l := range h.Network.Links {
		if changed[l.A.Device.Name] || changed[l.B.Device.Name] {
			st.Waypoint[l.Name()] = l.Waypoint
		} else if v, ok := base.Waypoint[l.Name()]; ok {
			st.Waypoint[l.Name()] = v
		} else {
			return nil
		}
	}

	type dstMaps struct {
		m, rf, static map[string]bool
	}
	dstOut := make([]dstMaps, len(h.Dsts))
	tcOut := make([]map[string]bool, len(h.TCs))
	total := len(h.Dsts) + len(h.TCs)
	workers := runtime.GOMAXPROCS(0)
	if workers > total {
		workers = total
	}
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || failed.Load() {
					return
				}
				ok := true
				if i < len(h.Dsts) {
					dst := h.Dsts[i]
					dstOut[i].m, ok = stateOfDstDelta(h, base, dst, changed)
					if ok {
						dstOut[i].rf, dstOut[i].static, ok = stateOfConstructsDelta(h, base, dst, changed)
					}
				} else {
					tcOut[i-len(h.Dsts)], ok = stateOfTCDelta(h, base, h.TCs[i-len(h.Dsts)], changed)
				}
				if !ok {
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil
	}
	for i, dst := range h.Dsts {
		st.Dst[dst.Name] = dstOut[i].m
		for k, v := range dstOut[i].rf {
			st.RouteFilter[k] = v
		}
		for k, v := range dstOut[i].static {
			st.Static[k] = v
		}
	}
	for i, tc := range h.TCs {
		st.TC[tc.Key()] = tcOut[i]
	}
	return st
}

// DeltaMatches reports whether StateOf(h) equals want on every map a
// policy check reads — per-class and per-destination presence for h's
// classes and destinations, costs and waypoints — without computing it,
// given that orig is the state of base's HARC and h's network differs
// from base's only in the configurations of the devices in changed.
// It is StateOfDelta's locality argument turned into a comparison:
// slots touching a changed device are re-derived from h and compared
// with want; every other slot must hold its orig value in want, which
// is free for an inner map want still shares with orig.
//
// A false result proves nothing — it also covers every case the
// argument does not apply to: h and base differ in slot keys, devices,
// links, subnets or subnet prefixes (remote ACL matching reads
// prefixes network-wide), or orig lacks one of h's classes or
// destinations. Callers fall back to a full StateOf comparison.
func DeltaMatches(h, base *HARC, orig, want *State, changed map[string]bool) bool {
	if !sameShape(h, base) {
		return false
	}
	cost := make(map[string]int64, len(want.Cost))
	var touched []*arc.Slot
	touchedKey := make(map[string]bool)
	for _, s := range h.Slots {
		if ck := CostKey(s); ck != "" {
			cost[ck] = int64(s.FromIntf.Cost)
		}
		if slotTouches(s, changed) {
			touched = append(touched, s)
			touchedKey[s.Key()] = true
		}
	}
	if !mapsEqual(cost, want.Cost) || len(want.Waypoint) != len(h.Network.Links) {
		return false
	}
	for _, l := range h.Network.Links {
		if v, ok := want.Waypoint[l.Name()]; !ok || v != l.Waypoint {
			return false
		}
	}
	// untouchedMatch checks want's map against orig's on every slot no
	// changed device can affect, plus the key count: orig's map holds
	// exactly the applicable slots (base and h have the same slot keys),
	// so with every touched key checked below, equal counts mean equal
	// key sets.
	untouchedMatch := func(wm, om map[string]bool) bool {
		if om == nil || len(wm) != len(om) {
			return false
		}
		if sameMap(wm, om) {
			return true
		}
		for k, v := range om {
			if touchedKey[k] {
				continue
			}
			if wv, ok := wm[k]; !ok || wv != v {
				return false
			}
		}
		return true
	}
	for _, dst := range h.Dsts {
		wm := want.Dst[dst.Name]
		if !untouchedMatch(wm, orig.Dst[dst.Name]) {
			return false
		}
		for _, s := range touched {
			if s.Kind == arc.SlotSource || (s.Kind == arc.SlotDest && s.Subnet != dst) {
				continue
			}
			if v, ok := wm[s.Key()]; !ok || v != s.PresentDst(dst) {
				return false
			}
		}
	}
	for _, tc := range h.TCs {
		key := tc.Key()
		wm := want.TC[key]
		if !untouchedMatch(wm, orig.TC[key]) {
			return false
		}
		for _, s := range touched {
			if (s.Kind == arc.SlotSource && s.Subnet != tc.Src) || (s.Kind == arc.SlotDest && s.Subnet != tc.Dst) {
				continue
			}
			if v, ok := wm[s.Key()]; !ok || v != s.PresentTC(tc) {
				return false
			}
		}
	}
	return true
}

// sameShape reports whether two HARCs have the same devices, links,
// subnets (by name and prefix) and slot keys: the structure the
// locality argument of DeltaMatches and StateOfDelta assumes fixed.
func sameShape(h, base *HARC) bool {
	if len(h.Slots) != len(base.Slots) {
		return false
	}
	for _, s := range h.Slots {
		if base.ByKey[s.Key()] == nil {
			return false
		}
	}
	hn, bn := h.Network, base.Network
	if len(hn.Subnets) != len(bn.Subnets) || len(hn.Links) != len(bn.Links) || len(hn.Devices()) != len(bn.Devices()) {
		return false
	}
	prefixes := make(map[string]netip.Prefix, len(bn.Subnets))
	for _, sn := range bn.Subnets {
		prefixes[sn.Name] = sn.Prefix
	}
	for _, sn := range hn.Subnets {
		if p, ok := prefixes[sn.Name]; !ok || p != sn.Prefix {
			return false
		}
	}
	links := make(map[string]bool, len(bn.Links))
	for _, l := range bn.Links {
		links[l.Name()] = true
	}
	for _, l := range hn.Links {
		if !links[l.Name()] {
			return false
		}
	}
	for _, d := range hn.Devices() {
		if bn.Device(d.Name) == nil {
			return false
		}
	}
	return true
}

// stateOfDstDelta is stateOfDst with unchanged slots copied from base.
func stateOfDstDelta(h *HARC, base *State, dst *topology.Subnet, changed map[string]bool) (map[string]bool, bool) {
	bm := base.Dst[dst.Name]
	m := make(map[string]bool, len(bm))
	for _, s := range h.Slots {
		if s.Kind == arc.SlotSource {
			continue
		}
		if s.Kind == arc.SlotDest && s.Subnet != dst {
			continue
		}
		key := s.Key()
		if slotTouches(s, changed) {
			m[key] = s.PresentDst(dst)
		} else if v, ok := bm[key]; ok {
			m[key] = v
		} else {
			return nil, false
		}
	}
	return m, true
}

// stateOfConstructsDelta is stateOfConstructs with unchanged slots
// copied from base.
func stateOfConstructsDelta(h *HARC, base *State, dst *topology.Subnet, changed map[string]bool) (rf, static map[string]bool, ok bool) {
	rf = make(map[string]bool)
	static = make(map[string]bool)
	for _, s := range h.Slots {
		switch s.Kind {
		case arc.SlotIntraSelf:
			key := RFKey(dst.Name, s.FromProc.Name())
			if slotTouches(s, changed) {
				rf[key] = s.FromProc.BlocksDestination(dst.Prefix)
			} else if v, ok := base.RouteFilter[key]; ok {
				rf[key] = v
			} else {
				return nil, nil, false
			}
		case arc.SlotInterDevice:
			key := StaticKey(dst.Name, s.Key())
			if slotTouches(s, changed) {
				static[key] = s.StaticBacked(dst) != nil
			} else if v, ok := base.Static[key]; ok {
				static[key] = v
			} else {
				return nil, nil, false
			}
		}
	}
	return rf, static, true
}

// stateOfTCDelta is stateOfTC with unchanged slots copied from base.
func stateOfTCDelta(h *HARC, base *State, tc topology.TrafficClass, changed map[string]bool) (map[string]bool, bool) {
	bm := base.TC[tc.Key()]
	m := make(map[string]bool, len(bm))
	for _, s := range h.Slots {
		if s.Kind == arc.SlotSource && s.Subnet != tc.Src {
			continue
		}
		if s.Kind == arc.SlotDest && s.Subnet != tc.Dst {
			continue
		}
		key := s.Key()
		if slotTouches(s, changed) {
			m[key] = s.PresentTC(tc)
		} else if v, ok := bm[key]; ok {
			m[key] = v
		} else {
			return nil, false
		}
	}
	return m, true
}

// stateOfDst computes one destination's dETG presence map.
func stateOfDst(h *HARC, dst *topology.Subnet, size int) map[string]bool {
	m := make(map[string]bool, size)
	for _, s := range h.Slots {
		if s.Kind == arc.SlotSource {
			continue
		}
		if s.Kind == arc.SlotDest && s.Subnet != dst {
			continue
		}
		m[s.Key()] = s.PresentDst(dst)
	}
	return m
}

// stateOfConstructs computes one destination's route-filter and
// static-route construct maps.
func stateOfConstructs(h *HARC, dst *topology.Subnet, sz stateSizes) (rf, static map[string]bool) {
	rf = make(map[string]bool, sz.self)
	static = make(map[string]bool, sz.inter)
	for _, s := range h.Slots {
		switch s.Kind {
		case arc.SlotIntraSelf:
			rf[RFKey(dst.Name, s.FromProc.Name())] =
				s.FromProc.BlocksDestination(dst.Prefix)
		case arc.SlotInterDevice:
			static[StaticKey(dst.Name, s.Key())] = s.StaticBacked(dst) != nil
		}
	}
	return rf, static
}

// stateOfTC computes one traffic class's tcETG presence map.
func stateOfTC(h *HARC, tc topology.TrafficClass, size int) map[string]bool {
	m := make(map[string]bool, size)
	for _, s := range h.Slots {
		if s.Kind == arc.SlotSource && s.Subnet != tc.Src {
			continue
		}
		if s.Kind == arc.SlotDest && s.Subnet != tc.Dst {
			continue
		}
		m[s.Key()] = s.PresentTC(tc)
	}
	return m
}

// procStatic reports whether the state has a static route for dst
// leaving through the given process (an inter slot with that tail).
func (st *State) procStatic(h *HARC, dstName string, proc *topology.Process) bool {
	for _, s := range h.Slots {
		if s.Kind != arc.SlotInterDevice || s.FromProc != proc {
			continue
		}
		if st.Static[StaticKey(dstName, s.Key())] {
			return true
		}
	}
	return false
}

// SlotCost returns the state's cost for slot s, falling back to the
// slot's structural weight for non-inter-device slots.
func (st *State) SlotCost(s *arc.Slot, dst *topology.Subnet) int64 {
	if ck := CostKey(s); ck != "" {
		if c, ok := st.Cost[ck]; ok {
			return c
		}
	}
	return s.Weight(dst)
}

// BuildTCETGFromState materializes the tcETG encoded in the state for tc:
// the graph with exactly the slots marked present at the tc level, using
// the state's costs. Used to re-verify repaired HARCs before translation.
func BuildTCETGFromState(h *HARC, st *State, tc topology.TrafficClass) *arc.ETG {
	etg := &arc.ETG{
		Level:     arc.LevelTC,
		TC:        tc,
		DstSubnet: tc.Dst,
		G:         graph.New(),
		SlotOf:    make(map[graph.E]*arc.Slot),
		EdgeOf:    make(map[string]graph.E),
	}
	etg.Src = etg.G.AddVertex("SRC")
	etg.Dst = etg.G.AddVertex("DST")
	etg.Waypoints = st.Waypoint
	m := st.TC[tc.Key()]
	for _, s := range h.Slots {
		if !m[s.Key()] {
			continue
		}
		if s.Kind == arc.SlotSource && s.Subnet != tc.Src {
			continue
		}
		if s.Kind == arc.SlotDest && s.Subnet != tc.Dst {
			continue
		}
		from := etg.G.AddVertex(s.FromVertex())
		to := etg.G.AddVertex(s.ToVertex())
		e := etg.G.AddEdge(from, to, st.SlotCost(s, tc.Dst))
		etg.SlotOf[e] = s
		etg.EdgeOf[s.Key()] = e
	}
	return etg
}

// BuildRoutingETGFromState materializes the routing graph encoded in the
// state for tc: destination-level presence for every slot (route
// selection is ACL-blind) plus tc's own attachment edges. The source
// attachment uses tc-level presence — a blocked entry drops traffic
// outright, it cannot be routed around.
func BuildRoutingETGFromState(h *HARC, st *State, tc topology.TrafficClass) *arc.ETG {
	etg := &arc.ETG{
		Level:     arc.LevelTC,
		TC:        tc,
		DstSubnet: tc.Dst,
		G:         graph.New(),
		SlotOf:    make(map[graph.E]*arc.Slot),
		EdgeOf:    make(map[string]graph.E),
	}
	etg.Src = etg.G.AddVertex("SRC")
	etg.Dst = etg.G.AddVertex("DST")
	etg.Waypoints = st.Waypoint
	dstm := st.Dst[tc.Dst.Name]
	tcm := st.TC[tc.Key()]
	for _, s := range h.Slots {
		if s.Kind == arc.SlotSource {
			if s.Subnet != tc.Src || !tcm[s.Key()] {
				continue
			}
		} else {
			if s.Kind == arc.SlotDest && s.Subnet != tc.Dst {
				continue
			}
			if !dstm[s.Key()] {
				continue
			}
		}
		from := etg.G.AddVertex(s.FromVertex())
		to := etg.G.AddVertex(s.ToVertex())
		e := etg.G.AddEdge(from, to, st.SlotCost(s, tc.Dst))
		etg.SlotOf[e] = s
		etg.EdgeOf[s.Key()] = e
	}
	return etg
}

// ValidateState checks the hierarchy invariants on an explicit state
// (constraints 18-19 of Figure 5 plus the static-backing rule for
// intra-device edges).
func (h *HARC) ValidateState(st *State) error {
	for _, tc := range h.TCs {
		m := st.TC[tc.Key()]
		dm := st.Dst[tc.Dst.Name]
		for key, present := range m {
			s := h.ByKey[key]
			if s == nil {
				return fmt.Errorf("harc: state references unknown slot %s", key)
			}
			if s.Kind == arc.SlotSource {
				continue
			}
			if present && !dm[key] {
				return fmt.Errorf("harc: state has %s in tcETG(%s) but not dETG(%s)", key, tc, tc.Dst.Name)
			}
		}
	}
	for dstName, dm := range st.Dst {
		for key, present := range dm {
			if !present {
				continue
			}
			s := h.ByKey[key]
			if s == nil {
				return fmt.Errorf("harc: state references unknown slot %s", key)
			}
			switch s.Kind {
			case arc.SlotIntraSelf, arc.SlotIntraRedist:
				if !st.All[key] && !st.procStatic(h, dstName, s.FromProc) {
					return fmt.Errorf("harc: state has intra edge %s in dETG(%s) but not aETG", key, dstName)
				}
			}
		}
	}
	return nil
}
