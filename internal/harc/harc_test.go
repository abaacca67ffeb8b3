package harc

import (
	"net/netip"
	"testing"

	"repro/internal/arc"
	"repro/internal/topology"
)

func TestBuildFigure2a(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	if len(h.TCs) != 12 {
		t.Fatalf("traffic classes = %d, want 12", len(h.TCs))
	}
	if len(h.Dsts) != 4 || len(h.D) != 4 {
		t.Fatalf("destinations = %d, want 4", len(h.Dsts))
	}
	if h.A == nil {
		t.Fatal("aETG missing")
	}
	if err := h.ValidateHierarchy(); err != nil {
		t.Fatalf("ValidateHierarchy: %v", err)
	}
}

func TestBuildForTCsSubset(t *testing.T) {
	n := topology.Figure2a()
	tcs := []topology.TrafficClass{
		{Src: n.Subnet("S"), Dst: n.Subnet("T")},
		{Src: n.Subnet("R"), Dst: n.Subnet("T")},
	}
	h := BuildForTCs(n, tcs)
	if len(h.TC) != 2 {
		t.Fatalf("tcETGs = %d, want 2", len(h.TC))
	}
	if len(h.D) != 1 || h.DETG(n.Subnet("T")) == nil {
		t.Fatal("expected a single dETG for T")
	}
}

func TestValidateHierarchyWithStatic(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	h := Build(n)
	if err := h.ValidateHierarchy(); err != nil {
		t.Fatalf("static-backed edge should be hierarchy-valid: %v", err)
	}
	// The static edge is in the dETG for T but not in the aETG.
	var slot *arc.Slot
	for _, s := range h.Slots {
		if s.Kind == arc.SlotInterDevice && s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "C" {
			slot = s
		}
	}
	if slot == nil {
		t.Fatal("A->C slot not found")
	}
	if !h.DETG(n.Subnet("T")).HasSlot(slot) {
		t.Error("A->C should be in dETG(T)")
	}
	if h.A.HasSlot(slot) {
		t.Error("A->C should not be in aETG")
	}
}

func TestStateOfRoundTrip(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	if err := h.ValidateState(st); err != nil {
		t.Fatalf("ValidateState on extracted state: %v", err)
	}
	// The state's tcETG must equal the directly-built tcETG for every tc.
	for _, tc := range h.TCs {
		direct := h.TCETG(tc)
		fromState := BuildTCETGFromState(h, st, tc)
		if direct.G.String() != fromState.G.String() {
			t.Errorf("tcETG(%s) mismatch:\ndirect:\n%s\nstate:\n%s", tc, direct.G.String(), fromState.G.String())
		}
	}
}

func TestStateOfCosts(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").Interface("Ethernet0/1").Cost = 9
	h := Build(n)
	st := StateOf(h)
	if st.Cost["A/Ethernet0/1"] != 9 {
		t.Errorf("cost A/Ethernet0/1 = %d, want 9", st.Cost["A/Ethernet0/1"])
	}
	if st.Cost["B/Ethernet0/1"] != 1 {
		t.Errorf("cost B/Ethernet0/1 = %d, want 1", st.Cost["B/Ethernet0/1"])
	}
}

func TestStateClone(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	c := st.Clone()
	for k := range c.All {
		c.All[k] = !c.All[k]
		break
	}
	for k := range c.Cost {
		c.Cost[k] = 99
		break
	}
	same := true
	for k, v := range st.All {
		if c.All[k] != v {
			same = false
		}
	}
	if same {
		t.Error("clone mutation should diverge from original")
	}
	// Original costs untouched.
	for _, v := range st.Cost {
		if v == 99 {
			t.Error("clone cost mutation leaked into original")
		}
	}
}

func TestValidateStateCatchesHierarchyViolation(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	// Force an edge into a tcETG without its dETG: pick an inter-device
	// slot absent from the dETG for U (e.g. A->C, passive).
	var key string
	for _, s := range h.Slots {
		if s.Kind == arc.SlotInterDevice && s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "C" {
			key = s.Key()
		}
	}
	tcKey := topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("U")}.Key()
	st.TC[tcKey][key] = true
	if err := h.ValidateState(st); err == nil {
		t.Error("ValidateState should reject tcETG edge missing from dETG")
	}
}

func TestValidateStateCatchesIntraViolation(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	// An intra-redist edge present in a dETG but not the aETG is invalid.
	var key string
	for _, s := range h.Slots {
		if s.Kind == arc.SlotIntraRedist {
			key = s.Key()
			break
		}
	}
	if key == "" {
		// Figure2a has single-process devices; fabricate a second process.
		n2 := topology.Figure2a()
		d := n2.Device("A")
		d.AddProcess(topology.BGP, 65000)
		h = Build(n2)
		st = StateOf(h)
		for _, s := range h.Slots {
			if s.Kind == arc.SlotIntraRedist {
				key = s.Key()
				break
			}
		}
	}
	if key == "" {
		t.Fatal("no intra-redist slot found")
	}
	st.Dst[h.Dsts[0].Name][key] = true
	st.All[key] = false
	if err := h.ValidateState(st); err == nil {
		t.Error("ValidateState should reject intra dETG edge missing from aETG")
	}
}

func TestBuildTCETGFromStateRespectsEdits(t *testing.T) {
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	tc := topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}
	// Add the A->C edge at all levels (the Figure 2b repair in state form).
	var key string
	for _, s := range h.Slots {
		if s.Kind == arc.SlotInterDevice && s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "C" {
			key = s.Key()
		}
	}
	st.All[key] = true
	st.Dst["T"][key] = true
	st.TC[tc.Key()][key] = true
	etg := BuildTCETGFromState(h, st, tc)
	from, to := etg.G.Vertex("A:ospf10:O"), etg.G.Vertex("C:ospf10:I")
	if from < 0 || to < 0 || etg.G.FindEdge(from, to) < 0 {
		t.Fatal("state-added edge not materialized")
	}
	if !arc.VerifyKReachable(etg, 2) {
		t.Error("EP3 should hold on the repaired state")
	}
}

func TestStateOfConstructs(t *testing.T) {
	n := topology.Figure2a()
	n.Device("A").AddStatic(n.Subnet("T").Prefix, netip.MustParseAddr("10.0.2.3"), 3)
	pc := n.Device("C").Process(topology.OSPF, 10)
	pc.RouteFilters = append(pc.RouteFilters, n.Subnet("U").Prefix)
	h := Build(n)
	st := StateOf(h)
	if !st.RouteFilter[RFKey("U", "C:ospf10")] {
		t.Error("route filter on C for U not recorded")
	}
	if st.RouteFilter[RFKey("T", "C:ospf10")] {
		t.Error("no filter for T should be recorded")
	}
	foundStatic := false
	for key, v := range st.Static {
		if v && key[:2] == "T|" {
			foundStatic = true
		}
	}
	if !foundStatic {
		t.Error("static route for T not recorded")
	}
	// Clone copies constructs.
	c := st.Clone()
	c.RouteFilter[RFKey("U", "C:ospf10")] = false
	if !st.RouteFilter[RFKey("U", "C:ospf10")] {
		t.Error("clone construct mutation leaked")
	}
}

func TestValidateStateStaticBackedIntra(t *testing.T) {
	// An intra edge backed by a state-level static (no aETG edge) must be
	// hierarchy-valid.
	n := topology.Figure2a()
	h := Build(n)
	st := StateOf(h)
	// Pretend a static for T leaves A via C: find the A->C inter slot.
	var interKey string
	for _, s := range h.Slots {
		if s.Kind == arc.SlotInterDevice && s.FromProc.Device.Name == "A" && s.ToProc.Device.Name == "C" {
			interKey = s.Key()
		}
	}
	st.Static[StaticKey("T", interKey)] = true
	st.Dst["T"][interKey] = true
	if err := h.ValidateState(st); err != nil {
		t.Errorf("static-backed inter edge should validate: %v", err)
	}
}

func TestCostKey(t *testing.T) {
	n := topology.Figure2a()
	var interSlot, selfSlot *arc.Slot
	for _, s := range arc.Slots(n) {
		switch s.Kind {
		case arc.SlotInterDevice:
			interSlot = s
		case arc.SlotIntraSelf:
			selfSlot = s
		}
	}
	if CostKey(interSlot) == "" {
		t.Error("inter-device slot should have a cost key")
	}
	if CostKey(selfSlot) != "" {
		t.Error("intra slot should have no cost key")
	}
}
