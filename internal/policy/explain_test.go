package policy

import (
	"strings"
	"testing"

	"repro/internal/harc"
	"repro/internal/topology"
)

func TestExplainSatisfiedPoliciesReturnFalse(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	ep1, ep2, _, ep4 := ep(n)
	for _, p := range []Policy{ep1, ep2, ep4} {
		if w, violated := Explain(h, p); violated {
			t.Errorf("%s holds but Explain returned %q", p, w)
		}
	}
}

func TestExplainPC3Violation(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	_, _, ep3, _ := ep(n)
	w, violated := Explain(h, ep3)
	if !violated {
		t.Fatal("EP3 is violated; Explain should produce a witness")
	}
	// Failing A-B or B-C disconnects S from T.
	if !strings.Contains(w, "A-B") && !strings.Contains(w, "B-C") {
		t.Errorf("witness should name a cut link: %q", w)
	}
}

func TestExplainPC1Violation(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	// S->T must be blocked (it is reachable): witness is the path.
	p := Policy{Kind: AlwaysBlocked, TC: topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}}
	w, violated := Explain(h, p)
	if !violated {
		t.Fatal("policy is violated")
	}
	if !strings.Contains(w, "A") || !strings.Contains(w, "B") || !strings.Contains(w, "C") {
		t.Errorf("witness should show the A->B->C path: %q", w)
	}
}

func TestExplainPC2Violation(t *testing.T) {
	n := topology.Figure2a()
	// Remove the firewall: every S->T path is now waypoint-free.
	n.Link("B", "C").Waypoint = false
	h := harc.Build(n)
	p := Policy{Kind: AlwaysWaypoint, TC: topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}}
	w, violated := Explain(h, p)
	if !violated {
		t.Fatal("policy is violated without the firewall")
	}
	if !strings.Contains(w, "waypoint-free") {
		t.Errorf("witness: %q", w)
	}
}

func TestExplainPC4Violation(t *testing.T) {
	n := topology.Figure2a()
	// Enable A-C: R->T now prefers the shorter A->C path.
	delete(n.Device("C").Process(topology.OSPF, 10).Passive, "Ethernet0/1")
	h := harc.Build(n)
	p := Policy{Kind: PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: n.Subnet("R"), Dst: n.Subnet("T")}}
	w, violated := Explain(h, p)
	if !violated {
		t.Fatal("EP4 is violated after enabling A-C")
	}
	if !strings.Contains(w, "A -> C") {
		t.Errorf("witness should show the A->C shortcut: %q", w)
	}
}

func TestExplainPC4Ambiguity(t *testing.T) {
	n := topology.Figure2a()
	// Enable A-C with cost exactly 2 so both paths tie.
	delete(n.Device("C").Process(topology.OSPF, 10).Passive, "Ethernet0/1")
	n.Device("A").Interface("Ethernet0/2").Cost = 2
	h := harc.Build(n)
	p := Policy{Kind: PrimaryPath, Path: []string{"A", "B", "C"}, TC: topology.TrafficClass{Src: n.Subnet("R"), Dst: n.Subnet("T")}}
	w, violated := Explain(h, p)
	if !violated {
		t.Fatal("equal-cost paths should violate PC4")
	}
	if !strings.Contains(w, "equal-cost") {
		t.Errorf("witness should mention ambiguity: %q", w)
	}
}

func TestExplainIsolation(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	p := Policy{
		Kind: Isolated,
		TC:   topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")},
		TC2:  topology.TrafficClass{Src: n.Subnet("R"), Dst: n.Subnet("T")},
	}
	w, violated := Explain(h, p)
	if !violated {
		t.Fatal("classes share edges")
	}
	if !strings.Contains(w, "share") {
		t.Errorf("witness: %q", w)
	}
}

// TestExplainIsolationDeterministic: the isolation witness names the
// first shared slot in edge order, so fresh HARC builds (fresh slot
// tables, fresh graphs) always give the same text.
func TestExplainIsolationDeterministic(t *testing.T) {
	var first string
	for i := 0; i < 20; i++ {
		n := topology.Figure2a()
		h := harc.Build(n)
		p := Policy{
			Kind: Isolated,
			TC:   topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")},
			TC2:  topology.TrafficClass{Src: n.Subnet("R"), Dst: n.Subnet("T")},
		}
		w, violated := Explain(h, p)
		if !violated {
			t.Fatal("classes share edges")
		}
		if i == 0 {
			first = w
			continue
		}
		if w != first {
			t.Fatalf("build %d: witness %q, first build said %q", i, w, first)
		}
	}
	// Edge order is slot-table order, which is key order.
	n := topology.Figure2a()
	h := harc.Build(n)
	a := h.TCETG(topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")})
	b := h.TCETG(topology.TrafficClass{Src: n.Subnet("R"), Dst: n.Subnet("T")})
	for _, s := range h.Slots {
		if a.HasSlot(s) && b.HasSlot(s) {
			if want := "classes share edge " + s.Key(); first != want {
				t.Errorf("witness %q, want %q", first, want)
			}
			break
		}
	}
}

func TestExplainAll(t *testing.T) {
	n := topology.Figure2a()
	h := harc.Build(n)
	ep1, ep2, ep3, ep4 := ep(n)
	lines := ExplainAll(h, []Policy{ep1, ep2, ep3, ep4})
	if len(lines) != 1 {
		t.Fatalf("expected 1 explanation (EP3), got %v", lines)
	}
	if !strings.Contains(lines[0], "PC3") && !strings.Contains(lines[0], "reachable") {
		t.Errorf("explanation should reference the policy: %q", lines[0])
	}
}

func TestExplainUnreachableDestination(t *testing.T) {
	n := topology.Figure2a()
	// Make T unreachable: filter T on all processes.
	for _, d := range n.Devices() {
		for _, p := range d.Processes {
			p.RouteFilters = append(p.RouteFilters, n.Subnet("T").Prefix)
		}
	}
	h := harc.Build(n)
	p := Policy{Kind: KReachable, K: 1, TC: topology.TrafficClass{Src: n.Subnet("S"), Dst: n.Subnet("T")}}
	w, violated := Explain(h, p)
	if !violated {
		t.Fatal("T should be unreachable")
	}
	if !strings.Contains(w, "no failures") {
		t.Errorf("witness: %q", w)
	}
}
