package harc

import (
	"net/netip"
	"testing"

	"repro/internal/topology"
)

// firstTC returns some traffic-class key of the state and one slot key
// of its map.
func firstTC(t *testing.T, h *HARC, st *State) (string, string) {
	t.Helper()
	tc := h.TCs[0].Key()
	for k := range st.TC[tc] {
		return tc, k
	}
	t.Fatal("empty tcETG map")
	return "", ""
}

func TestCloneSharesInnerMaps(t *testing.T) {
	h := Build(topology.Figure2a())
	st := StateOf(h)
	c := st.Clone()
	for _, tc := range h.TCs {
		if !c.SharesTC(st, tc.Key()) {
			t.Fatalf("clone copied tcETG(%s)", tc)
		}
	}
	for _, dst := range h.Dsts {
		if !c.SharesDst(st, dst.Name) {
			t.Fatalf("clone copied dETG(%s)", dst.Name)
		}
	}
}

func TestSetTCCopiesOnlyOnChange(t *testing.T) {
	h := Build(topology.Figure2a())
	st := StateOf(h)
	tc, slot := firstTC(t, h, st)
	v := st.TC[tc][slot]
	c := st.Clone()

	c.SetTC(tc, slot, v) // same value: no copy
	if !c.SharesTC(st, tc) {
		t.Fatal("a write that changes nothing copied the map")
	}
	c.SetTC(tc, slot, !v)
	if c.SharesTC(st, tc) {
		t.Fatal("a changing write did not copy the map")
	}
	if st.TC[tc][slot] != v {
		t.Fatal("a write through the clone leaked into the source")
	}
	if c.TC[tc][slot] == v {
		t.Fatal("the write was lost")
	}
	// Once owned, further writes land in place.
	owned := c.TC[tc]
	for k := range owned {
		c.SetTC(tc, k, !owned[k])
	}
	if !sameMap(owned, c.TC[tc]) {
		t.Fatal("an owned map was copied again")
	}
	// Every other class still shares.
	for _, other := range h.TCs {
		if other.Key() != tc && !c.SharesTC(st, other.Key()) {
			t.Fatalf("write to %s unshared %s", tc, other)
		}
	}
}

func TestSetDstCopiesOnlyOnChange(t *testing.T) {
	h := Build(topology.Figure2a())
	st := StateOf(h)
	c := st.Clone()
	var slot string
	for k := range st.Dst["U"] {
		slot = k
		break
	}
	v := st.Dst["U"][slot]
	c.SetDst("U", slot, v)
	if !c.SharesDst(st, "U") {
		t.Fatal("a write that changes nothing copied the map")
	}
	c.SetDst("U", slot, !v)
	if c.SharesDst(st, "U") || st.Dst["U"][slot] != v || c.Dst["U"][slot] == v {
		t.Fatal("dETG write was not copy-on-write")
	}
	// A write to a missing key is a change even when the value is false.
	c2 := st.Clone()
	c2.SetDst("U", "no-such-slot", false)
	if c2.SharesDst(st, "U") {
		t.Fatal("adding an explicit false entry must copy")
	}
	if _, ok := st.Dst["U"]["no-such-slot"]; ok {
		t.Fatal("new key leaked into the source")
	}
}

func TestCloneTransfersOwnership(t *testing.T) {
	h := Build(topology.Figure2a())
	st := StateOf(h)
	tc, slot := firstTC(t, h, st)
	v := st.TC[tc][slot]
	c := st.Clone()
	c.SetTC(tc, slot, !v) // c owns its copy of tc
	cc := c.Clone()       // now c and cc share it
	c.SetTC(tc, slot, v)
	if cc.TC[tc][slot] != !v {
		t.Fatal("a write through the source leaked into its clone")
	}
	cc.SetTC(tc, slot, v)
	if c.TC[tc][slot] != v || cc.TC[tc][slot] != v {
		t.Fatal("writes after the clone were lost")
	}
	if c.SharesTC(cc, tc) {
		t.Fatal("both copies wrote but still share one map")
	}
}

func TestAdoptTCIsShared(t *testing.T) {
	h := Build(topology.Figure2a())
	st := StateOf(h)
	tc, slot := firstTC(t, h, st)
	v := st.TC[tc][slot]
	donor := st.Clone()
	donor.SetTC(tc, slot, !v)
	out := st.Clone()
	out.SetTC(tc, slot, !v) // owned by out
	out.AdoptTC(tc, donor.TC[tc])
	if !out.SharesTC(donor, tc) {
		t.Fatal("AdoptTC did not install the map")
	}
	out.SetTC(tc, slot, v)
	if donor.TC[tc][slot] != !v {
		t.Fatal("a write after AdoptTC leaked into the adopted map")
	}
}

func TestApproxBytesCountsOwnedMapsOnly(t *testing.T) {
	h := Build(topology.Figure2a())
	st := StateOf(h)
	c := st.Clone()
	base := c.ApproxBytes()
	tc, slot := firstTC(t, h, st)
	c.SetTC(tc, slot, !st.TC[tc][slot])
	grown := c.ApproxBytes()
	var want int64
	for k := range c.TC[tc] {
		want += int64(len(k)) + 24
	}
	if grown-base != want {
		t.Fatalf("owning one class map grew the estimate by %d, want %d (that map alone)", grown-base, want)
	}
}

func TestStateEqual(t *testing.T) {
	h := Build(topology.Figure2a())
	a, b := StateOf(h), StateOf(h)
	if !a.Equal(b) {
		t.Fatal("two StateOf results differ")
	}
	tc, slot := firstTC(t, h, a)
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("a clone differs from its source")
	}
	c.SetTC(tc, slot, !a.TC[tc][slot])
	if c.Equal(a) {
		t.Fatal("Equal missed a tcETG change")
	}
	d := a.Clone()
	d.Static["x|y"] = false
	if d.Equal(a) {
		t.Fatal("Equal ignored an explicit false construct entry")
	}
}

// unblockU is Figure 2a with B's ACL toward A removed: only device B's
// configuration differs.
func unblockU() *topology.Network {
	n := topology.Figure2a()
	n.Device("B").Interface("Ethernet0/1").InACL = ""
	return n
}

func TestDeltaMatches(t *testing.T) {
	base := Build(topology.Figure2a())
	orig := StateOf(base)
	n2 := unblockU()
	h2 := BuildLite(n2, n2.TrafficClasses())
	truth := StateOf(h2)
	if truth.Equal(orig) {
		t.Fatal("fixture mutation changed no state")
	}
	if !DeltaMatches(h2, base, orig, truth, map[string]bool{"B": true}) {
		t.Fatal("the true state of the changed network was not matched")
	}
	// A state that kept orig's maps where the network changed is wrong.
	if DeltaMatches(h2, base, orig, orig, map[string]bool{"B": true}) {
		t.Fatal("matched a state that misses the change on B")
	}
	// Naming a device away from the changed link leaves the A→B slot
	// (whose ACL sits on B) to the orig comparison, where the truth
	// differs.
	if DeltaMatches(h2, base, orig, truth, map[string]bool{"C": true}) {
		t.Fatal("matched with a change set that omits the changed device")
	}
	// A restricted lite HARC compares only its own classes.
	tcs := n2.TrafficClasses()[:3]
	if !DeltaMatches(BuildLite(n2, tcs), base, orig, truth, map[string]bool{"B": true}) {
		t.Fatal("a class subset of the true state was not matched")
	}
}

func TestDeltaMatchesGuards(t *testing.T) {
	base := Build(topology.Figure2a())
	orig := StateOf(base)

	moved := topology.Figure2a()
	moved.Subnet("U").Prefix = netip.MustParsePrefix("10.99.0.0/16")
	hm := BuildLite(moved, moved.TrafficClasses())
	if StateOf(hm).Equal(orig) {
		t.Fatal("moving U's prefix changed no state")
	}
	// No device's configuration changed, yet B's ACL no longer matches U:
	// without the prefix guard the stale state would pass unexamined.
	if DeltaMatches(hm, base, orig, orig, nil) {
		t.Fatal("a subnet prefix change must fail the guard")
	}

	same := topology.Figure2a()
	hs := BuildLite(same, same.TrafficClasses())
	if !DeltaMatches(hs, base, orig, orig, nil) {
		t.Fatal("an unchanged network must match its own state")
	}
	missing := orig.Clone()
	delete(missing.TC, same.TrafficClasses()[0].Key())
	if DeltaMatches(hs, base, missing, orig, nil) {
		t.Fatal("a base state without one of the classes must fail the guard")
	}
}
