// Package translate converts repaired HARC states back into router
// configuration changes (paper §6, Table 3). Each difference between the
// original and repaired state maps to a specific construct edit: ACL
// entries for tcETG deviations, route filters and static routes for dETG
// deviations, adjacency and redistribution changes for aETG edits,
// interface costs for PC4, and middlebox placements for waypoints.
package translate

import (
	"fmt"
	"sort"

	"repro/internal/arc"
	"repro/internal/config"
	"repro/internal/harc"
	"repro/internal/topology"
)

// WaypointChange records a middlebox addition or removal on a link. The
// paper counts these separately from configuration lines ("two lines of
// configuration, plus a firewall").
type WaypointChange struct {
	Link string
	Add  bool
}

// Plan is the full set of edits realizing a repaired state.
type Plan struct {
	Lines     []config.LineChange
	Waypoints []WaypointChange
	// Groups partitions Lines by the construct edit that produced them: one
	// group per mutator call (e.g. a fresh ACL plus its attachment is one
	// group). Groups is the granularity at which dropping a patch is
	// meaningful — individual lines of a group are not independent.
	Groups [][]config.LineChange
	// WaypointLines holds, parallel to Waypoints, the configuration lines
	// mirroring each middlebox change (the "waypoint" interface marker).
	// They are excluded from Lines because the paper counts middlebox
	// placements separately from configuration lines.
	WaypointLines [][]config.LineChange
}

// NumLines returns the number of configuration lines changed.
func (p *Plan) NumLines() int { return len(p.Lines) }

// String renders the plan as a diff-style listing.
func (p *Plan) String() string {
	out := ""
	for _, lc := range p.Lines {
		out += lc.String() + "\n"
	}
	for _, wc := range p.Waypoints {
		verb := "add"
		if !wc.Add {
			verb = "remove"
		}
		out += fmt.Sprintf("%s waypoint on link %s\n", verb, wc.Link)
	}
	return out
}

// Translate computes and applies the configuration changes that realize
// the repaired state, mutating cfgs in place. cfgs maps hostnames to
// parsed configurations and must cover every device of the network.
func Translate(h *harc.HARC, orig, repaired *harc.State, cfgs map[string]*config.Config) (*Plan, error) {
	t := &translator{h: h, orig: orig, rep: repaired, cfgs: cfgs, plan: &Plan{}}
	if err := t.run(); err != nil {
		return nil, err
	}
	return t.plan, nil
}

type translator struct {
	h    *harc.HARC
	orig *harc.State
	rep  *harc.State
	cfgs map[string]*config.Config
	plan *Plan
}

func (t *translator) cfg(dev *topology.Device) (*config.Config, error) {
	c := t.cfgs[dev.Name]
	if c == nil {
		return nil, fmt.Errorf("translate: no configuration for device %s", dev.Name)
	}
	return c, nil
}

func (t *translator) add(lcs []config.LineChange, err error) error {
	if err != nil {
		return err
	}
	t.addLines(lcs)
	return nil
}

// addLines records one mutator call's line changes as a group.
func (t *translator) addLines(lcs []config.LineChange) {
	if len(lcs) == 0 {
		return
	}
	t.plan.Lines = append(t.plan.Lines, lcs...)
	t.plan.Groups = append(t.plan.Groups, lcs)
}

func (t *translator) run() error {
	if err := t.adjacencies(); err != nil {
		return err
	}
	if err := t.redistribution(); err != nil {
		return err
	}
	if err := t.routeFilters(); err != nil {
		return err
	}
	if err := t.staticRoutes(); err != nil {
		return err
	}
	if err := t.interfaceCosts(); err != nil {
		return err
	}
	if err := t.acls(); err != nil {
		return err
	}
	t.waypoints()
	return nil
}

// adjacencies handles aETG inter-device edge changes (Table 3: "enable
// routing" and its inverse). Both directions of an adjacency share one
// change; the canonical direction (smaller key) drives it.
func (t *translator) adjacencies() error {
	done := map[string]bool{}
	for _, s := range t.h.Slots {
		if s.Kind != arc.SlotInterDevice {
			continue
		}
		pair := s.Link.Name() + "|" + s.FromProc.Name() + "|" + s.ToProc.Name()
		revPair := s.Link.Name() + "|" + s.ToProc.Name() + "|" + s.FromProc.Name()
		if done[pair] || done[revPair] {
			continue
		}
		done[pair] = true
		origA, newA := t.orig.All[s.Key()], t.rep.All[s.Key()]
		if origA == newA {
			continue
		}
		if newA {
			// Enable: fix whichever side prevents the adjacency. BGP
			// sessions need a neighbor statement per side; IGPs need the
			// interface active (non-passive and covered).
			for _, side := range []struct {
				proc *topology.Process
				intf *topology.Interface
				peer *topology.Interface
				far  *topology.Process
			}{
				{s.FromProc, s.FromIntf, s.ToIntf, s.ToProc},
				{s.ToProc, s.ToIntf, s.FromIntf, s.FromProc},
			} {
				if side.proc.UsesInterface(side.intf) && !side.proc.IsPassive(side.intf) {
					continue
				}
				c, err := t.cfg(side.proc.Device)
				if err != nil {
					return err
				}
				if side.proc.Proto == topology.BGP {
					if !side.peer.Prefix.IsValid() {
						return fmt.Errorf("translate: BGP peer interface %s has no address", side.peer.Name)
					}
					if err := t.add(c.AddBGPNeighbor(side.proc.ID, side.peer.Prefix.Addr(), side.far.ID)); err != nil {
						return err
					}
					continue
				}
				if err := t.add(c.EnableAdjacency(side.proc.Proto, side.proc.ID, side.intf.Name)); err != nil {
					return err
				}
			}
		} else {
			// Disable: one line suffices (passive-interface for IGPs,
			// neighbor removal for BGP).
			c, err := t.cfg(s.FromProc.Device)
			if err != nil {
				return err
			}
			if s.FromProc.Proto == topology.BGP {
				if err := t.add(c.RemoveBGPNeighbor(s.FromProc.ID, s.ToIntf.Prefix.Addr())); err != nil {
					return err
				}
			} else if err := t.add(c.DisableAdjacency(s.FromProc.Proto, s.FromProc.ID, s.FromIntf.Name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// redistribution handles aETG intra-device redistribution edges.
func (t *translator) redistribution() error {
	for _, s := range t.h.Slots {
		if s.Kind != arc.SlotIntraRedist {
			continue
		}
		origA, newA := t.orig.All[s.Key()], t.rep.All[s.Key()]
		if origA == newA {
			continue
		}
		entry, owner := s.ToProc, s.FromProc
		c, err := t.cfg(entry.Device)
		if err != nil {
			return err
		}
		if newA {
			if err := t.add(c.AddRedistribute(entry.Proto, entry.ID, owner.Proto, owner.ID)); err != nil {
				return err
			}
		} else {
			if err := t.add(c.RemoveRedistribute(entry.Proto, entry.ID, owner.Proto, owner.ID)); err != nil {
				return err
			}
		}
	}
	return nil
}

// routeFilters compares the explicit per-(process, destination) filter
// constructs of the two states (Table 3 intra-device rows).
func (t *translator) routeFilters() error {
	for _, dst := range t.h.Dsts {
		for _, s := range t.h.Slots {
			if s.Kind != arc.SlotIntraSelf {
				continue
			}
			rfKey := harc.RFKey(dst.Name, s.FromProc.Name())
			origRF := t.orig.RouteFilter[rfKey]
			newRF := t.rep.RouteFilter[rfKey]
			if origRF == newRF {
				continue
			}
			proc := s.FromProc
			c, err := t.cfg(proc.Device)
			if err != nil {
				return err
			}
			if newRF {
				if err := t.add(c.AddRouteFilter(proc.Proto, proc.ID, dst.Prefix)); err != nil {
					return err
				}
			} else {
				if err := t.add(c.RemoveRouteFilter(proc.Proto, proc.ID, dst.Prefix)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// staticRoutes compares the explicit static-route constructs of the two
// states (Table 3: "add static route for dst" and the inverse).
func (t *translator) staticRoutes() error {
	for _, dst := range t.h.Dsts {
		for _, s := range t.h.Slots {
			if s.Kind != arc.SlotInterDevice {
				continue
			}
			stKey := harc.StaticKey(dst.Name, s.Key())
			origStatic := t.orig.Static[stKey]
			newStatic := t.rep.Static[stKey]
			c, err := t.cfg(s.FromProc.Device)
			if err != nil {
				return err
			}
			nh := s.ToIntf.Prefix.Addr()
			dist := int(t.rep.SlotCost(s, dst))
			switch {
			case !origStatic && newStatic:
				t.addLines(c.AddStaticRoute(dst.Prefix, nh, dist))
			case origStatic && !newStatic:
				t.addLines(c.RemoveStaticRoute(dst.Prefix, nh))
			case origStatic && newStatic:
				if sr := s.StaticBacked(dst); sr != nil && sr.Distance != dist {
					t.addLines(c.SetStaticDistance(dst.Prefix, nh, dist))
				}
			}
		}
	}
	return nil
}

// interfaceCosts emits "ip ospf cost" edits for cost variables that
// changed and back at least one adjacency edge in the repaired aETG
// (costs that only back static routes are carried on the static lines).
func (t *translator) interfaceCosts() error {
	changed := map[string]bool{}
	for ck, v := range t.rep.Cost {
		if t.orig.Cost[ck] != v {
			changed[ck] = true
		}
	}
	if len(changed) == 0 {
		return nil
	}
	emitted := map[string]bool{}
	for _, s := range t.h.Slots {
		if s.Kind != arc.SlotInterDevice {
			continue
		}
		ck := harc.CostKey(s)
		if !changed[ck] || emitted[ck] || !t.rep.All[s.Key()] {
			continue
		}
		emitted[ck] = true
		c, err := t.cfg(s.FromIntf.Device)
		if err != nil {
			return err
		}
		if err := t.add(c.SetInterfaceCost(s.FromIntf.Name, int(t.rep.Cost[ck]))); err != nil {
			return err
		}
	}
	return nil
}

// acls handles tcETG deviations (Table 3: "remove tc from ACL" and the
// inverse) for inter-device edges and subnet attachment edges. A class
// whose tcETG and dETG maps the repaired state still shares with the
// original (see harc.State) cannot have a deviation change, so only the
// classes the repair wrote are scanned.
func (t *translator) acls() error {
	for _, tc := range t.h.TCs {
		key := tc.Key()
		if t.rep.SharesTC(t.orig, key) && t.rep.SharesDst(t.orig, tc.Dst.Name) {
			continue
		}
		origM, newM := t.orig.TC[key], t.rep.TC[key]
		origDM, newDM := t.orig.Dst[tc.Dst.Name], t.rep.Dst[tc.Dst.Name]
		for _, s := range t.h.Slots {
			// addACL: the repaired state needs a deny that did not exist.
			// removeACL: an existing deny must go because the tc edge is
			// now required. A stale deny whose parent edge also vanished
			// stays in place — Table 2 charges no change for a deviation
			// that continues.
			var addACL, removeACL bool
			var dev *topology.Device
			var intfName, dir string
			switch s.Kind {
			case arc.SlotInterDevice:
				origACL := origDM[s.Key()] && !origM[s.Key()]
				addACL = newDM[s.Key()] && !newM[s.Key()] && !origACL
				removeACL = origACL && newM[s.Key()]
				dev, intfName, dir = s.ToIntf.Device, s.ToIntf.Name, "in"
			case arc.SlotSource:
				if s.Subnet != tc.Src {
					continue
				}
				addACL = origM[s.Key()] && !newM[s.Key()]
				removeACL = !origM[s.Key()] && newM[s.Key()]
				dev, intfName, dir = s.Intf.Device, s.Intf.Name, "in"
			case arc.SlotDest:
				if s.Subnet != tc.Dst {
					continue
				}
				origACL := origDM[s.Key()] && !origM[s.Key()]
				addACL = newDM[s.Key()] && !newM[s.Key()] && !origACL
				removeACL = origACL && newM[s.Key()]
				dev, intfName, dir = s.Intf.Device, s.Intf.Name, "out"
			default:
				continue
			}
			if !addACL && !removeACL {
				continue
			}
			c, err := t.cfg(dev)
			if err != nil {
				return err
			}
			if addACL {
				if err := t.add(c.AddACLDeny(intfName, dir, tc.Src.Prefix, tc.Dst.Prefix)); err != nil {
					return err
				}
			} else {
				if err := t.add(c.RemoveACLDeny(intfName, dir, tc.Src.Prefix, tc.Dst.Prefix)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// waypoints records middlebox changes and mirrors them into the config
// (a "waypoint" marker on one endpoint interface).
func (t *translator) waypoints() {
	names := make([]string, 0, len(t.rep.Waypoint))
	for name := range t.rep.Waypoint {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		newWP := t.rep.Waypoint[name]
		if t.orig.Waypoint[name] == newWP {
			continue
		}
		t.plan.Waypoints = append(t.plan.Waypoints, WaypointChange{Link: name, Add: newWP})
		var mirrored []config.LineChange
		for _, l := range t.h.Network.Links {
			if l.Name() != name {
				continue
			}
			if c := t.cfgs[l.A.Device.Name]; c != nil {
				// Waypoint markers are tracked separately from line counts;
				// the mirroring lines go to WaypointLines, not Lines.
				if lcs, err := c.SetWaypoint(l.A.Name, newWP); err == nil {
					mirrored = append(mirrored, lcs...)
				}
			}
		}
		t.plan.WaypointLines = append(t.plan.WaypointLines, mirrored)
	}
}

// ImpactedTCs returns the traffic classes whose forwarding behavior the
// repair touches: any tcETG presence change, a cost change on an edge in
// the class's ETG, or a waypoint change on a link in its ETG (the metric
// of Figure 11a).
func ImpactedTCs(h *harc.HARC, orig, repaired *harc.State) []topology.TrafficClass {
	changedCosts := map[string]bool{}
	for ck, v := range repaired.Cost {
		if orig.Cost[ck] != v {
			changedCosts[ck] = true
		}
	}
	changedWPs := map[string]bool{}
	for name, v := range repaired.Waypoint {
		if orig.Waypoint[name] != v {
			changedWPs[name] = true
		}
	}
	var out []topology.TrafficClass
	for _, tc := range h.TCs {
		key := tc.Key()
		if len(changedCosts) == 0 && len(changedWPs) == 0 && repaired.SharesTC(orig, key) {
			continue // a shared map has no presence change to find
		}
		origM, newM := orig.TC[key], repaired.TC[key]
		impacted := false
		for _, s := range h.Slots {
			sk := s.Key()
			if origM[sk] != newM[sk] {
				impacted = true
				break
			}
			if !newM[sk] || s.Kind != arc.SlotInterDevice {
				continue
			}
			if changedCosts[harc.CostKey(s)] || changedWPs[s.Link.Name()] {
				impacted = true
				break
			}
		}
		if impacted {
			out = append(out, tc)
		}
	}
	return out
}

// ApplyPlan replays a plan's recorded line changes (including the
// waypoint-mirroring lines) onto a set of parsed configurations. Translate
// already mutates the configurations it is given; ApplyPlan exists to
// replay the same edits onto an independent copy — e.g. to check that the
// recorded patch, and nothing else, reproduces the repaired behavior.
func ApplyPlan(cfgs map[string]*config.Config, plan *Plan) error {
	apply := func(lc config.LineChange) error {
		c := cfgs[lc.Device]
		if c == nil {
			return fmt.Errorf("translate: apply: no configuration for device %s", lc.Device)
		}
		return c.Apply(lc)
	}
	for _, lc := range plan.Lines {
		if err := apply(lc); err != nil {
			return err
		}
	}
	for _, group := range plan.WaypointLines {
		for _, lc := range group {
			if err := apply(lc); err != nil {
				return err
			}
		}
	}
	return nil
}

// CloneConfigs deep-copies parsed configurations via print/parse.
func CloneConfigs(cfgs map[string]*config.Config) (map[string]*config.Config, error) {
	out := make(map[string]*config.Config, len(cfgs))
	for name, c := range cfgs {
		cc, err := config.Parse(name, c.Print())
		if err != nil {
			return nil, err
		}
		out[name] = cc
	}
	return out, nil
}
