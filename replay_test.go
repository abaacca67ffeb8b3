package cpr

import (
	"context"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/generate"
	"repro/internal/harc"
	"repro/internal/policy"
	"repro/internal/translate"
)

// replayCase is one broken network with its policies, repaired through
// the public API with compression forced on.
type replayCase struct {
	name  string
	texts map[string]string
	spec  func(*System) ([]Policy, error)
}

func replayCases(t *testing.T) []replayCase {
	t.Helper()
	cases := []replayCase{{
		name:  "fig2a",
		texts: config.Figure2aConfigs(),
		spec:  func(s *System) ([]Policy, error) { return s.ParsePolicies(figure2aSpec) },
	}}
	ft, err := generate.Preset("fattree-k8", 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := generate.BreakFatTree(ft, 12, 5); err != nil {
		t.Fatal(err)
	}
	presets := []*generate.Instance{ft}
	if !testing.Short() {
		dc, err := generate.Preset("dc-256", 1)
		if err != nil {
			t.Fatal(err)
		}
		presets = append(presets, dc)
	}
	for _, inst := range presets {
		inst := inst
		texts := make(map[string]string, len(inst.Configs))
		for _, c := range inst.Configs {
			texts[c.Hostname] = c.Print()
		}
		cases = append(cases, replayCase{
			name:  inst.Name,
			texts: texts,
			spec:  func(s *System) ([]Policy, error) { return generate.RemapPolicies(inst.Policies, s.Network) },
		})
	}
	return cases
}

// replayVerdicts runs the delta fast path and the full replay on the
// same patched text, plus the composed check RepairCtx uses. stateEq is
// the full replay's own state comparison (StateOf of the patched
// network against the repaired state), the claim the fast path proves
// without computing StateOf.
func replayVerdicts(t *testing.T, s *System, res *Result, patched map[string]string) (fast, stateEq, full, composed bool) {
	t.Helper()
	composed = verifyPatchedConfigs(context.Background(), s, patched, res.Repaired, res.State, res.Orig)
	rp, ok := parsePatched(patched, res.Repaired)
	if !ok {
		return false, false, false, composed
	}
	fast = rp.replayDelta(s, patched, res.State, res.Orig)
	stateEq = patchedStateMatches(harc.StateOf(rp.lh), res.State, rp.tcs)
	return fast, stateEq, rp.replayFull(context.Background(), res.State), composed
}

// groundTruth checks every policy with graph checks on a full HARC of
// the patched network's policy classes, with no state shortcut.
func groundTruth(t *testing.T, patched map[string]string, ps []Policy) bool {
	t.Helper()
	rp, ok := parsePatched(patched, ps)
	if !ok {
		return false
	}
	h := harc.BuildForTCs(rp.lh.Network, rp.tcs)
	for _, p := range rp.rebound {
		if !policy.Check(h, p) {
			return false
		}
	}
	return true
}

// patchedWith re-applies the plan to a fresh parse of the original
// configurations, lets edit change them, and prints the result.
func patchedWith(t *testing.T, texts map[string]string, plan *translate.Plan, edit func(map[string]*config.Config)) map[string]string {
	t.Helper()
	sys, err := Load(texts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := translate.CloneConfigs(sys.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if err := translate.ApplyPlan(cfgs, plan); err != nil {
		t.Fatal(err)
	}
	edit(cfgs)
	out := make(map[string]string, len(cfgs))
	for host, c := range cfgs {
		out[host] = c.Print()
	}
	return out
}

// hostFacing returns the device's interface attached to the named
// subnet, or nil.
func hostFacing(c *config.Config, subnet string) *config.InterfaceStanza {
	for _, is := range c.Interfaces {
		if is.Description == config.SubnetDescriptionPrefix+subnet {
			return is
		}
	}
	return nil
}

// TestReplayFastPathAgreesWithFullReplay is the differential test of
// the patched-text replay: on every preset the delta fast path accepts
// the real patch exactly when the full replay's state comparison does,
// and on corrupted patched text — a plan line dropped, a deny added on a
// device outside the plan, a subnet prefix changed — neither comparison
// accepts, so the verdict is the per-policy checks', which must match a
// from-scratch graph check.
func TestReplayFastPathAgreesWithFullReplay(t *testing.T) {
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Load(tc.texts)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := tc.spec(s)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Compress = core.CompressOn
			out, err := s.Repair(ps, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Solved() || out.Plan.NumLines() == 0 {
				t.Fatalf("fixture repair: solved=%v lines=%d", out.Solved(), out.Plan.NumLines())
			}
			res := out.Result

			fast, stateEq, full, composed := replayVerdicts(t, s, res, out.PatchedConfigs)
			if fast != stateEq {
				t.Fatalf("real patch: fast path %v, full state comparison %v", fast, stateEq)
			}
			if !full || !composed {
				t.Fatalf("real patch rejected: full=%v composed=%v", full, composed)
			}
			// Fig. 2a and the fat-tree realize static-route distances through
			// cost variables, so the patched network's interface costs differ
			// from the repaired state's and both state comparisons defer to
			// the per-policy checks; dc-256's patch is ACL-only and must take
			// the fast path.
			if tc.name == "dc256" && !fast {
				t.Fatal("dc-256's real patch missed the fast path")
			}

			inPlan := map[string]bool{}
			for _, lc := range out.Plan.Lines {
				inPlan[lc.Device] = true
			}
			lastDropped := &translate.Plan{Lines: out.Plan.Lines[:len(out.Plan.Lines)-1], WaypointLines: out.Plan.WaypointLines}
			corruptions := []struct {
				name string
				plan *translate.Plan
				edit func(map[string]*config.Config)
			}{
				{"drop-plan-line", lastDropped, func(map[string]*config.Config) {}},
				{"deny-outside-plan", out.Plan, func(cfgs map[string]*config.Config) {
					for _, p := range ps {
						if p.Kind != policy.KReachable && p.Kind != policy.PrimaryPath {
							continue
						}
						for _, host := range sortedLabels(cfgs) {
							if inPlan[host] {
								continue
							}
							if is := hostFacing(cfgs[host], p.TC.Dst.Name); is != nil {
								if _, err := cfgs[host].AddACLDeny(is.Name, "out", p.TC.Src.Prefix, p.TC.Dst.Prefix); err != nil {
									t.Fatal(err)
								}
								return
							}
						}
					}
					t.Fatal("no reachability policy ends on a device outside the plan")
				}},
				{"subnet-prefix", out.Plan, func(cfgs map[string]*config.Config) {
					for _, host := range sortedLabels(cfgs) {
						for _, is := range cfgs[host].Interfaces {
							if strings.HasPrefix(is.Description, config.SubnetDescriptionPrefix) {
								is.Address = netip.PrefixFrom(netip.MustParseAddr("10.250.250.1"), is.Address.Bits())
								return
							}
						}
					}
					t.Fatal("no host-facing interface")
				}},
			}
			for _, c := range corruptions {
				t.Run(c.name, func(t *testing.T) {
					patched := patchedWith(t, tc.texts, c.plan, c.edit)
					fast, stateEq, full, composed := replayVerdicts(t, s, res, patched)
					if fast || stateEq {
						t.Fatalf("a state comparison accepted corrupted patched text: fast=%v full=%v", fast, stateEq)
					}
					if composed != full {
						t.Fatalf("composed verdict %v != full replay %v", composed, full)
					}
					t.Logf("full replay verdict %v", full)
					if truth := groundTruth(t, patched, res.Repaired); full != truth {
						t.Fatalf("full replay %v != from-scratch graph check %v", full, truth)
					}
				})
			}
		})
	}
}
