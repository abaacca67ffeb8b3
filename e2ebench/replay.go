package main

import (
	"fmt"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/policy"
)

// mirror replays a cpr.Session — parsed configs by label, the System and
// the solve cache — through the public calls Session makes, so the
// traced churn run can put a span around each layer the daemon runs.
type mirror struct {
	key    string
	texts  map[string]string
	parsed map[string]*config.Config
	sys    *cpr.System
	cache  *core.SolveCache
}

func mirrorLoad(t *tracer, op int, texts map[string]string, allocs *tracedAllocs) (*mirror, error) {
	sys, parsed, err := tracedLoad(t, op, texts, allocs)
	if err != nil {
		return nil, err
	}
	key := cpr.ContentKey(texts)
	return &mirror{key: key, texts: texts, parsed: parsed, sys: sys, cache: core.NewSolveCache(key)}, nil
}

// delta replays Session.Delta: re-parse the changed labels only, rebuild
// the System, and fork the solve cache with the changed devices as its
// delta base (unless a subnet changed its prefix).
func (m *mirror) delta(t *tracer, parent, op int, changed map[string]string, allocs *tracedAllocs) (*mirror, error) {
	texts := overlay(m.texts, changed)
	parsed := make(map[string]*config.Config, len(texts))
	changedHosts := map[string]bool{}
	for _, k := range sortedKeys(texts) {
		if old, ok := m.parsed[k]; ok && m.texts[k] == texts[k] {
			parsed[k] = old
			continue
		}
		s := t.begin("config.parse", parent, op)
		c, err := config.Parse(k, texts[k])
		t.end(s)
		if err != nil {
			return nil, err
		}
		parsed[k] = c
		if old, ok := m.parsed[k]; ok {
			changedHosts[old.Hostname] = true
		}
		changedHosts[c.Hostname] = true
	}
	sys, err := tracedBuild(t, parent, op, parsed, allocs)
	if err != nil {
		return nil, err
	}
	for _, sub := range sys.Network.Subnets {
		if old := m.sys.Network.Subnet(sub.Name); old != nil && old.Prefix != sub.Prefix {
			changedHosts = nil
			break
		}
	}
	key := cpr.ContentKey(texts)
	return &mirror{key: key, texts: texts, parsed: parsed, sys: sys, cache: m.cache.ForkDelta(key, changedHosts)}, nil
}

// replayChurn is the traced churn run's per-layer measurement. For the
// first replayRounds rounds of each client it replays the daemon's work
// twice, through cpr.Session and as a traced mirror of the calls Session
// makes, alternating which goes first. Like the daemon's session cache,
// both reuse the session of a config set they have already built. The
// mirror must reproduce the daemon's patched text.
func replayChurn(rc runConfig, spec churnSpec, clients []churnClient, records [][]*roundRecord, rep *report) error {
	t := rc.spans
	opts := cpr.DefaultOptions()
	var allocs tracedAllocs
	var total counts
	var plainNs, tracedNs int64
	ops := 0
	op := 1 << 30
	for i, cl := range clients {
		recs := records[i][:min(spec.replayRounds, spec.segmentRounds, len(records[i]))]
		cfgs, policySpec := cl.net.configs, cl.net.spec

		plain, err := cpr.NewSession(cfgs)
		if err != nil {
			return err
		}
		plainByKey := map[string]*cpr.Session{plain.Key(): plain}
		plainDelta := func(s *cpr.Session, changed map[string]string) (*cpr.Session, error) {
			if known, ok := plainByKey[s.DeltaKey(changed)]; ok {
				return known, nil
			}
			next, err := s.Delta(changed)
			if err == nil {
				plainByKey[next.Key()] = next
			}
			return next, err
		}
		plainRound := func(rec *roundRecord) error {
			t0 := time.Now()
			defer func() { plainNs += time.Since(t0).Nanoseconds() }()
			s1, err := plainDelta(plain, rec.toggled)
			if err != nil {
				return err
			}
			ps, err := s1.System().ParsePolicies(policySpec)
			if err != nil {
				return err
			}
			violated := s1.System().Verify(ps)
			if ps, err = s1.System().ParsePolicies(policy.Format(violated)); err != nil {
				return err
			}
			s1.System().Explain(ps)
			if ps, err = s1.System().ParsePolicies(policySpec); err != nil {
				return err
			}
			if _, err := s1.Repair(ps, opts); err != nil {
				return err
			}
			plain, err = plainDelta(s1, rec.changed)
			return err
		}

		op++
		cur, err := mirrorLoad(t, op, cfgs, &allocs)
		if err != nil {
			return err
		}
		byKey := map[string]*mirror{cur.key: cur}
		mirrorDelta := func(m *mirror, root, op int, changed map[string]string) (*mirror, error) {
			if known, ok := byKey[cpr.ContentKey(overlay(m.texts, changed))]; ok {
				return known, nil
			}
			next, err := m.delta(t, root, op, changed, &allocs)
			if err == nil {
				byKey[next.key] = next
			}
			return next, err
		}
		mirrorRound := func(rec *roundRecord, op int) (*cpr.RepairOutput, error) {
			t0 := time.Now()
			defer func() { tracedNs += time.Since(t0).Nanoseconds() }()
			root := t.begin("op", 0, op)
			defer t.end(root)
			s1, err := mirrorDelta(cur, root, op, rec.toggled)
			if err != nil {
				return nil, err
			}
			// /v1/verify, /v1/explain and /v1/repair, each parsing its spec.
			s := t.begin("policy.parse", root, op)
			ps, err := policy.Parse(s1.sys.Network, policySpec)
			t.end(s)
			if err != nil {
				return nil, err
			}
			s = t.begin("policy.verify", root, op)
			violated := policy.Violations(s1.sys.HARC, ps)
			t.end(s)
			s = t.begin("policy.parse", root, op)
			ps, err = policy.Parse(s1.sys.Network, policy.Format(violated))
			t.end(s)
			if err != nil {
				return nil, err
			}
			s = t.begin("policy.explain", root, op)
			policy.ExplainAll(s1.sys.HARC, ps)
			t.end(s)
			s = t.begin("policy.parse", root, op)
			ps, err = policy.Parse(s1.sys.Network, policySpec)
			t.end(s)
			if err != nil {
				return nil, err
			}
			o := opts
			o.Cache = s1.cache
			s = t.begin("harc.stateof", root, op)
			s1.cache.OrigState(s1.sys.HARC)
			t.end(s)
			out, err := tracedRepair(t, root, op, s1.sys, ps, o, &allocs)
			if err != nil {
				return nil, err
			}
			cur, err = mirrorDelta(s1, root, op, rec.changed)
			return out, err
		}

		for r, rec := range recs {
			op++
			ops++
			if op%2 == 0 {
				if err := plainRound(rec); err != nil {
					rep.fail("client %d round %d: session replay: %v", i, r, err)
				}
			}
			out, err := mirrorRound(rec, op)
			if op%2 == 1 {
				if err := plainRound(rec); err != nil {
					rep.fail("client %d round %d: session replay: %v", i, r, err)
				}
			}
			if err != nil {
				return fmt.Errorf("client %d round %d: traced replay: %w", i, r, err)
			}
			for host, text := range rec.repair.PatchedConfigs {
				if out.PatchedConfigs[host] != text {
					rep.fail("client %d round %d: traced replay differs from the daemon on %s", i, r, host)
					break
				}
			}
			total.add(countsOf(out.Result))
		}
	}

	self := t.selfTimes()
	setLayerMetrics(rep, self, ops, total, total, allocs, plainNs, tracedNs)
	for _, name := range []string{"server.load", "server.delta", "server.verify", "server.explain", "server.repair"} {
		fmt.Printf("%s_ms %.4f ms (mean of %d requests)\n", name, self[name].meanMS(), self[name].count)
	}
	return nil
}
