package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/netip"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	cpr "repro"
	"repro/internal/config"
	"repro/internal/generate"
	"repro/internal/policy"
	"repro/internal/server"
)

// churnSpec sizes the continuous repair loop.
type churnSpec struct {
	clients int
	// segmentRounds is the number of rounds each client runs per segment
	// (one fresh daemon).
	segmentRounds int
	// replayRounds is how many of each client's first rounds the traced
	// run replays in process for the per-layer metrics; at most
	// segmentRounds.
	replayRounds     int
	routers, subnets int
	simSample        int
}

// defaultChurn is two clients, each owning one corpus-median network
// (8 routers, 32 subnets), running 20-round segments. The daemon's heap
// grows with every round, and rounds slow down as it grows; short
// segments keep it near 1 GiB.
func defaultChurn() churnSpec {
	return churnSpec{clients: 2, segmentRounds: 20, replayRounds: 16, routers: 8, subnets: 32, simSample: 2}
}

// churnRoundsPerSecond converts the run's --seconds into a fixed number
// of segments. The daemon's retained memory grows with every round
// (forked solve caches keep their parents' entries), so a run bounded by
// time would tie peak_rss_mb and the exact counters to the program's
// speed; a fixed amount of work keeps them comparable across versions,
// and a faster program finishes sooner. The two clients, taking turns,
// run about 7 rounds a second each on a 2-core x86-64 machine; 6 keeps
// the rounds most of the run there.
const churnRoundsPerSecond = 6

// segments is the number of segments a run of the given length makes.
func (s churnSpec) segments(seconds time.Duration) int {
	return max(1, int(seconds.Seconds()*churnRoundsPerSecond/float64(s.segmentRounds)+0.5))
}

// attachment locates a subnet's host-facing interface.
type attachment struct {
	host, intf string
	prefix     netip.Prefix
}

// toggle is one seeded churn event: flip the deny of class src→dst on
// the destination's host ACL. Blocked classes lose their deny, reachable
// ones gain one, so every toggle violates the class's policy.
type toggle struct {
	src, dst attachment
	blocked  bool
}

// churnClient is one client's network and its seeded toggle sequence.
type churnClient struct {
	net     network
	toggles []toggle
}

// churnClients builds each client's network and toggle sequence. The
// networks are fixed (generation seeds 1, 2, ...): round cost differs
// between generated networks of the same size, so networks drawn from
// the workload seed would make the run-to-run spread mostly a spread of
// inputs. The workload seed orders each client's toggles.
func churnClients(seed int64, spec churnSpec) ([]churnClient, error) {
	var out []churnClient
	for c := 0; c < spec.clients; c++ {
		inst, err := generate.DataCenter(generate.DCOptions{
			Name: fmt.Sprintf("churn%d", c), Routers: spec.routers, Subnets: spec.subnets,
			BlockedFrac: 0.3, FullyBlockedDsts: 1, Seed: int64(c + 1),
		})
		if err != nil {
			return nil, err
		}
		at := map[string]attachment{}
		for _, d := range inst.Network.Devices() {
			for _, intf := range d.Interfaces() {
				if intf.Subnet != nil {
					at[intf.Subnet.Name] = attachment{host: d.Name, intf: intf.Name, prefix: intf.Subnet.Prefix}
				}
			}
		}
		cl := churnClient{net: networkOf(inst)}
		rng := rand.New(rand.NewSource(seed*7919 + int64(c)))
		for _, i := range rng.Perm(len(inst.Policies)) {
			p := inst.Policies[i]
			cl.toggles = append(cl.toggles, toggle{src: at[p.TC.Src.Name], dst: at[p.TC.Dst.Name], blocked: p.Kind == policy.AlwaysBlocked})
		}
		out = append(out, cl)
	}
	return out, nil
}

// apply returns the destination device's text with the toggle applied.
func (tg toggle) apply(texts map[string]string) (map[string]string, error) {
	c, err := config.Parse(tg.dst.host, texts[tg.dst.host])
	if err != nil {
		return nil, err
	}
	var lcs []config.LineChange
	if tg.blocked {
		lcs, err = c.RemoveACLDeny(tg.dst.intf, "out", tg.src.prefix, tg.dst.prefix)
	} else {
		lcs, err = c.AddACLDeny(tg.dst.intf, "out", tg.src.prefix, tg.dst.prefix)
	}
	if err != nil {
		return nil, err
	}
	if len(lcs) == 0 {
		return nil, fmt.Errorf("toggle of %s -> %s changed nothing", tg.src.prefix, tg.dst.prefix)
	}
	return map[string]string{tg.dst.host: c.Print()}, nil
}

// roundRecord keeps one round's inputs and answers for the checks and
// the traced replay.
type roundRecord struct {
	toggled  map[string]string // step 1: the toggled device's text
	before   map[string]string // full config set after the toggle
	violated []string
	// explained counts the counterexample lines /v1/explain returned for
	// the violated policies.
	explained int
	repair    server.RepairResponse
	changed   map[string]string // step 4: patched texts that differ
	after     map[string]string // full config set after the patch
	session   string            // session key returned by step 4
	latency   time.Duration
}

// daemon is the in-process cprd handler served over loopback.
type daemon struct {
	srv  *http.Server
	url  string
	done chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: &http.Server{Handler: server.New(server.Config{}).Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server down and waits for Serve to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client is an HTTP/JSON client of one daemon.
type client struct {
	hc  *http.Client
	url string
}

func (c client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	defer r.Body.Close()
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, r.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// traced runs call under a span named name when t is non-nil.
func traced(t *tracer, name string, parent, op int, call func() error) error {
	s := t.begin(name, parent, op)
	defer t.end(s)
	return call()
}

// runRound performs one churn round against the daemon: the toggle as a
// delta, verify, explain of the violated policies, repair, and the
// changed patched configs as a delta.
func runRound(c client, t *tracer, op int, sess string, texts map[string]string, tg toggle, spec string) (*roundRecord, error) {
	rec := &roundRecord{}
	var err error
	if rec.toggled, err = tg.apply(texts); err != nil {
		return nil, fmt.Errorf("toggle: %w", err)
	}
	rec.before = overlay(texts, rec.toggled)
	t0 := time.Now()
	root := t.begin("round", 0, op)
	var d1, d2 server.DeltaResponse
	var v server.VerifyResponse
	var x server.ExplainResponse
	err = traced(t, "server.delta", root, op, func() error {
		return c.post("/v1/delta", server.DeltaRequest{Session: sess, Configs: rec.toggled}, &d1)
	})
	if err == nil {
		err = traced(t, "server.verify", root, op, func() error {
			return c.post("/v1/verify", server.VerifyRequest{Session: d1.Session, Policies: spec}, &v)
		})
	}
	if err == nil {
		err = traced(t, "server.explain", root, op, func() error {
			return c.post("/v1/explain", server.VerifyRequest{Session: d1.Session, Policies: strings.Join(v.Violated, "\n")}, &x)
		})
	}
	if err == nil {
		err = traced(t, "server.repair", root, op, func() error {
			return c.post("/v1/repair", server.RepairRequest{Session: d1.Session, Policies: spec}, &rec.repair)
		})
	}
	if err == nil {
		rec.changed = map[string]string{}
		for host, text := range rec.repair.PatchedConfigs {
			if rec.before[host] != text {
				rec.changed[host] = text
			}
		}
		if len(rec.changed) == 0 {
			err = fmt.Errorf("repair changed no configuration")
		}
	}
	if err == nil {
		err = traced(t, "server.delta", root, op, func() error {
			return c.post("/v1/delta", server.DeltaRequest{Session: d1.Session, Configs: rec.changed}, &d2)
		})
	}
	t.end(root)
	rec.latency = time.Since(t0)
	if err != nil {
		return nil, err
	}
	rec.violated = v.Violated
	rec.explained = len(x.Explanations)
	rec.after = overlay(rec.before, rec.changed)
	rec.session = d2.Session
	return rec, nil
}

func overlay(base, changed map[string]string) map[string]string {
	out := make(map[string]string, len(base))
	for k, v := range base {
		out[k] = v
	}
	for k, v := range changed {
		out[k] = v
	}
	return out
}

// runChurn runs the continuous repair loop in segments. Each segment
// starts a fresh daemon, loads every client's base network cold (a
// set-up sample), and runs segmentRounds rounds per client back to
// back; the toggle sequence carries on across segments. The daemon's
// retained memory grows with every round, so each segment's peak is
// measured on its own and peak_rss_mb is their median.
func runChurn(rc runConfig, spec churnSpec) (*report, error) {
	clients, err := churnClients(rc.seed, spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: spec.clients, MaxIdleConnsPerHost: spec.clients}}
	defer hc.CloseIdleConnections()
	mem := startRSSSampler()
	defer mem.stop()

	rep := &report{}
	segments := spec.segments(rc.seconds)
	records := make([][]*roundRecord, len(clients))
	var setup, peaks []float64
	var wall, spent time.Duration
	// Set-up also runs on its own, beyond the segments, until it has run
	// minSetupReps times and minSetupTime in all.
	for seg := 0; seg < segments || seg < minSetupReps || (spent < minSetupTime && seg < maxSetupReps); seg++ {
		runtime.GC()
		d, err := startDaemon()
		if err != nil {
			return nil, err
		}
		c := client{hc: hc, url: d.url}
		t0 := time.Now()
		sessions, err := loadBases(c, rc.spans, clients)
		spent += time.Since(t0)
		setup = append(setup, time.Since(t0).Seconds())
		if err == nil && seg < segments {
			debug.FreeOSMemory()
			mem.reset()
			t0 = time.Now()
			runSegment(c, rc, spec, clients, sessions, seg, records, rep)
			wall += time.Since(t0)
			var peak float64
			if peak, err = mem.peakMB(); err == nil {
				peaks = append(peaks, peak)
			}
		}
		serr := d.stop()
		hc.CloseIdleConnections()
		if err != nil {
			return nil, err
		}
		if serr != nil {
			return nil, serr
		}
	}

	var lat []time.Duration
	patchLines := 0
	for i, recs := range records {
		for r, rec := range recs {
			lat = append(lat, rec.latency)
			patchLines += rec.repair.Lines
			if err := checkRound(clients[i].net.spec, rec, rc.seed+int64(r), spec.simSample); err != nil {
				rep.fail("client %d round %d: %v", i, r, err)
			}
		}
	}
	if rc.trace {
		if err := replayChurn(rc, spec, clients, records, rep); err != nil {
			return nil, err
		}
		return rep, nil
	}
	l := durationsMS(lat)
	rep.set("setup_s", "s", quantile(setup, 0.5))
	rep.set("latency_p50_ms", "ms", quantile(l, 0.5))
	rep.set("ops_per_s", "1/s", float64(len(lat))/wall.Seconds())
	rep.set("peak_rss_mb", "MiB", quantile(peaks, 0.5))
	rep.set("patch_lines", "count", float64(patchLines))
	fmt.Printf("peak resident memory per segment: %.0f MiB\n", peaks)
	if len(l) >= 67 {
		fmt.Printf("latency_p85_ms %.4f ms over %d rounds\n", quantile(l, 0.85), len(l))
	}
	return rep, nil
}

// loadBases loads every client's base network with /v1/load and returns
// the session keys.
func loadBases(c client, t *tracer, clients []churnClient) ([]string, error) {
	sessions := make([]string, len(clients))
	for i, cl := range clients {
		var lr server.LoadResponse
		err := traced(t, "server.load", 0, i+1, func() error {
			return c.post("/v1/load", server.LoadRequest{Configs: cl.net.configs}, &lr)
		})
		if err != nil {
			return nil, err
		}
		sessions[i] = lr.Session
	}
	return sessions, nil
}

// runSegment runs segment seg: from its base session, every client
// runs segmentRounds rounds, the clients taking turns round by round
// from one goroutine. Clients running at once on a machine of few cores
// time each other: a round's latency then depends on what the other
// client is doing, and the spread of latencies splits into rounds that
// ran alone and rounds that shared the cores. Rounds are appended to
// records; a client that fails stops for the rest of the segment.
func runSegment(c client, rc runConfig, spec churnSpec, clients []churnClient, sessions []string, seg int, records [][]*roundRecord, rep *report) {
	errs := make([]error, len(clients))
	sess := append([]string(nil), sessions...)
	texts := make([]map[string]string, len(clients))
	for i, cl := range clients {
		texts[i] = cl.net.configs
	}
	for r := seg * spec.segmentRounds; r < (seg+1)*spec.segmentRounds; r++ {
		for i, cl := range clients {
			if errs[i] != nil {
				continue
			}
			rec, err := runRound(c, rc.spans, (i+1)*100000+r, sess[i], texts[i], cl.toggles[r%len(cl.toggles)], cl.net.spec)
			if err != nil {
				errs[i] = fmt.Errorf("client %d round %d: %w", i, r, err)
				continue
			}
			records[i] = append(records[i], rec)
			sess[i], texts[i] = rec.session, rec.after
		}
	}
	rep.attempted += len(clients) * spec.segmentRounds
	for _, err := range errs {
		if err != nil {
			rep.fail("%v", err)
		}
	}
}

// checkRound checks one round's answers: the repair solved, the session
// the daemon returned is the content address of the client's patched
// set, and the patched set passes checkPatched.
func checkRound(spec string, rec *roundRecord, seed int64, simSample int) error {
	r := rec.repair
	if !r.Solved || r.Degraded != 0 || r.Failed != 0 {
		return fmt.Errorf("repair not solved (%d degraded, %d failed)", r.Degraded, r.Failed)
	}
	if len(rec.violated) == 0 {
		return fmt.Errorf("toggle left no violated policy")
	}
	if rec.explained != len(rec.violated) {
		return fmt.Errorf("explain gave %d lines for %d violated policies", rec.explained, len(rec.violated))
	}
	if len(r.PatchedConfigs) != len(rec.before) {
		return fmt.Errorf("%d patched configs for %d inputs", len(r.PatchedConfigs), len(rec.before))
	}
	if want := cpr.ContentKey(rec.after); rec.session != want {
		return fmt.Errorf("daemon session %.12s is not the patched set %.12s", rec.session, want)
	}
	return checkPatched(rec.after, spec, rec.violated, seed, simSample)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
