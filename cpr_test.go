package cpr

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/internal/policy"
)

func loadFigure2a(t *testing.T) *System {
	t.Helper()
	sys, err := Load(config.Figure2aConfigs())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

const figure2aSpec = `# §2.2 example policies
always-blocked S U
always-waypoint S T
reachable S T 2
primary-path R T A,B,C
`

// TestLoadRejectsDuplicateHostname pins the fix for the silent
// last-writer-wins overwrite when two configs declare the same hostname:
// Load must fail loudly, naming the hostname and both config labels.
func TestLoadRejectsDuplicateHostname(t *testing.T) {
	texts := config.Figure2aConfigs()
	var first string
	for name := range texts {
		first = name
		break
	}
	texts["zz-copy"] = texts[first]
	_, err := Load(texts)
	if err == nil {
		t.Fatal("Load accepted two configs with the same hostname")
	}
	if !strings.Contains(err.Error(), "duplicate hostname") || !strings.Contains(err.Error(), "zz-copy") {
		t.Errorf("err = %v, want a duplicate-hostname error naming the configs", err)
	}
}

func TestVerifyCtxAndRepairCtxCancelled(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.VerifyCtx(ctx, policies); !errors.Is(err, context.Canceled) {
		t.Errorf("VerifyCtx err = %v, want context.Canceled", err)
	}
	if _, err := sys.RepairCtx(ctx, policies, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("RepairCtx err = %v, want context.Canceled", err)
	}
	// An un-cancelled context behaves like the plain methods.
	violated, err := sys.VerifyCtx(context.Background(), policies)
	if err != nil || len(violated) != 1 {
		t.Errorf("VerifyCtx = %v, %v; want 1 violated", violated, err)
	}
}

func TestOptionFlagsResolve(t *testing.T) {
	opts, err := OptionFlags{}.Resolve()
	if err != nil || opts != DefaultOptions() {
		t.Errorf("zero flags = %+v, %v; want defaults", opts, err)
	}
	opts, err = OptionFlags{Granularity: "all-tcs", Algorithm: "linear", Objective: "min-devices", Parallelism: 4, ConflictBudget: 100}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Granularity != AllTCs || opts.Algorithm.String() != "linear" || opts.Objective != MinDevices || opts.Parallelism != 4 || opts.ConflictBudget != 100 {
		t.Errorf("resolved = %+v", opts)
	}
	for _, bad := range []OptionFlags{
		{Granularity: "x"}, {Algorithm: "x"}, {Objective: "x"}, {ConflictBudget: -1},
	} {
		if _, err := bad.Resolve(); err == nil {
			t.Errorf("flags %+v resolved without error", bad)
		}
	}
}

func TestLoadAndVerify(t *testing.T) {
	sys := loadFigure2a(t)
	if sys.Network.NumDevices() != 3 {
		t.Fatalf("devices = %d", sys.Network.NumDevices())
	}
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	violated := sys.Verify(policies)
	if len(violated) != 1 || violated[0].Kind != KReachable {
		t.Fatalf("violated = %v, want just EP3", violated)
	}
}

func TestPublicRepairEndToEnd(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatalf("unsolved: %+v", rep.Result.Stats)
	}
	if rep.Plan.NumLines() == 0 {
		t.Fatal("expected configuration changes")
	}
	// Patched configs re-load and satisfy the spec.
	sys2, err := Load(rep.PatchedConfigs)
	if err != nil {
		t.Fatalf("patched configs do not load: %v", err)
	}
	policies2, err := sys2.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	if v := sys2.Verify(policies2); len(v) != 0 {
		t.Fatalf("patched network violates: %v\nplan:\n%s", v, rep.Plan)
	}
	// The original system is untouched.
	if v := sys.Verify(policies); len(v) != 1 {
		t.Error("Repair must not mutate the receiver")
	}
}

func TestExplainPublicAPI(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies(figure2aSpec)
	if err != nil {
		t.Fatal(err)
	}
	lines := sys.Explain(policies)
	if len(lines) != 1 {
		t.Fatalf("expected one witness (EP3), got %v", lines)
	}
	if !strings.Contains(lines[0], "link") {
		t.Errorf("EP3 witness should name a failing link: %q", lines[0])
	}
}

func TestInferPolicies(t *testing.T) {
	sys := loadFigure2a(t)
	inferred := sys.InferPolicies()
	if len(inferred) != 12 {
		t.Fatalf("inferred = %d, want one per traffic class", len(inferred))
	}
	if v := sys.Verify(inferred); len(v) != 0 {
		t.Errorf("inferred policies must hold: %v", v)
	}
}

func TestRepairUnsatisfiableSpecReported(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies("always-blocked S T\nreachable S T 1\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solved() {
		t.Error("contradictory spec should be unsolvable")
	}
	if rep.Plan != nil {
		t.Error("no plan should be produced for unsolvable specs")
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(map[string]string{"x": "bogus config\n"}); err == nil {
		t.Error("bad config should fail to load")
	}
	if _, err := Load(map[string]string{
		"a": "hostname dup\n",
		"b": "hostname dup\n",
	}); err == nil {
		t.Error("duplicate hostnames should fail")
	}
}

func TestPlanRendering(t *testing.T) {
	sys := loadFigure2a(t)
	policies, err := sys.ParsePolicies("reachable S T 2\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Repair(policies, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Solved() {
		t.Fatal("unsolved")
	}
	text := rep.Plan.String()
	if !strings.Contains(text, "ip route") {
		t.Errorf("expected a static route in the plan:\n%s", text)
	}
}

// TestVerifyCtxMatchesSerial: the parallel sweep behind Verify and
// VerifyCtx returns exactly what checking each policy in turn returns,
// in input order, at one worker and at four.
func TestVerifyCtxMatchesSerial(t *testing.T) {
	sys := loadFigure2a(t)
	var spec strings.Builder
	for _, tc := range sys.Network.TrafficClasses() {
		for _, line := range []string{"always-blocked %s %s", "always-waypoint %s %s", "reachable %s %s 1", "reachable %s %s 2", "primary-path %s %s A,B,C"} {
			fmt.Fprintf(&spec, line+"\n", tc.Src.Name, tc.Dst.Name)
		}
	}
	policies, err := sys.ParsePolicies(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	var want []Policy
	for _, p := range policies {
		if !policy.Check(sys.HARC, p) {
			want = append(want, p)
		}
	}
	if len(want) == 0 || len(want) == len(policies) {
		t.Fatalf("want a mix of verdicts, got %d of %d violated", len(want), len(policies))
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := sys.VerifyCtx(context.Background(), policies)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: VerifyCtx = %v, %v; want %v", procs, got, err, want)
		}
		if got := sys.Verify(policies); !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS=%d: Verify = %v, want %v", procs, got, want)
		}
		runtime.GOMAXPROCS(prev)
	}
}
