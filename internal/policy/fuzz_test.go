package policy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/topology"
)

// FuzzPolicySpec feeds arbitrary specification text to Parse against the
// Figure 2a network. Parse must never panic — every malformed line ends
// in an error naming the policy package and the line — and every spec it
// accepts must survive Format → Parse unchanged.
func FuzzPolicySpec(f *testing.F) {
	f.Add("always-blocked S U\nalways-waypoint S T\nreachable S T 2\nprimary-path R T A,B,C\n")
	f.Add("# comment\n\n  isolated S T R T  \n")
	f.Add("reachable S T 0\n")
	f.Add("primary-path R T A,,C\n")
	f.Add("always-blocked S\n")
	f.Fuzz(func(t *testing.T, text string) {
		n := topology.Figure2a()
		ps, err := Parse(n, text)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "policy: line ") {
				t.Fatalf("unlabeled error: %v", err)
			}
			return
		}
		formatted := Format(ps)
		again, err := Parse(n, formatted)
		if err != nil {
			t.Fatalf("formatted spec does not re-parse: %v\n%s", err, formatted)
		}
		if len(ps) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(again, ps) {
			t.Fatalf("round trip changed the policies:\n--- parsed ---\n%s--- re-parsed ---\n%s", formatted, Format(again))
		}
	})
}
