package core

import "testing"

// TestRetainedBytesCountOwnedMapsOnly pins the solve cache's retained-
// memory estimate for compressed repairs: a cached realized state shares
// every inner map its repair left alone with the pre-repair state, so it
// is charged only for its flat maps, its outer maps, and the inner maps
// the repair wrote — not once more for the whole network per entry.
func TestRetainedBytesCountOwnedMapsOnly(t *testing.T) {
	h, ps := determinismFixture(t)
	opts := DefaultOptions()
	opts.Compress = CompressOn
	opts.Cache = NewSolveCache("retained-epoch")
	res, err := Repair(h, ps, opts)
	if err != nil || !res.Solved {
		t.Fatalf("repair: err=%v solved=%v", err, res != nil && res.Solved)
	}
	perEntry := func(m map[string]bool) int64 {
		var b int64
		for k := range m {
			b += int64(len(k)) + 24
		}
		return b
	}
	compressed := 0
	for _, e := range opts.Cache.entries {
		st := e.realized
		if st == nil {
			continue
		}
		compressed++
		want := perEntry(st.All) + perEntry(st.Waypoint) + perEntry(st.RouteFilter) + perEntry(st.Static)
		for k := range st.Cost {
			want += int64(len(k)) + 24
		}
		var shared, naive int64
		for k, m := range st.Dst {
			want += int64(len(k)) + 16
			naive += perEntry(m)
			if st.SharesDst(res.Orig, k) {
				shared += perEntry(m)
			} else {
				want += perEntry(m)
			}
		}
		for k, m := range st.TC {
			want += int64(len(k)) + 16
			naive += perEntry(m)
			if st.SharesTC(res.Orig, k) {
				shared += perEntry(m)
			} else {
				want += perEntry(m)
			}
		}
		if e.bytes != want {
			t.Errorf("%s: retained %d bytes, want %d (inner maps shared with the pre-repair state excluded)", e.stat.Label, e.bytes, want)
		}
		if shared*2 < naive {
			t.Errorf("%s: only %d of %d inner-map bytes are shared; a per-destination repair should leave most classes alone", e.stat.Label, shared, naive)
		}
	}
	if compressed == 0 {
		t.Fatal("no compressed entry was cached")
	}
}
