package cpr

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/smt/maxsat"
)

// OptionFlags is the string-level repair option surface shared by the
// cpr CLI flags and cprd's JSON request bodies, so both front ends
// accept identical spellings. Zero values mean "use the default".
type OptionFlags struct {
	// Granularity is "per-dst" (default) or "all-tcs".
	Granularity string `json:"granularity,omitempty"`
	// Algorithm is "oll" (default) or "linear".
	Algorithm string `json:"algorithm,omitempty"`
	// Objective is "min-lines" (default) or "min-devices".
	Objective string `json:"objective,omitempty"`
	// Parallelism bounds concurrent per-destination solves. Zero (the
	// default) means one worker per core (runtime.GOMAXPROCS); negative
	// values are rejected. Results are identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// ConflictBudget bounds each SAT call (0 = unlimited).
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	// Isolation is "on" (default) or "off": per-destination fault
	// isolation with retries and greedy degradation (per-dst granularity
	// only).
	Isolation string `json:"isolation,omitempty"`
	// NoFallback disables greedy degradation: exhausted destinations are
	// marked failed instead.
	NoFallback bool `json:"no_fallback,omitempty"`
	// Compress is "auto" (default: compress eligible sub-problems on
	// networks with at least 24 devices), "on", or "off" — Bonsai-style
	// symmetry compression with concrete re-verification.
	Compress string `json:"compress,omitempty"`
	// CompressRedundancy overrides the representative members kept per
	// role-equivalence class (0 = derive from the problem's policies).
	CompressRedundancy int `json:"compress_redundancy,omitempty"`
	// SolveCache is "on" (default) or "off": per-sub-problem result
	// replay from the session's solve cache on repeat repairs (only
	// effective through a Session; plain System repairs have no cache).
	SolveCache string `json:"solve_cache,omitempty"`
}

// Resolve converts the string-level flags into engine Options, rejecting
// unknown spellings.
func (f OptionFlags) Resolve() (Options, error) {
	opts := DefaultOptions()
	switch f.Granularity {
	case "", "per-dst":
		opts.Granularity = core.PerDst
	case "all-tcs":
		opts.Granularity = core.AllTCs
	default:
		return opts, fmt.Errorf("unknown granularity %q (want per-dst or all-tcs)", f.Granularity)
	}
	algo, err := maxsat.ParseAlgorithm(f.Algorithm)
	if err != nil {
		return opts, err
	}
	opts.Algorithm = algo
	switch f.Objective {
	case "", "min-lines":
		opts.Objective = core.MinLines
	case "min-devices":
		opts.Objective = core.MinDevices
	default:
		return opts, fmt.Errorf("unknown objective %q (want min-lines or min-devices)", f.Objective)
	}
	if f.Parallelism < 0 {
		return opts, fmt.Errorf("negative parallelism %d", f.Parallelism)
	}
	opts.Parallelism = f.Parallelism
	if f.ConflictBudget < 0 {
		return opts, fmt.Errorf("negative conflict budget %d", f.ConflictBudget)
	}
	opts.ConflictBudget = f.ConflictBudget
	switch f.Isolation {
	case "", "on":
		opts.Isolation = core.IsolationOn
	case "off":
		opts.Isolation = core.IsolationOff
	default:
		return opts, fmt.Errorf("unknown isolation %q (want on or off)", f.Isolation)
	}
	opts.DisableFallback = f.NoFallback
	switch f.Compress {
	case "", "auto":
		opts.Compress = core.CompressAuto
	case "on":
		opts.Compress = core.CompressOn
	case "off":
		opts.Compress = core.CompressOff
	default:
		return opts, fmt.Errorf("unknown compress %q (want auto, on, or off)", f.Compress)
	}
	if f.CompressRedundancy < 0 {
		return opts, fmt.Errorf("negative compress redundancy %d", f.CompressRedundancy)
	}
	opts.CompressRedundancy = f.CompressRedundancy
	switch f.SolveCache {
	case "", "on":
		opts.DisableSolveCache = false
	case "off":
		opts.DisableSolveCache = true
	default:
		return opts, fmt.Errorf("unknown solve_cache %q (want on or off)", f.SolveCache)
	}
	return opts, nil
}
