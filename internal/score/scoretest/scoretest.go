// Package scoretest provides the evaluation oracle for tests of the
// score package's callers: capability-stripped measure batteries. A
// stripped measure exposes only Measure, so score.Evaluator.Prepare
// leaves its state slot nil and every offspring is scored by a full
// Loss or Risk — the result the incremental route must reproduce bit
// for bit.
package scoretest

import (
	"evoprot/internal/infoloss"
	"evoprot/internal/risk"
	"evoprot/internal/score"
)

// ilOnly hides every capability of an information-loss measure but
// Measure itself.
type ilOnly struct{ infoloss.Measure }

// drOnly is ilOnly for the disclosure-risk battery.
type drOnly struct{ risk.Measure }

// Strip returns cfg with every measure wrapped so that it exposes only
// Measure; nil batteries resolve to the defaults first. Names, values and
// battery order are unchanged, so an evaluator built from the result
// scores exactly like one built from cfg, through full recomputation
// only.
func Strip(cfg score.Config) score.Config {
	il, dr := cfg.IL, cfg.DR
	if il == nil {
		il = infoloss.Default()
	}
	if dr == nil {
		dr = risk.Default()
	}
	cfg.IL = make([]infoloss.Measure, len(il))
	for i, m := range il {
		cfg.IL[i] = StripIL(m)
	}
	cfg.DR = make([]risk.Measure, len(dr))
	for i, m := range dr {
		cfg.DR[i] = drOnly{m}
	}
	return cfg
}

// StripIL wraps one information-loss measure so that it exposes only
// Measure: an evaluator scores it by a full Loss per offspring while the
// rest of its battery keeps its states — the mixed route of a battery
// with one stateless measure.
func StripIL(m infoloss.Measure) infoloss.Measure { return ilOnly{m} }
