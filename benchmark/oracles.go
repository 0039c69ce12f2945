package main

import (
	"fmt"
	"strings"

	"drgpum/internal/core"
	"drgpum/internal/pattern"
)

// paperTable1 is the benchmark's own copy of the paper's Table 1: the
// inefficiency patterns each program's naive variant exhibits. It is kept
// here, not read from the program, so the oracle stays independent of the
// code it checks.
var paperTable1 = map[string][]string{
	"rodinia/huffman":       {"EA", "LD", "RA", "UA", "TI"},
	"rodinia/dwt2d":         {"EA", "LD", "RA", "UA", "TI", "DW"},
	"polybench/2mm":         {"EA", "LD", "RA"},
	"polybench/3mm":         {"EA", "LD", "RA", "TI"},
	"polybench/gramschmidt": {"EA", "LD", "TI", "NUAF", "SA"},
	"polybench/bicg":        {"EA", "LD", "RA", "NUAF"},
	"pytorch":               {"EA", "LD", "RA", "UA", "TI"},
	"laghos":                {"EA", "LD", "RA", "UA", "TI", "DW"},
	"darknet":               {"EA", "LD", "RA", "UA", "ML", "TI", "DW"},
	"xsbench":               {"ML", "OA"},
	"minimdock":             {"EA", "LD", "UA", "TI", "OA"},
	"simplemulticopy":       {"EA", "LD", "TI", "DW"},
	// The traffic-bound companions have no paper pattern; their only
	// finding is the repo's uncoalesced-access extension.
	"sdk/matrixtranspose": {},
	"sdk/particles":       {},
}

// objectLevelAbbrevs are the paper's object-level columns (Definitions
// 3.1-3.7), the ones an object-level run can detect.
var objectLevelAbbrevs = map[string]bool{
	"EA": true, "LD": true, "RA": true, "UA": true, "ML": true, "TI": true, "DW": true,
}

// checkTable1 compares a detected pattern set with the program's Table 1
// row: all ten paper columns when intra is set, the object-level columns
// otherwise. Repo-extension patterns are ignored.
func checkTable1(program string, detected []pattern.Pattern, intra bool) error {
	row, ok := paperTable1[program]
	if !ok {
		return fmt.Errorf("%s: no Table 1 row", program)
	}
	var want, got []string
	for _, a := range row {
		if intra || objectLevelAbbrevs[a] {
			want = append(want, a)
		}
	}
	for _, p := range detected {
		if !p.InPaper() {
			continue
		}
		if intra || objectLevelAbbrevs[p.Abbrev()] {
			got = append(got, p.Abbrev())
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		level := "object-level"
		if intra {
			level = "intra-object"
		}
		return fmt.Errorf("%s %s: detected {%s}, Table 1 has {%s}",
			program, level, strings.Join(got, ","), strings.Join(want, ","))
	}
	return nil
}

// sameCycles requires a profiled run's simulated time to equal the native
// run's: profiling must not perturb the simulated program.
func sameCycles(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: simulated %d cycles, the native run %d", what, got, want)
	}
	return nil
}

// sameCounts requires a run's work counters to repeat the first run's.
func sameCounts(what string, want, got workCounts) error {
	if got != want {
		return fmt.Errorf("%s: work counters drifted between runs of the same input: first %+v, now %+v", what, want, got)
	}
	return nil
}

// hasPattern checks that a planted inefficiency is reported on its object.
func hasPattern(rep *core.Report, pl planted) error {
	for _, p := range rep.PatternsForObject(pl.object) {
		if p == pl.pattern {
			return nil
		}
	}
	return fmt.Errorf("long-stream: planted %s on %s not reported (got %v)", pl.pattern.Abbrev(), pl.object, rep.PatternsForObject(pl.object))
}

// sameCounterMap compares two counter sets exactly.
func sameCounterMap(what string, want, got map[string]uint64) error {
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Errorf("%s: counter %s drifted between runs of the same input: first %d, now %d", what, k, want[k], got[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: counter sets differ: %d vs %d counters", what, len(want), len(got))
	}
	return nil
}
