// Package pattern defines the ten memory-inefficiency patterns of DrGPUM
// (paper §3) and the Finding type shared by the object-level and
// intra-object detectors.
package pattern

import (
	"fmt"
	"strings"

	"drgpum/internal/trace"
)

// Pattern enumerates the ten inefficiency patterns of paper §3, in the
// order of Table 1.
type Pattern uint8

const (
	// EarlyAllocation (Definition 3.1): GPU APIs execute between an
	// object's allocation and its first access.
	EarlyAllocation Pattern = iota
	// LateDeallocation (Definition 3.2): GPU APIs execute between an
	// object's last access and its deallocation.
	LateDeallocation
	// RedundantAllocation (Definition 3.3): an object of (approximately)
	// equal size could have reused another object's memory because their
	// live access windows do not overlap.
	RedundantAllocation
	// UnusedAllocation (Definition 3.4): the object is never accessed by
	// any GPU API.
	UnusedAllocation
	// MemoryLeak (Definition 3.5): the object is never deallocated.
	MemoryLeak
	// TemporaryIdleness (Definition 3.6): at least X GPU APIs execute
	// between two consecutive accesses to the object.
	TemporaryIdleness
	// DeadWrite (Definition 3.7): two memory copy/set writes to the object
	// with no intervening access.
	DeadWrite
	// Overallocation (Definition 3.8): fewer than X% of the object's
	// elements are ever accessed.
	Overallocation
	// NonUniformAccessFrequency (Definition 3.9): the coefficient of
	// variation of per-element access frequencies at some GPU API exceeds
	// X%.
	NonUniformAccessFrequency
	// StructuredAccess (Definition 3.10): each GPU API accesses a disjoint
	// slice of the object.
	StructuredAccess
	// UncoalescedAccess is a repo extension beyond the paper's ten patterns:
	// the memory-hierarchy cost model observed that kernels touch the object
	// with access patterns whose per-warp transaction count substantially
	// exceeds the coalesced ideal (DESIGN.md §4.9). Unlike the byte-centric
	// patterns above it wastes bandwidth and cycles, not footprint.
	UncoalescedAccess

	numPatterns
)

// NumPatterns is the number of defined patterns.
const NumPatterns = int(numPatterns)

// NumPaperPatterns is the number of patterns defined by the source paper
// (§3, Table 1). Patterns at and beyond this index are repo extensions;
// paper-replication tables only render the first NumPaperPatterns columns.
const NumPaperPatterns = int(StructuredAccess) + 1

// InPaper reports whether the pattern is one of the paper's original ten
// (as opposed to a repo extension such as UncoalescedAccess).
func (p Pattern) InPaper() bool { return int(p) < NumPaperPatterns }

// ObjectLevel reports whether the pattern belongs to the object-level
// category (§3.1) as opposed to intra-object (§3.2).
func (p Pattern) ObjectLevel() bool { return p <= DeadWrite }

// String returns the full pattern name as used in the paper's tables.
func (p Pattern) String() string {
	switch p {
	case EarlyAllocation:
		return "Early Allocation"
	case LateDeallocation:
		return "Late Deallocation"
	case RedundantAllocation:
		return "Redundant Allocation"
	case UnusedAllocation:
		return "Unused Allocation"
	case MemoryLeak:
		return "Memory Leak"
	case TemporaryIdleness:
		return "Temporary Idleness"
	case DeadWrite:
		return "Dead Write"
	case Overallocation:
		return "Overallocation"
	case NonUniformAccessFrequency:
		return "Non-uniform Access Frequency"
	case StructuredAccess:
		return "Structured Access"
	case UncoalescedAccess:
		return "Uncoalesced Access"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Abbrev returns the two-letter code of the paper's Table 4 (EA, LD, RA,
// UA, ML, TI, DW, OA, NUAF, SA).
func (p Pattern) Abbrev() string {
	switch p {
	case EarlyAllocation:
		return "EA"
	case LateDeallocation:
		return "LD"
	case RedundantAllocation:
		return "RA"
	case UnusedAllocation:
		return "UA"
	case MemoryLeak:
		return "ML"
	case TemporaryIdleness:
		return "TI"
	case DeadWrite:
		return "DW"
	case Overallocation:
		return "OA"
	case NonUniformAccessFrequency:
		return "NUAF"
	case StructuredAccess:
		return "SA"
	case UncoalescedAccess:
		return "UC"
	default:
		return "??"
	}
}

// ID returns the stable kebab-case identifier used by every JSON schema the
// toolchain emits (drgpum -json, drgpum-staticadv -json, drgpum-lint). IDs
// are part of the output contract: never renumber or rename them.
func (p Pattern) ID() string {
	switch p {
	case EarlyAllocation:
		return "early-allocation"
	case LateDeallocation:
		return "late-deallocation"
	case RedundantAllocation:
		return "redundant-allocation"
	case UnusedAllocation:
		return "unused-allocation"
	case MemoryLeak:
		return "memory-leak"
	case TemporaryIdleness:
		return "temporary-idleness"
	case DeadWrite:
		return "dead-write"
	case Overallocation:
		return "overallocation"
	case NonUniformAccessFrequency:
		return "non-uniform-access-frequency"
	case StructuredAccess:
		return "structured-access"
	case UncoalescedAccess:
		return "uncoalesced-access"
	default:
		return fmt.Sprintf("pattern-%d", uint8(p))
	}
}

// ParseID resolves a kebab-case pattern identifier.
func ParseID(s string) (Pattern, bool) {
	for p := EarlyAllocation; p < numPatterns; p++ {
		if p.ID() == s {
			return p, true
		}
	}
	return 0, false
}

// SeverityClass buckets a finding's importance into the three-level scale
// shared by every tool's JSON schema (profiler findings, static advisor
// findings and memcheck reports all use the same strings).
type SeverityClass uint8

const (
	// SeverityInfo marks advisory findings with little modeled waste.
	SeverityInfo SeverityClass = iota
	// SeverityWarning marks findings with substantial modeled waste.
	SeverityWarning
	// SeverityError marks definite defects (leaks, out-of-bounds, ...).
	SeverityError
)

// String returns the schema string ("info", "warning", "error").
func (s SeverityClass) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	default:
		return fmt.Sprintf("severity-%d", uint8(s))
	}
}

// ParseAbbrev resolves a Table-4 abbreviation.
func ParseAbbrev(s string) (Pattern, bool) {
	for p := EarlyAllocation; p < numPatterns; p++ {
		if p.Abbrev() == strings.ToUpper(s) {
			return p, true
		}
	}
	return 0, false
}

// All returns every pattern in table order.
func All() []Pattern {
	out := make([]Pattern, NumPatterns)
	for i := range out {
		out[i] = Pattern(i)
	}
	return out
}

// IdleWindow is one temporary-idleness gap: the object is untouched between
// the two listed accesses.
type IdleWindow struct {
	// FromAPI and ToAPI are the consecutive accesses bounding the window.
	FromAPI uint64
	ToAPI   uint64
	// Intervening is the number of GPU APIs executed inside the window.
	Intervening int
}

// Finding is one detected inefficiency instance.
type Finding struct {
	// Pattern is the detected inefficiency class.
	Pattern Pattern
	// Object is the affected data object.
	Object trace.ObjectID
	// Partner is the reuse donor for RedundantAllocation (the
	// already-allocated object whose memory Object can reuse).
	Partner trace.ObjectID
	// HasPartner reports whether Partner is valid.
	HasPartner bool
	// APIs are the GPU API invocation indices that evidence the pattern
	// (e.g. [allocAPI, firstAccessAPI] for EarlyAllocation, the two killing
	// writes for DeadWrite).
	APIs []uint64
	// Distance is the topological inefficiency distance between the
	// evidencing APIs (paper §5.3); 0 when not applicable.
	Distance uint64
	// WastedBytes estimates how much device memory the inefficiency pins
	// (used for severity ranking).
	WastedBytes uint64
	// PeakSavingsBytes is the advisor's estimate of the peak reduction from
	// fixing this finding alone (0 when the object never shapes the peak).
	PeakSavingsBytes uint64
	// Windows lists idle windows for TemporaryIdleness findings.
	Windows []IdleWindow
	// AccessedPct is the percentage of elements accessed (Overallocation).
	AccessedPct float64
	// FragmentationPct is the paper's Equation 1 metric (Overallocation).
	FragmentationPct float64
	// VariationPct is the coefficient of variation of per-element access
	// frequencies (NonUniformAccessFrequency), in percent.
	VariationPct float64
	// AtKernel is the kernel name evidencing an intra-object pattern.
	AtKernel string
	// ModeledCycles is the cost model's estimate of the memory-hierarchy
	// cycles the affected object's traffic currently costs (0 when the model
	// is disabled or the pattern carries no traffic component).
	ModeledCycles uint64
	// CyclesSaved is the cost model's estimate of cycles recovered by fixing
	// this finding (DESIGN.md §4.9). When the model is enabled, severity
	// ranking uses this instead of the byte-based formula.
	CyclesSaved uint64
	// Severity orders findings within a report (higher is more severe).
	Severity float64
	// Suggestion is the human-facing optimization guidance.
	Suggestion string
	// OnPeak marks findings whose object is live at one of the program's
	// top memory peaks (the GUI highlights these, paper §4).
	OnPeak bool
}

// Key returns a stable identity for deduplication across detector passes.
func (f *Finding) Key() string {
	return fmt.Sprintf("%s/%d/%s", f.Pattern.Abbrev(), f.Object, f.AtKernel)
}
