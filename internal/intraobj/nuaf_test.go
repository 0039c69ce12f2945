package intraobj

import (
	"math"
	"testing"
)

// sampleNUAF is the sample-slice formulation of nuafVariation: gather the
// samples, take their mean, then their coefficient of variation. It is
// the bit-exact reference for the in-place passes.
func sampleNUAF(st *objState) float64 {
	var samples []float64
	if st.structured() {
		for _, t := range st.sliceTotals {
			samples = append(samples, float64(t))
		}
	} else {
		for _, f := range st.totalFreq {
			if f > 0 {
				samples = append(samples, float64(f))
			}
		}
	}
	if len(samples) < 2 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	cv := math.Sqrt(ss/float64(len(samples))) / mean * 100
	return excessCV(cv, mean)
}

// TestNUAFVariationMatchesSampleForm pins nuafVariation's float result,
// bit for bit, to the sample-slice formulation over random frequency
// vectors and slice totals (structured and not), and checks that it
// allocates nothing.
func TestNUAFVariationMatchesSampleForm(t *testing.T) {
	x := uint64(42)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for trial := 0; trial < 400; trial++ {
		st := &objState{
			totalFreq:   make([]uint32, next()%300),
			sliceTotals: make([]uint64, next()%6),
			apiTouches:  int(next() % 4),
			saViolated:  next()%4 == 0,
			saNonContig: next()%4 == 0,
		}
		for i := range st.totalFreq {
			switch next() % 4 {
			case 0: // untouched element
			case 1:
				st.totalFreq[i] = uint32(next() % 4)
			default:
				st.totalFreq[i] = uint32(next()%1000) + uint32(i)
			}
		}
		for i := range st.sliceTotals {
			if next()%5 != 0 {
				st.sliceTotals[i] = next() % (1 << 40)
			}
		}
		got, want := nuafVariation(st), sampleNUAF(st)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (structured=%v): nuafVariation = %v, sample form = %v",
				trial, st.structured(), got, want)
		}
		if allocs := testing.AllocsPerRun(3, func() { nuafVariation(st) }); allocs != 0 {
			t.Fatalf("trial %d: nuafVariation allocated %v times", trial, allocs)
		}
	}
}
