package main

// rng is a SplitMix64 generator: every input the benchmark generates comes
// from one, seeded by --seed, so the same seed gives the same inputs.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

// next returns the next 64 random bits.
func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n); n must be positive.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// chance reports true with probability pct/100.
func (r *rng) chance(pct int) bool { return r.intn(100) < pct }

// shuffle permutes the first n indices with swap (Fisher-Yates).
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// fork derives an independent generator, so adding draws to one input
// stream does not shift another.
func (r *rng) fork() *rng { return newRNG(r.next()) }
