// Package sim provides the deterministic simulation substrate used by
// every other package in this repository: a seeded random number
// generator, a parallel sweep engine, and an energy meter. Time is the
// explicit virtual `now time.Duration` each layer is passed, never wall
// time, so runs are exactly reproducible.
package sim

import "math"

// RNG is a small, fast, deterministic random number generator
// (xoshiro256**, seeded through splitmix64). Every stochastic component
// in the simulator draws from an RNG derived from the run seed, so the
// whole system is reproducible from a single integer.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	haveSpare bool
	spare     float64
}

// NewRNG returns a generator seeded from seed. Distinct seeds give
// decorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Fork derives an independent child stream labelled by id. Components
// use Fork so that adding a new consumer never perturbs the draws seen
// by existing ones.
func (r *RNG) Fork(id uint64) *RNG {
	return NewRNG(r.Uint64() ^ (id * 0xd1342543de82ef95))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller with a cached spare).
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.haveSpare {
		r.haveSpare = false
		return mean + stddev*r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.haveSpare = true
	return mean + stddev*u*m
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Pick returns a random index weighted by the non-negative weights. It
// panics if weights is empty or sums to zero.
func (r *RNG) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("sim: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("sim: Pick with no usable weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
