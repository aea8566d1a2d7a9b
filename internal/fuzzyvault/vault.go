package fuzzyvault

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"trust/internal/fingerprint"
	"trust/internal/sim"
)

// Quantization of a minutia into a 16-bit field element: 5 bits of
// x-cell, 6 bits of y-cell, 5 bits of angle bin. Cells are 0.55 mm —
// roughly the matcher's pairing tolerance.
const (
	cellMM    = 0.55
	xBits     = 5
	yBits     = 6
	angleBits = 5
	angleBins = 1 << angleBits
)

// quantize maps a minutia to its field element; ok is false when the
// position falls outside the representable grid.
func quantize(m fingerprint.Minutia) (Elem, bool) {
	xc := int(m.Pos.X / cellMM)
	yc := int(m.Pos.Y / cellMM)
	if xc < 0 || xc >= 1<<xBits || yc < 0 || yc >= 1<<yBits {
		return 0, false
	}
	ang := m.Angle
	for ang < 0 {
		ang += 2 * math.Pi
	}
	ab := int(ang/(2*math.Pi)*angleBins) % angleBins
	return Elem(xc<<(yBits+angleBits) | yc<<angleBits | ab), true
}

// neighbors enumerates the quantized elements within +/-1 cell in x and
// y and +/-1 angle bin of the minutia — the unlock tolerance.
func neighbors(m fingerprint.Minutia) []Elem {
	var out []Elem
	base := m
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for da := -1; da <= 1; da++ {
				q := base
				q.Pos.X += float64(dx) * cellMM
				q.Pos.Y += float64(dy) * cellMM
				q.Angle += float64(da) * (2 * math.Pi / angleBins)
				if e, ok := quantize(q); ok {
					out = append(out, e)
				}
			}
		}
	}
	return out
}

// Point is one vault entry.
type Point struct {
	X, Y Elem
}

// Vault is a locked fuzzy vault.
type Vault struct {
	Points []Point // genuine + chaff, shuffled
	Degree int     // polynomial degree + 1 (number of coefficients)
}

// Params configures vault construction and decoding.
type Params struct {
	// PolyCoeffs is the number of polynomial coefficients: SecretLen
	// words of payload plus two CRC check words. Security and FRR both
	// grow with it.
	PolyCoeffs int
	// Chaff is the number of decoy points.
	Chaff int
	// DecodeTrials bounds the random-subset decoding attempts.
	DecodeTrials int
}

// SecretLen is the number of payload words a vault with these
// parameters hides.
func (p Params) SecretLen() int { return p.PolyCoeffs - 2 }

// DefaultParams matches the published implementations: degree-8
// polynomial (9 coefficients: 7 secret words + 32-bit check), 200
// chaff points.
func DefaultParams() Params {
	return Params{PolyCoeffs: 9, Chaff: 200, DecodeTrials: 4000}
}

// checkWords derives the two 16-bit check coefficients (an IEEE CRC-32
// split in half) appended to the secret, so decoding self-verifies with
// a 2^-32 collision probability — negligible across the bounded trial
// budget.
func checkWords(words []Elem) (Elem, Elem) {
	buf := make([]byte, 0, 2*len(words))
	for _, w := range words {
		buf = binary.BigEndian.AppendUint16(buf, uint16(w))
	}
	c := crc32.ChecksumIEEE(buf)
	return Elem(c >> 16), Elem(c)
}

// Lock hides secret (PolyCoeffs-1 words) in a vault keyed by the
// template's minutiae. The template must supply at least PolyCoeffs
// distinct quantized positions.
func Lock(t *fingerprint.Template, secret []Elem, p Params, rng *sim.RNG) (*Vault, error) {
	if len(secret) != p.SecretLen() {
		return nil, fmt.Errorf("fuzzyvault: secret must be %d words, got %d", p.SecretLen(), len(secret))
	}
	poly := make(Poly, p.PolyCoeffs)
	copy(poly, secret)
	poly[p.PolyCoeffs-2], poly[p.PolyCoeffs-1] = checkWords(secret)

	used := map[Elem]bool{}
	var points []Point
	for _, m := range t.Minutiae {
		e, ok := quantize(m)
		if !ok || used[e] {
			continue
		}
		used[e] = true
		points = append(points, Point{X: e, Y: poly.Eval(e)})
	}
	if len(points) < p.PolyCoeffs {
		return nil, errors.New("fuzzyvault: too few distinct genuine points")
	}
	// Chaff: decoys drawn from the same plausible minutiae space as
	// genuine points (an attacker must not be able to filter chaff by
	// its encoding), with y deliberately off the polynomial.
	target := len(points) + p.Chaff
	for len(points) < target {
		x := Elem(rng.Intn(1<<xBits)<<(yBits+angleBits) |
			rng.Intn(1<<yBits)<<angleBits |
			rng.Intn(angleBins))
		if used[x] {
			continue
		}
		used[x] = true
		y := Elem(rng.Uint64())
		if y == poly.Eval(x) {
			y ^= 1
		}
		points = append(points, Point{X: x, Y: y})
	}
	// Shuffle so genuine points are not positionally identifiable.
	perm := rng.Perm(len(points))
	shuffled := make([]Point, len(points))
	for i, j := range perm {
		shuffled[j] = points[i]
	}
	return &Vault{Points: shuffled, Degree: p.PolyCoeffs}, nil
}

// Unlock attempts to recover the secret with a probe minutiae set
// (same frame as the template — the vault has NO alignment recovery,
// which is one of the two reasons the paper rejects it). Returns the
// secret on success.
func (v *Vault) Unlock(probe []fingerprint.Minutia, p Params, rng *sim.RNG) ([]Elem, bool) {
	// Candidate selection: vault points whose x is within the unlock
	// tolerance of some probe minutia.
	wanted := map[Elem]bool{}
	for _, m := range probe {
		for _, e := range neighbors(m) {
			wanted[e] = true
		}
	}
	var candX, candY []Elem
	for _, pt := range v.Points {
		if wanted[pt.X] {
			candX = append(candX, pt.X)
			candY = append(candY, pt.Y)
		}
	}
	k := v.Degree
	if len(candX) < k {
		return nil, false
	}
	// Bounded random-subset decoding: interpolate k candidates, check
	// the CRC coefficient.
	idx := make([]int, k)
	xs := make([]Elem, k)
	ys := make([]Elem, k)
	for trial := 0; trial < p.DecodeTrials; trial++ {
		// Sample k distinct indices.
		seen := map[int]bool{}
		for i := 0; i < k; {
			j := rng.Intn(len(candX))
			if !seen[j] {
				seen[j] = true
				idx[i] = j
				i++
			}
		}
		dup := false
		for i := 0; i < k && !dup; i++ {
			xs[i], ys[i] = candX[idx[i]], candY[idx[i]]
			for j := 0; j < i; j++ {
				if xs[j] == xs[i] {
					dup = true
					break
				}
			}
		}
		if dup {
			continue
		}
		poly := Interpolate(xs, ys)
		secret := poly[:k-2]
		c1, c2 := checkWords(secret)
		if c1 == poly[k-2] && c2 == poly[k-1] {
			out := make([]Elem, k-2)
			copy(out, secret)
			return out, true
		}
	}
	return nil, false
}
