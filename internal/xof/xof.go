// Package xof provides the seeded extendable-output function and
// rejection sampler that PASTA uses to derive its public, per-block
// pseudo-random data (matrix first rows and round constants).
//
// Normative generation procedure for this reproduction (documented here
// because the paper defers to the PASTA reference code):
//
//  1. SHAKE128 is seeded with the 8-byte big-endian nonce followed by the
//     8-byte big-endian block counter. Nonce and counter are public
//     (Fig. 2 of the paper), so the whole stream is public.
//  2. Field elements are drawn by squeezing one 64-bit little-endian word,
//     masking it to ceil(log2 p) bits, and accepting it iff it is < p.
//     For p = 65537 the mask is 17 bits and the acceptance rate is ≈ 1/2 —
//     the "≈2× rejection sampling" of Sec. IV-B.
//  3. When an element must be nonzero (the first entry α₀ of a matrix
//     seed row, required for invertibility of the sequential matrix
//     construction), zero draws are additionally rejected.
//
// The sampler keeps draw/rejection statistics so the cycle-accurate
// hardware model and the analytical cycle audit can be validated against
// the functional reference.
package xof

import (
	"encoding/binary"

	"repro/internal/ff"
	"repro/internal/keccak"
)

// Sampler produces uniform field elements from a seeded SHAKE128 stream
// via rejection sampling.
type Sampler struct {
	shake *keccak.Shake
	mod   ff.Modulus
	mask  uint64

	// Statistics (exported for cycle-audit validation).
	WordsDrawn int // total 64-bit words squeezed
	Rejected   int // words discarded by rejection (incl. zero-rejects)

	// The statistics are written on every draw; padding the sampler to two
	// cache lines keeps two workers' samplers off a shared line (see
	// keccak.Shake).
	_ [48]byte
}

// NewSampler seeds SHAKE128 with nonce‖counter (big-endian) and returns a
// sampler for the modulus of params.
func NewSampler(mod ff.Modulus, nonce, counter uint64) *Sampler {
	d := keccak.NewShake128()
	var seed [16]byte
	binary.BigEndian.PutUint64(seed[0:8], nonce)
	binary.BigEndian.PutUint64(seed[8:16], counter)
	_, _ = d.Write(seed[:])
	return &Sampler{shake: d, mod: mod, mask: mod.Mask()}
}

// Reseed resets the sampler in place to the nonce‖counter seeding of
// NewSampler, reusing the underlying Keccak state. Together with
// VectorInto this lets a pooled sampler serve an unbounded stream of
// keystream blocks without allocating.
func (s *Sampler) Reseed(nonce, counter uint64) {
	s.shake.Reset()
	var seed [16]byte
	binary.BigEndian.PutUint64(seed[0:8], nonce)
	binary.BigEndian.PutUint64(seed[8:16], counter)
	_, _ = s.shake.Write(seed[:])
	s.WordsDrawn = 0
	s.Rejected = 0
}

// NewSamplerBytes seeds SHAKE128 with an arbitrary byte seed. Used for
// key derivation in tests and examples; the cipher's public randomness
// always uses NewSampler (nonce‖counter).
func NewSamplerBytes(mod ff.Modulus, seed []byte) *Sampler {
	d := keccak.NewShake128()
	_, _ = d.Write(seed)
	return &Sampler{shake: d, mod: mod, mask: mod.Mask()}
}

// RawStream exposes the unmasked 64-bit SHAKE128 word stream under the
// nonce‖counter seeding convention; the hardware model's Keccak unit is
// validated against it word by word.
type RawStream struct {
	d *keccak.Shake
}

// NewRawStream seeds the stream identically to NewSampler.
func NewRawStream(nonce, counter uint64) *RawStream {
	d := keccak.NewShake128()
	var seed [16]byte
	binary.BigEndian.PutUint64(seed[0:8], nonce)
	binary.BigEndian.PutUint64(seed[8:16], counter)
	_, _ = d.Write(seed[:])
	return &RawStream{d: d}
}

// NextWord squeezes the next 64-bit word.
func (r *RawStream) NextWord() uint64 { return r.d.NextWord() }

// Next returns the next uniform element of [0, p).
func (s *Sampler) Next() uint64 {
	for {
		s.WordsDrawn++
		v := s.shake.NextWord() & s.mask
		if v < s.mod.P() {
			return v
		}
		s.Rejected++
	}
}

// NextNonzero returns the next uniform element of [1, p); used for the
// leading matrix-seed element α₀ which must be nonzero for the sequential
// invertible-matrix construction.
func (s *Sampler) NextNonzero() uint64 {
	for {
		v := s.Next()
		if v != 0 {
			return v
		}
		s.Rejected++
	}
}

// Vector fills a fresh length-n vector with uniform elements. If
// leadingNonzero is set, element 0 is drawn from [1, p).
func (s *Sampler) Vector(n int, leadingNonzero bool) ff.Vec {
	v := ff.NewVec(n)
	s.VectorInto(v, leadingNonzero)
	return v
}

// VectorInto fills v with uniform elements, drawing in the same order as
// Vector, without allocating.
func (s *Sampler) VectorInto(v ff.Vec, leadingNonzero bool) {
	for i := range v {
		if i == 0 && leadingNonzero {
			v[i] = s.NextNonzero()
		} else {
			v[i] = s.Next()
		}
	}
}

// Modulus returns the sampler's field modulus.
func (s *Sampler) Modulus() ff.Modulus { return s.mod }

// KeccakPermutations returns the number of Keccak-f permutations consumed
// so far: one initial permutation absorbs the 16-byte seed, then one per
// 21 squeezed words. This is the count the paper's cycle budget is built
// on (Sec. IV-B: "a minimum of 31 Keccak permutation rounds", "on average
// 60" after rejection for PASTA-4).
func (s *Sampler) KeccakPermutations() int {
	if s.WordsDrawn == 0 {
		return 0
	}
	return 1 + (s.WordsDrawn-1)/21
}
