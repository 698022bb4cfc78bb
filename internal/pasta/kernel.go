package pasta

import (
	"math"
	"math/bits"

	"repro/internal/ff"
)

// This file is the one PASTA arithmetic kernel: the affine layer's
// row-recurrence product M(seed)·x, Mix, and both S-boxes. The software
// keystream engine, the event-driven accelerator model (internal/hw) and
// the MASTA engine all run it. It follows the datapath of Sec. III-C: a
// MAC bank generates each matrix row from the seed row and the previous
// row (eq. 1), a multiplier bank and adder tree take the row's dot product
// with the state half, and the sum is reduced once per row.
//
// Matrix rows stay lazily reduced in [0, 2p); every value the kernel
// returns is fully reduced, so its results are bit-identical to the
// canonical NextMatrixRowInto + ff.Dot path. Its oracles are the generic
// reference permutation in the tests, the per-cycle accelerator model
// (hw.MatEngine), and the golden vectors.
//
// NewKernel picks one of three reductions from (modulus, t):
//
//   - reduceFold, for Fermat moduli p = 2^a + 1 with small products (P17):
//     a product splits into a-bit limbs x = l0 + 2^a·l1 + 2^2a·l2, and
//     since 2^a ≡ -1 and 2^2a ≡ 1 (mod p), x ≡ l0 - l1 + l2 reduces with
//     conditional subtractions only.
//   - reduceShoupSmall, for other moduli where t·(2p-1)·(p-1) fits in 64
//     bits: Shoup multiplication by the per-matrix seed constants, and a
//     plain uint64 dot accumulator.
//   - reduceShoupWide, for P33/P54/P60 and every other wide modulus:
//     Shoup rows and the 192-bit lazy accumulator of ff.DotLazy.

type reduction uint8

const (
	reduceShoupWide reduction = iota
	reduceShoupSmall
	reduceFold
)

// Kernel is the PASTA arithmetic for one (modulus, block size) pair. It
// is a small value computed by a few integer operations, so callers build
// one per call or per block rather than storing it.
type Kernel struct {
	mod   ff.Modulus
	p     uint64
	red   reduction
	a     uint   // Fermat exponent: p = 2^a + 1
	maskA uint64 // 2^a - 1
}

// NewKernel selects the reduction for modulus mod and block size t.
func NewKernel(mod ff.Modulus, t int) Kernel {
	k := Kernel{mod: mod, p: mod.P()}
	if t < 1 {
		t = 1
	}
	p := k.p
	// The uint64 dot accumulator is exact when t products of a lazy row
	// value (< 2p) and a reduced state element (< p) cannot overflow.
	hi, prodMax := bits.Mul64(2*p-1, p-1)
	if hi != 0 || prodMax > math.MaxUint64/uint64(t) {
		return k
	}
	k.red = reduceShoupSmall
	// The fold replaces Shoup multiplication when its bounds hold: a MAC
	// product (2p-1)(p-1) must fold below 2p with one subtraction
	// (overflow limb ≤ 2), and a dot accumulator t·(2p-1)(p-1) below 3p
	// (overflow limb < p). This holds for every Fermat modulus that passes
	// the uint64 test above; it is checked anyway so that no toy modulus
	// can reach the fold outside its bounds.
	if mod.Kind() == ff.Fermat {
		a := mod.Bits() - 1
		if prodMax>>(2*a) <= 2 && (prodMax*uint64(t))>>(2*a) < p {
			k.red = reduceFold
			k.a = a
			k.maskA = uint64(1)<<a - 1
		}
	}
	return k
}

// MatVec sets out = M(seed)·x, where M(seed) is the invertible matrix the
// row recurrence of eq. (1) expands from seed. rowA and rowB are scratch
// registers of at least len(seed) elements. out must not alias x or the
// scratch; every input must be fully reduced.
func (k *Kernel) MatVec(out, seed, x, rowA, rowB ff.Vec) {
	if k.red == reduceFold {
		k.matVecFold(out, seed, x, rowA, rowB)
		return
	}
	k.matVecShoup(out, seed, x, rowA, rowB)
}

// matVecShoup multiplies by the seed constants in Shoup form (row holds
// the current row, shoup the constants).
func (k *Kernel) matVecShoup(out, seed, x, row, shoup ff.Vec) {
	mod := k.mod
	t := len(seed)
	twoP := 2 * k.p
	row = row[:t]
	shoup = shoup[:t]
	for j := 0; j < t; j++ {
		shoup[j] = mod.ShoupPrecomp(seed[j])
		row[j] = seed[j]
	}
	out[0] = k.dot(row, x)
	for i := 1; i < t; i++ {
		last := row[t-1]
		// Descending j so row[j-1] is still the previous row's value.
		for j := t - 1; j >= 1; j-- {
			v := mod.MulShoupLazy(last, seed[j], shoup[j]) + row[j-1]
			if v >= twoP {
				v -= twoP
			}
			row[j] = v
		}
		row[0] = mod.MulShoupLazy(last, seed[0], shoup[0])
		out[i] = k.dot(row, x)
	}
}

// dot reduces the dot product of a lazy row with x once.
func (k *Kernel) dot(row, x ff.Vec) uint64 {
	if k.red == reduceShoupWide {
		return ff.DotLazy(k.mod, row, x)
	}
	x = x[:len(row)]
	var acc uint64
	for j := range row {
		acc += row[j] * x[j]
	}
	return k.mod.Reduce(acc)
}

// fermatFold returns l0 - l1 + l2 + p ≡ x (mod p = 2^a + 1) for the a-bit
// limbs of x; it lies in [0, 2p] when x>>(2a) ≤ 2. Both shifts are by a,
// so the shift count stays in one register.
func fermatFold(x, p uint64, a uint, maskA uint64) uint64 {
	h := x >> a
	return (x & maskA) + (h >> a) + p - (h & maskA)
}

// matVecFold is the Fermat-fold row recurrence. Rows ping-pong between
// the two registers so both loops run ascending with provably in-bounds
// indices (src holds row i-1 while dst fills row i).
func (k *Kernel) matVecFold(out, seed, x, rowA, rowB ff.Vec) {
	t := len(seed)
	// Masking the shift count to [0, 64) lets the compiler emit bare
	// shifts instead of guarded variable shifts.
	p, a, maskA := k.p, k.a&63, k.maskA
	twoP := 2 * p
	x = x[:t]
	out = out[:t]
	src := rowA[:t]
	dst := rowB[:t]
	copy(src, seed)
	var acc uint64
	for j := 0; j < t; j++ {
		acc += seed[j] * x[j]
	}
	out[0] = k.foldReduce(acc)
	for i := 1; i < t; i++ {
		src = src[:t]
		dst = dst[:t]
		last := src[t-1]
		r := fermatFold(last*seed[0], p, a, maskA)
		if r >= twoP {
			r -= twoP
		}
		dst[0] = r
		acc = r * x[0]
		for j := 1; j < t; j++ {
			// The folded product is ≤ 2p and the previous lazy row value
			// < 2p, so their sum folds back into [0, 2p) with a single
			// conditional subtraction of 2p.
			v := fermatFold(last*seed[j], p, a, maskA) + src[j-1]
			if v >= twoP {
				v -= twoP
			}
			dst[j] = v
			acc += v * x[j]
		}
		out[i] = k.foldReduce(acc)
		src, dst = dst, src
	}
}

// foldReduce fully reduces a dot accumulator whose overflow limb
// acc>>(2a) is below p; the folded value is then below 3p.
func (k *Kernel) foldReduce(acc uint64) uint64 {
	r := fermatFold(acc, k.p, k.a&63, k.maskA)
	if r >= k.p {
		r -= k.p
	}
	if r >= k.p {
		r -= k.p
	}
	return r
}

// mul returns x·y mod p for reduced x, y. Under the fold, x·y ≤ (p-1)²
// = 2^2a, so the folded value is below 2p and one conditional
// subtraction canonicalises it.
func (k *Kernel) mul(x, y uint64) uint64 {
	if k.red != reduceFold {
		return k.mod.Mul(x, y)
	}
	r := fermatFold(x*y, k.p, k.a&63, k.maskA)
	if r >= k.p {
		r -= k.p
	}
	return r
}

// SboxFeistel applies the Feistel S-box S′ in place: x[j] ← x[j] + x[j-1]²
// for j ≥ 1, from the top index down so each square uses the pre-update
// neighbour.
func (k *Kernel) SboxFeistel(state ff.Vec) {
	for j := len(state) - 1; j >= 1; j-- {
		x := state[j-1]
		state[j] = k.mod.Add(state[j], k.mul(x, x))
	}
}

// SboxCube applies x ← x³ elementwise in place.
func (k *Kernel) SboxCube(state ff.Vec) {
	for j, x := range state {
		state[j] = k.mul(k.mul(x, x), x)
	}
}

// ApplyAffineInto computes half ← M(seed)·half + rc in place with the
// kernel for (m, len(half)) and the caller's scratch: the software image
// of the multiplier-bank-then-adder-tree schedule, with no heap
// allocation.
func ApplyAffineInto(m ff.Modulus, half, seed, rc ff.Vec, sc *AffineScratch) {
	t := len(half)
	out := sc.Out[:t]
	k := NewKernel(m, t)
	k.MatVec(out, seed, half, sc.RowA, sc.RowB)
	ff.AddVec(m, half, out, rc)
}

// Mix replaces the state halves (L, R) by (2L + R, L + 2R) in place —
// computed, as in the hardware, with three vector additions:
// s = L + R, L' = L + s, R' = R + s.
func Mix(m ff.Modulus, state ff.Vec) {
	t := len(state) / 2
	l, r := state[:t], state[t:]
	for i := 0; i < t; i++ {
		s := m.Add(l[i], r[i])
		l[i] = m.Add(l[i], s)
		r[i] = m.Add(r[i], s)
	}
}

// SboxFeistel applies the Feistel S-box S′ to the full 2t state in place
// with the kernel for (m, t).
func SboxFeistel(m ff.Modulus, state ff.Vec) {
	k := NewKernel(m, len(state)/2)
	k.SboxFeistel(state)
}

// SboxCube applies the cube S-box x ← x³ elementwise in place with the
// kernel for (m, len(state)/2).
func SboxCube(m ff.Modulus, state ff.Vec) {
	k := NewKernel(m, len(state)/2)
	k.SboxCube(state)
}
