package pasta

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ff"
	"repro/internal/xof"
)

// The reference below is the kernel's independent oracle: the textbook
// permutation in generic per-element arithmetic — canonical matrix rows
// from NextMatrixRowInto, ff.Dot, and Modulus.Mul/Add — sharing no code
// with the kernel's lazy rows and specialised reductions. The cipher's
// own EncryptSequential runs the kernel, so it cannot catch a kernel bug;
// this can.

// referenceMatVec sets out = M(seed)·x from canonical rows.
func referenceMatVec(m ff.Modulus, out, seed, x ff.Vec) {
	t := len(seed)
	row, next := seed.Clone(), ff.NewVec(t)
	out[0] = ff.Dot(m, row, x)
	for i := 1; i < t; i++ {
		NextMatrixRowInto(m, seed, row, next)
		row, next = next, row
		out[i] = ff.Dot(m, row, x)
	}
}

func referenceAffine(m ff.Modulus, half, seed, rc ff.Vec) {
	out := ff.NewVec(len(half))
	referenceMatVec(m, out, seed, half)
	for i := range half {
		half[i] = m.Add(out[i], rc[i])
	}
}

func referenceMix(m ff.Modulus, state ff.Vec) {
	t := len(state) / 2
	for i := 0; i < t; i++ {
		l, r := state[i], state[t+i]
		state[i] = m.Add(m.Add(l, l), r)
		state[t+i] = m.Add(m.Add(r, r), l)
	}
}

func referenceSboxFeistel(m ff.Modulus, state ff.Vec) {
	for j := len(state) - 1; j >= 1; j-- {
		state[j] = m.Add(state[j], m.Mul(state[j-1], state[j-1]))
	}
}

func referenceSboxCube(m ff.Modulus, state ff.Vec) {
	for j, x := range state {
		state[j] = m.Mul(m.Mul(x, x), x)
	}
}

// referencePermute runs π(key, nonce, block) and returns the full 2t
// state before truncation.
func referencePermute(par Params, key Key, nonce, block uint64) ff.Vec {
	m, t := par.Mod, par.T
	s := xof.NewSampler(m, nonce, block)
	state := ff.Vec(key).Clone()
	for layer := 0; layer < par.AffineLayers(); layer++ {
		l := DeriveAffineLayer(par, s)
		referenceAffine(m, state[:t], l.MatSeedL, l.RCL)
		referenceAffine(m, state[t:], l.MatSeedR, l.RCR)
		referenceMix(m, state)
		switch {
		case layer < par.Rounds-1:
			referenceSboxFeistel(m, state)
		case layer == par.Rounds-1:
			referenceSboxCube(m, state)
		}
	}
	return state
}

// pSmall is a non-Fermat prime ≡ 2 (mod 3) small enough for the uint64
// Shoup dot at every shape tested here.
var pSmall = ff.MustModulus(65519)

// TestKernelMatchesReference: the keystream engine agrees with the
// generic reference permutation on PASTA-3, PASTA-4 and toy shapes over
// every standard modulus plus a small non-Fermat one, and the sweep
// reaches all three reduction paths.
func TestKernelMatchesReference(t *testing.T) {
	mods := []ff.Modulus{ff.P17, ff.P33, ff.P54, ff.P60, pSmall}
	shapes := []Params{MustParams(Pasta3, ff.P17), MustParams(Pasta4, ff.P17)}
	for _, tr := range [][2]int{{2, 1}, {3, 4}, {5, 2}, {8, 3}} {
		par, err := ToyParams(tr[0], tr[1], ff.P17)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, par)
	}
	reached := map[reduction]bool{}
	for _, shape := range shapes {
		for _, mod := range mods {
			par := shape
			par.Mod = mod
			reached[NewKernel(mod, par.T).red] = true
			t.Run(fmt.Sprintf("%v/p=%d", par.Variant, mod.P()), func(t *testing.T) {
				key := KeyFromSeed(par, "kernel-reference")
				c, err := NewCipher(par, key)
				if err != nil {
					t.Fatal(err)
				}
				for _, nb := range [][2]uint64{{0, 0}, {7, 3}} {
					want := referencePermute(par, key, nb[0], nb[1])[:par.T]
					if got := c.KeyStream(nb[0], nb[1]); !got.Equal(want) {
						t.Fatalf("nonce %d block %d: kernel keystream %v, reference %v", nb[0], nb[1], got, want)
					}
				}
			})
		}
	}
	for _, r := range []reduction{reduceFold, reduceShoupSmall, reduceShoupWide} {
		if !reached[r] {
			t.Errorf("no case selected reduction %d", r)
		}
	}
}

// TestFermatFoldEdges drives the fold's reductions through the limb
// patterns at the edges of their bounds, which random inputs almost never
// reach: every accumulator with extreme low limbs and every admissible
// overflow limb up to t·(2p-1)·(p-1), and every MAC product up to
// (2p-1)·(p-1) with extreme limbs.
func TestFermatFoldEdges(t *testing.T) {
	for _, p := range []uint64{5, 17, 257, 65537} {
		mod := ff.MustModulus(p)
		for _, size := range []int{1, 2, 32, 128} {
			k := NewKernel(mod, size)
			if k.red != reduceFold {
				continue
			}
			a, mask := k.a, k.maskA
			prodMax := (2*p - 1) * (p - 1)
			accMax := prodMax * uint64(size)
			limbs := []uint64{0, 1, mask / 2, mask - 1, mask}
			for l2 := uint64(0); l2 <= accMax>>(2*a); l2++ {
				for _, l1 := range limbs {
					for _, l0 := range limbs {
						x := l2<<(2*a) | l1<<a | l0
						if x <= accMax {
							if r := k.foldReduce(x); r != x%p {
								t.Fatalf("p=%d t=%d: foldReduce(%d) = %d, want %d", p, size, x, r, x%p)
							}
						}
						if x <= prodMax {
							if r := fermatFold(x, p, a, mask); r > 2*p || r%p != x%p {
								t.Fatalf("p=%d: fold(%d) = %d, want ≡ %d in [0, 2p]", p, x, r, x%p)
							}
						}
					}
				}
			}
			for _, x := range []uint64{0, 1, p - 2, p - 1} {
				for _, y := range []uint64{0, 1, p - 2, p - 1} {
					if got, want := k.mul(x, y), mod.Mul(x, y); got != want {
						t.Fatalf("p=%d: mul(%d, %d) = %d, want %d", p, x, y, got, want)
					}
				}
			}
		}
	}
}

// FuzzPastaKernel holds every kernel operation to the generic reference
// on random seed rows, states and round constants, for a fuzzer-chosen
// block size and modulus: a Fermat prime (the fold), or a random prime of
// a random width (the uint64 or the 192-bit Shoup dot).
func FuzzPastaKernel(f *testing.F) {
	f.Add(int64(1), uint8(32), uint8(0), uint64(0))
	f.Add(int64(2), uint8(128), uint8(1), uint64(0))
	f.Add(int64(3), uint8(7), uint8(4), uint64(65519))
	f.Add(int64(4), uint8(32), uint8(60), uint64(1)<<59)
	f.Add(int64(5), uint8(1), uint8(33), uint64(1)<<32)
	fermat := []uint64{5, 17, 257, 65537}
	f.Fuzz(func(t *testing.T, rngSeed int64, tSel, wSel uint8, pSel uint64) {
		size := 1 + int(tSel)%160
		var mod ff.Modulus
		if w := uint(wSel) % 64; w < 4 {
			mod = ff.MustModulus(fermat[w])
		} else {
			// A random prime below 2^w, w ∈ [4, 60]: the next prime at or
			// above a random odd start in [2^(w-1), 2^w).
			w = 4 + w%57
			cand := (pSel&(1<<(w-1)-1) | 1<<(w-1)) | 1
			for !ff.IsPrime(cand) {
				cand += 2
			}
			if cand > 1<<60 {
				t.Skip()
			}
			mod = ff.MustModulus(cand)
		}
		rng := rand.New(rand.NewSource(rngSeed))
		// Half the vectors crowd the top of the field, where the lazy rows
		// and dot accumulators reach their bounds.
		high := rng.Intn(2) == 0
		vec := func(n int) ff.Vec {
			v := ff.NewVec(n)
			for i := range v {
				v[i] = rng.Uint64() % mod.P()
				if high {
					v[i] = mod.P() - 1 - v[i]%4
				}
			}
			return v
		}
		seed, x, rc := vec(size), vec(size), vec(size)
		k := NewKernel(mod, size)

		got, want := ff.NewVec(size), ff.NewVec(size)
		k.MatVec(got, seed, x, ff.NewVec(size), ff.NewVec(size))
		referenceMatVec(mod, want, seed, x)
		if !got.Equal(want) {
			t.Fatalf("MatVec t=%d p=%d (reduction %d): got %v, want %v", size, mod.P(), k.red, got, want)
		}

		half, ref := x.Clone(), x.Clone()
		ApplyAffineInto(mod, half, seed, rc, NewAffineScratch(size))
		referenceAffine(mod, ref, seed, rc)
		if !half.Equal(ref) {
			t.Fatalf("ApplyAffineInto t=%d p=%d: got %v, want %v", size, mod.P(), half, ref)
		}

		state := vec(2 * size)
		for _, op := range []struct {
			name      string
			got, want func(ff.Modulus, ff.Vec)
		}{
			{"Mix", Mix, referenceMix},
			{"SboxFeistel", SboxFeistel, referenceSboxFeistel},
			{"SboxCube", SboxCube, referenceSboxCube},
		} {
			got, want := state.Clone(), state.Clone()
			op.got(mod, got)
			op.want(mod, want)
			if !got.Equal(want) {
				t.Fatalf("%s t=%d p=%d: got %v, want %v", op.name, size, mod.P(), got, want)
			}
		}
	})
}
