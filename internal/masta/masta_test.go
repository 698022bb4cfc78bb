package masta

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ff"
)

func modOrSkip(t *testing.T, w uint) ff.Modulus {
	m, ok := ff.StandardModuli[w]
	if !ok {
		t.Fatalf("no standard modulus for width %d", w)
	}
	return m
}

// Golden vectors produced by KeyStreamSequential (the naive reference)
// and pinned so both implementations are anchored against silent drift.
func TestGoldenVectors(t *testing.T) {
	par := MustParams(8, 3, modOrSkip(t, 17))
	key := KeyFromSeed(par, "golden")
	wantKey := ff.Vec{14267, 29567, 53601, 29312, 30673, 409, 31918, 24339}
	if !ff.Vec(key).Equal(wantKey) {
		t.Fatalf("key derivation drifted: got %v want %v", key, wantKey)
	}
	cases := []struct {
		nonce, block uint64
		want         ff.Vec
	}{
		{1, 0, ff.Vec{1773, 42884, 27933, 37073, 2768, 51311, 9872, 18035}},
		{1, 1, ff.Vec{56871, 65491, 2715, 49416, 19497, 43341, 22682, 48496}},
		{7, 9, ff.Vec{47662, 61721, 52182, 60108, 49527, 56148, 57916, 41419}},
	}
	c, err := NewCipher(par, key)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		if got := KeyStreamSequential(par, key, tc.nonce, tc.block); !got.Equal(tc.want) {
			t.Errorf("reference KS(%d,%d) = %v, want %v", tc.nonce, tc.block, got, tc.want)
		}
		if got := c.KeyStream(tc.nonce, tc.block); !got.Equal(tc.want) {
			t.Errorf("engine KS(%d,%d) = %v, want %v", tc.nonce, tc.block, got, tc.want)
		}
	}

	par60 := MustParams(4, 2, modOrSkip(t, 60))
	key60 := KeyFromSeed(par60, "golden")
	want60 := ff.Vec{460613857728831739, 228477030842030041, 553675711166221583, 458912430834497307}
	if got := KeyStreamSequential(par60, key60, 3, 5); !got.Equal(want60) {
		t.Errorf("reference KS60(3,5) = %v, want %v", got, want60)
	}
	c60, err := NewCipher(par60, key60)
	if err != nil {
		t.Fatal(err)
	}
	if got := c60.KeyStream(3, 5); !got.Equal(want60) {
		t.Errorf("engine KS60(3,5) = %v, want %v", got, want60)
	}
}

// The pooled engine must agree with the naive reference on every
// standard modulus and a spread of instance shapes.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, w := range []uint{17, 33, 54, 60} {
		mod := modOrSkip(t, w)
		for _, shape := range []struct{ t, r int }{{2, 1}, {5, 2}, {16, 4}, {64, 5}} {
			par := MustParams(shape.t, shape.r, mod)
			key := KeyFromSeed(par, fmt.Sprintf("diff-%d-%d-%d", w, shape.t, shape.r))
			c, err := NewCipher(par, key)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				nonce, block := rng.Uint64(), rng.Uint64()%1024
				want := KeyStreamSequential(par, key, nonce, block)
				got := ff.NewVec(par.T)
				if err := c.KeyStreamInto(got, nonce, block); err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("w=%d t=%d r=%d KS(%d,%d): engine %v != reference %v",
						w, shape.t, shape.r, nonce, block, got, want)
				}
			}
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	par := MustParams(8, 3, modOrSkip(t, 17))
	key := KeyFromSeed(par, "roundtrip")
	c, err := NewCipher(par, key)
	if err != nil {
		t.Fatal(err)
	}
	msg := ff.Vec{1, 2, 3, 65535, 0, 9999, 7, 8}
	ct, err := c.EncryptBlock(99, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Equal(msg) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt, err := c.DecryptBlock(99, 0, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Equal(msg) {
		t.Fatalf("roundtrip: got %v want %v", pt, msg)
	}
}

func TestKeyValidation(t *testing.T) {
	par := MustParams(8, 3, modOrSkip(t, 17))
	if err := (Key{1, 2, 3}).Validate(par); err == nil {
		t.Error("short key accepted")
	}
	bad := make(Key, par.T)
	bad[3] = par.Mod.P()
	if err := bad.Validate(par); err == nil {
		t.Error("out-of-range key element accepted")
	}
	if _, err := NewCipher(par, Key{1}); err == nil {
		t.Error("NewCipher accepted bad key")
	}
	if _, err := NewParams(1, 1, par.Mod); err == nil {
		t.Error("t=1 accepted")
	}
	if _, err := NewParams(8, 0, par.Mod); err == nil {
		t.Error("rounds=0 accepted")
	}
}

// Steady-state keystream generation must not allocate: the acceptance
// bar shared with the PASTA engine.
func TestKeyStreamIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	par := MustParams(DefaultT, DefaultRounds, modOrSkip(t, 17))
	key := KeyFromSeed(par, "allocs")
	c, err := NewCipher(par, key)
	if err != nil {
		t.Fatal(err)
	}
	dst := ff.NewVec(par.T)
	// Warm the pool.
	if err := c.KeyStreamInto(dst, 1, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.KeyStreamInto(dst, 1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("KeyStreamInto allocates %.1f/op, want 0", allocs)
	}
}

func TestConcurrentKeyStream(t *testing.T) {
	par := MustParams(16, 3, modOrSkip(t, 17))
	key := KeyFromSeed(par, "concurrent")
	c, err := NewCipher(par, key)
	if err != nil {
		t.Fatal(err)
	}
	want := KeyStreamSequential(par, key, 5, 7)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			dst := ff.NewVec(par.T)
			for i := 0; i < 50; i++ {
				if err := c.KeyStreamInto(dst, 5, 7); err != nil {
					done <- err
					return
				}
				if !dst.Equal(want) {
					done <- fmt.Errorf("concurrent keystream mismatch")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkMastaKeystream tracks the software keystream rate on the
// default instance; wired into `make bench-json` → BENCH_pasta.json.
func BenchmarkMastaKeystream(b *testing.B) {
	par := MustParams(DefaultT, DefaultRounds, ff.StandardModuli[17])
	key := KeyFromSeed(par, "bench")
	c, err := NewCipher(par, key)
	if err != nil {
		b.Fatal(err)
	}
	dst := ff.NewVec(par.T)
	b.SetBytes(int64(par.T * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.KeyStreamInto(dst, 1, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
