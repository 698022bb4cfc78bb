package backend

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cipher"
	"repro/internal/ff"
)

// TestCrossBackendDifferential is the acceptance gate of the backend
// layer: for every registered cipher, every substrate that supports it
// must produce bit-identical keystream and ciphertext to the software
// reference for the same (key, nonce, counter). Any divergence means
// one of the models drifted from the cipher specification. Substrates
// that decline a cipher (ErrUnsupported) are reported and skipped —
// but software must support every registered cipher.
//
// The instance list covers both standard PASTA variants at ω = 17 plus
// every other registered cipher on its family defaults; `make
// backends-smoke` runs the PASTA-4 case as the reduced instance.
func TestCrossBackendDifferential(t *testing.T) {
	type instance struct {
		name string
		cfg  Config
	}
	instances := []instance{
		{"PASTA-4", Config{Cipher: "pasta", CipherParams: cipher.Params{Variant: 4}, KeySeed: "differential"}},
		{"PASTA-3", Config{Cipher: "pasta", CipherParams: cipher.Params{Variant: 3}, KeySeed: "differential"}},
	}
	for _, cn := range cipher.Names() {
		if cn == "pasta" {
			continue
		}
		instances = append(instances, instance{cn, Config{Cipher: cn, KeySeed: "differential"}})
	}

	for _, tc := range instances {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			backends := make(map[string]BlockCipher)
			for _, name := range Names() {
				b, err := Open(name, tc.cfg)
				if errors.Is(err, ErrUnsupported) {
					if name == NameSoftware {
						t.Fatalf("software must support every registered cipher, refused %s: %v", tc.name, err)
					}
					t.Logf("skipping %s: %v", name, err)
					continue
				}
				if err != nil {
					t.Fatalf("Open(%q): %v", name, err)
				}
				defer b.Close()
				backends[name] = b
			}
			sw, ok := backends[NameSoftware]
			if !ok {
				t.Fatal("software backend missing from the matrix")
			}

			// Keystream over a non-zero first counter exercises the SoC
			// driver's counter-offset path.
			const nonce, first, count = 42, 5, 2
			ref, err := sw.KeyStreamBlocks(ctx, nonce, first, count)
			if err != nil {
				t.Fatal(err)
			}
			for name, b := range backends {
				if name == NameSoftware {
					continue
				}
				got, err := b.KeyStreamBlocks(ctx, nonce, first, count)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !got.Equal(ref) {
					t.Fatalf("%s keystream diverges from software at %s", name, tc.name)
				}
			}

			// Ciphertext for a message with a partial last block.
			tSize := sw.BlockSize()
			msg := ff.NewVec(tSize + tSize/2)
			mod := sw.Modulus()
			for i := range msg {
				msg[i] = uint64(i*31+7) % mod.P()
			}
			refCT, err := sw.Encrypt(ctx, nonce, msg)
			if err != nil {
				t.Fatal(err)
			}
			// other is a non-software backend when one supports this
			// cipher, used for cross-substrate decryption.
			other := sw
			for name, b := range backends {
				if name != NameSoftware {
					other = b
					break
				}
			}
			for name, b := range backends {
				ct, err := b.Encrypt(ctx, nonce, msg)
				if err != nil {
					t.Fatalf("%s encrypt: %v", name, err)
				}
				if !ct.Equal(refCT) {
					t.Fatalf("%s ciphertext diverges from software at %s", name, tc.name)
				}
				// Decrypt through a different backend than encrypted.
				dec := other
				if name != NameSoftware {
					dec = sw
				}
				pt, err := dec.Decrypt(ctx, nonce, ct)
				if err != nil {
					t.Fatalf("%s->%s decrypt: %v", name, dec.Name(), err)
				}
				if !pt.Equal(msg) {
					t.Fatalf("cross-substrate roundtrip %s->%s failed", name, dec.Name())
				}
			}
		})
	}
}

// TestAccelCyclesPerBlock pins the accel backend's cycle accounting on
// the paper's headline configuration (PASTA-4, ω = 17): a 70-element
// message is three blocks (the last partial), the ciphertext is
// bit-identical to software, and the Stats() delta reports the modelled
// ≈1,600 cycles per block.
func TestAccelCyclesPerBlock(t *testing.T) {
	cfg := Config{Cipher: "pasta", CipherParams: cipher.Params{Variant: 4, Width: 17}, KeySeed: "cycles"}
	sw, err := Open(NameSoftware, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	acc, err := Open(NameAccel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()

	ctx := context.Background()
	msg := ff.NewVec(70)
	for i := range msg {
		msg[i] = uint64(i * 13)
	}
	want, err := sw.Encrypt(ctx, 4, msg)
	if err != nil {
		t.Fatal(err)
	}
	before := acc.Stats()
	got, err := acc.Encrypt(ctx, 4, msg)
	if err != nil {
		t.Fatal(err)
	}
	after := acc.Stats()
	if !got.Equal(want) {
		t.Fatal("accel ciphertext differs from software")
	}
	blocks := after.Blocks - before.Blocks
	if blocks != 3 {
		t.Fatalf("blocks = %d, want 3", blocks)
	}
	if perBlock := (after.AccelCycles - before.AccelCycles) / blocks; perBlock < 1400 || perBlock > 1900 {
		t.Fatalf("cycles/block = %d, want ≈1,600", perBlock)
	}
}
