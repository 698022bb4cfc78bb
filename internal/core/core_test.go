// Package core holds system-level checks of the paper's headline
// configuration (PASTA-4, ω = 17): one key shared by the software,
// accel and SoC backends, plus the area and energy models for the same
// instance, driven the way a downstream user drives them — through
// backend.Open and internal/hw/area. The package has no non-test code.
package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/hw/area"
	"repro/internal/pasta"
)

// headline is the PASTA-4, ω = 17 configuration with a fixed key.
var headline = backend.Config{
	Cipher:       "pasta",
	CipherParams: cipher.Params{Variant: 4, Width: 17},
	KeySeed:      "core",
}

func open(t *testing.T, name string, cfg backend.Config) backend.BlockCipher {
	t.Helper()
	b, err := backend.Open(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestSoftwareRoundTrip(t *testing.T) {
	sw := open(t, backend.NameSoftware, headline)
	ctx := context.Background()
	msg := ff.Vec{1, 2, 3, 4, 5}
	ct, err := sw.Encrypt(ctx, 10, msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sw.Decrypt(ctx, 10, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(msg) {
		t.Fatal("roundtrip failed")
	}
}

func TestSoCPathMatches(t *testing.T) {
	sw := open(t, backend.NameSoftware, headline)
	sc := open(t, backend.NameSoC, headline)
	ctx := context.Background()
	msg := ff.NewVec(32)
	for i := range msg {
		msg[i] = uint64(i)
	}
	want, err := sw.Encrypt(ctx, 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	before := sc.Stats()
	got, err := sc.Encrypt(ctx, 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	after := sc.Stats()
	if !got.Equal(want) {
		t.Fatal("SoC ciphertext differs")
	}
	if blocks := after.Blocks - before.Blocks; blocks != 1 {
		t.Fatalf("blocks = %d", blocks)
	}
}

func TestAreaReport(t *testing.T) {
	par := pasta.MustParams(pasta.Pasta4, ff.P17)
	cfg := area.Config{T: par.T, W: par.Mod.Bits()}
	if dsp := area.Resources(cfg).DSP; dsp != 64 {
		t.Errorf("DSP = %d, want 64 (Table I)", dsp)
	}
	a28, err := area.ASICmm2(cfg, area.Node28nm)
	if err != nil {
		t.Fatal(err)
	}
	a7, err := area.ASICmm2(cfg, area.Node7nm)
	if err != nil {
		t.Fatal(err)
	}
	if a28 < 0.2 || a28 > 0.3 {
		t.Errorf("28nm area = %.3f, want ≈0.24", a28)
	}
	if a7 >= a28 {
		t.Error("7nm not smaller than 28nm")
	}
}

func TestNewSystemValidation(t *testing.T) {
	bad := headline
	bad.CipherParams.Width = 19
	if _, err := backend.Open(backend.NameSoftware, bad); err == nil {
		t.Fatal("bad width accepted")
	}
	bad = headline
	bad.CipherParams.Variant = 2
	if _, err := backend.Open(backend.NameSoftware, bad); err == nil {
		t.Fatal("unknown PASTA variant accepted")
	}
	// No key and no seed samples a fresh one.
	fresh := headline
	fresh.KeySeed = ""
	sw := open(t, backend.NameSoftware, fresh)
	if _, err := sw.Encrypt(context.Background(), 1, ff.Vec{1}); err != nil {
		t.Fatal(err)
	}
}

func TestBackendAccessorAndStats(t *testing.T) {
	if _, err := backend.Open("no-such-substrate", headline); !errors.Is(err, backend.ErrUnknownBackend) {
		t.Fatalf("want ErrUnknownBackend, got %v", err)
	}
	sw := open(t, backend.NameSoftware, headline)
	acc := open(t, backend.NameAccel, headline)
	if _, err := acc.Encrypt(context.Background(), 3, ff.NewVec(5)); err != nil {
		t.Fatal(err)
	}
	if st := sw.Stats(); st.Backend != backend.NameSoftware || st.Blocks != 0 {
		t.Fatalf("software stats charged for accel work: %+v", st)
	}
	st := acc.Stats()
	if st.Backend != backend.NameAccel {
		t.Fatalf("accel stats name = %q", st.Backend)
	}
	if st.Blocks != 1 || st.AccelCycles == 0 {
		t.Fatalf("accel stats not accounted: %+v", st)
	}
}

func TestEnergyReport(t *testing.T) {
	par := pasta.MustParams(pasta.Pasta4, ff.P17)
	rows, err := area.Energies(1591, par.T)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].BlockUJ <= 0 {
		t.Fatal("nonpositive energy")
	}
	if _, err := area.Energies(0, par.T); err != nil {
		t.Fatal(err) // zero cycles is fine (zero energy), only elements must be positive
	}
}
