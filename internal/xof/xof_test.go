package xof

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/ff"
	"repro/internal/keccak"
)

func TestNextInRange(t *testing.T) {
	for _, m := range []ff.Modulus{ff.P17, ff.P33, ff.P54} {
		s := NewSampler(m, 1, 2)
		for i := 0; i < 5000; i++ {
			if v := s.Next(); v >= m.P() {
				t.Fatalf("%v: sample %d out of range", m, v)
			}
		}
	}
}

func TestNextNonzero(t *testing.T) {
	s := NewSampler(ff.P17, 7, 0)
	for i := 0; i < 5000; i++ {
		if v := s.NextNonzero(); v == 0 {
			t.Fatal("NextNonzero returned 0")
		}
	}
}

func TestDeterministicForSameSeed(t *testing.T) {
	a := NewSampler(ff.P17, 42, 7)
	b := NewSampler(ff.P17, 42, 7)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := NewSampler(ff.P17, 42, 7)
	b := NewSampler(ff.P17, 42, 8) // counter differs
	c := NewSampler(ff.P17, 43, 7) // nonce differs
	same := 0
	for i := 0; i < 100; i++ {
		av := a.Next()
		if av == b.Next() {
			same++
		}
		if av == c.Next() {
			same++
		}
	}
	if same > 20 { // expected ≈ 200/65537
		t.Fatalf("streams with different seeds agree too often: %d/200", same)
	}
}

// TestRejectionRateMatchesPaper: for p = 65537 the paper reports ≈2×
// rejection (half the masked 17-bit words are ≥ p).
func TestRejectionRateMatchesPaper(t *testing.T) {
	s := NewSampler(ff.P17, 3, 1)
	const n = 20000
	for i := 0; i < n; i++ {
		s.Next()
	}
	rate := float64(s.WordsDrawn) / float64(n)
	if math.Abs(rate-2.0) > 0.1 {
		t.Fatalf("words per accepted sample = %.3f, want ≈2.0", rate)
	}
}

func TestVector(t *testing.T) {
	s := NewSampler(ff.P17, 5, 5)
	v := s.Vector(128, true)
	if len(v) != 128 {
		t.Fatalf("len = %d", len(v))
	}
	if v[0] == 0 {
		t.Fatal("leading element is zero despite leadingNonzero")
	}
	// Replaying the stream without the nonzero constraint must give the
	// same values whenever the first draw happened to be nonzero already.
	s2 := NewSampler(ff.P17, 5, 5)
	v2 := s2.Vector(128, false)
	if v2[0] != 0 && !v.Equal(v2) {
		t.Fatal("leadingNonzero changed the stream even though first draw was nonzero")
	}
}

// TestKeccakPermutationCount: PASTA-4 needs 640 elements; the paper
// reports ≈60 permutations on average after 2× rejection. Averaged over
// many nonces our count must land in that neighbourhood.
func TestKeccakPermutationCount(t *testing.T) {
	total := 0
	const trials = 50
	for n := uint64(0); n < trials; n++ {
		s := NewSampler(ff.P17, n, 0)
		for i := 0; i < 640; i++ {
			s.Next()
		}
		total += s.KeccakPermutations()
	}
	avg := float64(total) / trials
	if avg < 55 || avg > 68 {
		t.Fatalf("avg Keccak permutations for 640 samples = %.1f, want ≈61 (paper: 60)", avg)
	}
}

func TestUniformityChiSquare(t *testing.T) {
	// Coarse 16-bucket chi-square over [0, p) to catch gross bias.
	m := ff.P17
	s := NewSampler(m, 99, 1)
	const n = 64000
	var buckets [16]int
	for i := 0; i < n; i++ {
		buckets[s.Next()*16/m.P()]++
	}
	expected := float64(n) / 16
	chi2 := 0.0
	for _, c := range buckets {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof; 99.9th percentile ≈ 37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-square = %.1f, distribution looks biased", chi2)
	}
}

func BenchmarkSamplerNext(b *testing.B) {
	s := NewSampler(ff.P17, 1, 1)
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func TestKeccakPermutationsEdgeCases(t *testing.T) {
	s := NewSampler(ff.P17, 0, 0)
	if got := s.KeccakPermutations(); got != 0 {
		t.Fatalf("fresh sampler permutations = %d, want 0", got)
	}
	s.Next()
	if got := s.KeccakPermutations(); got != 1 {
		t.Fatalf("after one draw: %d, want 1", got)
	}
	if s.Modulus().P() != ff.P17.P() {
		t.Fatal("Modulus accessor broken")
	}
}

func TestRawStreamMatchesSamplerWords(t *testing.T) {
	// The raw stream must be the unmasked word sequence the sampler
	// consumes: replaying it and applying the mask/rejection by hand must
	// yield the sampler's outputs.
	raw := NewRawStream(5, 9)
	s := NewSampler(ff.P17, 5, 9)
	for i := 0; i < 200; i++ {
		want := s.Next()
		for {
			v := raw.NextWord() & ff.P17.Mask()
			if v < ff.P17.P() {
				if v != want {
					t.Fatalf("sample %d: raw replay %d != sampler %d", i, v, want)
				}
				break
			}
		}
	}
}

func TestNewSamplerBytesDomainSeparated(t *testing.T) {
	a := NewSamplerBytes(ff.P17, []byte("seed-a"))
	b := NewSamplerBytes(ff.P17, []byte("seed-b"))
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("distinct byte seeds agree %d/100 times", same)
	}
}

// samplers keeps the samplers TestSamplerOwnsCacheLines allocates
// reachable, so they are heap-allocated as in the keystream workspaces.
var samplers []*Sampler

// TestSamplerOwnsCacheLines pins the padding of Sampler, whose statistics
// are written on every draw: every heap-allocated sampler starts on a
// cache-line boundary, so no two samplers share a line.
func TestSamplerOwnsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Sampler{}); n%keccak.CacheLine != 0 {
		t.Fatalf("sizeof(Sampler) = %d, not a multiple of %d", n, keccak.CacheLine)
	}
	for i := 0; i < 16; i++ {
		samplers = append(samplers, NewSampler(ff.P17, 1, uint64(i)))
		if addr := uintptr(unsafe.Pointer(samplers[i])); addr%keccak.CacheLine != 0 {
			t.Fatalf("Sampler %d at %#x is not cache-line aligned", i, addr)
		}
	}
}
