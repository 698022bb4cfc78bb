package keccak

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
	"unsafe"
)

// FIPS 202 known-answer vectors.
func TestShake128EmptyInput(t *testing.T) {
	want := "7f9c2ba4e88f827d616045507605853ed73b8093f6efbc88eb1a6eacfa66ef26"
	got := hex.EncodeToString(Sum128(nil, 32))
	if got != want {
		t.Fatalf("SHAKE128(\"\") = %s, want %s", got, want)
	}
}

func TestShake256EmptyInput(t *testing.T) {
	want := "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"
	got := hex.EncodeToString(Sum256(nil, 32))
	if got != want {
		t.Fatalf("SHAKE256(\"\") = %s, want %s", got, want)
	}
}

func TestShake128ABC(t *testing.T) {
	// SHAKE128("abc", 32) per NIST example values.
	want := "5881092dd818bf5cf8a3ddb793fbcba74097d5c526a6d35f97b83351940f2cc8"
	got := hex.EncodeToString(Sum128([]byte("abc"), 32))
	if got != want {
		t.Fatalf("SHAKE128(abc) = %s, want %s", got, want)
	}
}

// TestIncrementalWriteMatchesOneShot checks that arbitrary write chunking
// does not change the digest.
func TestIncrementalWriteMatchesOneShot(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	want := Sum128(data, 64)
	for _, chunk := range []int{1, 3, 7, 167, 168, 169, 500} {
		d := NewShake128()
		for off := 0; off < len(data); off += chunk {
			end := off + chunk
			if end > len(data) {
				end = len(data)
			}
			_, _ = d.Write(data[off:end])
		}
		got := make([]byte, 64)
		_, _ = d.Read(got)
		if !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: digest mismatch", chunk)
		}
	}
}

// TestIncrementalReadMatchesOneShot checks that arbitrary read chunking
// produces the same output stream.
func TestIncrementalReadMatchesOneShot(t *testing.T) {
	want := Sum128([]byte("pasta"), 1000)
	for _, chunk := range []int{1, 8, 31, 168, 999} {
		d := NewShake128()
		_, _ = d.Write([]byte("pasta"))
		got := make([]byte, 0, 1000)
		buf := make([]byte, chunk)
		for len(got) < 1000 {
			n := chunk
			if n > 1000-len(got) {
				n = 1000 - len(got)
			}
			_, _ = d.Read(buf[:n])
			got = append(got, buf[:n]...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read chunk %d: stream mismatch", chunk)
		}
	}
}

func TestWriteAfterReadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Write after Read")
		}
	}()
	d := NewShake128()
	_, _ = d.Read(make([]byte, 1))
	_, _ = d.Write([]byte("x"))
}

// TestPermuteRoundDecomposition: 24 single rounds equal one Permute.
func TestPermuteRoundDecomposition(t *testing.T) {
	var a, b State
	for i := range a {
		a[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	b = a
	a.Permute()
	for r := 0; r < 24; r++ {
		b.Round(r)
	}
	if a != b {
		t.Fatal("Round-by-round application differs from Permute")
	}
}

// Property: distinct inputs give distinct outputs (collision over random
// short messages would indicate a broken permutation).
func TestNoTrivialCollisionsQuick(t *testing.T) {
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		return !bytes.Equal(Sum128(a, 16), Sum128(b, 16))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNextWord(t *testing.T) {
	d1 := NewShake128()
	_, _ = d1.Write([]byte("seed"))
	w := d1.NextWord()

	d2 := NewShake128()
	_, _ = d2.Write([]byte("seed"))
	var b [8]byte
	_, _ = d2.Read(b[:])
	if w != le64(b[:]) {
		t.Fatalf("NextWord = %#x, byte read = %#x", w, le64(b[:]))
	}
}

func TestRateConstants(t *testing.T) {
	// The paper: SHAKE128 rate 1,344 bits = 21 64-bit words.
	if Rate128*8 != 1344 || Rate128/8 != 21 {
		t.Fatalf("Rate128 = %d bytes, want 168 (1344 bits, 21 words)", Rate128)
	}
}

func BenchmarkPermute(b *testing.B) {
	var s State
	for i := 0; i < b.N; i++ {
		s.Permute()
	}
}

func BenchmarkShake128Squeeze(b *testing.B) {
	d := NewShake128()
	_, _ = d.Write([]byte("bench"))
	buf := make([]byte, 168)
	b.SetBytes(168)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = d.Read(buf)
	}
}

func TestSHA3KnownAnswers(t *testing.T) {
	// FIPS 202 example values.
	got256 := hex.EncodeToString(func() []byte { v := SumSHA3_256(nil); return v[:] }())
	if got256 != "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a" {
		t.Errorf("SHA3-256(\"\") = %s", got256)
	}
	gotABC := hex.EncodeToString(func() []byte { v := SumSHA3_256([]byte("abc")); return v[:] }())
	if gotABC != "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532" {
		t.Errorf("SHA3-256(abc) = %s", gotABC)
	}
	got512 := hex.EncodeToString(func() []byte { v := SumSHA3_512(nil); return v[:] }())
	if got512 != "a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a615b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26" {
		t.Errorf("SHA3-512(\"\") = %s", got512)
	}
}

func TestSHA3DiffersFromShake(t *testing.T) {
	a := SumSHA3_256([]byte("x"))
	b := Sum128([]byte("x"), 32)
	if bytes.Equal(a[:], b) {
		t.Fatal("SHA3 and SHAKE collided; domain separation broken")
	}
}

// shakes keeps the sponges TestShakeOwnsCacheLines allocates reachable,
// so they are heap-allocated as in the pooled samplers rather than placed
// on the test's stack.
var shakes []*Shake

// TestShakeOwnsCacheLines pins the padding of Shake: its size is a whole
// number of cache lines, so every heap-allocated sponge starts on a line
// boundary and no two sponges share a line.
func TestShakeOwnsCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Shake{}); n%CacheLine != 0 {
		t.Fatalf("sizeof(Shake) = %d, not a multiple of %d", n, CacheLine)
	}
	for i := 0; i < 16; i++ {
		shakes = append(shakes, NewShake128())
		if addr := uintptr(unsafe.Pointer(shakes[i])); addr%CacheLine != 0 {
			t.Fatalf("Shake %d at %#x is not cache-line aligned", i, addr)
		}
	}
}
