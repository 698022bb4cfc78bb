// Package keccak implements the Keccak-f[1600] permutation and the
// SHAKE128/SHAKE256 extendable-output functions (FIPS 202) from scratch.
//
// PASTA relies on SHAKE128 as its pseudo-random generator for the affine
// layers; the paper identifies the 24-round Keccak permutation as the
// throughput bottleneck of the whole cryptoprocessor (Sec. IV-B). This
// package provides the functional reference; the cycle-accurate hardware
// model of the double-buffered Keccak unit lives in internal/hw.
package keccak

import "math/bits"

// roundConstants are the 24 iota-step constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
	0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
	0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
	0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
	0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
	0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
	0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// rhoOffsets[x][y] is the rotation amount of lane (x, y) in the rho step.
// The unrolled Round body below is generated from this table; it is kept
// as the normative reference for the constants.
var rhoOffsets = [5][5]uint{
	{0, 36, 3, 41, 18},
	{1, 44, 10, 45, 2},
	{62, 6, 43, 15, 61},
	{28, 55, 25, 21, 56},
	{27, 20, 39, 8, 14},
}

// State is the 1600-bit Keccak state as 25 lanes; lane (x, y) is
// State[x + 5y], matching the FIPS 202 mapping.
type State [25]uint64

// Permute applies the full 24-round Keccak-f[1600] permutation in place.
// The round body is inlined into the loop (rather than calling Round 24
// times) so the compiler keeps the theta/chi temporaries in registers
// across rounds, and the whole computation runs on a local copy of the
// state: every lane access is a constant index into a non-escaping local
// array, which the compiler scalarizes, where loads/stores through the
// receiver pointer would hit memory in every round. The permutation
// dominates keystream wall time.
func (s *State) Permute() {
	a := *s
	var b State
	for round := 0; round < 24; round++ {
		// theta
		c0 := a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
		c1 := a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
		c2 := a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
		c3 := a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
		c4 := a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
		d0 := c4 ^ bits.RotateLeft64(c1, 1)
		d1 := c0 ^ bits.RotateLeft64(c2, 1)
		d2 := c1 ^ bits.RotateLeft64(c3, 1)
		d3 := c2 ^ bits.RotateLeft64(c4, 1)
		d4 := c3 ^ bits.RotateLeft64(c0, 1)
		// rho and pi fused with theta's state update
		b[0] = a[0] ^ d0
		b[16] = bits.RotateLeft64(a[5]^d0, 36)
		b[7] = bits.RotateLeft64(a[10]^d0, 3)
		b[23] = bits.RotateLeft64(a[15]^d0, 41)
		b[14] = bits.RotateLeft64(a[20]^d0, 18)
		b[10] = bits.RotateLeft64(a[1]^d1, 1)
		b[1] = bits.RotateLeft64(a[6]^d1, 44)
		b[17] = bits.RotateLeft64(a[11]^d1, 10)
		b[8] = bits.RotateLeft64(a[16]^d1, 45)
		b[24] = bits.RotateLeft64(a[21]^d1, 2)
		b[20] = bits.RotateLeft64(a[2]^d2, 62)
		b[11] = bits.RotateLeft64(a[7]^d2, 6)
		b[2] = bits.RotateLeft64(a[12]^d2, 43)
		b[18] = bits.RotateLeft64(a[17]^d2, 15)
		b[9] = bits.RotateLeft64(a[22]^d2, 61)
		b[5] = bits.RotateLeft64(a[3]^d3, 28)
		b[21] = bits.RotateLeft64(a[8]^d3, 55)
		b[12] = bits.RotateLeft64(a[13]^d3, 25)
		b[3] = bits.RotateLeft64(a[18]^d3, 21)
		b[19] = bits.RotateLeft64(a[23]^d3, 56)
		b[15] = bits.RotateLeft64(a[4]^d4, 27)
		b[6] = bits.RotateLeft64(a[9]^d4, 20)
		b[22] = bits.RotateLeft64(a[14]^d4, 39)
		b[13] = bits.RotateLeft64(a[19]^d4, 8)
		b[4] = bits.RotateLeft64(a[24]^d4, 14)
		// chi
		a[0] = b[0] ^ (^b[1] & b[2])
		a[1] = b[1] ^ (^b[2] & b[3])
		a[2] = b[2] ^ (^b[3] & b[4])
		a[3] = b[3] ^ (^b[4] & b[0])
		a[4] = b[4] ^ (^b[0] & b[1])
		a[5] = b[5] ^ (^b[6] & b[7])
		a[6] = b[6] ^ (^b[7] & b[8])
		a[7] = b[7] ^ (^b[8] & b[9])
		a[8] = b[8] ^ (^b[9] & b[5])
		a[9] = b[9] ^ (^b[5] & b[6])
		a[10] = b[10] ^ (^b[11] & b[12])
		a[11] = b[11] ^ (^b[12] & b[13])
		a[12] = b[12] ^ (^b[13] & b[14])
		a[13] = b[13] ^ (^b[14] & b[10])
		a[14] = b[14] ^ (^b[10] & b[11])
		a[15] = b[15] ^ (^b[16] & b[17])
		a[16] = b[16] ^ (^b[17] & b[18])
		a[17] = b[17] ^ (^b[18] & b[19])
		a[18] = b[18] ^ (^b[19] & b[15])
		a[19] = b[19] ^ (^b[15] & b[16])
		a[20] = b[20] ^ (^b[21] & b[22])
		a[21] = b[21] ^ (^b[22] & b[23])
		a[22] = b[22] ^ (^b[23] & b[24])
		a[23] = b[23] ^ (^b[24] & b[20])
		a[24] = b[24] ^ (^b[20] & b[21])
		// iota
		a[0] ^= roundConstants[round]
	}
	*s = a
}

// Round applies a single Keccak-f round (theta, rho, pi, chi, iota) in
// place. Exposed so the hardware model can step one round per clock cycle,
// exactly as the paper's 24cc-per-permutation unit does. The steps are
// fully unrolled (constant indices, no modular index arithmetic): SHAKE is
// the throughput bottleneck of the whole datapath (Sec. IV-B), in software
// no less than in the paper's hardware.
func (s *State) Round(round int) {
	// theta
	c0 := s[0] ^ s[5] ^ s[10] ^ s[15] ^ s[20]
	c1 := s[1] ^ s[6] ^ s[11] ^ s[16] ^ s[21]
	c2 := s[2] ^ s[7] ^ s[12] ^ s[17] ^ s[22]
	c3 := s[3] ^ s[8] ^ s[13] ^ s[18] ^ s[23]
	c4 := s[4] ^ s[9] ^ s[14] ^ s[19] ^ s[24]
	d0 := c4 ^ bits.RotateLeft64(c1, 1)
	d1 := c0 ^ bits.RotateLeft64(c2, 1)
	d2 := c1 ^ bits.RotateLeft64(c3, 1)
	d3 := c2 ^ bits.RotateLeft64(c4, 1)
	d4 := c3 ^ bits.RotateLeft64(c0, 1)
	s[0] ^= d0
	s[1] ^= d1
	s[2] ^= d2
	s[3] ^= d3
	s[4] ^= d4
	s[5] ^= d0
	s[6] ^= d1
	s[7] ^= d2
	s[8] ^= d3
	s[9] ^= d4
	s[10] ^= d0
	s[11] ^= d1
	s[12] ^= d2
	s[13] ^= d3
	s[14] ^= d4
	s[15] ^= d0
	s[16] ^= d1
	s[17] ^= d2
	s[18] ^= d3
	s[19] ^= d4
	s[20] ^= d0
	s[21] ^= d1
	s[22] ^= d2
	s[23] ^= d3
	s[24] ^= d4
	// rho and pi
	var b State
	b[0] = s[0]
	b[16] = bits.RotateLeft64(s[5], 36)
	b[7] = bits.RotateLeft64(s[10], 3)
	b[23] = bits.RotateLeft64(s[15], 41)
	b[14] = bits.RotateLeft64(s[20], 18)
	b[10] = bits.RotateLeft64(s[1], 1)
	b[1] = bits.RotateLeft64(s[6], 44)
	b[17] = bits.RotateLeft64(s[11], 10)
	b[8] = bits.RotateLeft64(s[16], 45)
	b[24] = bits.RotateLeft64(s[21], 2)
	b[20] = bits.RotateLeft64(s[2], 62)
	b[11] = bits.RotateLeft64(s[7], 6)
	b[2] = bits.RotateLeft64(s[12], 43)
	b[18] = bits.RotateLeft64(s[17], 15)
	b[9] = bits.RotateLeft64(s[22], 61)
	b[5] = bits.RotateLeft64(s[3], 28)
	b[21] = bits.RotateLeft64(s[8], 55)
	b[12] = bits.RotateLeft64(s[13], 25)
	b[3] = bits.RotateLeft64(s[18], 21)
	b[19] = bits.RotateLeft64(s[23], 56)
	b[15] = bits.RotateLeft64(s[4], 27)
	b[6] = bits.RotateLeft64(s[9], 20)
	b[22] = bits.RotateLeft64(s[14], 39)
	b[13] = bits.RotateLeft64(s[19], 8)
	b[4] = bits.RotateLeft64(s[24], 14)
	// chi
	s[0] = b[0] ^ (^b[1] & b[2])
	s[1] = b[1] ^ (^b[2] & b[3])
	s[2] = b[2] ^ (^b[3] & b[4])
	s[3] = b[3] ^ (^b[4] & b[0])
	s[4] = b[4] ^ (^b[0] & b[1])
	s[5] = b[5] ^ (^b[6] & b[7])
	s[6] = b[6] ^ (^b[7] & b[8])
	s[7] = b[7] ^ (^b[8] & b[9])
	s[8] = b[8] ^ (^b[9] & b[5])
	s[9] = b[9] ^ (^b[5] & b[6])
	s[10] = b[10] ^ (^b[11] & b[12])
	s[11] = b[11] ^ (^b[12] & b[13])
	s[12] = b[12] ^ (^b[13] & b[14])
	s[13] = b[13] ^ (^b[14] & b[10])
	s[14] = b[14] ^ (^b[10] & b[11])
	s[15] = b[15] ^ (^b[16] & b[17])
	s[16] = b[16] ^ (^b[17] & b[18])
	s[17] = b[17] ^ (^b[18] & b[19])
	s[18] = b[18] ^ (^b[19] & b[15])
	s[19] = b[19] ^ (^b[15] & b[16])
	s[20] = b[20] ^ (^b[21] & b[22])
	s[21] = b[21] ^ (^b[22] & b[23])
	s[22] = b[22] ^ (^b[23] & b[24])
	s[23] = b[23] ^ (^b[24] & b[20])
	s[24] = b[24] ^ (^b[20] & b[21])
	// iota
	s[0] ^= roundConstants[round]
}

// Rate constants in bytes for the SHAKE instances.
const (
	Rate128 = 168 // SHAKE128: 1344-bit rate = 21 64-bit words (the paper's "21 words per permutation")
	Rate256 = 136 // SHAKE256: 1088-bit rate
)

// domainShake is the FIPS 202 domain-separation suffix for SHAKE (1111).
const domainShake = 0x1F

// CacheLine is the cache-line size the sponge and the samplers built on
// it are padded to.
const CacheLine = 64

// Shake is an incremental SHAKE sponge. Create with NewShake128 or
// NewShake256, Write the input, then Read any amount of output.
//
// Its size is a whole number of cache lines, so the allocator places each
// heap-allocated Shake on lines of its own. Pooled keystream workers each
// squeeze their own sponge on different cores; two sponges sharing a line
// would make every squeezed word a cross-core miss, and the cost of a run
// would depend on where the allocator happened to put the workers' sponges.
type Shake struct {
	state     State
	rate      int // bytes
	buf       [Rate128]byte
	bufLen    int // bytes buffered for absorb / available for squeeze
	squeezing bool
	readPos   int
	_         [48]byte // pads the 400 bytes above to 7 cache lines
}

// NewShake128 returns a SHAKE128 instance.
func NewShake128() *Shake { return &Shake{rate: Rate128} }

// Reset returns the sponge to its freshly constructed state so the same
// allocation can absorb a new input. Used by pooled XOF samplers to keep
// the steady-state keystream path allocation-free.
func (d *Shake) Reset() { *d = Shake{rate: d.rate} }

// NewShake256 returns a SHAKE256 instance.
func NewShake256() *Shake { return &Shake{rate: Rate256} }

// Write absorbs data into the sponge. It must not be called after Read.
func (d *Shake) Write(p []byte) (int, error) {
	if d.squeezing {
		panic("keccak: Write after Read")
	}
	n := len(p)
	for len(p) > 0 {
		take := d.rate - d.bufLen
		if take > len(p) {
			take = len(p)
		}
		copy(d.buf[d.bufLen:], p[:take])
		d.bufLen += take
		p = p[take:]
		if d.bufLen == d.rate {
			d.absorbBlock()
		}
	}
	return n, nil
}

func (d *Shake) absorbBlock() {
	for i := 0; i < d.rate/8; i++ {
		d.state[i] ^= le64(d.buf[8*i:])
	}
	d.state.Permute()
	d.bufLen = 0
}

// pad applies the SHAKE padding and the final permutation, switching the
// sponge into squeezing mode.
func (d *Shake) pad() {
	for i := d.bufLen; i < d.rate; i++ {
		d.buf[i] = 0
	}
	d.buf[d.bufLen] ^= domainShake
	d.buf[d.rate-1] ^= 0x80
	for i := 0; i < d.rate/8; i++ {
		d.state[i] ^= le64(d.buf[8*i:])
	}
	d.state.Permute()
	d.squeezing = true
	d.readPos = 0
}

// Read squeezes len(p) bytes of output. The first call finalizes the input.
func (d *Shake) Read(p []byte) (int, error) {
	if !d.squeezing {
		d.pad()
	}
	n := len(p)
	for len(p) > 0 {
		if d.readPos == d.rate {
			d.state.Permute()
			d.readPos = 0
		}
		avail := d.rate - d.readPos
		take := avail
		if take > len(p) {
			take = len(p)
		}
		for i := 0; i < take; i++ {
			p[i] = byte(d.state[(d.readPos+i)/8] >> (8 * uint((d.readPos+i)%8)))
		}
		d.readPos += take
		p = p[take:]
	}
	return n, nil
}

// NextWord squeezes one 64-bit little-endian word — the granularity at
// which the hardware XOF unit emits data ("one 64-bit coefficient per
// clock cycle"). When the read position is lane-aligned (always, for
// word-granular consumers like the PASTA sampler) the word is taken
// straight from the state, skipping the byte-at-a-time extraction.
func (d *Shake) NextWord() uint64 {
	if !d.squeezing {
		d.pad()
	}
	if d.readPos == d.rate {
		d.state.Permute()
		d.readPos = 0
	}
	if d.readPos%8 == 0 && d.rate-d.readPos >= 8 {
		w := d.state[d.readPos/8]
		d.readPos += 8
		return w
	}
	var b [8]byte
	_, _ = d.Read(b[:])
	return le64(b[:])
}

// Sum128 is a one-shot SHAKE128 of data producing outLen bytes.
func Sum128(data []byte, outLen int) []byte {
	d := NewShake128()
	_, _ = d.Write(data)
	out := make([]byte, outLen)
	_, _ = d.Read(out)
	return out
}

// Sum256 is a one-shot SHAKE256 of data producing outLen bytes.
func Sum256(data []byte, outLen int) []byte {
	d := NewShake256()
	_, _ = d.Write(data)
	out := make([]byte, outLen)
	_, _ = d.Read(out)
	return out
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
