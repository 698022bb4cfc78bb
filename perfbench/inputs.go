package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/ff"
	"repro/internal/pasta"
)

// Every input the program receives is a pure function of the workload
// seed and an input's coordinates (device, request index, frame index,
// …), so the same seed gives byte-identical requests and verification
// can regenerate what it needs instead of keeping it in memory.

// Streams of the seeded generator, one per kind of input.
const (
	streamSensor uint64 = iota + 1
	streamFrameOrder
	streamFrame
	streamTranscipher
	streamProbe
	streamNonce
	streamSample
)

// pcg returns the generator for (seed, stream, a, b).
func pcg(seed, stream, a, b uint64) *rand.PCG {
	return rand.NewPCG(seed, stream<<56^a<<28^b)
}

// pasta4 is the PASTA-4 instance over p = 65537 that every keystream
// session in the benchmark uses.
var pasta4 = pasta.MustParams(pasta.Pasta4, ff.P17)

// pasta4Bits is the wire packing width of pasta4 elements.
const pasta4Bits = 17

// deviceKey derives the PASTA key of one named session from the seed.
func deviceKey(par pasta.Params, seed uint64, who string, i int) pasta.Key {
	return pasta.KeyFromSeed(par, fmt.Sprintf("perfbench/%d/%s/%d", seed, who, i))
}

// sessionNonce is the stream nonce a session is opened with.
func sessionNonce(seed uint64, who string, i int) uint64 {
	h := fnvOffset
	for _, c := range []byte(who) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return pcg(seed, streamNonce, h, uint64(i)).Uint64()
}

// blockRequest fills msg with one request's plaintext elements (uniform
// in [0, p)) and returns its fresh nonce; stream selects sensor or probe
// traffic, a the device and i the request index.
func blockRequest(seed, stream uint64, a, i int, msg ff.Vec) (nonce uint64) {
	g := pcg(seed, stream, uint64(a), uint64(i))
	nonce = g.Uint64()
	p := pasta4.Mod.P()
	for j := range msg {
		msg[j] = g.Uint64() % p
	}
	return nonce
}

// Frame sizes of Fig 8, one element per grayscale pixel.
const (
	qqvgaPixels = 160 * 120
	qvgaPixels  = 320 * 240
	// frameChunk is the stream chunk a camera sends: 24 QQVGA rows or
	// 12 QVGA rows, a whole number of 32-element blocks.
	frameChunk = 3840
	// frameBurst is how many chunks a camera pipelines in one
	// EncryptChunks call; a frame goes out as a sequence of bursts. The
	// server batches whatever a session has pending into one flush, so
	// the burst bounds how long a flush holds a scheduler worker.
	frameBurst = 4
)

// frameGroup is the repeating mix of frame sizes: one QQVGA frame and
// two QVGA frames per group, in a seeded order. Latencies of the two
// sizes differ fourfold, so a percentile near the boundary between them
// would jump from run to run; with QVGA holding two thirds of the frames
// both the median and the tail stay well inside the QVGA frames, and the
// QQVGA share shows in the throughput.
const frameGroup = 3

// frameSize returns the pixel count of camera cam's frame f.
func frameSize(seed uint64, cam, f int) int {
	g := pcg(seed, streamFrameOrder, uint64(cam), uint64(f/frameGroup))
	if f%frameGroup == int(g.Uint64()%frameGroup) {
		return qqvgaPixels
	}
	return qvgaPixels
}

// frame returns camera cam's frame f: a gradient with seeded noise.
func frame(seed uint64, cam, f int) ff.Vec {
	n := frameSize(seed, cam, f)
	width := 160
	if n == qvgaPixels {
		width = 320
	}
	g := pcg(seed, streamFrame, uint64(cam), uint64(f))
	phase := g.Uint64() % 256
	px := make(ff.Vec, n)
	for i := range px {
		x, y := uint64(i%width), uint64(i/width)
		px[i] = (x + y + phase + g.Uint64()%16) % 256
	}
	return px
}

// chunks splits a frame into the stream chunks a camera sends.
func chunks(px ff.Vec) []ff.Vec {
	out := make([]ff.Vec, 0, (len(px)+frameChunk-1)/frameChunk)
	for off := 0; off < len(px); off += frameChunk {
		out = append(out, px[off:min(off+frameChunk, len(px))])
	}
	return out
}

// transcipherRepeatWindow bounds how far back a repeat may reach among
// fresh blocks, so the repeated block is still inside the server's
// 32-block Enc(KS) cache however the hits reorder it.
const transcipherRepeatWindow = 16

// tcRequest is one transcipher-mixed request: the symmetric block to
// transcipher and whether it repeats an earlier one.
type tcRequest struct {
	block  uint64
	repeat bool
}

// tcPlan generates the transcipher-mixed request sequence. Each group
// of four requests holds exactly one repeat, at a seeded position after
// the first, of a seeded block among the most recent fresh ones; the
// other three are fresh blocks.
type tcPlan struct {
	seed  uint64
	i     int
	fresh uint64
}

func (p *tcPlan) next() tcRequest {
	i := p.i
	p.i++
	g := pcg(p.seed, streamTranscipher, 1, uint64(i/4))
	if i%4 == 1+int(g.Uint64()%3) {
		back := min(p.fresh, transcipherRepeatWindow)
		return tcRequest{block: p.fresh - 1 - g.Uint64()%back, repeat: true}
	}
	p.fresh++
	return tcRequest{block: p.fresh - 1}
}

// tcMessage returns the plaintext of transcipher block b (t elements).
func tcMessage(seed uint64, b uint64, t int, p uint64) ff.Vec {
	g := pcg(seed, streamTranscipher, 2, b)
	msg := make(ff.Vec, t)
	for j := range msg {
		msg[j] = g.Uint64() % p
	}
	return msg
}
