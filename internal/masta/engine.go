package masta

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"repro/internal/ff"
	"repro/internal/pasta"
	"repro/internal/xof"
)

// The allocation-free keystream engine, following the pooled-workspace
// pattern of internal/pasta: every buffer one block needs — state,
// the per-layer seed and round-constant vectors, the shared PASTA
// kernel's row registers, and a reseedable sampler — lives in one pooled
// workspace, so the steady state touches the heap zero times per block.

// workspace bundles the per-block scratch.
type workspace struct {
	state   ff.Vec // t-element cipher state
	seed    ff.Vec // matrix seed row for the current affine layer
	rc      ff.Vec // round constants for the current affine layer
	out     ff.Vec // affine output accumulator
	rowA    ff.Vec // kernel row registers
	rowB    ff.Vec
	sampler *xof.Sampler
}

func newWorkspace(par Params) *workspace {
	t := par.T
	return &workspace{
		state:   ff.NewVec(t),
		seed:    ff.NewVec(t),
		rc:      ff.NewVec(t),
		out:     ff.NewVec(t),
		rowA:    ff.NewVec(t),
		rowB:    ff.NewVec(t),
		sampler: xof.NewSampler(par.Mod, 0, 0),
	}
}

func (c *Cipher) getWorkspace() *workspace {
	ws, _ := c.pool.Get().(*workspace)
	if ws == nil {
		ws = newWorkspace(c.par)
	}
	return ws
}

func (c *Cipher) putWorkspace(ws *workspace) { c.pool.Put(ws) }

// KeyStreamInto writes KS(nonce, block) into dst, which must have
// exactly t elements. Allocation-free in steady state.
func (c *Cipher) KeyStreamInto(dst ff.Vec, nonce, block uint64) error {
	if len(dst) != c.par.T {
		return fmt.Errorf("masta: KeyStreamInto dst has %d elements, want %d", len(dst), c.par.T)
	}
	ws := c.getWorkspace()
	ws.sampler.Reseed(nonce, block)
	copy(ws.state, c.key)
	m := c.par.Mod
	k := pasta.NewKernel(m, c.par.T)
	for layer := 0; layer < c.par.AffineLayers(); layer++ {
		ws.sampler.VectorInto(ws.seed, true)
		ws.sampler.VectorInto(ws.rc, false)
		// state ← M(seed)·state + rc on the shared PASTA kernel.
		k.MatVec(ws.out, ws.seed, ws.state, ws.rowA, ws.rowB)
		ff.AddVec(m, ws.state, ws.out, ws.rc)
		if layer < c.par.Rounds {
			k.SboxCube(ws.state)
		}
	}
	for i, v := range ws.state {
		dst[i] = m.Add(v, c.key[i])
	}
	c.putWorkspace(ws)
	return nil
}

// randomKey is the mask-and-reject crypto/rand sampler shared by
// NewRandomKey.
func randomKey(mod ff.Modulus, n int) (ff.Vec, error) {
	k := make(ff.Vec, n)
	var buf [8]byte
	for i := range k {
		for {
			if _, err := rand.Read(buf[:]); err != nil {
				return nil, fmt.Errorf("masta: sampling key: %w", err)
			}
			v := binary.LittleEndian.Uint64(buf[:]) & mod.Mask()
			if v < mod.P() {
				k[i] = v
				break
			}
		}
	}
	return k, nil
}
