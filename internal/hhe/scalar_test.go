package hhe

import (
	"fmt"

	"repro/internal/bfv"
	"repro/internal/ff"
	"repro/internal/pasta"
)

// The scalar evaluator: one BFV ciphertext per PASTA state element.
// Affine layers are scalar multiplications and additions, Mix is
// additions, and the S-boxes are relinearized ciphertext
// multiplications. It is the straightforward reading of the circuit and
// the test oracle for PackedServer, which the serving tier runs.

// EncryptedKey is the homomorphically encrypted PASTA key: one BFV
// ciphertext per key element (scalar encoding).
type EncryptedKey []*bfv.Ciphertext

// TransportKey produces the one-time homomorphic encryption of the PASTA
// key that the server needs (step 1 of the protocol).
func (c *Client) TransportKey() EncryptedKey {
	ek := make(EncryptedKey, len(c.key))
	for i, v := range c.key {
		ek[i] = c.ctx.EncryptSymmetric(c.sk, c.ctx.EncodeScalar(v), c.prng)
	}
	return ek
}

// DecryptResult decrypts BFV ciphertexts returned by the server.
func (c *Client) DecryptResult(cts []*bfv.Ciphertext) ff.Vec {
	out := ff.NewVec(len(cts))
	for i, ct := range cts {
		out[i] = c.ctx.Decrypt(ct, c.sk).DecodeScalar()
	}
	return out
}

// EvalKeys bundles what the server needs.
type EvalKeys struct {
	PK  *bfv.PublicKey
	RLK *bfv.RelinKey
	Key EncryptedKey
}

// EvalKeys exports the server-side material (public by construction).
func (c *Client) EvalKeys() EvalKeys {
	return EvalKeys{PK: c.pk, RLK: c.rlk, Key: c.TransportKey()}
}

// Server evaluates the homomorphic PASTA decryption circuit.
type Server struct {
	params Params
	ctx    *bfv.Context
	keys   EvalKeys
}

// NewServer builds the server from public parameters and eval keys.
func NewServer(p Params, ctx *bfv.Context, keys EvalKeys) (*Server, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(keys.Key) != p.Pasta.StateSize() {
		return nil, fmt.Errorf("hhe: encrypted key has %d elements, want %d", len(keys.Key), p.Pasta.StateSize())
	}
	return &Server{params: p, ctx: ctx, keys: keys}, nil
}

// EvalKeystream homomorphically computes Enc(KS(nonce, block)): the PASTA
// permutation over encrypted state with public matrices and constants.
func (s *Server) EvalKeystream(nonce, block uint64) ([]*bfv.Ciphertext, error) {
	pp := s.params.Pasta
	t := pp.T
	mod := pp.Mod

	// Encrypted state initialized with the transported key.
	state := make([]*bfv.Ciphertext, pp.StateSize())
	for i, ct := range s.keys.Key {
		state[i] = ct.Clone()
	}

	schedule := pasta.DeriveSchedule(pp, nonce, block)
	for layerIdx, layer := range schedule {
		ml := pasta.ExpandMatrix(mod, layer.MatSeedL)
		mr := pasta.ExpandMatrix(mod, layer.MatSeedR)
		if err := s.evalAffineHalf(state[:t], ml, layer.RCL); err != nil {
			return nil, err
		}
		if err := s.evalAffineHalf(state[t:], mr, layer.RCR); err != nil {
			return nil, err
		}
		s.evalMix(state)
		switch {
		case layerIdx < pp.Rounds-1:
			if err := s.evalFeistel(state); err != nil {
				return nil, err
			}
		case layerIdx == pp.Rounds-1:
			if err := s.evalCube(state); err != nil {
				return nil, err
			}
		}
	}
	return state[:t], nil
}

// Transcipher converts a PASTA ciphertext block into FHE ciphertexts of
// the underlying message: Enc(m_i) = c_i − Enc(KS_i).
func (s *Server) Transcipher(nonce, block uint64, symCt ff.Vec) ([]*bfv.Ciphertext, error) {
	if len(symCt) > s.params.Pasta.T {
		return nil, fmt.Errorf("hhe: block has %d elements, max %d", len(symCt), s.params.Pasta.T)
	}
	ks, err := s.EvalKeystream(nonce, block)
	if err != nil {
		return nil, err
	}
	out := make([]*bfv.Ciphertext, len(symCt))
	for i, c := range symCt {
		out[i] = s.ctx.SubPlainFrom(s.ctx.EncodeScalar(c), ks[i])
	}
	return out, nil
}

// evalAffineHalf sets half ← M·half + rc homomorphically (scalar
// multiplications and additions only).
func (s *Server) evalAffineHalf(half []*bfv.Ciphertext, m *ff.Matrix, rc ff.Vec) error {
	t := len(half)
	out := make([]*bfv.Ciphertext, t)
	for i := 0; i < t; i++ {
		row := m.Row(i)
		var acc *bfv.Ciphertext
		for j := 0; j < t; j++ {
			if row[j] == 0 {
				continue
			}
			term := s.ctx.MulScalar(half[j], row[j])
			if acc == nil {
				acc = term
			} else {
				acc = s.ctx.Add(acc, term)
			}
		}
		if acc == nil {
			// All-zero row cannot occur for invertible matrices, but keep
			// the circuit total.
			acc = s.ctx.MulScalar(half[0], 0)
		}
		out[i] = s.ctx.AddPlain(acc, s.ctx.EncodeScalar(rc[i]))
	}
	copy(half, out)
	return nil
}

// evalMix sets (L, R) ← (2L + R, L + 2R) with additions only, mirroring
// the hardware's three-addition formulation.
func (s *Server) evalMix(state []*bfv.Ciphertext) {
	t := len(state) / 2
	for i := 0; i < t; i++ {
		sum := s.ctx.Add(state[i], state[t+i])
		state[i] = s.ctx.Add(state[i], sum)
		state[t+i] = s.ctx.Add(state[t+i], sum)
	}
}

// evalFeistel applies x[j] += x[j-1]² from the top index down.
func (s *Server) evalFeistel(state []*bfv.Ciphertext) error {
	for j := len(state) - 1; j >= 1; j-- {
		sq, err := s.ctx.Mul(state[j-1], state[j-1], s.keys.RLK)
		if err != nil {
			return err
		}
		state[j] = s.ctx.Add(state[j], sq)
	}
	return nil
}

// evalCube applies x ← x³ elementwise (square, then multiply).
func (s *Server) evalCube(state []*bfv.Ciphertext) error {
	for j := range state {
		sq, err := s.ctx.Mul(state[j], state[j], s.keys.RLK)
		if err != nil {
			return err
		}
		cube, err := s.ctx.Mul(sq, state[j], s.keys.RLK)
		if err != nil {
			return err
		}
		state[j] = cube
	}
	return nil
}
