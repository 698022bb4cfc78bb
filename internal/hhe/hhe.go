// Package hhe implements the hybrid homomorphic encryption workflow of
// Fig. 1 of the paper:
//
//  1. The client homomorphically encrypts its PASTA key K under the FHE
//     scheme and ships it to the server once.
//  2. The client symmetrically encrypts message blocks with PASTA (cheap,
//     no ciphertext expansion) and sends them.
//  3. The server evaluates the PASTA decryption circuit homomorphically
//     ("homomorphic HHE decryption"), obtaining FHE ciphertexts of the
//     messages that it can then compute on.
//
// The homomorphic evaluator (PackedServer, packed.go) replays the exact
// public schedule of the cipher (matrices, round constants) over batched
// BFV ciphertexts: affine layers by the diagonal method, Mix with
// additions, and the S-boxes with relinearized ciphertext
// multiplications.
//
// Substitution note (DESIGN.md): the paper's server is out of scope of
// its hardware contribution; we demonstrate the protocol end to end on a
// reduced PASTA instance (ToyParams) because textbook BFV multiplication
// at full PASTA depth/width is computationally heavy in a pure-Go model.
// The circuit code is generic over pasta.Params.
package hhe

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/bfv"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/pasta"
	"repro/internal/rlwe"
)

// Params couples a PASTA instance with a BFV instance. The BFV plaintext
// modulus must equal the PASTA field prime so ciphertexts trans-cipher
// exactly.
type Params struct {
	Pasta pasta.Params
	BFV   bfv.Params
}

// NewToyParams returns a reduced HHE parameter set suitable for
// end-to-end tests and examples: PASTA over p = 65537 with block size t
// and the given rounds, BFV with enough modulus for the circuit depth.
func NewToyParams(t, rounds int) (Params, error) {
	pp, err := pasta.ToyParams(t, rounds, ff.P17)
	if err != nil {
		return Params{}, err
	}
	// Depth budget: one scalar-mult layer per affine (≈19 bits each) and
	// one ct-ct multiplication per S-box level (≈30 bits each). Four
	// 55-bit primes cover toy instances up to rounds = 2 comfortably.
	bp, err := bfv.NewParams(1024, 55, 4, pp.Mod.P())
	if err != nil {
		return Params{}, err
	}
	return Params{Pasta: pp, BFV: bp}, nil
}

// Validate checks the cross-scheme constraint.
func (p Params) Validate() error {
	if err := p.Pasta.Validate(); err != nil {
		return err
	}
	if p.BFV.T != p.Pasta.Mod.P() {
		return fmt.Errorf("hhe: BFV plaintext modulus %d != PASTA prime %d", p.BFV.T, p.Pasta.Mod.P())
	}
	return nil
}

// Client owns both key materials: the PASTA key and the FHE key pair.
// The symmetric side runs on an execution backend (internal/backend), so
// the client-side encryption can execute on the software cipher, the
// cycle-accurate accelerator model, or the SoC co-simulation — the
// substrate the paper's cryptoprocessor occupies in Fig. 1.
type Client struct {
	params Params
	key    pasta.Key
	sym    backend.BlockCipher
	ctx    *bfv.Context
	sk     *bfv.SecretKey
	pk     *bfv.PublicKey
	rlk    *bfv.RelinKey
	prng   *rlwe.PRNG
}

// NewClient creates a client with fresh FHE keys (deterministic from the
// seed, for reproducibility) and the given PASTA key, encrypting on the
// software backend.
func NewClient(p Params, key pasta.Key, seed []byte) (*Client, error) {
	return NewClientOn(backend.NameSoftware, p, key, seed)
}

// NewClientOn is NewClient with the symmetric side on the named
// execution backend ("software", "accel", "soc", …). Reduced (toy) PASTA
// instances work on any substrate whose constraints they meet.
func NewClientOn(backendName string, p Params, key pasta.Key, seed []byte) (*Client, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := key.Validate(p.Pasta); err != nil {
		return nil, err
	}
	sym, err := backend.Open(backendName, backend.Config{
		CipherParams: cipher.Params{T: p.Pasta.T, Rounds: p.Pasta.Rounds, Mod: p.Pasta.Mod},
		Key:          ff.Vec(key),
	})
	if err != nil {
		return nil, err
	}
	ctx, err := bfv.NewContext(p.BFV)
	if err != nil {
		return nil, err
	}
	g := rlwe.NewPRNG("hhe-client", seed)
	sk, pk, rlk := ctx.KeyGen(g)
	return &Client{
		params: p,
		key:    pasta.Key(ff.Vec(key).Clone()),
		sym:    sym,
		ctx:    ctx, sk: sk, pk: pk, rlk: rlk, prng: g,
	}, nil
}

// SymmetricBackend exposes the execution backend the symmetric side runs
// on (for stats inspection and substrate-specific tooling).
func (c *Client) SymmetricBackend() backend.BlockCipher { return c.sym }

// EncryptBlock symmetrically encrypts up to t field elements — the cheap
// client-side operation the paper's cryptoprocessor accelerates.
func (c *Client) EncryptBlock(nonce, block uint64, msg ff.Vec) (ff.Vec, error) {
	t := c.params.Pasta.T
	if len(msg) > t {
		return nil, fmt.Errorf("hhe: block has %d elements, max %d", len(msg), t)
	}
	ks := ff.NewVec(t)
	if err := c.sym.KeyStreamInto(context.Background(), ks, nonce, block); err != nil {
		return nil, err
	}
	return c.MaskWith(ks, msg)
}

// Encrypt symmetrically encrypts an arbitrary-length message on the
// client's execution backend (keystream blocks are CTR-independent and
// fan out over the backend's worker pool on the software substrate).
func (c *Client) Encrypt(nonce uint64, msg ff.Vec) (ff.Vec, error) {
	return c.sym.Encrypt(context.Background(), nonce, msg)
}

// DecryptSymmetric inverts Encrypt on the symmetric (PASTA) side — the
// sanity path a client uses to check a ciphertext locally; the server
// never holds this key and transciphers instead.
func (c *Client) DecryptSymmetric(nonce uint64, ct ff.Vec) (ff.Vec, error) {
	return c.sym.Decrypt(context.Background(), nonce, ct)
}

// PrecomputeKeystream computes the keystream for blocks [0, blocks) of
// the nonce in parallel, concatenated block-major. Because the keystream
// depends only on (key, nonce, counter), a client can generate it before
// the data to encrypt exists and later mask messages with a cheap
// elementwise addition — the latency-hiding trick CTR-style HHE clients
// (and Presto's batched pipeline) rely on.
func (c *Client) PrecomputeKeystream(nonce uint64, blocks int) (ff.Vec, error) {
	return c.sym.KeyStreamBlocks(context.Background(), nonce, 0, blocks)
}

// MaskWith encrypts msg using a precomputed keystream slice (from
// PrecomputeKeystream): ct[i] = msg[i] + ks[i] mod p.
func (c *Client) MaskWith(ks, msg ff.Vec) (ff.Vec, error) {
	if len(ks) < len(msg) {
		return nil, fmt.Errorf("hhe: precomputed keystream has %d elements, message %d", len(ks), len(msg))
	}
	p := c.params.Pasta.Mod.P()
	ct := ff.NewVec(len(msg))
	for i := range msg {
		if msg[i] >= p {
			return nil, fmt.Errorf("hhe: message element %d = %d out of range", i, msg[i])
		}
		ct[i] = c.params.Pasta.Mod.Add(msg[i], ks[i])
	}
	return ct, nil
}

// Context exposes the BFV context (shared parameters are public).
func (c *Client) Context() *bfv.Context { return c.ctx }
