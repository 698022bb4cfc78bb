// Network runs the Fig. 1 HHE protocol over a real TCP connection on the
// loopback interface, with every message serialized through the library's
// wire formats — measuring exactly the traffic split the paper's
// communication argument rests on: a heavy one-time setup (FHE keys +
// encrypted PASTA key) followed by symmetric-ciphertext data messages
// with no FHE expansion.
//
// Frames ride the versioned internal/wire codec (magic + version +
// length, bounded payloads) — the same framing the hheserver serving
// tier speaks — and both ends run under I/O deadlines, so a stalled or
// misbehaving peer fails the demo instead of hanging it.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/bfv"
	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/pasta"
	"repro/internal/wire"
)

const ioTimeout = 30 * time.Second

func main() {
	params, err := hhe.NewToyParams(2, 1)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	serverDone := make(chan error, 1)
	go func() { serverDone <- runServer(ln, params) }()

	if err := runClient(ln.Addr().String(), params); err != nil {
		log.Fatal(err)
	}
	if err := <-serverDone; err != nil {
		log.Fatal(err)
	}
}

// peer wraps a connection with the wire codec and a rolling deadline:
// every frame exchange must make progress within ioTimeout.
type peer struct {
	conn  net.Conn
	codec *wire.Codec
}

func newPeer(conn net.Conn) *peer {
	c := wire.NewCodec(conn)
	c.MaxPayload = 64 << 20 // FHE key blobs are large
	return &peer{conn: conn, codec: c}
}

// send writes one blob frame and returns the bytes on the wire.
func (p *peer) send(payload []byte) (int, error) {
	if err := p.conn.SetWriteDeadline(time.Now().Add(ioTimeout)); err != nil {
		return 0, err
	}
	if err := p.codec.WriteBlob(payload); err != nil {
		return 0, err
	}
	return wire.HeaderSize + len(payload), nil
}

func (p *peer) recv() ([]byte, error) {
	if err := p.conn.SetReadDeadline(time.Now().Add(ioTimeout)); err != nil {
		return nil, err
	}
	return p.codec.ReadBlob()
}

func runClient(addr string, params hhe.Params) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	p := newPeer(conn)

	key, err := pasta.NewRandomKey(params.Pasta)
	if err != nil {
		return err
	}
	client, err := hhe.NewClient(params, key, []byte("network-demo"))
	if err != nil {
		return err
	}
	ctx := client.Context()

	// --- one-time setup traffic ---------------------------------------------
	keysBlob, err := client.EvalKeysBlob()
	if err != nil {
		return err
	}
	setupBytes, err := p.send(keysBlob)
	if err != nil {
		return err
	}
	fmt.Printf("[client] one-time setup sent: %d bytes (FHE pk + rlk + Galois keys + Enc(K))\n", setupBytes)

	// --- steady-state data traffic -------------------------------------------
	messages := []ff.Vec{{1111, 2222}, {3333, 4444}, {55, 65000}}
	dataBytes := 0
	for blk, msg := range messages {
		symCt, err := client.EncryptBlock(1, uint64(blk), msg)
		if err != nil {
			return err
		}
		packed, err := ff.PackBits(symCt, params.Pasta.Mod.Bits())
		if err != nil {
			return err
		}
		n, err := p.send(packed)
		if err != nil {
			return err
		}
		dataBytes += n
	}
	fmt.Printf("[client] %d data blocks sent: %d bytes total (%.1f bytes/element — no FHE expansion)\n",
		len(messages), dataBytes, float64(dataBytes)/float64(2*len(messages)))

	// --- receive the homomorphic computation result ---------------------------
	blob, err := p.recv()
	if err != nil {
		return err
	}
	fmt.Printf("[client] result ciphertext received: %d bytes\n", len(blob))
	resCt, err := ctx.UnmarshalCiphertext(blob)
	if err != nil {
		return err
	}
	sum, err := client.DecryptPacked(resCt, params.Pasta.T)
	if err != nil {
		return err
	}
	mod := params.Pasta.Mod
	want := ff.NewVec(params.Pasta.T)
	for _, msg := range messages {
		for i, v := range msg {
			want[i] = mod.Add(want[i], v)
		}
	}
	fmt.Printf("[client] decrypted homomorphic sum of the blocks: %v (want %v)\n", sum, want)
	if !sum.Equal(want) {
		return fmt.Errorf("wrong result")
	}
	fmt.Println("[client] protocol complete ✓")
	return nil
}

func runServer(ln net.Listener, params hhe.Params) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	p := newPeer(conn)

	// --- receive setup ---------------------------------------------------------
	keysBlob, err := p.recv()
	if err != nil {
		return err
	}
	bp, ctx, keys, err := hhe.UnmarshalPackedEvalKeys(keysBlob)
	if err != nil {
		return err
	}
	server, err := hhe.NewPackedServer(hhe.Params{Pasta: params.Pasta, BFV: bp}, ctx, keys)
	if err != nil {
		return err
	}
	fmt.Println("[server] setup complete; PASTA key received homomorphically encrypted")

	// --- trans-cipher incoming blocks and compute on them ----------------------
	var acc *bfv.Ciphertext
	for blk := 0; blk < 3; blk++ {
		packed, err := p.recv()
		if err != nil {
			return err
		}
		symCt, err := ff.UnpackBits(packed, params.Pasta.T, params.Pasta.Mod.Bits())
		if err != nil {
			return err
		}
		fheCt, err := server.Transcipher(1, uint64(blk), symCt)
		if err != nil {
			return err
		}
		if acc == nil {
			acc = fheCt
		} else {
			acc = ctx.Add(acc, fheCt)
		}
	}
	fmt.Println("[server] trans-ciphered 3 blocks and summed them under encryption")

	blob, err := acc.MarshalBinary(ctx)
	if err != nil {
		return err
	}
	if _, err := p.send(blob); err != nil {
		return err
	}
	return nil
}
