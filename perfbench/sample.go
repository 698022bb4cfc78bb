package main

import (
	"repro/internal/backend"
	"repro/internal/ff"
	"repro/internal/pasta"
	"repro/internal/wire"
)

// sampleSize is how many of the workload's inputs a replay draws.
const sampleSize = 16

// blockRef addresses one keystream block a workload asked for.
type blockRef struct{ nonce, block uint64 }

// wireMsg is one frame of a workload op: how to encode it and decode it.
type wireMsg struct {
	encode func(dst []byte) ([]byte, error)
	decode func(frame []byte) error
}

// layerSample is the slice of a workload's own inputs the replays use.
type layerSample struct {
	backend string    // the keystream backend of the sampled sessions
	key     pasta.Key // PASTA-4 key of the sampled session
	blocks  []blockRef
	ops     [][]wireMsg // request and reply frames of sampled ops
	// hhe is one block of the workload's data on the toy HHE instance.
	hheNonce, hheBlock uint64
	hheMsg             ff.Vec
}

// sampleIndexes draws n distinct seeded indexes below limit.
func sampleIndexes(seed uint64, limit, n int) []int {
	g := pcg(seed, streamSample, 0, 0)
	perm := make([]int, limit)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(g.Uint64() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:min(n, limit)]
}

// blockOps encodes single-block Encrypt requests and their Data replies.
func blockOps(key pasta.Key, reqs []ff.Vec, nonces []uint64) ([][]wireMsg, error) {
	oracle, err := pasta.NewCipher(pasta4, key)
	if err != nil {
		return nil, err
	}
	var ops [][]wireMsg
	for i, msg := range reqs {
		nonce := nonces[i]
		ct, err := oracle.EncryptSequential(nonce, msg)
		if err != nil {
			return nil, err
		}
		var req wire.EncryptReq
		var data wire.Data
		dst := make(ff.Vec, len(msg))
		ops = append(ops, []wireMsg{
			{
				encode: func(b []byte) ([]byte, error) {
					return wire.AppendEncryptFrame(b, 1, uint64(i+1), uint64(i+1), nonce, msg, pasta4Bits)
				},
				decode: func(f []byte) error {
					if err := wire.DecodeEncryptReqInto(&req, f[wire.HeaderSize:]); err != nil {
						return err
					}
					return req.VecInto(dst)
				},
			},
			dataMsg(ct, &data, dst),
		})
	}
	return ops, nil
}

// dataMsg is a Data reply carrying v.
func dataMsg(v ff.Vec, data *wire.Data, dst ff.Vec) wireMsg {
	return wireMsg{
		encode: func(b []byte) ([]byte, error) { return wire.AppendDataFrame(b, 1, 1, 0, v, pasta4Bits) },
		decode: func(f []byte) error {
			if err := wire.DecodeDataInto(data, f[wire.HeaderSize:]); err != nil {
				return err
			}
			return data.VecInto(dst[:len(v)])
		},
	}
}

func (s *sensorStream) sample() (layerSample, error) {
	// The first requests of one seeded device, so that one key covers them.
	dev := sampleIndexes(s.seed, sensorDevices, 1)[0]
	ls := layerSample{backend: backend.NameAccel, key: s.devs[dev].key}
	var reqs []ff.Vec
	var nonces []uint64
	for i := 0; i < sampleSize; i++ {
		msg := make(ff.Vec, pasta4.T)
		nonce := blockRequest(s.seed, streamSensor, dev, i, msg)
		reqs, nonces = append(reqs, msg), append(nonces, nonce)
		ls.blocks = append(ls.blocks, blockRef{nonce, 0})
	}
	ls.hheNonce, ls.hheBlock, ls.hheMsg = nonces[0], 0, reqs[0][:4]
	var err error
	ls.ops, err = blockOps(ls.key, reqs, nonces)
	return ls, err
}

func (v *videoFrames) sample() (layerSample, error) {
	c := v.cams[0]
	f := sampleIndexes(v.seed, frameGroup, 1)[0]
	var off uint64
	for k := 0; k < f; k++ {
		off += uint64(frameSize(v.seed, 0, k))
	}
	px := frame(v.seed, 0, f)
	ls := layerSample{backend: backend.NameSoftware, key: c.key}
	t := uint64(pasta4.T)
	nblocks := len(px) / pasta4.T
	for _, b := range sampleIndexes(v.seed, nblocks, sampleSize) {
		ls.blocks = append(ls.blocks, blockRef{c.nonce, off/t + uint64(b)})
	}
	// One op is the whole frame: every chunk request and its reply.
	oracle, err := pasta.NewCipher(pasta4, c.key)
	if err != nil {
		return ls, err
	}
	var op []wireMsg
	pos := off
	for k, part := range chunks(px) {
		ct := streamEncrypt(oracle, c.nonce, pos, part)
		pos += uint64(len(part))
		var req wire.StreamReq
		var data wire.Data
		dst := make(ff.Vec, len(part))
		op = append(op, wireMsg{
			encode: func(b []byte) ([]byte, error) {
				return wire.AppendStreamFrame(b, 1, uint64(k+1), uint64(k+1), part, pasta4Bits)
			},
			decode: func(f []byte) error {
				if err := wire.DecodeStreamReqInto(&req, f[wire.HeaderSize:]); err != nil {
					return err
				}
				return req.VecInto(dst)
			},
		}, dataMsg(ct, &data, dst))
	}
	ls.ops = [][]wireMsg{op}
	ls.hheNonce, ls.hheBlock, ls.hheMsg = c.nonce, off/t, px[:4]
	return ls, nil
}

func (t *transcipherMixed) sample() (layerSample, error) {
	// The keystream layers see only the probe on this workload.
	ls := layerSample{backend: backend.NameSoftware, key: deviceKey(pasta4, t.seed, "probe", 0)}
	msg := make(ff.Vec, pasta4.T)
	for i := 0; i < sampleSize; i++ {
		ls.blocks = append(ls.blocks, blockRef{blockRequest(t.seed, streamProbe, 0, i, msg), 0})
	}
	p := t.par.Pasta.Mod.P()
	for _, k := range sampleIndexes(t.seed, len(t.recs), sampleSize) {
		if t.recs[k].state != opOK {
			continue
		}
		req := t.reqs[k]
		sym, err := t.sym.EncryptBlock(t.nonce, req.block, tcMessage(t.seed, req.block, t.par.Pasta.T, p))
		if err != nil {
			return ls, err
		}
		count, packed, err := wire.PackVec(sym, pasta4Bits)
		if err != nil {
			return ls, err
		}
		in := &wire.TranscipherReq{Session: 1, ID: 1, Counter: 1, Nonce: t.nonce, First: req.block,
			Count: count, Bits: pasta4Bits, Packed: packed}
		out := &wire.Data{Session: 1, ID: 1, Offset: req.block, Count: uint32(len(t.reply[k])), Bits: 8, Packed: t.reply[k]}
		var gotReq wire.TranscipherReq
		var gotData wire.Data
		dst := make(ff.Vec, t.par.Pasta.T)
		ls.ops = append(ls.ops, []wireMsg{
			{
				encode: func(b []byte) ([]byte, error) { return wire.AppendMessageFrame(b, wire.TypeTranscipher, in) },
				decode: func(f []byte) error {
					if err := wire.DecodeTranscipherReqInto(&gotReq, f[wire.HeaderSize:]); err != nil {
						return err
					}
					return gotReq.VecInto(dst)
				},
			},
			{
				encode: func(b []byte) ([]byte, error) { return wire.AppendMessageFrame(b, wire.TypeData, out) },
				decode: func(f []byte) error { return wire.DecodeDataInto(&gotData, f[wire.HeaderSize:]) },
			},
		})
	}
	ls.hheNonce, ls.hheBlock = t.nonce, 0
	ls.hheMsg = tcMessage(t.seed, 0, t.par.Pasta.T, p)
	return ls, nil
}
