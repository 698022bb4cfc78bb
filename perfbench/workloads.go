package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/pasta"
	"repro/internal/server"
	"repro/internal/wire"
)

// workload is one traffic mix the benchmark runs against the server.
type workload interface {
	// config is the server configuration the workload is served with.
	config() server.Config
	// open opens the workload's sessions; it is timed as set-up.
	open(h *harness) error
	// drive runs the closed loop until deadline, then waits for every
	// outstanding operation.
	drive(w *window, deadline time.Time)
	// verify checks every recorded reply against the oracle and marks
	// the wrong ones.
	verify() error
	// records returns every operation recorded so far.
	records() []opRec
	// sample returns the workload's own inputs for the layer replays.
	sample() (layerSample, error)
}

var workloadNames = []string{"sensor-stream", "video-frames", "transcipher-mixed"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "sensor-stream":
		return &sensorStream{seed: seed}, nil
	case "video-frames":
		return &videoFrames{seed: seed}, nil
	case "transcipher-mixed":
		return &transcipherMixed{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// ---- sensor-stream ----

// sensorDevices is the number of PASTA-4 device sessions; each keeps one
// single-block Encrypt outstanding.
const sensorDevices = 64

type sensorStream struct {
	seed uint64
	devs []*sensorDev
}

type sensorDev struct {
	idx  int
	key  pasta.Key
	sess *server.Session
	recs []opRec // recs[i] is request i of the device
}

// sensorAccelUnits is the size of the accelerator farm sensor-stream is
// served by.
const sensorAccelUnits = 2

func (s *sensorStream) config() server.Config {
	return server.Config{Backend: backend.NameAccel, AccelUnits: sensorAccelUnits}
}

func (s *sensorStream) open(h *harness) error {
	s.devs = make([]*sensorDev, sensorDevices)
	for d := range s.devs {
		key := deviceKey(pasta4, s.seed, "sensor", d)
		sess, err := h.conns[d%conns].OpenSession(pasta4Open(key, sessionNonce(s.seed, "sensor", d)))
		if err != nil {
			return fmt.Errorf("open sensor session %d: %w", d, err)
		}
		s.devs[d] = &sensorDev{idx: d, key: key, sess: sess}
	}
	return nil
}

func (s *sensorStream) drive(w *window, deadline time.Time) {
	var wg sync.WaitGroup
	for _, d := range s.devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans := w.spans.buffer()
			msg := make(ff.Vec, pasta4.T)
			n := 0
			for time.Now().Before(deadline) {
				i := len(d.recs)
				nonce := blockRequest(s.seed, streamSensor, d.idx, i, msg)
				op := uint64(d.idx)<<32 | uint64(i)
				root := spans.begin(op, "sensor.op", -1)
				call := spans.begin(op, "client.Encrypt", root)
				t0 := time.Now()
				ct, err := d.sess.Encrypt(nonce, msg)
				r := opRec{lat: time.Since(t0), elems: int32(len(msg)), win: w.id}
				spans.end(call)
				if err != nil {
					r.state = opFailed
				} else {
					r.sum = checksum(ct)
				}
				d.recs = append(d.recs, r)
				spans.end(root)
				n++
			}
			spans.flush()
			w.addCounts(n, n)
		}()
	}
	wg.Wait()
}

func (s *sensorStream) verify() error {
	return parallel(len(s.devs), runtime.GOMAXPROCS(0), func(k int) error {
		d := s.devs[k]
		oracle, err := pasta.NewCipher(pasta4, d.key)
		if err != nil {
			return err
		}
		msg := make(ff.Vec, pasta4.T)
		for i := range d.recs {
			if d.recs[i].state != opOK {
				continue
			}
			nonce := blockRequest(s.seed, streamSensor, d.idx, i, msg)
			want, err := oracle.EncryptSequential(nonce, msg)
			if err != nil {
				return err
			}
			if checksum(want) != d.recs[i].sum {
				d.recs[i].state = opWrong
			}
		}
		return nil
	})
}

func (s *sensorStream) records() []opRec {
	var out []opRec
	for _, d := range s.devs {
		out = append(out, d.recs...)
	}
	return out
}

// ---- video-frames ----

// videoCameras is the number of camera sessions, one per connection.
const videoCameras = 2

type videoFrames struct {
	seed uint64
	cams []*camera
}

type camera struct {
	idx   int
	key   pasta.Key
	nonce uint64
	sess  *server.Session
	tail  uint64  // stream offset the next frame must start at
	recs  []opRec // recs[f] is frame f; aux holds its stream offset
}

// config gives the scheduler one worker per camera plus one, so a probe
// never waits for a camera's flush to free a worker. When every worker
// can be held by a camera, the probe's latency is the leftover of
// whichever flush ends first and moves with how the cameras line up.
func (v *videoFrames) config() server.Config { return server.Config{Workers: videoCameras + 1} }

func (v *videoFrames) open(h *harness) error {
	v.cams = make([]*camera, videoCameras)
	for c := range v.cams {
		key := deviceKey(pasta4, v.seed, "camera", c)
		nonce := sessionNonce(v.seed, "camera", c)
		sess, err := h.conns[c%conns].OpenSession(pasta4Open(key, nonce))
		if err != nil {
			return fmt.Errorf("open camera session %d: %w", c, err)
		}
		v.cams[c] = &camera{idx: c, key: key, nonce: nonce, sess: sess}
	}
	return nil
}

func (v *videoFrames) drive(w *window, deadline time.Time) {
	var wg sync.WaitGroup
	for _, c := range v.cams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spans := w.spans.buffer()
			requests := 0
			for time.Now().Before(deadline) {
				f := len(c.recs)
				op := uint64(c.idx)<<32 | uint64(f)
				root := spans.begin(op, "video.frame", -1)
				px := frame(v.seed, c.idx, f)
				parts := chunks(px)
				var cts []ff.Vec
				var offs []uint64
				var err error
				t0 := time.Now()
				for b := 0; b < len(parts) && err == nil; b += frameBurst {
					call := spans.begin(op, "client.EncryptChunks", root)
					burst := parts[b:min(b+frameBurst, len(parts))]
					var bc []ff.Vec
					var bo []uint64
					bc, bo, err = c.sess.EncryptChunks(burst)
					spans.end(call)
					requests += len(burst)
					cts, offs = append(cts, bc...), append(offs, bo...)
				}
				r := opRec{lat: time.Since(t0), elems: int32(len(px)), win: w.id}
				switch {
				case err != nil:
					r.state = opFailed
				case !contiguous(offs, parts, c.tail):
					// Overlapping or skipped offsets would reuse or waste
					// keystream: a wrong output whatever the bytes say.
					r.state = opWrong
				default:
					r.aux = offs[0]
					r.sum = fnvOffset
					for _, ct := range cts {
						r.sum = checksumAdd(r.sum, ct)
					}
				}
				if err == nil && len(offs) > 0 {
					c.tail = offs[len(offs)-1] + uint64(len(parts[len(parts)-1]))
				}
				c.recs = append(c.recs, r)
				spans.end(root)
			}
			spans.flush()
			w.addCounts(requests, 0)
		}()
	}
	wg.Wait()
}

// contiguous reports whether a frame's chunk offsets continue the
// session stream at tail without gaps or overlaps.
func contiguous(offs []uint64, parts []ff.Vec, tail uint64) bool {
	if len(offs) != len(parts) {
		return false
	}
	for k, off := range offs {
		if off != tail {
			return false
		}
		tail += uint64(len(parts[k]))
	}
	return true
}

func (v *videoFrames) verify() error {
	type ref struct{ cam, f int }
	var refs []ref
	for _, c := range v.cams {
		for f := range c.recs {
			if c.recs[f].state == opOK {
				refs = append(refs, ref{c.idx, f})
			}
		}
	}
	oracles := make([]*pasta.Cipher, len(v.cams))
	for i, c := range v.cams {
		o, err := pasta.NewCipher(pasta4, c.key)
		if err != nil {
			return err
		}
		oracles[i] = o
	}
	return parallel(len(refs), runtime.GOMAXPROCS(0), func(k int) error {
		c := v.cams[refs[k].cam]
		r := &c.recs[refs[k].f]
		want := streamEncrypt(oracles[c.idx], c.nonce, r.aux, frame(v.seed, c.idx, refs[k].f))
		if checksum(want) != r.sum {
			r.state = opWrong
		}
		return nil
	})
}

// streamEncrypt is the oracle for a stream chunk: msg encrypted with the
// session keystream from element offset off on, one sequential block at
// a time.
func streamEncrypt(oracle *pasta.Cipher, nonce, off uint64, msg ff.Vec) ff.Vec {
	t := uint64(pasta4.T)
	ct := make(ff.Vec, len(msg))
	var ks ff.Vec
	for j, x := range msg {
		pos := off + uint64(j)
		if j == 0 || pos%t == 0 {
			ks = oracle.KeyStream(nonce, pos/t)
		}
		ct[j] = pasta4.Mod.Add(x, ks[pos%t])
	}
	return ct
}

func (v *videoFrames) records() []opRec {
	var out []opRec
	for _, c := range v.cams {
		out = append(out, c.recs...)
	}
	return out
}

// ---- transcipher-mixed ----

// tcInstance is the toy HHE instance the transcipher tier can run today
// (PASTA with t = 4 and two rounds over p = 65537, BFV with N = 1024)
// and the seeded symmetric key of the edge client.
func tcInstance(seed uint64) (hhe.Params, pasta.Key, error) {
	par, err := hhe.NewToyParams(4, 2)
	if err != nil {
		return hhe.Params{}, nil, err
	}
	return par, deviceKey(par.Pasta, seed, "transcipher", 0), nil
}

// bfvSeed seeds the edge client's BFV key generation.
func bfvSeed(seed uint64) []byte { return []byte(fmt.Sprintf("perfbench/%d/bfv", seed)) }

type transcipherMixed struct {
	seed   uint64
	par    hhe.Params
	key    pasta.Key
	nonce  uint64
	sym    *pasta.Cipher
	client *hhe.Client
	blob   []byte
	sess   *server.Session
	plan   tcPlan
	reqs   []tcRequest // reqs[k] is what recs[k] asked for
	recs   []opRec
	reply  [][]byte // serialized BFV ciphertext of each op

	keygen, upload []time.Duration // one per set-up
}

func (t *transcipherMixed) config() server.Config { return server.Config{} }

// open enrolls a keyless session: client keygen, eval-key blob, chunked
// upload and the server's engine build, all inside set-up.
func (t *transcipherMixed) open(h *harness) error {
	var err error
	if t.par, t.key, err = tcInstance(t.seed); err != nil {
		return err
	}
	if t.sym, err = pasta.NewCipher(t.par.Pasta, t.key); err != nil {
		return err
	}
	t.nonce = sessionNonce(t.seed, "transcipher", 0)
	t.plan = tcPlan{seed: t.seed}

	start := time.Now()
	t.client, err = hhe.NewClient(t.par, t.key, bfvSeed(t.seed))
	if err != nil {
		return fmt.Errorf("hhe client: %w", err)
	}
	if t.blob, err = t.client.EvalKeysBlob(); err != nil {
		return fmt.Errorf("eval keys: %w", err)
	}
	t.keygen = append(t.keygen, time.Since(start))

	open := wire.SessionOpen{Width: 17, Rounds: uint8(t.par.Pasta.Rounds), T: uint16(t.par.Pasta.T), Nonce: t.nonce}
	if t.sess, err = h.conns[0].OpenSession(open); err != nil {
		return fmt.Errorf("open transcipher session: %w", err)
	}
	start = time.Now()
	if err := t.sess.UploadEvalKeys(t.blob); err != nil {
		return fmt.Errorf("upload eval keys: %w", err)
	}
	t.upload = append(t.upload, time.Since(start))
	return nil
}

func (t *transcipherMixed) drive(w *window, deadline time.Time) {
	spans := w.spans.buffer()
	p := t.par.Pasta.Mod.P()
	requests, repeats := 0, 0
	for time.Now().Before(deadline) {
		req := t.plan.next()
		op := uint64(len(t.recs))
		root := spans.begin(op, "transcipher.op", -1)
		msg := tcMessage(t.seed, req.block, t.par.Pasta.T, p)
		sym, err := t.sym.EncryptBlock(t.nonce, req.block, msg)
		var cts [][]byte
		r := opRec{elems: int32(len(msg)), win: w.id}
		if err == nil {
			call := spans.begin(op, "client.Transcipher", root)
			t0 := time.Now()
			cts, err = t.sess.Transcipher(t.nonce, req.block, sym)
			r.lat = time.Since(t0)
			spans.end(call)
			requests++
			if req.repeat {
				repeats++
			}
		}
		var reply []byte
		if err != nil || len(cts) != 1 {
			r.state = opFailed
		} else {
			reply = cts[0]
		}
		t.reqs = append(t.reqs, req)
		t.recs = append(t.recs, r)
		t.reply = append(t.reply, reply)
		spans.end(root)
	}
	spans.flush()
	w.addCounts(requests, 0)
	w.mu.Lock()
	w.repeats += repeats
	w.mu.Unlock()
}

// verify decrypts every reply with the client's BFV secret key and
// compares it with the plaintext the symmetric block carried.
func (t *transcipherMixed) verify() error {
	ctx := t.client.Context()
	p := t.par.Pasta.Mod.P()
	for k := range t.recs {
		r := &t.recs[k]
		if r.state != opOK {
			continue
		}
		ct, err := ctx.UnmarshalCiphertext(t.reply[k])
		if err != nil {
			r.state = opWrong
			continue
		}
		got, err := t.client.DecryptPacked(ct, t.par.Pasta.T)
		if err != nil || !got.Equal(tcMessage(t.seed, t.reqs[k].block, t.par.Pasta.T, p)) {
			r.state = opWrong
		}
	}
	return nil
}

func (t *transcipherMixed) records() []opRec { return t.recs }
