package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/bfv"
	"repro/internal/cipher"
	"repro/internal/eval"
	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/hw"
	"repro/internal/keccak"
	"repro/internal/obs"
	"repro/internal/pasta"
)

// The traced run measures each layer from outside: it replays a seeded
// sample of the workload's own inputs through the layer's public
// functions and reads the obs counters the program already keeps.

// layerOut is what the traced run adds to the result.
type layerOut struct {
	values map[string]float64
	notes  []string
	checks []layerCheck
	// bounding is the layer estimated to take the largest share of the
	// workload's CPU time per op.
	bounding      string
	boundingShare float64
	shares        map[string]float64
}

type layerCheck struct {
	ok   bool
	what string
}

// minReplay is how long each timed replay loop runs at least, so that
// sub-microsecond calls are timed over many repetitions.
const minReplay = 100 * time.Millisecond

// timeLoop calls f until minReplay has passed (and at least once) and
// returns the mean time per call.
func timeLoop(f func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < minReplay || n == 0 {
		if err := f(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerMetrics computes every per-layer metric of a traced run. w is the
// traced window; traced and untraced summarize the two halves.
func layerMetrics(opt options, wl workload, w *window, traced, untraced summary, setups []float64) (*layerOut, error) {
	lo := &layerOut{values: map[string]float64{}, shares: map[string]float64{}}
	ls, err := wl.sample()
	if err != nil {
		return nil, fmt.Errorf("sample inputs: %w", err)
	}
	d := obsDelta(w.before, w.after)
	if err := lo.wireLayer(ls); err != nil {
		return nil, err
	}
	lo.serverLayer(d, w.queueMax, traced)
	want, err := lo.backendLayer(ls, d, traced)
	if err != nil {
		return nil, err
	}
	if err := lo.hwLayer(ls, want); err != nil {
		return nil, err
	}
	if err := lo.pastaLayer(ls); err != nil {
		return nil, err
	}
	tc, _ := wl.(*transcipherMixed)
	lo.transcipherLayer(d, w.id, tc)
	if err := lo.hheLayer(opt.seed, ls, tc); err != nil {
		return nil, err
	}
	lo.boundingLayer(ls, d, traced, untraced)
	q1, q3 := quartiles(setups)
	lo.notes = append(lo.notes, fmt.Sprintf("set-up: median %.6g s of %d (quartiles %.6g, %.6g)", median(setups), len(setups), q1, q3))
	return lo, nil
}

func (lo *layerOut) set(name string, v float64) { lo.values[name] = v }

func (lo *layerOut) check(ok bool, format string, args ...any) {
	lo.checks = append(lo.checks, layerCheck{ok, fmt.Sprintf(format, args...)})
}

// wireLayer runs the workload's own requests and replies through the
// codec.
func (lo *layerOut) wireLayer(ls layerSample) error {
	if len(ls.ops) == 0 {
		return fmt.Errorf("no completed op to replay through the wire codec")
	}
	var enc, dec time.Duration
	var bytes, ops int
	buf := make([]byte, 0, 1<<16)
	for start := time.Now(); ops == 0 || time.Since(start) < minReplay; {
		for _, op := range ls.ops {
			for _, m := range op {
				t0 := time.Now()
				frame, err := m.encode(buf[:0])
				t1 := time.Now()
				if err != nil {
					return fmt.Errorf("wire replay encode: %w", err)
				}
				if err := m.decode(frame); err != nil {
					return fmt.Errorf("wire replay decode: %w", err)
				}
				enc += t1.Sub(t0)
				dec += time.Since(t1)
				bytes += len(frame)
				buf = frame
			}
			ops++
		}
	}
	lo.set("wire.encode_us", us(enc)/float64(ops))
	lo.set("wire.decode_us", us(dec)/float64(ops))
	lo.set("wire.bytes_per_op", float64(bytes)/float64(ops))
	return nil
}

// serverLayer reads the serving tier's own counters over the traced
// window.
func (lo *layerOut) serverLayer(d delta, queueMax int, traced summary) {
	req := d.hist("server.request_ns")
	lo.set("server.request_ms_p50", req.quantile(0.5)/1e6)
	tailV, tailP, tailN := req.tail()
	lo.set("server.request_ms_tail", tailV/1e6)
	lo.set("server.queue_depth_max", float64(queueMax))
	var rejected int64
	for name, v := range d.counters {
		if strings.HasPrefix(name, "server.requests.rejected.") {
			rejected += v
		}
	}
	total := d.counters["server.requests.total"]
	lo.set("server.rejected_ratio", ratio(rejected, total))
	lo.set("server.batch_elements_mean", d.hist("server.batch.elements").mean())
	lo.set("server.frames_per_flush", ratio(d.counters["server.write.frames"], d.counters["server.write.flushes"]))
	lo.set("client.outside_server_ms_p50", traced.p50-req.quantile(0.5)/1e6)
	lo.set("client.latency_tail_ms", traced.fullTail)
	lo.set("probe.latency_tail_ms", traced.probeTail)
	lo.notes = append(lo.notes,
		fmt.Sprintf("server.request_ms_tail: p%g with %d of %d samples beyond (bucket-interpolated)", tailP, tailN, req.count),
		fmt.Sprintf("server.rejected_ratio base: %d requests", total),
		fmt.Sprintf("client.latency_tail_ms: p%g with %d of %d samples beyond", traced.fullTailPct, traced.fullTailBeyond, len(traced.lat)),
		fmt.Sprintf("probe.latency_tail_ms: p%g with %d of %d samples beyond", traced.probeTailPct, traced.probeTailBeyond, len(traced.probeLat)))
}

// backendLayer opens the workload's backend directly and times
// single-block keystream on the sampled blocks. It returns the oracle
// keystream of each sampled block.
func (lo *layerOut) backendLayer(ls layerSample, d delta, traced summary) ([]ff.Vec, error) {
	oracle, err := pasta.NewCipher(pasta4, ls.key)
	if err != nil {
		return nil, err
	}
	want := make([]ff.Vec, len(ls.blocks))
	for i, b := range ls.blocks {
		want[i] = oracle.KeyStream(b.nonce, b.block)
	}
	units := 0
	if ls.backend == backend.NameAccel {
		units = sensorAccelUnits
	}
	be, err := backend.Open(ls.backend, backend.Config{Cipher: pasta.CipherName,
		CipherParams: cipher.Params{Variant: 4, Width: 17}, Key: ff.Vec(ls.key), Workers: max(units, 1), AccelUnits: units})
	if err != nil {
		return nil, fmt.Errorf("open backend %s: %w", ls.backend, err)
	}
	defer be.Close()
	ic, ok := be.(backend.IntoCipher)
	if !ok {
		return nil, fmt.Errorf("backend %s has no KeyStreamBlocksInto", ls.backend)
	}
	ks := make(ff.Vec, pasta4.T)
	mismatch := 0
	perCall, err := timeLoop(func() error {
		for i, b := range ls.blocks {
			if err := ic.KeyStreamBlocksInto(context.Background(), ks, b.nonce, b.block, 1); err != nil {
				return err
			}
			if !ks.Equal(want[i]) {
				mismatch++
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("backend replay: %w", err)
	}
	lo.check(mismatch == 0, "backend %s keystream equals the sequential oracle on the replayed blocks", ls.backend)
	lo.set("backend.block_us", us(perCall)/float64(len(ls.blocks)))
	lo.set("backend.blocks_per_op", float64(d.counters["backend."+ls.backend+".blocks"])/float64(max(traced.ok, 1)))
	return want, nil
}

// hwLayer runs the accelerator model on the sampled blocks, twice for
// the modelled counters, which must repeat exactly, then in a timed loop
// for host time.
func (lo *layerOut) hwLayer(ls layerSample, want []ff.Vec) error {
	acc, err := hw.NewAccelerator(pasta4, ls.key)
	if err != nil {
		return err
	}
	var cycles [2]float64
	var kept, drawn int64
	mismatch := 0
	for pass := range cycles {
		before := obs.Default().Snapshot()
		for i, b := range ls.blocks {
			res, err := acc.KeyStream(b.nonce, b.block)
			if err != nil {
				return fmt.Errorf("accelerator replay: %w", err)
			}
			if !res.KeyStream.Equal(want[i]) {
				mismatch++
			}
		}
		hd := obsDelta(before, obs.Default().Snapshot())
		cycles[pass] = float64(hd.counters["hw.cycles"]) / float64(max(hd.counters["hw.runs"], 1))
		kept += hd.counters["hw.words_kept"]
		drawn += hd.counters["hw.words_drawn"]
	}
	perCall, err := timeLoop(func() error {
		for _, b := range ls.blocks {
			if _, err := acc.KeyStream(b.nonce, b.block); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("accelerator replay: %w", err)
	}
	lo.check(mismatch == 0, "accelerator model keystream equals the sequential oracle on the replayed blocks")
	lo.check(cycles[0] == cycles[1], "hw.sim_cycles_per_block repeats exactly (%v, %v)", cycles[0], cycles[1])
	host := us(perCall) / float64(len(ls.blocks))
	paper := float64(eval.PaperResults.CyclesPasta4)
	lo.set("hw.host_us_per_block", host)
	lo.set("hw.sim_cycles_per_block", cycles[0])
	lo.set("hw.sim_cycle_error_pct", (cycles[0]-paper)/paper*100)
	lo.set("hw.host_ns_per_sim_cycle", host*1000/cycles[0])
	lo.set("hw.words_kept_ratio", ratio(kept, drawn))
	return nil
}

// pastaLayer times the software kernel and its parts on the sampled
// blocks.
func (lo *layerOut) pastaLayer(ls layerSample) error {
	c, err := pasta.NewCipher(pasta4, ls.key)
	if err != nil {
		return err
	}
	n := float64(len(ls.blocks))
	ks := make(ff.Vec, pasta4.T)
	perCall, err := timeLoop(func() error {
		for _, b := range ls.blocks {
			if err := c.KeyStreamInto(ks, b.nonce, b.block); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lo.set("pasta.block_us", us(perCall)/n)

	var sched []pasta.AffineLayer
	perCall, _ = timeLoop(func() error {
		for _, b := range ls.blocks {
			sched = pasta.DeriveSchedule(pasta4, b.nonce, b.block)
		}
		return nil
	})
	lo.set("xof.schedule_us_per_block", us(perCall)/n)

	const permutations = 1000
	var st keccak.State
	st[0], st[1] = ls.blocks[0].nonce, ls.blocks[0].block
	perCall, _ = timeLoop(func() error {
		for i := 0; i < permutations; i++ {
			st.Permute()
		}
		return nil
	})
	lo.set("keccak.permute_ns", float64(perCall)/permutations)

	mod := pasta4.Mod
	row, next := ff.NewVec(pasta4.T), ff.NewVec(pasta4.T)
	perCall, _ = timeLoop(func() error {
		for _, l := range sched {
			copy(row, l.MatSeedL)
			for r := 0; r < pasta4.T; r++ {
				pasta.NextMatrixRowInto(mod, l.MatSeedL, row, next)
				row, next = next, row
			}
		}
		return nil
	})
	lo.set("pasta.matrix_row_ns", float64(perCall)/float64(len(sched)*pasta4.T))

	sc := pasta.NewAffineScratch(pasta4.T)
	half := ff.Vec(ls.key[:pasta4.T]).Clone()
	perCall, _ = timeLoop(func() error {
		for _, l := range sched {
			pasta.ApplyAffineInto(mod, half, l.MatSeedL, l.RCL, sc)
		}
		return nil
	})
	lo.set("pasta.affine_us", us(perCall)/float64(len(sched)))

	state := ff.Vec(ls.key).Clone()
	perCall, _ = timeLoop(func() error {
		for r := 0; r < pasta4.Rounds; r++ {
			pasta.Mix(mod, state)
			if r < pasta4.Rounds-1 {
				pasta.SboxFeistel(mod, state)
			} else {
				pasta.SboxCube(mod, state)
			}
		}
		return nil
	})
	lo.set("pasta.mix_sbox_us", us(perCall)/float64(pasta4.Rounds))
	return nil
}

// transcipherLayer reads the transcipher tier's counters over the traced
// window; tc is nil on the keystream workloads, where the tier is idle.
func (lo *layerOut) transcipherLayer(d delta, win uint8, tc *transcipherMixed) {
	hits, misses := d.counters["transcipher.cache.hits"], d.counters["transcipher.cache.misses"]
	// The histogram's base-2 buckets are too coarse for a median of a
	// few hundred-millisecond evaluations; its sum gives the exact mean.
	evals := d.hist("transcipher.eval_ns")
	lo.set("transcipher.eval_ms_mean", evals.mean()/1e6)
	lo.set("transcipher.cache_hit_ratio", ratio(hits, hits+misses))
	lo.set("transcipher.cache_lookups", float64(hits+misses))
	lo.set("transcipher.rejected_budget", float64(d.counters["transcipher.rejected.budget"]))
	queueWait, upload := 0.0, 0.0
	if tc != nil {
		var cold []float64
		for k, r := range tc.recs {
			if r.win == win && r.state == opOK && !tc.reqs[k].repeat {
				cold = append(cold, ms(r.lat))
			}
		}
		queueWait = max(median(cold)-evals.mean()/1e6, 0)
		upload = median(durSeconds(tc.upload))
	}
	lo.set("transcipher.queue_wait_ms_p50", queueWait)
	lo.set("transcipher.upload_s", upload)
	lo.notes = append(lo.notes, fmt.Sprintf("transcipher.cache_hit_ratio base: %d lookups", hits+misses))
}

// hheLayer runs the toy HHE instance on one block of the workload's own
// data: keystream evaluation, the cached transcipher path, the
// allocation count, and the BFV and RLWE operations on the resulting
// ciphertext. tc, when set, supplies the workload's own client and keys.
func (lo *layerOut) hheLayer(seed uint64, ls layerSample, tc *transcipherMixed) error {
	par, key, err := tcInstance(seed)
	if err != nil {
		return err
	}
	var client *hhe.Client
	var blob []byte
	var keygen float64
	if tc != nil {
		client, blob, keygen = tc.client, tc.blob, median(durSeconds(tc.keygen))
	} else {
		t0 := time.Now()
		if client, err = hhe.NewClient(par, key, bfvSeed(seed)); err != nil {
			return err
		}
		if blob, err = client.EvalKeysBlob(); err != nil {
			return err
		}
		keygen = time.Since(t0).Seconds()
	}
	lo.set("hhe.keygen_s", keygen)
	bp, ctx, keys, err := hhe.UnmarshalPackedEvalKeys(blob)
	if err != nil {
		return err
	}
	srv, err := hhe.NewPackedServer(hhe.Params{Pasta: par.Pasta, BFV: bp}, ctx, keys)
	if err != nil {
		return err
	}
	sym, err := pasta.NewCipher(par.Pasta, key)
	if err != nil {
		return err
	}
	msg := make(ff.Vec, par.Pasta.T)
	for i := range msg {
		msg[i] = ls.hheMsg[i] % par.Pasta.Mod.P()
	}
	symCt, err := sym.EncryptBlock(ls.hheNonce, ls.hheBlock, msg)
	if err != nil {
		return err
	}

	t0 := time.Now()
	ksCt, err := srv.EvalKeystream(ls.hheNonce, ls.hheBlock)
	if err != nil {
		return err
	}
	lo.set("hhe.eval_keystream_ms", ms(time.Since(t0)))
	var ct *bfv.Ciphertext
	perCall, err := timeLoop(func() error {
		ct, err = srv.TranscipherWith(ksCt, symCt)
		return err
	})
	if err != nil {
		return err
	}
	lo.set("hhe.cached_transcipher_ms", ms(perCall))
	got, err := client.DecryptPacked(ct, len(msg))
	lo.check(err == nil && got.Equal(msg), "replayed transcipher decrypts to the workload's plaintext")
	allocs, err := evalAllocs(srv, ls.hheNonce, ls.hheBlock)
	if err != nil {
		return err
	}
	lo.check(allocs[0] == allocs[1], "hhe.allocs_per_block repeats exactly (%d, %d)", allocs[0], allocs[1])
	lo.set("hhe.allocs_per_block", float64(allocs[0]))

	enc, err := bfv.NewEncoder(ctx)
	if err != nil {
		return err
	}
	pt, err := enc.EncodeReplicated(msg)
	if err != nil {
		return err
	}
	if perCall, err = timeLoop(func() error { _, err := ctx.Mul(ct, ct, keys.RLK); return err }); err != nil {
		return err
	}
	lo.set("bfv.mul_ms", ms(perCall))
	if perCall, err = timeLoop(func() error { _, err := ctx.RotateColumns(ct, 1, keys.GKs); return err }); err != nil {
		return err
	}
	lo.set("bfv.rotate_ms", ms(perCall))
	perCall, _ = timeLoop(func() error { ctx.MulPlain(ct, pt); return nil })
	lo.set("bfv.mulplain_ms", ms(perCall))
	perCall, _ = timeLoop(func() error { ctx.Add(ct, ct); return nil })
	lo.set("bfv.add_us", us(perCall))
	poly := ct.Clone().C[0]
	perCall, _ = timeLoop(func() error { ctx.RQ.NTT(poly); return nil })
	lo.set("rlwe.ntt_us", us(perCall))
	return nil
}

// boundingLayer reports the tracing overhead and names the layer that
// bounds the workload: it estimates each layer's CPU time per op from
// the replays and counters, with the serving path (scheduler, batcher,
// outbox, client and harness) as what remains of the measured CPU per op.
func (lo *layerOut) boundingLayer(ls layerSample, d delta, traced, untraced summary) {
	v := lo.values
	lo.set("trace.overhead_pct", (traced.cpuPerOp/untraced.cpuPerOp-1)*100)
	blocksPerOp := v["backend.blocks_per_op"]
	kernel, kernelName := blocksPerOp*v["pasta.block_us"], "pasta"
	if ls.backend == backend.NameAccel {
		kernel, kernelName = blocksPerOp*v["hw.host_us_per_block"], "hw"
	}
	evals := d.hist("transcipher.eval_ns")
	hits := d.counters["transcipher.cache.hits"]
	lo.shares["wire"] = v["wire.encode_us"] + v["wire.decode_us"]
	lo.shares[kernelName] = kernel
	lo.shares["backend"] = max(blocksPerOp*v["backend.block_us"]-kernel, 0)
	lo.shares["bfv"] = (float64(evals.sum)/1e3 + float64(hits)*v["hhe.cached_transcipher_ms"]*1e3) / float64(max(traced.ok, 1))
	var named float64
	for _, us := range lo.shares {
		named += us
	}
	lo.shares["server"] = max(traced.cpuPerOp-named, 0)
	for name, us := range lo.shares {
		if share := us / traced.cpuPerOp * 100; share > lo.boundingShare {
			lo.bounding, lo.boundingShare = name, share
		}
	}
	lo.set("trace.bounding_share_pct", lo.boundingShare)
	lo.notes = append(lo.notes,
		fmt.Sprintf("tracing overhead %.3g%%: CPU per op %.6g us traced, %.6g us untraced", v["trace.overhead_pct"], traced.cpuPerOp, untraced.cpuPerOp),
		fmt.Sprintf("bounding layer: %s (%.3g%% of CPU per op; estimated us per op %s)", lo.bounding, lo.boundingShare, formatShares(lo.shares)))
}

// evalAllocs counts the heap allocations of one homomorphic keystream
// evaluation, twice, after a warm-up evaluation. It runs on one P with
// the collector off so that pooled buffers are neither dropped nor
// handed between Ps, which makes the count repeat exactly.
func evalAllocs(srv *hhe.PackedServer, nonce, block uint64) ([2]uint64, error) {
	var out [2]uint64
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	if _, err := srv.EvalKeystream(nonce, block); err != nil {
		return out, err
	}
	for i := range out {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := srv.EvalKeystream(nonce, block); err != nil {
			return out, err
		}
		runtime.ReadMemStats(&m1)
		out[i] = m1.Mallocs - m0.Mallocs
	}
	return out, nil
}

func formatShares(shares map[string]float64) string {
	names := make([]string, 0, len(shares))
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s=%.4g", n, shares[n])
	}
	return strings.Join(parts, " ")
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// delta is the change of the obs registry over a window.
type delta struct {
	counters map[string]int64
	hists    map[string]histDelta
}

type histDelta struct {
	count, sum int64
	buckets    []obs.Bucket // counts within the window
}

func obsDelta(a, b obs.Snapshot) delta {
	d := delta{counters: map[string]int64{}, hists: map[string]histDelta{}}
	for name, v := range b.Counters {
		d.counters[name] = v - a.Counters[name]
	}
	for name, hb := range b.Histograms {
		ha := a.Histograms[name]
		before := map[int64]int64{}
		for _, bk := range ha.Buckets {
			before[bk.Le] = bk.Count
		}
		hd := histDelta{count: hb.Count - ha.Count, sum: hb.Sum - ha.Sum}
		for _, bk := range hb.Buckets {
			if c := bk.Count - before[bk.Le]; c > 0 {
				hd.buckets = append(hd.buckets, obs.Bucket{Le: bk.Le, Count: c})
			}
		}
		d.hists[name] = hd
	}
	return d
}

func (d delta) hist(name string) histDelta { return d.hists[name] }

func (h histDelta) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// quantile estimates quantile q by linear interpolation inside the
// base-2 bucket that holds it.
func (h histDelta) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	var cum float64
	for _, b := range h.buckets {
		lo := float64((b.Le + 1) / 2)
		if cum+float64(b.Count) >= target {
			return lo + (float64(b.Le)-lo)*(target-cum)/float64(b.Count)
		}
		cum += float64(b.Count)
	}
	return float64(h.buckets[len(h.buckets)-1].Le)
}

// tail applies the uncapped tail rule to the histogram.
func (h histDelta) tail() (value, pct float64, beyond int) {
	n := int(h.count)
	if n == 0 {
		return 0, 0, 0
	}
	pct = tailPct(n, 100)
	return h.quantile(pct / 100), pct, n - rank(pct, n)
}

// writeTrace writes the traced window's spans, the obs deltas and the
// per-layer results as JSON.
func writeTrace(opt options, w *window, lo *layerOut) error {
	d := obsDelta(w.before, w.after)
	hists := map[string]map[string]float64{}
	for name, h := range d.hists {
		if h.count > 0 {
			hists[name] = map[string]float64{"count": float64(h.count), "sum": float64(h.sum), "p50": h.quantile(0.5)}
		}
	}
	out := map[string]any{
		"workload":        opt.workload,
		"seed":            opt.seed,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"cpu":             cpuModel(),
		"spans":           w.spans.spans,
		"obs_counters":    d.counters,
		"obs_histograms":  hists,
		"per_layer":       lo.values,
		"bounding_layer":  lo.bounding,
		"layer_us_per_op": lo.shares,
	}
	if err := os.MkdirAll(filepath.Dir(opt.traceOut), 0o755); err != nil {
		return err
	}
	f, err := os.Create(opt.traceOut)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
