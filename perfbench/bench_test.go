package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pasta"
	"repro/internal/wire"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{5, 50, 2}, // too few samples: the median, with the count beyond it
		{20, 50, 10},
		{34, 70, 10},
		{100, 90, 10},
		{1000, 99, 10},
		{21000, 99.95, 10},
		{136142, 99.99, 13},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		v, pct, beyond := tail(sorted, 100)
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: tail at p%g with %d beyond, want p%g with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
		if want := float64(tc.n - beyond); v != want {
			t.Errorf("n=%d: tail value %g, want %g", tc.n, v, want)
		}
		// The rule picks the highest grid percentile that keeps enough
		// samples beyond it: the next one up must not.
		for _, p := range tailGrid {
			if p > pct && tc.n-rank(p, tc.n) >= tailMinBeyond {
				t.Errorf("n=%d: p%g also has %d samples beyond but was not chosen", tc.n, p, tc.n-rank(p, tc.n))
			}
		}
	}
}

func TestTailCap(t *testing.T) {
	sorted := make([]float64, 5000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if _, pct, beyond := tail(sorted, e2eTailMaxPct); pct != e2eTailMaxPct || beyond != 500 {
		t.Errorf("capped tail at p%g with %d beyond, want p%d with 500", pct, beyond, e2eTailMaxPct)
	}
	if _, pct, beyond := tail(sorted[:30], e2eTailMaxPct); pct != 66 || beyond != 10 {
		t.Errorf("capped tail of 30 samples at p%g with %d beyond, want p66 with 10", pct, beyond)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the method the benchmark's spread is judged with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 0.5, 2.2, 9.9}, 0.925, 8.2},
		{[]float64{5, 1, 4}, 1, 5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.in, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloadNames {
		a, err := requestFrames(w, 7, 40)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		b, err := requestFrames(w, 7, 40)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if len(a) == 0 || !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different requests", w)
		}
		c, err := requestFrames(w, 8, 40)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds gave identical requests", w)
		}
	}
}

func TestTranscipherPlan(t *testing.T) {
	plan := tcPlan{seed: 5}
	var fresh []uint64
	for g := 0; g < 50; g++ {
		repeats := 0
		for k := 0; k < 4; k++ {
			r := plan.next()
			if !r.repeat {
				if r.block != uint64(len(fresh)) {
					t.Fatalf("fresh block %d, want %d", r.block, len(fresh))
				}
				fresh = append(fresh, r.block)
				continue
			}
			repeats++
			if k == 0 {
				t.Fatalf("group %d opens with a repeat", g)
			}
			if r.block >= uint64(len(fresh)) || uint64(len(fresh))-r.block > transcipherRepeatWindow {
				t.Fatalf("repeat of block %d reaches outside the last %d of %d fresh blocks", r.block, transcipherRepeatWindow, len(fresh))
			}
		}
		if repeats != 1 {
			t.Fatalf("group %d has %d repeats, want 1", g, repeats)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestNames checks that BENCHMARK.json and the program agree on every
// workload and metric, and that each name is well formed.
func TestNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !valid.MatchString(n) {
			t.Errorf("name %q does not match %s", n, valid)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	// Every gated workload must exist; a workload may run without being
	// gated (see NOTES.md for why sensor-stream is not).
	known := map[string]bool{}
	for _, w := range workloadNames {
		known[w] = true
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json gates %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		name(w.Name)
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json workload %q is not one the program runs", w.Name)
		}
	}
	check := func(kind string, i int, n, unit, better string, def []metricDef) {
		name(n)
		if i >= len(def) || def[i] != (metricDef{n, unit, better}) {
			t.Errorf("%s metric %d: BENCHMARK.json %v does not match the program", kind, i, metricDef{n, unit, better})
		}
	}
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
}

func TestHistQuantile(t *testing.T) {
	h := obsDelta(obsSnap(nil), obsSnap(map[int64]int64{1023: 50, 2047: 50})).hist("h")
	if got := h.quantile(0.5); got != 1023 {
		t.Errorf("p50 = %g, want 1023", got)
	}
	if got := h.quantile(0.75); math.Abs(got-1535.5) > 1e-9 {
		t.Errorf("p75 = %g, want 1535.5", got)
	}
	if _, pct, beyond := h.tail(); pct != 90 || beyond != 10 {
		t.Errorf("tail at p%g with %d beyond, want p90 with 10", pct, beyond)
	}
}

// obsSnap is a snapshot holding one histogram "h" with the given
// bucket counts (keyed by upper bound).
func obsSnap(buckets map[int64]int64) obs.Snapshot {
	h := obs.HistogramSnapshot{}
	for le, c := range buckets {
		h.Buckets = append(h.Buckets, obs.Bucket{Le: le, Count: c})
		h.Count += c
	}
	sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].Le < h.Buckets[j].Le })
	return obs.Snapshot{Histograms: map[string]obs.HistogramSnapshot{"h": h}}
}

// TestWorkloadsEndToEnd runs every workload for a second, untraced and
// traced, and checks that every reply verifies and every metric of the
// mode is reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the servers for several seconds")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			if trace && raceEnabled {
				continue // the traced run requires hhe.allocs_per_block to repeat exactly
			}
			opt := options{workload: w, seed: 3, seconds: 1, trace: trace, traceOut: t.TempDir() + "/trace.json"}
			res, err := run(opt)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				var buf bytes.Buffer
				res.print(&buf)
				t.Fatalf("%s trace=%v: correct=%v attempted=%d\n%s", w, trace, res.Correct, res.Attempted, buf.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q, want %q", w, trace, m.name, got.Unit, m.unit)
				}
			}
		}
	}
}

// requestFrames encodes the first n requests of a workload for seed as
// wire frames, exactly as the client library packs them (session ids,
// request ids and replay counters numbered from 1).
func requestFrames(name string, seed uint64, n int) ([]byte, error) {
	var out []byte
	var err error
	switch name {
	case "sensor-stream":
		msg := make(ff.Vec, pasta4.T)
		for i := 0; i < n; i++ {
			dev := i % sensorDevices
			nonce := blockRequest(seed, streamSensor, dev, i/sensorDevices, msg)
			if out, err = wire.AppendEncryptFrame(out, uint32(dev+1), uint64(i+1), uint64(i/sensorDevices+1), nonce, msg, pasta4Bits); err != nil {
				return nil, err
			}
		}
	case "video-frames":
		for i, id := 0, uint64(0); id < uint64(n); i++ {
			for _, c := range chunks(frame(seed, i%videoCameras, i/videoCameras)) {
				id++
				if out, err = wire.AppendStreamFrame(out, uint32(i%videoCameras+1), id, id, c, pasta4Bits); err != nil {
					return nil, err
				}
			}
		}
	case "transcipher-mixed":
		par, key, err := tcInstance(seed)
		if err != nil {
			return nil, err
		}
		c, err := pasta.NewCipher(par.Pasta, key)
		if err != nil {
			return nil, err
		}
		nonce := sessionNonce(seed, "transcipher", 0)
		plan := tcPlan{seed: seed}
		for i := 0; i < n; i++ {
			r := plan.next()
			sym, err := c.EncryptBlock(nonce, r.block, tcMessage(seed, r.block, par.Pasta.T, par.Pasta.Mod.P()))
			if err != nil {
				return nil, err
			}
			count, packed, err := wire.PackVec(sym, pasta4Bits)
			if err != nil {
				return nil, err
			}
			req := &wire.TranscipherReq{Session: 1, ID: uint64(i + 1), Counter: uint64(i + 1),
				Nonce: nonce, First: r.block, Count: count, Bits: pasta4Bits, Packed: packed}
			if out, err = wire.AppendMessageFrame(out, wire.TypeTranscipher, req); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return out, nil
}
