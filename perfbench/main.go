// Command perfbench is the repository's benchmark: it runs one named
// workload against a real server.Server on loopback TCP, checks every
// reply against an oracle, and prints the workload's metrics by name
// with their units. The last line of its output is one JSON object.
//
//	perfbench --workload video-frames --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 splits the window
// into an untraced and a traced half, replays a seeded sample of the
// workload's own inputs through each layer's public functions, and
// prints the per-layer metrics, the tracing overhead and the layer that
// bounds the workload; the spans and the obs counter deltas go to
// --trace-out. --steady N runs the workload N times, in child processes
// with seeds seed … seed+N-1, and prints each metric's median and
// quartiles. See NOTES.md for the workloads and what each metric is
// expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
)

// maxProcs caps GOMAXPROCS: the benchmark is sized for a 2-core host,
// with server, clients and verification sharing the process.
const maxProcs = 2

// A run sets the workload up at least setupMin times and until setupTime
// has been spent setting up, at most setupMax times, and reports the
// median as setup_s. Set-up of the keystream workloads takes well under
// a millisecond to a few milliseconds, where a few set-ups say little
// about the host's state; transcipher-mixed needs ~0.3 s per set-up.
const (
	setupMin  = 9
	setupMax  = 101
	setupTime = 500 * time.Millisecond
)

// warmup is the traffic run between set-up and the timed window, so that
// lazily built state (the accelerator models' event scratch, buffer
// pools, socket buffers) is in place before timing: without it the first
// second of sensor-stream ran at about half the rate of the rest. Its
// replies are verified and cross-checked like any other.
const warmup = time.Second

// warmupWindow is the window id of the warm-up traffic.
const warmupWindow = 255

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	steady   int
	traceOut string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", fmt.Sprintf("workload to run %v", workloadNames))
	fs.Uint64Var(&opt.seed, "seed", 1, "seed every generated input derives from")
	fs.IntVar(&opt.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.IntVar(&opt.steady, "steady", 0, "run the workload this many times (seeds seed, seed+1, …) and print each metric's quartiles")
	fs.StringVar(&opt.traceOut, "trace-out", "", "where the traced run writes its spans (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if _, err := newWorkload(opt.workload, opt.seed); err != nil {
		return opt, err
	}
	if opt.seconds < 1 {
		return opt, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return opt, fmt.Errorf("--trace must be 0 or 1")
	}
	opt.trace = trace == 1
	if opt.traceOut == "" {
		opt.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", opt.workload, opt.seed))
	}
	return opt, nil
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	if opt.steady > 0 {
		if err := steady(opt, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints: human-readable notes, then the JSON
// line.
type result struct {
	notes     []string
	order     []string
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// check records a cross-check; a failed one makes the run incorrect.
func (r *result) check(ok bool, format string, args ...any) {
	status := "ok"
	if !ok {
		status = "FAILED"
		r.Correct = false
	}
	r.note("check %s: %s", status, fmt.Sprintf(format, args...))
}

func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// run sets the workload up, measures it, verifies every reply and
// computes the metrics of the requested mode.
func run(opt options) (*result, error) {
	wl, err := newWorkload(opt.workload, opt.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.note("perfbench workload=%s seed=%d seconds=%d trace=%v", opt.workload, opt.seed, opt.seconds, opt.trace)
	res.note("host nproc=%d GOMAXPROCS=%d go=%s cpu=%q traffic=loopback-tcp", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	cfg := wl.config()
	var h *harness
	var pr *probe
	var setups []float64
	var spent time.Duration
	for k := 0; k < setupMax && (k < setupMin || spent < setupTime); k++ {
		if h != nil {
			if err := h.close(); err != nil {
				return nil, fmt.Errorf("close set-up %d: %w", k, err)
			}
		}
		start := time.Now()
		if h, err = startHarness(cfg); err != nil {
			return nil, err
		}
		if err = wl.open(h); err == nil {
			pr, err = openProbe(h, opt.seed, cfg.Backend == backend.NameAccel)
		}
		if err != nil {
			h.close()
			return nil, err
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}

	total := time.Duration(opt.seconds) * time.Second
	warm := &window{id: warmupWindow}
	measure(h, wl, pr, warm, warmup)
	wins := []*window{{id: 0}}
	if opt.trace {
		wins = append(wins, &window{id: 1, spans: newSpanLog()})
	}
	for _, w := range wins {
		measure(h, wl, pr, w, total/time.Duration(len(wins)))
	}
	rss := peakRSSMB()
	if err := h.close(); err != nil {
		return nil, fmt.Errorf("shutdown: %w", err)
	}
	if err := wl.verify(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if err := pr.verify(); err != nil {
		return nil, fmt.Errorf("verify probe: %w", err)
	}

	recs, probes := wl.records(), pr.recs
	for _, rs := range [][]opRec{recs, probes} {
		for _, r := range rs {
			res.Attempted++
			if r.state != opOK {
				res.Failed++
			}
			if r.state == opWrong {
				res.Correct = false
			}
		}
	}
	for _, w := range append([]*window{warm}, wins...) {
		crossCheck(res, w)
	}

	base := summarize(wins[0], recs, probes)
	res.note("window 0: %d ops (%d failed, %d wrong), %d probes (%d failed, %d wrong) in %.3fs; probe generator lag max %v",
		base.attempted, base.failed, base.wrong, base.probeAttempted, base.probeFailed, base.probeWrong, wins[0].seconds(), pr.late)
	if !opt.trace {
		q1, q3 := quartiles(setups)
		res.note("setup_s: median of %d set-ups (quartiles %.6g, %.6g s)", len(setups), q1, q3)
		res.note("latency_tail_ms: p%g with %d of %d samples beyond (capped at p%d; uncapped p%g = %.6g ms with %d beyond)",
			base.tailPct, base.tailBeyond, len(base.lat), e2eTailMaxPct, base.fullTailPct, base.fullTail, base.fullTailBeyond)
		res.note("probe: p50 %.6g ms, tail p%g = %.6g ms with %d of %d beyond",
			base.probeP50, base.probeTailPct, base.probeTail, base.probeTailBeyond, len(base.probeLat))
		res.note("error_ratio %.6g: (failed %d + wrong %d) / %d attempted, probes included",
			1-base.okRatio, base.failed+base.probeFailed, base.wrong+base.probeWrong, base.attempted+base.probeAttempted)
		res.set("setup_s", "s", median(setups))
		res.set("ops_per_s", "1/s", float64(base.ok)/wins[0].seconds())
		res.set("elems_per_s", "1/s", float64(base.elems)/wins[0].seconds())
		res.set("latency_p50_ms", "ms", base.p50)
		res.set("latency_tail_ms", "ms", base.tail)
		res.set("cpu_us_per_op", "us", base.cpuPerOp)
		res.set("ok_ratio", "ratio", base.okRatio)
		res.set("peak_rss_MB", "MB", rss)
		res.set("probe_latency_p50_ms", "ms", base.probeP50)
		return res, nil
	}

	traced := summarize(wins[1], recs, probes)
	lm, err := layerMetrics(opt, wl, wins[1], traced, base, setups)
	if err != nil {
		return nil, err
	}
	for _, n := range lm.notes {
		res.note("%s", n)
	}
	for _, m := range perLayer {
		v, ok := lm.values[m.name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s was not measured", m.name)
		}
		res.set(m.name, m.unit, v)
	}
	for _, c := range lm.checks {
		res.check(c.ok, "%s", c.what)
	}
	if err := writeTrace(opt, wins[1], lm); err != nil {
		return nil, err
	}
	res.note("trace written to %s (%d spans)", opt.traceOut, len(wins[1].spans.spans))
	return res, nil
}

// measure runs one timed window of workload traffic plus the probe.
func measure(h *harness, wl workload, pr *probe, w *window, d time.Duration) {
	runtime.GC()
	stopSampler := sampleQueue(h, w)
	w.before = obs.Default().Snapshot()
	cpu0 := cpuTime()
	w.start = time.Now()
	deadline := w.start.Add(d)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wl.drive(w, deadline)
	}()
	go func() {
		defer wg.Done()
		pr.run(w, deadline)
	}()
	wg.Wait()
	w.end = time.Now()
	w.cpu = cpuTime() - cpu0
	w.after = obs.Default().Snapshot()
	stopSampler()
}

// sampleQueue samples the scheduler queue depth during traced windows
// and returns the function that stops it.
func sampleQueue(h *harness, w *window) (stop func()) {
	if w.spans == nil {
		return func() {}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				w.queueMax = max(w.queueMax, h.srv.QueueDepth())
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// crossCheck compares the harness's own counts for window w with the
// counters the program keeps.
func crossCheck(res *result, w *window) {
	delta := func(name string) int64 { return w.after.Counters[name] - w.before.Counters[name] }
	got := delta("server.requests.total")
	res.check(got == int64(w.requests), "window %d server.requests.total %d, requests sent %d", w.id, got, w.requests)
	got = delta("transcipher.cache.hits")
	res.check(got == int64(w.repeats), "window %d transcipher.cache.hits %d, repeats sent %d", w.id, got, w.repeats)
	got = delta("hw.runs")
	res.check(got == int64(w.accelBlocks), "window %d hw.runs %d, accel blocks sent %d", w.id, got, w.accelBlocks)
}

// summary is the end-to-end view of one window.
type summary struct {
	attempted, ok, failed, wrong            int
	elems                                   int64
	lat                                     []float64 // ms, sorted; failed ops count as the window length
	p50, tail, tailPct                      float64   // tail capped at e2eTailMaxPct
	tailBeyond                              int
	fullTail, fullTailPct                   float64 // uncapped tail rule
	fullTailBeyond                          int
	cpuPerOp                                float64 // µs
	probeAttempted, probeFailed, probeWrong int
	probeLat                                []float64
	probeP50                                float64
	probeTail, probeTailPct                 float64 // uncapped tail rule
	probeTailBeyond                         int
	okRatio                                 float64
}

func summarize(w *window, recs, probes []opRec) summary {
	var s summary
	missed := float64(w.end.Sub(w.start)) / float64(time.Millisecond)
	for _, r := range recs {
		if r.win != w.id {
			continue
		}
		s.attempted++
		switch r.state {
		case opOK:
			s.ok++
			s.elems += int64(r.elems)
			s.lat = append(s.lat, float64(r.lat)/float64(time.Millisecond))
		case opFailed:
			s.failed++
			s.lat = append(s.lat, missed)
		case opWrong:
			s.wrong++
			s.lat = append(s.lat, missed)
		}
	}
	for _, r := range probes {
		if r.win != w.id {
			continue
		}
		s.probeAttempted++
		switch r.state {
		case opOK:
			s.probeLat = append(s.probeLat, float64(r.lat)/float64(time.Millisecond))
		case opFailed:
			s.probeFailed++
			s.probeLat = append(s.probeLat, missed)
		case opWrong:
			s.probeWrong++
			s.probeLat = append(s.probeLat, missed)
		}
	}
	sort.Float64s(s.lat)
	sort.Float64s(s.probeLat)
	s.p50 = percentile(s.lat, 50)
	s.tail, s.tailPct, s.tailBeyond = tail(s.lat, e2eTailMaxPct)
	s.fullTail, s.fullTailPct, s.fullTailBeyond = tail(s.lat, 100)
	s.probeP50 = percentile(s.probeLat, 50)
	s.probeTail, s.probeTailPct, s.probeTailBeyond = tail(s.probeLat, 100)
	s.cpuPerOp = float64(w.cpu) / float64(time.Microsecond) / float64(max(s.ok, 1))
	all := s.attempted + s.probeAttempted
	s.okRatio = float64(all-s.failed-s.wrong-s.probeFailed-s.probeWrong) / float64(max(all, 1))
	return s
}
