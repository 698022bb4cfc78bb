package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pasta"
	"repro/internal/server"
	"repro/internal/wire"
)

// conns is how many client connections a workload spreads its sessions
// over; at most the host's core count the benchmark is sized for.
const conns = 2

// harness is one running server on loopback TCP with the benchmark's
// client connections to it. Client and server share the process.
type harness struct {
	srv       *server.Server
	conns     [conns]*server.Client
	serveDone chan error
}

func startHarness(cfg server.Config) (*harness, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{srv: srv, serveDone: make(chan error, 1)}
	go func() { h.serveDone <- srv.Serve(ln) }()
	for i := range h.conns {
		c, err := server.Dial(ln.Addr().String())
		if err != nil {
			h.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		c.Timeout = time.Minute
		h.conns[i] = c
	}
	return h, nil
}

// close drops the connections, drains the server and waits for it.
func (h *harness) close() error {
	for _, c := range h.conns {
		if c != nil {
			c.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.serveDone; serr != nil && err == nil {
		err = serr
	}
	return err
}

// Op outcomes.
const (
	opOK uint8 = iota
	opFailed
	opWrong
)

// opRec is one timed operation: its latency, its size in plaintext
// elements, the window it ran in, its outcome and a checksum of its
// reply, which verification compares with the oracle's.
type opRec struct {
	lat   time.Duration
	elems int32
	win   uint8
	state uint8
	sum   uint64
	aux   uint64 // a video frame's stream offset; a probe's request index
}

const fnvOffset uint64 = 14695981039346656037

// checksum is FNV-1a over the little-endian bytes of v's elements.
func checksum(v ff.Vec) uint64 { return checksumAdd(fnvOffset, v) }

// checksumAdd continues checksum h over v.
func checksumAdd(h uint64, v ff.Vec) uint64 {
	for _, x := range v {
		for k := 0; k < 64; k += 8 {
			h = (h ^ (x >> k & 0xff)) * 1099511628211
		}
	}
	return h
}

// window is one timed stretch of closed-loop traffic.
type window struct {
	id          uint8
	start, end  time.Time // end is the last completion, after the deadline
	cpu         time.Duration
	before      obs.Snapshot
	after       obs.Snapshot
	requests    int // wire requests sent (server.requests.total cross-check)
	accelBlocks int // blocks sent to the accel backend (hw.runs cross-check)
	repeats     int // transcipher repeats sent (cache-hit cross-check)
	queueMax    int // sampled scheduler queue depth
	spans       *spanLog
	mu          sync.Mutex
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// addCounts folds one goroutine's request counts into w.
func (w *window) addCounts(requests, accelBlocks int) {
	w.mu.Lock()
	w.requests += requests
	w.accelBlocks += accelBlocks
	w.mu.Unlock()
}

// probe is an open-loop PASTA-4 keystream client: one single-block
// Encrypt every probeInterval, each timed from when it was due, so a
// stall shows in the latency of every request scheduled behind it.
type probe struct {
	seed  uint64
	sess  *server.Session
	key   pasta.Key
	accel bool
	next  int // index of the next probe request
	mu    sync.Mutex
	recs  []opRec
	late  time.Duration // worst lag of the generator behind schedule
}

const (
	probeInterval = 20 * time.Millisecond
	// probeMaxInFlight bounds outstanding probes (ten seconds of them); a
	// probe that would exceed it is counted as failed rather than sent
	// late.
	probeMaxInFlight = 512
)

func openProbe(h *harness, seed uint64, accel bool) (*probe, error) {
	key := deviceKey(pasta4, seed, "probe", 0)
	sess, err := h.conns[conns-1].OpenSession(pasta4Open(key, sessionNonce(seed, "probe", 0)))
	if err != nil {
		return nil, fmt.Errorf("open probe session: %w", err)
	}
	return &probe{seed: seed, sess: sess, key: key, accel: accel}, nil
}

// run sends probes on schedule until deadline and waits for all of them.
func (p *probe) run(w *window, deadline time.Time) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, probeMaxInFlight)
	start := time.Now()
	var requests int
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * probeInterval)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		} else if -d > p.late {
			p.late = -d
		}
		idx := p.next
		p.next++
		select {
		case sem <- struct{}{}:
		default:
			p.record(opRec{lat: deadline.Sub(due), win: w.id, state: opFailed, aux: uint64(idx)})
			continue
		}
		requests++
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			msg := make(ff.Vec, pasta4.T)
			nonce := blockRequest(p.seed, streamProbe, 0, idx, msg)
			ct, err := p.sess.Encrypt(nonce, msg)
			r := opRec{lat: time.Since(due), elems: int32(len(msg)), win: w.id, aux: uint64(idx)}
			if err != nil {
				r.state = opFailed
			} else {
				r.sum = checksum(ct)
			}
			p.record(r)
		}()
	}
	wg.Wait()
	accel := 0
	if p.accel {
		accel = requests
	}
	w.addCounts(requests, accel)
}

func (p *probe) record(r opRec) {
	p.mu.Lock()
	p.recs = append(p.recs, r)
	p.mu.Unlock()
}

// verify checks every probe reply against the sequential PASTA oracle.
func (p *probe) verify() error {
	oracle, err := pasta.NewCipher(pasta4, p.key)
	if err != nil {
		return err
	}
	msg := make(ff.Vec, pasta4.T)
	for i := range p.recs {
		r := &p.recs[i]
		if r.state != opOK {
			continue
		}
		nonce := blockRequest(p.seed, streamProbe, 0, int(r.aux), msg)
		want, err := oracle.EncryptSequential(nonce, msg)
		if err != nil {
			return err
		}
		if checksum(want) != r.sum {
			r.state = opWrong
		}
	}
	return nil
}

// pasta4Open is the SessionOpen of a PASTA-4 session over p = 65537.
func pasta4Open(key pasta.Key, nonce uint64) wire.SessionOpen {
	return wire.SessionOpen{Variant: 4, Width: 17, Nonce: nonce, Key: []uint64(key)}
}

// parallel runs f(i) for i in [0, n) on at most workers goroutines and
// returns every error joined.
func parallel(n, workers int, f func(i int) error) error {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(i); err != nil {
					mu.Lock()
					first = errors.Join(first, err)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}
