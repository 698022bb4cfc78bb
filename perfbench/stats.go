package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailMinBeyond is how many samples must lie above a percentile before
// it may be reported as the tail.
const tailMinBeyond = 10

// e2eTailMaxPct caps the percentile of the end-to-end tail metric. Above
// p90 the figure is set by a handful of collector pauses and host
// preemptions and does not repeat on a shared 2-core host: five runs of
// sensor-stream gave spreads (quartile distance over median) of 0.17 at
// p90, 0.30 at p99 and 0.75-1.2 at p99.99. The uncapped tail is reported
// by the traced run.
const e2eTailMaxPct = 90

// tailGrid lists the percentiles the tail rule chooses from, ascending.
var tailGrid = func() []float64 {
	var g []float64
	for p := 50; p <= 99; p++ {
		g = append(g, float64(p))
	}
	return append(g, 99.5, 99.9, 99.95, 99.99, 99.999)
}()

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPct is the tail rule's percentile for n samples: the highest grid
// percentile, at most maxPct, with at least tailMinBeyond samples above
// its rank, or the lowest grid percentile when n is too small for that.
func tailPct(n int, maxPct float64) float64 {
	pct := tailGrid[0]
	for _, p := range tailGrid {
		if p <= maxPct && n-rank(p, n) >= tailMinBeyond {
			pct = p
		}
	}
	return pct
}

// tail applies the tail rule to sorted samples and returns the value,
// the percentile and the number of samples beyond it.
func tail(sorted []float64, maxPct float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	pct = tailPct(n, maxPct)
	r := rank(pct, n)
	return sorted[r-1], pct, n - r
}

// median returns the median of values (not necessarily sorted).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := sortedCopy(values)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the method of
// Python's statistics.quantiles(values, n=4) ("exclusive"), which is how
// the benchmark's spread is judged.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// cpuTime returns the process's user+system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's VmHWM from /proc/self/status in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuModel returns the host CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
