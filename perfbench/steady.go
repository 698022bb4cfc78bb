package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steady runs the workload opt.steady times, each in a child process of
// this binary with the next seed, and prints every metric's median,
// quartiles and spread — the quartile distance as a share of the
// median, which is how BENCHMARK.json's bounds were chosen.
func steady(opt options, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for k := 0; k < opt.steady; k++ {
		seed := opt.seed + uint64(k)
		trace := "0"
		if opt.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", opt.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(opt.seconds), "--trace", trace, "--trace-out", opt.traceOut)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		var res result
		if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reported incorrect output", seed)
		}
		line := fmt.Sprintf("seed %d:", seed)
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; ok {
				line += fmt.Sprintf(" %s=%.4g", m.name, v.Value)
			}
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintln(out, line)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := map[string]map[string]float64{}
	fmt.Fprintf(out, "%-32s %14s %14s %14s %8s %s\n", "metric", "median", "q1", "q3", "spread", "unit")
	for _, n := range names {
		med := median(values[n])
		q1, q3 := quartiles(values[n])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(out, "%-32s %14.6g %14.6g %14.6g %8.4f %s\n", n, med, q1, q3, spread, units[n])
		summary[n] = map[string]float64{"median": med, "q1": q1, "q3": q3, "spread": spread}
	}
	line, err := json.Marshal(map[string]any{"workload": opt.workload, "runs": opt.steady, "metrics": summary})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
