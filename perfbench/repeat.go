package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// repeatWorkload runs a workload n times, each in a fresh process with
// seeds seed, seed+1, ..., and prints every metric's median, quartiles
// and spread (interquartile distance over the median), so steadiness can
// be re-checked on a new host.
func repeatWorkload(name string, seed int64, seconds float64, trace bool, out string, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var shares []float64
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		args := []string{"--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--out", out, "--trace", "0"}
		if trace {
			args[len(args)-1] = "1"
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d): %v\n", i+1, s, err)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d): %v\n", i+1, s, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d) failed its checks\n", i+1, s)
			return 1
		}
		shares = append(shares, float64(res.Failed)/float64(res.Attempted))
		line := fmt.Sprintf("run %2d seed %d attempted %d failed %d", i+1, s, res.Attempted, res.Failed)
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			line += fmt.Sprintf("  %s=%.6g", k, m.Value)
		}
		fmt.Println(line)
	}
	fmt.Printf("\n%s: %d runs of %gs, failed share min %.6g max %.6g\n", name, n, seconds, slices.Min(shares), slices.Max(shares))
	fmt.Printf("%-32s %-10s %14s %14s %14s %9s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, k := range sortedKeys(values) {
		v := values[k]
		q := quartiles(v)
		spread := 0.0
		if q[1] != 0 {
			spread = (q[2] - q[0]) / q[1]
		}
		fmt.Printf("%-32s %-10s %14.6g %14.6g %14.6g %8.2f%%\n", k, units[k], q[0], q[1], q[2], 100*spread)
	}
	return 0
}

// lastResult parses the JSON result on the last line of out.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// quartiles returns the three quartile cut points of xs by the
// "exclusive" method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var out [3]float64
	if len(d) < 2 {
		if len(d) == 1 {
			out = [3]float64{d[0], d[0], d[0]}
		}
		return out
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
