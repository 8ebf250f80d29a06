// Command perfbench is the repository's end-to-end benchmark. One call
// runs one named workload for a fixed number of seconds, checks the
// program's outputs against properties the REV method must have, and
// prints one JSON result line:
//
//	perfbench --workload serve --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload and seed run with spans, a CPU profile and
// the program's own counters, and the result carries the per-layer
// metrics (the span tree, Chrome trace and profile summary are written
// under --out). --repeat N re-runs a workload N times in fresh processes
// and prints each end-to-end metric's median, quartiles and spread.
// README.md maps every metric to the layer it measures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is taken during package initialisation, before main, so
// setup_s covers the cold start of the process.
var processStart = time.Now()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings one workload run sees.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	out     string
}

// workloadFunc runs one workload and fills r; a returned error means the
// run could not complete or a correctness check failed.
type workloadFunc func(o options, r *run) error

var workloads = map[string]workloadFunc{
	"figures": runFigures,
	"serve":   runServe,
	"remote":  runRemote,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload to run: figures, serve or remote")
	seed := flag.Int64("seed", 1, "input seed (maps to the synthetic programs' generator seeds)")
	seconds := flag.Float64("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs with spans, CPU profile and counters and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for traced output")
	repeat := flag.Int("repeat", 0, "run the workload this many times in fresh processes (seeds seed, seed+1, ...) and print each metric's spread")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *repeat > 0 {
		return repeatWorkload(*name, *seed, *seconds, *trace != 0, *out, *repeat)
	}

	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, out: *out}
	r := newRun(o)
	err := fn(o, r)
	res := r.result(err == nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		var ce *checkError
		if !errors.As(err, &ce) {
			// The run itself broke (not a failed output check): print no
			// result at all.
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// peakRSSMB returns the process's peak resident set in MB (getrusage
// reports KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocMB is the cumulative heap allocation of the process in MB.
func heapAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
