// Command perfbench is the repository benchmark: four seeded workloads run
// against the public df, server and cluster surfaces, every output checked
// against a reference the engines did not compute.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it drives
// each layer's public functions in sequence, timing a span around every call,
// and reports the per-layer metrics. The last line of standard output is the
// result object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {...}}
//
// --steady N re-runs the same invocation N times with seeds seed..seed+N-1
// and reports each metric's median and interquartile spread; --selftest
// feeds the checker perturbed results and fails unless every one is caught.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// scenario is one benchmark workload. run measures for the given duration
// and fills the report; trace selects the per-layer (traced) run.
type scenario struct {
	name string
	run  func(cfg config, rep *report) error
}

var scenarios = []scenario{
	{"scan-groupby", runScanGroupBy},
	{"join-sort", runJoinSort},
	{"cluster-groupby", runClusterGroupBy},
	{"serve-mix", runServeMix},
}

// config is one invocation's parameters.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
}

func (c config) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome. Served clients record outcomes from
// several goroutines, so outcome locks.
type report struct {
	mu        sync.Mutex
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// outcome records one checked query: err is its execution error, bad the
// checker's verdict. A failed query is counted, never dropped.
func (r *report) outcome(err error, bad error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Attempted++
	if err == nil && bad == nil {
		return true
	}
	r.Failed++
	if r.Failed <= 5 {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: query error:", err)
		} else {
			fmt.Fprintln(os.Stderr, "perfbench: wrong result:", bad)
		}
	}
	return false
}

func main() {
	name := flag.String("workload", "", "workload name: scan-groupby, join-sort, cluster-groupby, serve-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced per-layer run, 0: end-to-end run")
	workdir := flag.String("workdir", "", "directory for generated inputs and spill files")
	steady := flag.Int("steady", 0, "re-run this invocation N times with consecutive seeds and report spreads")
	selftest := flag.Bool("selftest", false, "check that the checker catches perturbed results, then exit")
	flag.Parse()

	if *selftest {
		if err := checkerSelfTest(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *scenario
	for i := range scenarios {
		if scenarios[i].name == *name {
			w = &scenarios[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if *workdir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --workdir is required")
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(*name, *seed, *seconds, *trace, *steady, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	rep := &report{Metrics: map[string]metric{}}
	// The checker proves itself on every run: a checker that lets a
	// perturbation through makes the run incorrect.
	selfErr := checkerSelfTest(nil)
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: checker self-test:", selfErr)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no query attempted")
		os.Exit(1)
	}
	rep.Correct = rep.Failed == 0 && selfErr == nil
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
