// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload for a fixed number of seconds, checks every
// output it produced, and prints one JSON result object as the last
// line of standard output:
//
//	perfbench --workload paper-sweep --seed 1 --seconds 10 --trace 0
//
// Workloads (see README.md for what each stresses and why):
//
//	paper-sweep        the paper's §7 Figure 6 and Figure 7 grids
//	multitask-sharded  one long chunk-sharded partition-mode sim.Run
//	cluster-reshard    drhwcoord over pinned replicas, cold sweep then
//	                   a hot-added replica and a re-shard sweep
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run times calls into each layer from outside the program and the
// metrics are the per-layer ones. The seed generates every input; the
// program under test receives only the generated inputs.
//
// "perfbench compare A B" compares two captured outputs and refuses
// runs whose work or host width differ.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times each workload builds its set-up; the
// reported setup_s is their median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload    string
	seed        int64
	seconds     float64
	traced      bool
	writeExpect bool
	dir         string // benchmark source directory (expectations)
	outDir      string // where trace files go
}

// bench accumulates one run's outcome.
type bench struct {
	cfg       config
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	facts     map[string]any
	// work is the work one unit of the workload does: it depends on
	// the seed and the benchmark's settings only, never on speed, so
	// two runs of one seed must agree on it.
	work map[string]any
	tr   *tracer // nil on untraced runs
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed output check; the run is then incorrect.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	b.problems = append(b.problems, msg)
}

// op counts one attempted operation and, when err is set, one failure.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
		}
	}
}

func (b *bench) info(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"paper-sweep":       runPaperSweep,
	"multitask-sharded": runMultitask,
	"cluster-reshard":   runCluster,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input-generation seed (1 is the seed the committed expectations pin)")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics instead of end-to-end ones")
	flag.BoolVar(&cfg.writeExpect, "write-expect", false, "rewrite the committed expectations from this run (seed 1 only)")
	flag.Parse()
	cfg.traced = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg.dir = "perfbench"
	if _, err := os.Stat(cfg.dir + "/go.mod"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a checkout:", err)
		os.Exit(2)
	}
	cfg.outDir = ".bench_build/perfbench/traces"

	b := &bench{cfg: cfg, metrics: map[string]metric{}, facts: map[string]any{}, work: map[string]any{}}
	if cfg.traced {
		b.tr = newTracer()
	}
	start := time.Now()
	err := run(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b.facts["workload"] = cfg.workload
	b.facts["seed"] = cfg.seed
	b.facts["traced"] = cfg.traced
	b.work["seconds"] = cfg.seconds
	b.facts["work"] = b.work
	b.facts["host"] = hostFacts()
	b.facts["attempted"] = b.attempted
	b.facts["failed"] = b.failed
	b.facts["wall_s"] = time.Since(start).Seconds()
	if b.tr != nil {
		if err := b.tr.writeOut(cfg.outDir, cfg.workload, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	facts, err := json.Marshal(map[string]any{"facts": b.facts})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(facts))
	res := result{
		Correct:   len(b.problems) == 0 && b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// hostFacts is what a comparison requires to be equal besides work.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measureSetup runs build setupRepeats times, reports the median time
// as setup_s and returns the last build's state. Each build replaces
// the previous one, which is closed first, outside the timing.
func measureSetup[T any](b *bench, build func() (T, error)) (T, error) {
	var st T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if closer, ok := any(st).(interface{ close() }); ok && i > 0 {
			closer.close()
		}
		// Every build starts from a collected heap, so none pays for
		// the garbage its predecessor left.
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	if !b.cfg.traced {
		b.set("setup_s", median(times), "s")
	}
	b.facts["setup_runs_s"] = times
	return st, nil
}
