package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
)

// runRecord is one run as captured from standard output: its facts
// line and its result line.
type runRecord struct {
	Facts struct {
		Workload string         `json:"workload"`
		Seed     int64          `json:"seed"`
		Traced   bool           `json:"traced"`
		Work     map[string]any `json:"work"`
		Host     map[string]any `json:"host"`
	} `json:"facts"`
	Result result
}

// readRuns parses every run in a file of captured outputs.
func readRuns(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	var pending *runRecord
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte(`{"facts":`)):
			pending = &runRecord{}
			if err := json.Unmarshal(line, pending); err != nil {
				return nil, fmt.Errorf("%s: facts line: %w", path, err)
			}
		case bytes.HasPrefix(line, []byte(`{"correct":`)) && pending != nil:
			if err := json.Unmarshal(line, &pending.Result); err != nil {
				return nil, fmt.Errorf("%s: result line: %w", path, err)
			}
			runs = append(runs, *pending)
			pending = nil
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs found", path)
	}
	return runs, sc.Err()
}

// compareMain compares the runs captured in two files (for example a
// parent commit and a change). It refuses, with exit code 1, when the
// runs are of different workloads or tracing modes, when the host
// width or Go version differ, or when runs of the same seed did
// different work. Otherwise it prints each metric's median on both
// sides and their ratio.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out CHANGE.out")
		return 2
	}
	base, err := readRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	change, err := readRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if err := comparable(base, change); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare: refused:", err)
		return 1
	}
	names := map[string]string{}
	for _, r := range append(append([]runRecord(nil), base...), change...) {
		for n, m := range r.Result.Metrics {
			names[n] = m.Unit
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Printf("%s, %d base runs, %d change runs\n", base[0].Facts.Workload, len(base), len(change))
	fmt.Printf("%-40s %8s %14s %14s %9s\n", "metric", "unit", "base median", "change median", "change")
	for _, n := range sorted {
		b, c := metricValues(base, n), metricValues(change, n)
		mb, mc := median(b), median(c)
		ratio := "-"
		if mb != 0 {
			ratio = fmt.Sprintf("%+.1f%%", 100*(mc/mb-1))
		}
		fmt.Printf("%-40s %8s %14.4g %14.4g %9s\n", n, names[n], mb, mc, ratio)
	}
	return 0
}

func metricValues(runs []runRecord, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// comparable checks that two sets of runs measured the same thing on
// the same kind of host.
func comparable(base, change []runRecord) error {
	first := base[0].Facts
	work := map[int64]map[string]any{}
	for _, r := range append(append([]runRecord(nil), base...), change...) {
		f := r.Facts
		if f.Workload != first.Workload || f.Traced != first.Traced {
			return fmt.Errorf("mixed runs: %s (traced %v) and %s (traced %v)", first.Workload, first.Traced, f.Workload, f.Traced)
		}
		if !reflect.DeepEqual(f.Host, first.Host) {
			return fmt.Errorf("host differs: %v vs %v", first.Host, f.Host)
		}
		if !r.Result.Correct {
			return fmt.Errorf("seed %d: a run failed its output checks", f.Seed)
		}
		if w, ok := work[f.Seed]; ok && !reflect.DeepEqual(w, f.Work) {
			return fmt.Errorf("seed %d: work differs: %v vs %v", f.Seed, w, f.Work)
		}
		work[f.Seed] = f.Work
	}
	return nil
}
