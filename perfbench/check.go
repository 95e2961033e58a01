package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"drhwsched/internal/sim"
)

// expectSeed is the seed the committed expectations were written for.
const expectSeed = 1

// aggregate is a sim.Result's scalar aggregates as a JSON value. The
// tails are left out (their estimator is due to change), as are the
// cache counters (they depend on what ran before in the process) and
// Workers (it records the host width, not the simulation).
func aggregate(r *sim.Result) (map[string]any, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	for _, k := range []string{"IterMakespan", "IterOverhead", "QueueDelay", "ResponseTime",
		"CacheHits", "CacheMisses", "CacheHitRate", "Workers"} {
		delete(m, k)
	}
	return m, nil
}

// expectations maps a cell or run label to its aggregate.
type expectations map[string]map[string]any

func expectPath(dir, workload string) string {
	return filepath.Join(dir, "expect", workload+".json")
}

func loadExpect(dir, workload string) (expectations, error) {
	data, err := os.ReadFile(expectPath(dir, workload))
	if err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	var doc struct {
		Seed  int64        `json:"seed"`
		Cells expectations `json:"cells"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("expectations %s: %w", workload, err)
	}
	if doc.Seed != expectSeed {
		return nil, fmt.Errorf("expectations %s: written for seed %d, not %d", workload, doc.Seed, expectSeed)
	}
	return doc.Cells, nil
}

func writeExpect(dir, workload string, cells expectations) error {
	data, err := json.MarshalIndent(map[string]any{"seed": expectSeed, "cells": cells}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "expect"), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectPath(dir, workload), append(data, '\n'), 0o644)
}

// reference returns what a run's aggregates must equal: the committed
// expectations on the expectation seed, otherwise the aggregates that
// compute produces. compute runs outside every timed phase.
func reference(b *bench, compute func() (expectations, error)) (expectations, error) {
	if b.cfg.seed == expectSeed && !b.cfg.writeExpect {
		return loadExpect(b.cfg.dir, b.cfg.workload)
	}
	ref, err := compute()
	if err != nil {
		return nil, err
	}
	if b.cfg.writeExpect {
		if b.cfg.seed != expectSeed {
			return nil, fmt.Errorf("--write-expect needs --seed %d", expectSeed)
		}
		if err := writeExpect(b.cfg.dir, b.cfg.workload, ref); err != nil {
			return nil, err
		}
		b.info("expectations written to %s", expectPath(b.cfg.dir, b.cfg.workload))
	}
	return ref, nil
}

// checkAggregates compares every produced aggregate with the reference
// and requires that the reference has no label the run missed.
func checkAggregates(b *bench, got, want expectations) {
	labels := make([]string, 0, len(want))
	for l := range want {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		g, ok := got[l]
		if !ok {
			b.problem("%s: no result produced", l)
			continue
		}
		if !reflect.DeepEqual(g, want[l]) {
			b.problem("%s: aggregates differ from the reference: got %v, want %v", l, g, want[l])
		}
	}
	for l := range got {
		if _, ok := want[l]; !ok {
			b.problem("%s: not in the reference", l)
		}
	}
}
