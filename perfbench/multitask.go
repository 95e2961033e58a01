package main

import (
	"fmt"
	"time"

	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
)

// multitaskIterations is the simulated iteration count of one
// multitask-sharded run.
const multitaskIterations = 5000

// multitaskRound is how many runs make one round of the measured phase.
const multitaskRound = 8

type multitaskState struct {
	mix []sim.TaskMix
	p   platform.Platform
	opt sim.Options
}

// multitaskOptions is the run-time approach under partition admission
// with 4 partitions, chunk-sharded over one worker per CPU.
func multitaskOptions(seed int64, iterations int) sim.Options {
	return sim.Options{
		Approach:    sim.RunTime,
		Iterations:  iterations,
		Seed:        seed,
		Parallelism: workers(),
		Multitask:   sim.Multitask{Mode: "partition", Partitions: 4},
	}
}

// buildMultitask is the multitask-sharded set-up: the inputs, and one
// warm-up run on them.
func buildMultitask(b *bench) (*multitaskState, error) {
	st := &multitaskState{
		mix: multimediaMix(),
		p:   platform.Default(16),
		opt: multitaskOptions(b.cfg.seed, multitaskIterations),
	}
	if _, err := sim.Run(st.mix, st.p, st.opt); err != nil {
		return nil, err
	}
	return st, nil
}

func runMultitask(b *bench) error {
	st, err := measureSetup(b, func() (*multitaskState, error) { return buildMultitask(b) })
	if err != nil {
		return err
	}
	got := expectations{}
	timedPhases(b, func(seconds float64) (phase, error) {
		var ph phase
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		// Past the deadline, stop once anything was attempted, so
		// that a program whose every run fails still ends.
		for first := b.attempted; time.Now().Before(deadline) || b.attempted == first; {
			var r round
			hw := watchHeap()
			for i := 0; i < multitaskRound; i++ {
				t0 := time.Now()
				res, err := sim.Run(st.mix, st.p, st.opt)
				lat := time.Since(t0)
				if err == nil {
					err = recordCell(got, "run", res)
				}
				if err == nil && res.Execution != "sharded" {
					err = fmt.Errorf("run took the %s path, want sharded", res.Execution)
				}
				b.op(err)
				if err != nil {
					continue
				}
				r.instances += res.Instances
				r.elapsed += lat
				r.latMS = append(r.latMS, ms(lat))
				ph.maxInFlight = max(ph.maxInFlight, res.MaxInFlight)
				ph.peakQueued = max(ph.peakQueued, res.PeakQueued)
			}
			r.heap = hw.stop()
			ph.addRound(r)
		}
		return ph, nil
	})
	want, err := reference(b, func() (expectations, error) {
		// Every Parallelism >= 1 yields the same aggregates, so one
		// worker is the reference.
		opt := st.opt
		opt.Parallelism = 1
		res, err := sim.Run(st.mix, st.p, opt)
		if err != nil {
			return nil, err
		}
		agg, err := aggregate(res)
		if err != nil {
			return nil, err
		}
		return expectations{"run": agg}, nil
	})
	if err != nil {
		return err
	}
	checkAggregates(b, got, want)
	b.work["iterations_per_run"] = multitaskIterations
	b.work["tiles"] = st.p.Tiles
	b.work["partitions"] = 4
	b.work["shard_workers"] = st.opt.Parallelism
	if agg := got["run"]; agg != nil {
		b.work["instances_per_run"] = agg["Instances"]
	}
	if b.tr != nil {
		in, err := multitaskInputs(b.cfg.seed)
		return ladder(b, in, err)
	}
	return nil
}
