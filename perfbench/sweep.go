package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

// sweepIterations is the simulated iteration count of every
// paper-sweep cell (the paper's §7 runs use 1000).
const sweepIterations = 1000

// figureLines are the five approaches of Figures 6 and 7.
var figureLines = []struct {
	name     string
	approach sim.Approach
}{
	{"no-prefetch", sim.NoPrefetch},
	{"design-time", sim.DesignTimePrefetch},
	{"run-time", sim.RunTime},
	{"run-time+inter-task", sim.RunTimeInterTask},
	{"hybrid", sim.Hybrid},
}

func multimediaMix() []sim.TaskMix {
	apps := workload.Multimedia()
	mix := make([]sim.TaskMix, len(apps))
	for i, a := range apps {
		mix[i] = sim.TaskMix{Task: a.Task, ScenarioWeights: a.ScenarioWeights}
	}
	return mix
}

// paperGrid is the Figure 6 grid (multimedia mix, 8–16 tiles) followed
// by the Figure 7 grid (PocketGL, 5–10 tiles), every approach on the
// sequential warm-fabric path with serial admission. Run.Line carries
// the cell label.
func paperGrid(seed int64, iterations int) []engine.Run {
	mm := multimediaMix()
	pgl := []sim.TaskMix{{Task: workload.PocketGL().Task}}
	var runs []engine.Run
	add := func(fig string, mix []sim.TaskMix, lo, hi int) {
		for n := lo; n <= hi; n++ {
			for _, l := range figureLines {
				runs = append(runs, engine.Run{
					X: n, Line: fmt.Sprintf("%s/%d/%s", fig, n, l.name), Mix: mix, Platform: platform.Default(n),
					Options: sim.Options{Approach: l.approach, Iterations: iterations, Seed: seed},
				})
			}
		}
	}
	add("fig6", mm, 8, 16)
	add("fig7", pgl, 5, 10)
	return runs
}

type sweepState struct {
	eng  *engine.Engine
	runs []engine.Run
}

// buildSweep is the paper-sweep set-up: the inputs, and an engine whose
// store already holds every design-time analysis the grid needs (the
// paper's design-time phase), so the measured phase is run time only.
func buildSweep(b *bench) (*sweepState, error) {
	var store engine.Store = engine.NewLRUStore(1024)
	if b.tr != nil {
		var err error
		if store, err = wrapStore(store, b.tr, "engine.store", true); err != nil {
			return nil, err
		}
	}
	st := &sweepState{
		eng:  engine.New(engine.Config{Store: store}),
		runs: paperGrid(b.cfg.seed, sweepIterations),
	}
	// A one-iteration run of a cell prepares every analysis the cell
	// will use.
	prime := paperGrid(b.cfg.seed, 1)
	if _, err := st.eng.Batch(prime); err != nil {
		return nil, err
	}
	return st, nil
}

func runPaperSweep(b *bench) error {
	st, err := measureSetup(b, func() (*sweepState, error) { return buildSweep(b) })
	if err != nil {
		return err
	}
	got := expectations{}
	timedPhases(b, func(seconds float64) (phase, error) {
		return sweepPhase(b, st, seconds, got)
	})
	want, err := reference(b, func() (expectations, error) { return directGrid(st.runs) })
	if err != nil {
		return err
	}
	checkAggregates(b, got, want)
	if pp, err := paperError(got); err != nil {
		b.problem("%v", err)
	} else {
		b.info("paper_error_pp %.4f (simulated; mean absolute error against the paper's Table 1 and §7 figures)", pp)
		b.facts["paper_error_pp"] = pp
	}
	b.work["cells_per_sweep"] = len(st.runs)
	b.work["iterations_per_cell"] = sweepIterations
	instances := 0.0
	for _, agg := range got {
		v, _ := agg["Instances"].(float64)
		instances += v
	}
	b.work["instances_per_sweep"] = instances
	if b.tr != nil {
		in, err := sweepInputs(b.cfg.seed)
		return ladder(b, in, err)
	}
	return nil
}

// sweepPhase runs whole grids through engine.Stream (the path
// engine.Sweep takes) until seconds have passed; a round is one grid.
// An operation is one cell; its latency is the time from the start of
// its sweep to its delivery. Every cell's aggregates must repeat those
// of the first sweep, which got collects.
func sweepPhase(b *bench, st *sweepState, seconds float64, got expectations) (phase, error) {
	var ph phase
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Past the deadline, stop once anything was attempted, so that a
	// program whose every operation fails still ends.
	for first := b.attempted; time.Now().Before(deadline) || b.attempted == first; {
		var r round
		hw := watchHeap()
		t0 := time.Now()
		for rr := range st.eng.Stream(context.Background(), st.runs) {
			lat := time.Since(t0)
			err := rr.Err
			if err == nil {
				err = recordCell(got, rr.Run.Line, rr.Result)
			}
			b.op(err)
			if err != nil {
				continue
			}
			r.instances += rr.Result.Instances
			r.latMS = append(r.latMS, ms(lat))
			ph.maxInFlight = max(ph.maxInFlight, rr.Result.MaxInFlight)
			ph.peakQueued = max(ph.peakQueued, rr.Result.PeakQueued)
		}
		r.elapsed = time.Since(t0)
		r.heap = hw.stop()
		ph.addRound(r)
	}
	return ph, nil
}

// recordCell stores a result's aggregates under label, or checks them
// against the ones already stored.
func recordCell(got expectations, label string, r *sim.Result) error {
	agg, err := aggregate(r)
	if err != nil {
		return err
	}
	prev, ok := got[label]
	if !ok {
		got[label] = agg
		return nil
	}
	if !sameAggregate(prev, agg) {
		return fmt.Errorf("%s: aggregates changed between repetitions of one input", label)
	}
	return nil
}

// directGrid runs every cell with a direct sim.Run, outside the engine.
func directGrid(runs []engine.Run) (expectations, error) {
	out := make(expectations, len(runs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	jobs := make(chan engine.Run)
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				res, err := sim.Run(r.Mix, r.Platform, r.Options)
				var agg map[string]any
				if err == nil {
					agg, err = aggregate(res)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", r.Line, err)
				}
				out[r.Line] = agg
				mu.Unlock()
			}
		}()
	}
	for _, r := range runs {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	return out, firstErr
}

// paperError is the mean absolute error, in percentage points, of the
// repository's model against every reference value the paper gives:
// Table 1's on-demand and optimal-prefetch overheads per application
// (4 tiles, as the Table 1 experiment uses), the multimedia mix's 23 %
// no-prefetch and 7 % design-time-prefetch overheads (Figure 6 cells
// averaged over 8–16 tiles), PocketGL's 71 % and 25 % (Figure 7 cells
// at 5 tiles, as the Figure 7 test uses) and its 62 % critical
// subtasks (5 tiles, as the calibration test uses).
func paperError(got expectations) (float64, error) {
	var errs []float64
	for _, app := range workload.Multimedia() {
		m, err := workload.MeasureApp(app, platform.Default(4))
		if err != nil {
			return 0, err
		}
		errs = append(errs, math.Abs(m.OnDemandPct-app.Paper.OverheadPct), math.Abs(m.PrefetchPct-app.Paper.PrefetchPct))
	}
	overhead := func(label string) (float64, error) {
		agg, ok := got[label]
		if !ok {
			return 0, fmt.Errorf("paper error: no result for %s", label)
		}
		v, _ := agg["OverheadPct"].(float64)
		return v, nil
	}
	for _, c := range []struct {
		line string
		ref  float64
	}{{"no-prefetch", 23}, {"design-time", 7}} {
		var sum float64
		for n := 8; n <= 16; n++ {
			v, err := overhead(fmt.Sprintf("fig6/%d/%s", n, c.line))
			if err != nil {
				return 0, err
			}
			sum += v
		}
		errs = append(errs, math.Abs(sum/9-c.ref))
	}
	pgl := workload.PocketGL()
	for _, c := range []struct {
		line string
		ref  float64
	}{{"no-prefetch", pgl.PaperNoPrefetchPct}, {"design-time", pgl.PaperDesignTimePct}} {
		v, err := overhead("fig7/5/" + c.line)
		if err != nil {
			return 0, err
		}
		errs = append(errs, math.Abs(v-c.ref))
	}
	m, err := workload.MeasurePocketGL(pgl, platform.Default(5))
	if err != nil {
		return 0, err
	}
	errs = append(errs, math.Abs(m.CriticalPct-pgl.PaperCriticalPct))
	return mean(errs), nil
}
