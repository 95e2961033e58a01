package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"drhwsched/internal/assign"
	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/experiments"
	"drhwsched/internal/fabric"
	"drhwsched/internal/graph"
	"drhwsched/internal/model"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/platform"
	"drhwsched/internal/prefetch"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/schedule"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
	"drhwsched/internal/tcm"
	"drhwsched/internal/workload"
)

// The ladder times direct calls into each layer on the workload's own
// inputs, so every per-layer metric exists on every workload: a layer
// the workload's measured phase does not reach is measured on what the
// workload would feed it.

// layerInputs is what a workload feeds the layers.
type layerInputs struct {
	// runs are the workload's simulation configurations; the first
	// drives the per-approach iteration timings.
	runs []engine.Run
	// docs are request bodies in the drhwd wire format.
	docs []corpusItem
	// sweep is a /v1/sweep request for the cluster probe; nil when the
	// workload's own measured phase already timed the cluster layers.
	sweep []byte
}

const (
	ladderIterations  = 300  // per approach, for sim.iter_us
	ladderShardedIter = 3200 // for sim.sharded_iter_us
	ladderMinTime     = 40 * time.Millisecond
	probeRate         = 200 // open-loop requests per second
	probeSeconds      = 1.5
)

// schedSizes are the graph sizes of the paper-tie-back rows.
var schedSizes = []int{14, 56, 224, 448}

// runDoc renders a run as a drhwd document: the mix, its platform and
// simulation block.
func runDoc(name string, mix []sim.TaskMix, p platform.Platform, sd workload.SimDoc) workload.MixDoc {
	tasks := make([]*tcm.Task, len(mix))
	weights := make([][]float64, len(mix))
	for i, m := range mix {
		tasks[i], weights[i] = m.Task, m.ScenarioWeights
	}
	doc := workload.DocOf(name, tasks, weights)
	doc.Platform = &workload.PlatformDoc{Tiles: p.Tiles}
	doc.Sim = &sd
	return doc
}

// docItems renders a document as an analyze and a simulate request.
func docItems(doc workload.MixDoc) ([]corpusItem, error) {
	body, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return []corpusItem{{endpoint: "analyze", body: body}, {endpoint: "simulate", body: body}}, nil
}

// probeSweep picks four consecutive tile counts, from lo upward, whose
// re-shard placement gives the hot-added replica a share, and renders
// the sweep request.
func probeSweep(doc workload.MixDoc, lo int) ([]byte, error) {
	for start := lo; start < lo+32; start++ {
		body, err := sweepBody(doc, []int{start, start + 1, start + 2, start + 3})
		if err != nil {
			return nil, err
		}
		a, err := plannedAssignment(body, replicaIDs[:])
		if err != nil {
			return nil, err
		}
		two, err := plannedAssignment(body, replicaIDs[:2])
		if err != nil {
			return nil, err
		}
		if len(a[replicaIDs[2]]) > 0 && len(two) == 2 {
			return body, nil
		}
	}
	return nil, fmt.Errorf("no probe grid from %d tiles gives every replica a share", lo)
}

func sweepInputs(seed int64) (layerInputs, error) {
	runs := paperGrid(seed, ladderIterations)
	// The ladder drives the first run; keep one Figure 6 and one
	// Figure 7 configuration.
	in := layerInputs{runs: []engine.Run{runs[0], runs[len(runs)-5*6]}}
	doc := runDoc("multimedia", runs[0].Mix, runs[0].Platform,
		workload.SimDoc{Approach: "hybrid", Iterations: 50, Seed: seed})
	var err error
	if in.docs, err = docItems(doc); err != nil {
		return in, err
	}
	doc.Sim.Iterations = 20
	in.sweep, err = probeSweep(doc, 8)
	return in, err
}

func multitaskInputs(seed int64) (layerInputs, error) {
	mix, p := multimediaMix(), platform.Default(16)
	in := layerInputs{runs: []engine.Run{{Mix: mix, Platform: p, Options: multitaskOptions(seed, ladderIterations)}}}
	doc := runDoc("multimedia", mix, p, workload.SimDoc{
		Approach: "run-time", Iterations: 320, Seed: seed, Parallelism: workers(),
		Multitask: &workload.MultitaskDoc{Mode: "partition", Partitions: 4},
	})
	var err error
	if in.docs, err = docItems(doc); err != nil {
		return in, err
	}
	doc.Sim.Iterations = 20
	doc.Sim.Parallelism = 0
	in.sweep, err = probeSweep(doc, 13)
	return in, err
}

func clusterInputs(body []byte) (layerInputs, error) {
	var in layerInputs
	var req server.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return in, err
	}
	spec, err := workload.ParseRun(req.Workload)
	if err != nil {
		return in, err
	}
	for _, x := range req.Values {
		p := spec.Platform
		p.Tiles = x
		in.runs = append(in.runs, engine.Run{Mix: spec.Mix, Platform: p, Options: spec.Options})
	}
	in.docs = []corpusItem{{endpoint: "analyze", body: req.Workload}, {endpoint: "simulate", body: req.Workload}}
	return in, nil
}

// ladder measures every per-layer metric the measured phase did not,
// with the tracer on.
func ladder(b *bench, in layerInputs, inErr error) error {
	if inErr != nil {
		return fmt.Errorf("ladder inputs: %w", inErr)
	}
	b.tr.on.Store(true)
	defer b.tr.on.Store(false)
	if err := simLadder(b, in); err != nil {
		return err
	}
	if err := kernelLadder(b, in); err != nil {
		return err
	}
	if err := schedLadder(b); err != nil {
		return err
	}
	if err := engineLadder(b, in); err != nil {
		return err
	}
	if err := serveProbe(b, in); err != nil {
		return err
	}
	if in.sweep != nil {
		if err := clusterProbe(b, in); err != nil {
			return err
		}
	}
	return nil
}

// metricName turns an approach name into a metric-name component.
func metricName(s string) string { return strings.ReplaceAll(s, "+", "-") }

// simLadder times the kernel iteration: per approach on the sequential
// path as the gaps between Observer callbacks, and on the sharded path
// as run time over iterations.
func simLadder(b *bench, in layerInputs) error {
	r := in.runs[0]
	for _, l := range figureLines {
		opt := r.Options
		opt.Approach, opt.Iterations, opt.Parallelism = l.approach, ladderIterations, 0
		var last time.Time
		var gaps []float64
		opt.Observer = func(sim.IterationRecord) {
			now := time.Now()
			if !last.IsZero() {
				gaps = append(gaps, us(now.Sub(last)))
			}
			last = now
		}
		sp := b.tr.start("sim.run", 0)
		_, err := sim.Run(r.Mix, r.Platform, opt)
		sp.end()
		if err != nil {
			return fmt.Errorf("sim ladder %s: %w", l.name, err)
		}
		b.set("sim.iter_us."+metricName(l.name)+".p50", quantile(gaps, 0.5), "us")
		b.set("sim.iter_us."+metricName(l.name)+".p99", quantile(gaps, 0.99), "us")
	}
	opt := r.Options
	opt.Iterations, opt.Parallelism, opt.Observer = ladderShardedIter, workers(), nil
	sp := b.tr.start("sim.run_sharded", 0)
	_, err := sim.Run(r.Mix, r.Platform, opt)
	d := sp.end()
	if err != nil {
		return fmt.Errorf("sim ladder sharded: %w", err)
	}
	b.set("sim.sharded_iter_us", us(d)/ladderShardedIter, "us")
	return nil
}

// schedInput is one schedule of the workload with its design-time
// artefacts.
type schedInput struct {
	s    *assign.Schedule
	p    platform.Platform
	a    *core.Analysis
	pf   *prefetch.Result
	busy int
}

// workloadSchedules lists the distinct initial schedules of every
// scenario of the workload's runs.
func workloadSchedules(in layerInputs) ([]schedInput, error) {
	seen := map[string]bool{}
	var out []schedInput
	for _, r := range in.runs {
		for _, m := range r.Mix {
			for _, g := range m.Task.Scenarios {
				s, err := assign.List(g, r.Platform, assign.Options{Placement: assign.Spread})
				if err != nil {
					return nil, err
				}
				key := engine.Fingerprint(s, r.Platform, core.Options{})
				if seen[key] {
					continue
				}
				seen[key] = true
				si := schedInput{s: s, p: r.Platform}
				for v := 0; v < s.Tiles; v++ {
					if len(s.TileOrder[v]) > 0 {
						si.busy++
					}
				}
				out = append(out, si)
			}
		}
	}
	return out, nil
}

// timeEach calls fn on every input, repeating whole passes until
// ladderMinTime has passed, and reports the mean time per call.
func timeEach(b *bench, name string, n int, fn func(i int) error) (float64, error) {
	var calls int
	sp := b.tr.start(name, 0)
	start := time.Now()
	for calls == 0 || time.Since(start) < ladderMinTime {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				sp.end()
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			calls++
		}
	}
	d := sp.end()
	return us(d) / float64(calls), nil
}

// kernelLadder times the paper's layers on the workload's schedules.
func kernelLadder(b *bench, in layerInputs) error {
	scheds, err := workloadSchedules(in)
	if err != nil {
		return err
	}
	if len(scheds) == 0 {
		return fmt.Errorf("kernel ladder: the workload has no schedules")
	}
	n := len(scheds)
	var analyzeMS []float64
	for i := range scheds {
		si := &scheds[i]
		t0 := time.Now()
		if si.a, err = core.Analyze(si.s, si.p, core.Options{}); err != nil {
			return err
		}
		b.tr.record("core.analyze", 0, t0, time.Now())
		analyzeMS = append(analyzeMS, ms(time.Since(t0)))
		if si.pf, err = (prefetch.List{}).Schedule(si.s, si.p, si.s.AllLoads(), prefetch.Bounds{}); err != nil {
			return err
		}
	}
	rows := []struct {
		name string
		fn   func(i int) error
	}{
		{"prefetch.list", func(i int) error {
			s := scheds[i]
			_, err := (prefetch.List{}).Schedule(s.s, s.p, s.s.AllLoads(), prefetch.Bounds{})
			return err
		}},
		{"prefetch.evaluate", func(i int) error {
			s := scheds[i]
			_, err := prefetch.Evaluate(s.s, s.p, s.pf.PortOrder, prefetch.Bounds{}, false)
			return err
		}},
		{"schedule.compute", func(i int) error {
			s := scheds[i]
			_, err := schedule.Compute(s.s.EngineInput(s.p, s.pf.PortOrder))
			return err
		}},
		{"core.execute", func(i int) error {
			_, err := scheds[i].a.Execute(core.RunBounds{}, func(graph.SubtaskID) bool { return false })
			return err
		}},
		{"engine.fingerprint", func(i int) error {
			engine.Fingerprint(scheds[i].s, scheds[i].p, core.Options{})
			return nil
		}},
		{"peerstore.encode", func(i int) error {
			_, err := peerstore.Encode("k", scheds[i].a)
			return err
		}},
	}
	for _, row := range rows {
		v, err := timeEach(b, row.name, n, row.fn)
		if err != nil {
			return err
		}
		b.set(row.name+"_us", v, "us")
	}

	encoded := make([][]byte, n)
	for i, s := range scheds {
		if encoded[i], err = peerstore.Encode("k", s.a); err != nil {
			return err
		}
	}
	v, err := timeEach(b, "peerstore.decode", n, func(i int) error {
		_, err := peerstore.Decode("k", encoded[i])
		return err
	})
	if err != nil {
		return err
	}
	b.set("peerstore.decode_us", v, "us")

	// Mapping on a carried state: each schedule maps onto what the
	// previous ones left, as consecutive task instances do.
	states := map[int]*reconfig.State{}
	var clock model.Time
	v, err = timeEach(b, "reconfig.map", n, func(i int) error {
		s := scheds[i]
		st := states[s.p.Tiles]
		if st == nil {
			st = reconfig.NewState(s.p.Tiles)
			states[s.p.Tiles] = st
		}
		m, err := reconfig.Map(s.s, st, reconfig.MapOptions{Critical: s.a.IsCritical})
		if err != nil {
			return err
		}
		res := reconfig.Resident(s.s, st, m)
		clock += model.Time(model.Millisecond)
		reconfig.Commit(s.s, st, m, res, func(graph.SubtaskID) model.Time { return clock })
		return nil
	})
	if err != nil {
		return err
	}
	b.set("reconfig.map_us", v, "us")

	// Admission under Partition, four blocks where the fabric has
	// them: one grant and its release per schedule.
	fabrics := map[int]*fabric.Fabric{}
	var claim []int
	v, err = timeEach(b, "fabric.grant", n, func(i int) error {
		s := scheds[i]
		f := fabrics[s.p.Tiles]
		if f == nil {
			f = fabric.New(s.p, nil)
			fabrics[s.p.Tiles] = f
		}
		a := fabric.Partition{Blocks: min(4, s.p.Tiles)}
		c, ok := f.Acquire(a, s.busy, nil, claim[:0])
		if !ok {
			return fmt.Errorf("partition refused %d tiles on an idle %d-tile fabric", s.busy, s.p.Tiles)
		}
		f.Release(c)
		claim = c
		return nil
	})
	if err != nil {
		return err
	}
	b.set("fabric.grant_us", v, "us")

	all := append(analyzeMS, b.tr.durationsMS("core.analyze")...)
	b.set("core.analyze_ms", median(all), "ms")
	return nil
}

// schedModel is the SchedulerCost model of sim.Options, in µs: the
// run-time heuristic ≈0.09·N·log2(N) (at least 2), the hybrid run-time
// phase ≈0.02·N (at least 1).
func schedModel(n int) (runtime, hybrid float64) {
	x := float64(max(n, 2))
	return math.Max(0.09*x*math.Log2(x), 2), math.Max(0.02*x, 1)
}

// schedLadder measures the paper's scalability claim on random graphs
// of N subtasks: the run-time heuristic (prefetch.List, as the
// run-time approach calls it per instance) against the hybrid run-time
// phase (Analysis.Execute), next to the SchedulerCost model.
func schedLadder(b *bench) error {
	p := platform.Default(8)
	b.info("paper tie-back: scheduler cost per task instance, measured vs the SchedulerCost model")
	b.info("  %5s %14s %14s %14s %14s %12s", "N", "run-time us", "model us", "hybrid us", "model us", "ratio/model")
	for _, n := range schedSizes {
		fx, err := experiments.ScalingFixture(n, b.cfg.seed, p)
		if err != nil {
			return err
		}
		loads := fx.Sched.AllLoads()
		rt, err := timeEach(b, "sched.runtime", 1, func(int) error {
			_, err := (prefetch.List{}).Schedule(fx.Sched, p, loads, prefetch.Bounds{})
			return err
		})
		if err != nil {
			return err
		}
		hy, err := timeEach(b, "sched.hybrid", 1, func(int) error {
			_, err := fx.Analysis.Execute(core.RunBounds{}, func(graph.SubtaskID) bool { return false })
			return err
		})
		if err != nil {
			return err
		}
		mrt, mhy := schedModel(n)
		ratio := (rt / hy) / (mrt / mhy)
		suffix := fmt.Sprintf(".n%d", n)
		b.set("sched.runtime_us"+suffix, rt, "us")
		b.set("sched.hybrid_us"+suffix, hy, "us")
		b.set("sched.model_ratio"+suffix, ratio, "ratio")
		b.info("  %5d %14.2f %14.2f %14.2f %14.2f %12.2f", n, rt, mrt, hy, mhy, ratio)
	}
	return nil
}

// engineLadder reports the engine's store traffic. When the measured
// phase made none (direct sim.Run calls), it simulates the workload's
// first run through an engine twice, cold and then warm.
func engineLadder(b *bench, in layerInputs) error {
	if b.tr.counter("engine.store_hits")+b.tr.counter("engine.store_misses") == 0 {
		store, err := wrapStore(engine.NewLRUStore(0), b.tr, "engine.store", true)
		if err != nil {
			return err
		}
		eng := engine.New(engine.Config{Store: store})
		r := in.runs[0]
		opt := r.Options
		opt.Iterations = 64
		for i := 0; i < 2; i++ {
			if _, err := eng.Simulate(r.Mix, r.Platform, opt); err != nil {
				return err
			}
		}
	}
	hits, misses := b.tr.counter("engine.store_hits"), b.tr.counter("engine.store_misses")
	b.set("engine.store_hits", float64(hits), "count")
	b.set("engine.store_misses", float64(misses), "count")
	b.set("engine.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	gets := b.tr.durations("engine.store_get")
	var total time.Duration
	for _, d := range gets {
		total += d
	}
	b.set("engine.store_get_us", us(total)/float64(max(len(gets), 1)), "us")

	v, err := timeEach(b, "workload.parse", len(in.docs), func(i int) error {
		_, err := workload.ParseRun(in.docs[i].body)
		return err
	})
	if err != nil {
		return err
	}
	b.set("workload.parse_us", v, "us")
	return nil
}

// serveProbe drives an in-process drhwd with the workload's documents
// in a short open loop, for the serving layers.
func serveProbe(b *bench, in layerInputs) error {
	st, err := newServeState(b.tr, "perfbench-probe", in.docs)
	if err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	defer st.close()
	serverLayers(b, st.openLoop(b, probeRate, probeSeconds))
	return nil
}

// clusterProbe runs one cold and one re-shard leg of the workload's
// probe grid on a fresh pinned pool, for the cluster layers.
func clusterProbe(b *bench, in layerInputs) error {
	st, err := newClusterState(in.sweep)
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	tap := &clusterTap{shardMS: map[string][]float64{}}
	c, err := runCycle(context.Background(), in.sweep, b.tr, tap)
	if err == nil {
		err = st.checkLeg("probe cold leg", c.cold, st.planned[0])
	}
	if err == nil {
		err = st.checkLeg("probe re-shard leg", c.reshard, st.planned[1])
	}
	b.op(err)
	if err != nil {
		return nil
	}
	clusterLayers(b, st, []cycle{c}, tap)
	return nil
}

// clusterLayers reports the cluster and peer-fill layers.
func clusterLayers(b *bench, st *clusterState, cycles []cycle, tap *clusterTap) {
	tap.mu.Lock()
	for _, id := range replicaIDs {
		name := strings.TrimSuffix(strings.TrimPrefix(id, "http://"), ".perfbench.test")
		b.set("cluster.shard_ms."+name, mean(tap.shardMS[id]), "ms")
	}
	b.set("peerstore.fill_ms", median(tap.fillMS), "ms")
	b.set("peerstore.fills", float64(tap.fills), "count")
	tap.mu.Unlock()

	var compute int64
	for _, c := range cycles {
		compute += c.reshardCompute
	}
	b.set("peerstore.compute_tier", float64(compute), "count")
	b.set("cluster.coord_self_ms", coordSelf(b.tr), "ms")
	cold, reshard := legRates(cycles, st.cells)
	b.set("cluster.cold_cells_per_s", cold, "1/s")
	b.set("cluster.reshard_cells_per_s", reshard, "1/s")
}

// coordSelf is the median, over sweeps, of the coordinator's handler
// time minus its longest shard dispatch.
func coordSelf(tr *tracer) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	longest := map[int64]int64{}
	for _, s := range tr.spans {
		if s.Name == "cluster.shard" && s.Parent != 0 {
			longest[s.Parent] = max(longest[s.Parent], s.End-s.Start)
		}
	}
	var self []float64
	for _, s := range tr.spans {
		if l, ok := longest[s.ID]; ok && s.Name == "cluster.coordinator" {
			self = append(self, ms(time.Duration(s.End-s.Start-l)))
		}
	}
	return median(self)
}
