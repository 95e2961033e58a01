// Shard-invariance suite for the sharded execution mode: the headline
// claim is "same numbers, any shard count", so every case runs the
// P = 1 sharded reference and asserts P ∈ {2, 3, 8} reproduce its
// Result bit for bit — scalars, float sums and sketch-derived tails
// alike — across all five approaches, both built-in workloads, deadline
// mode and every arrival process. Run under -race in CI, this doubles
// as the race coverage of the merged paths.
package sim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"drhwsched/internal/model"
	"drhwsched/internal/obs"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/sim"
)

var shardCounts = []int{2, 3, 8}

// runShardPair runs opt at Parallelism 1 and p workers and requires
// identical Results. Workers is the one documented worker-count-bearing
// field: it is asserted per worker count, then normalized to zero so
// the DeepEqual covers everything else.
func assertShardInvariant(t *testing.T, wl string, plat platform.Platform, opt sim.Options) *sim.Result {
	t.Helper()
	opt.Parallelism = 1
	ref, err := sim.Run(goldenMix(wl), plat, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Execution != "sharded" {
		t.Fatalf("Execution = %q, want sharded", ref.Execution)
	}
	if ref.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", ref.Workers)
	}
	refCmp := *ref
	refCmp.Workers = 0
	for _, p := range shardCounts {
		opt.Parallelism = p
		got, err := sim.Run(goldenMix(wl), plat, opt)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if got.Workers != p {
			t.Fatalf("parallelism %d: Workers = %d", p, got.Workers)
		}
		gotCmp := *got
		gotCmp.Workers = 0
		if !reflect.DeepEqual(&refCmp, &gotCmp) {
			t.Fatalf("parallelism %d diverges from the 1-worker reference:\n ref: %+v\n got: %+v", p, ref, got)
		}
	}
	return ref
}

// TestShardInvariance covers the golden corpus (all five approaches,
// pocketgl, deadline mode) under the default Bernoulli arrivals.
func TestShardInvariance(t *testing.T) {
	for _, c := range goldenRuns() {
		c := c
		t.Run(c.wl+"/"+c.opt.Approach.String(), func(t *testing.T) {
			t.Parallel()
			p := platform.Default(8)
			p.ISPs = 1
			ref := assertShardInvariant(t, c.wl, p, c.opt)
			if ref.Instances == 0 {
				t.Fatal("sharded run executed nothing")
			}
		})
	}
}

// TestShardInvarianceArrivalProcesses covers every built-in arrival
// process, including the Markov on-off chain whose phase sequence is
// the one sequential dependency the sharded mode must precompute.
func TestShardInvarianceArrivalProcesses(t *testing.T) {
	trace := sim.Trace{Iterations: [][]int{{0, 2}, {1}, {}, {2, 1, 0}, {0}}}
	cases := []struct {
		name     string
		arrivals sim.Arrivals
	}{
		{"bernoulli", sim.Bernoulli{P: 0.6}},
		{"onoff", sim.DefaultOnOff},
		{"onoff-startoff", sim.OnOff{POn: 0.9, POff: 0.1, OnToOff: 0.2, OffToOn: 0.3, StartOff: true}},
		{"trace", trace},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			p := platform.Default(8)
			p.ISPs = 1
			ref := assertShardInvariant(t, "multimedia", p, sim.Options{
				Approach:   sim.Hybrid,
				Iterations: 97, // deliberately not a chunk multiple
				Seed:       5,
				Arrivals:   c.arrivals,
			})
			if ref.Iterations != 97 {
				t.Fatalf("Iterations = %d, want 97", ref.Iterations)
			}
		})
	}
}

// TestShardInvarianceStatefulPolicy: the random replacement policy is
// the one stateful policy; shards re-derive its draws per iteration, so
// invariance must hold for it too (including with lookahead feeding
// Belady, the other policy seam).
func TestShardInvarianceStatefulPolicy(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	assertShardInvariant(t, "multimedia", p, sim.Options{
		Approach:   sim.RunTime,
		Iterations: 80,
		Seed:       11,
		Policy:     reconfig.Random{Rng: rand.New(rand.NewSource(99))},
	})
	assertShardInvariant(t, "multimedia", p, sim.Options{
		Approach:   sim.RunTime,
		Iterations: 80,
		Seed:       11,
		Policy:     reconfig.Belady{},
		Lookahead:  true,
	})
}

// TestShardedObserverOrder: observer records stream in iteration order
// whatever the worker count, and match the 1-worker reference exactly.
func TestShardedObserverOrder(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	collect := func(workers int) []sim.IterationRecord {
		var recs []sim.IterationRecord
		_, err := sim.Run(goldenMix("multimedia"), p, sim.Options{
			Approach:    sim.RunTime,
			Iterations:  130,
			Seed:        3,
			Parallelism: workers,
			Observer:    func(rec sim.IterationRecord) { recs = append(recs, rec) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	ref := collect(1)
	if len(ref) != 130 {
		t.Fatalf("observer saw %d records, want 130", len(ref))
	}
	for i, rec := range ref {
		if rec.Iteration != i {
			t.Fatalf("record %d has iteration %d; sharded observers must stream in order", i, rec.Iteration)
		}
	}
	for _, workers := range shardCounts {
		if got := collect(workers); !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d observer stream diverges from the 1-worker reference", workers)
		}
	}
}

// TestShardedGoldenAggregates pins the sharded family's own reference
// numbers (P = 1, multimedia, hybrid, seed 1), so future refactors
// cannot silently change sharded semantics: the whole invariance suite
// would still pass if every shard count drifted together; this catches
// the drift itself.
func TestShardedGoldenAggregates(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	r, err := sim.Run(goldenMix("multimedia"), p, sim.Options{
		Approach:    sim.Hybrid,
		Iterations:  200,
		Seed:        1,
		Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instances != 628 || r.Loads != 3285 || r.Reuses != 351 || r.SavedLoads != 351 {
		t.Fatalf("sharded golden drifted: instances=%d loads=%d reuses=%d saved=%d",
			r.Instances, r.Loads, r.Reuses, r.SavedLoads)
	}
	if r.IdealTotal != 41724000 || r.ActualTotal != 41772000 {
		t.Fatalf("sharded golden totals drifted: ideal=%d actual=%d", r.IdealTotal, r.ActualTotal)
	}
}

// TestShardInvarianceMultitask: the multitask admission modes shard
// chunk-wise like serial ones (the in-flight set drains at every
// iteration boundary, so chunk boundaries are natural), and their
// concurrency statistics — MaxInFlight above 1, the QueueDelay and
// ResponseTime sketches — survive the merge bit for bit across the
// golden corpus.
func TestShardInvarianceMultitask(t *testing.T) {
	modes := []sim.Multitask{
		{Mode: "partition", Partitions: 2},
		{Mode: "partition", Partitions: 4},
		{Mode: "greedy"},
	}
	for _, c := range goldenRuns() {
		for _, mt := range modes {
			c, mt := c, mt
			name := c.wl + "/" + c.opt.Approach.String() + "/" + mt.Mode
			if mt.Partitions > 0 {
				name += fmt.Sprintf("/p=%d", mt.Partitions)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				p := platform.Default(16)
				p.ISPs = 1
				opt := c.opt
				opt.Multitask = mt
				ref := assertShardInvariant(t, c.wl, p, opt)
				if ref.Instances == 0 {
					t.Fatal("sharded multitask run executed nothing")
				}
				if ref.MultitaskMode != mt.Mode {
					t.Fatalf("MultitaskMode = %q, want %q", ref.MultitaskMode, mt.Mode)
				}
				if c.wl == "multimedia" && ref.MaxInFlight < 2 {
					t.Fatalf("MaxInFlight = %d; multitask admission never ran instances concurrently", ref.MaxInFlight)
				}
			})
		}
	}
}

// TestShardInvarianceMultitaskArrivals crosses partition and greedy
// admission with every built-in arrival process and with deadline mode,
// at an iteration count that is deliberately not a chunk multiple.
func TestShardInvarianceMultitaskArrivals(t *testing.T) {
	trace := sim.Trace{Iterations: [][]int{{0, 2}, {1}, {}, {2, 1, 0}, {0}}}
	arrivals := []struct {
		name string
		arr  sim.Arrivals
	}{
		{"bernoulli", sim.Bernoulli{P: 0.7}},
		{"onoff", sim.DefaultOnOff},
		{"trace", trace},
	}
	modes := []sim.Multitask{
		{Mode: "partition", Partitions: 2},
		{Mode: "greedy"},
	}
	for _, a := range arrivals {
		for _, mt := range modes {
			a, mt := a, mt
			t.Run(a.name+"/"+mt.Mode, func(t *testing.T) {
				t.Parallel()
				p := platform.Default(16)
				p.ISPs = 1
				assertShardInvariant(t, "multimedia", p, sim.Options{
					Approach:   sim.Hybrid,
					Iterations: 97,
					Seed:       5,
					Arrivals:   a.arr,
					Multitask:  mt,
				})
			})
		}
	}
	t.Run("deadline/partition", func(t *testing.T) {
		t.Parallel()
		p := platform.Default(16)
		p.ISPs = 1
		ref := assertShardInvariant(t, "multimedia", p, sim.Options{
			Approach:   sim.Hybrid,
			Iterations: 100,
			Seed:       3,
			Deadline:   120 * model.Millisecond,
			Multitask:  sim.Multitask{Mode: "partition", Partitions: 2},
		})
		if ref.PointEnergy == 0 {
			t.Fatal("deadline mode accumulated no point energy")
		}
	})
}

// TestShardedMultitaskObserverOrder: multitask observer streams keep
// iteration order and the per-iteration MaxInFlight under every worker
// count.
func TestShardedMultitaskObserverOrder(t *testing.T) {
	p := platform.Default(16)
	p.ISPs = 1
	collect := func(workers int) []sim.IterationRecord {
		var recs []sim.IterationRecord
		_, err := sim.Run(goldenMix("multimedia"), p, sim.Options{
			Approach:    sim.RunTime,
			Iterations:  130,
			Seed:        3,
			Parallelism: workers,
			Multitask:   sim.Multitask{Mode: "partition", Partitions: 2},
			Observer:    func(rec sim.IterationRecord) { recs = append(recs, rec) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	ref := collect(1)
	if len(ref) != 130 {
		t.Fatalf("observer saw %d records, want 130", len(ref))
	}
	sawConcurrent := false
	for i, rec := range ref {
		if rec.Iteration != i {
			t.Fatalf("record %d has iteration %d; sharded observers must stream in order", i, rec.Iteration)
		}
		if rec.MaxInFlight > 1 {
			sawConcurrent = true
		}
	}
	if !sawConcurrent {
		t.Fatal("no iteration ran instances concurrently under partition admission")
	}
	for _, workers := range shardCounts {
		if got := collect(workers); !reflect.DeepEqual(ref, got) {
			t.Fatalf("parallelism %d observer stream diverges from the 1-worker reference", workers)
		}
	}
}

// TestParallelismValidation: other bad combinations fail up front with
// matching errors from Validate and Run.
func TestParallelismValidation(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	mix := goldenMix("multimedia")
	cases := []sim.Options{
		{Approach: sim.RunTime, Iterations: 5, Parallelism: -2},
		{Approach: sim.RunTime, Iterations: 5, Parallelism: 2, Arrivals: sequentialOnly{}},
		{Approach: sim.RunTime, Iterations: 5, Parallelism: 2, Trace: obs.NewRecorder(0)},
	}
	for _, opt := range cases {
		vErr := sim.Validate(mix, p, opt)
		if vErr == nil {
			t.Fatalf("parallelism %d accepted by Validate", opt.Parallelism)
		}
		if _, rErr := sim.Run(mix, p, opt); rErr == nil || rErr.Error() != vErr.Error() {
			t.Fatalf("Run error %v does not match Validate error %v", rErr, vErr)
		}
	}
}

// sequentialOnly is an arrival process without indexed draws: explicit
// sharding requests against it must be rejected, not silently run
// sequentially — only AutoParallelism may degrade.
type sequentialOnly struct{}

func (sequentialOnly) Name() string { return "sequential-only" }
func (sequentialOnly) Start(tasks int) (sim.ArrivalSource, error) {
	return sim.Bernoulli{}.Start(tasks)
}

// TestAutoParallelism: auto takes the sharded path — under serial and
// multitask admission alike — with one worker per CPU recorded in
// Workers, and agrees with the explicit 1-worker reference on
// everything else.
func TestAutoParallelism(t *testing.T) {
	for _, mt := range []sim.Multitask{
		{},
		{Mode: "partition", Partitions: 2},
	} {
		p := platform.Default(8)
		p.ISPs = 1
		opt := sim.Options{Approach: sim.NoPrefetch, Iterations: 64, Seed: 2,
			Parallelism: sim.AutoParallelism, Multitask: mt}
		auto, err := sim.Run(goldenMix("multimedia"), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if auto.Execution != "sharded" {
			t.Fatalf("mode %q: Execution = %q, want sharded", mt.Mode, auto.Execution)
		}
		if auto.Workers != runtime.GOMAXPROCS(0) {
			t.Fatalf("mode %q: Workers = %d, want GOMAXPROCS %d", mt.Mode, auto.Workers, runtime.GOMAXPROCS(0))
		}
		opt.Parallelism = 1
		ref, err := sim.Run(goldenMix("multimedia"), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		auto.Workers, ref.Workers = 0, 0
		if !reflect.DeepEqual(auto, ref) {
			t.Fatalf("mode %q: auto parallelism diverges from the 1-worker sharded reference", mt.Mode)
		}
	}
}

// TestAutoParallelismFallback: the two cases sharding is impossible —
// tracing on, no indexed arrival draws — degrade AutoParallelism to the
// sequential path (Workers 0) where an explicit count errors.
func TestAutoParallelismFallback(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	mix := goldenMix("multimedia")
	cases := []struct {
		name string
		mut  func(*sim.Options)
	}{
		{"arrivals", func(o *sim.Options) { o.Arrivals = sequentialOnly{} }},
		{"trace", func(o *sim.Options) { o.Trace = obs.NewRecorder(0) }},
	}
	for _, c := range cases {
		opt := sim.Options{Approach: sim.NoPrefetch, Iterations: 8, Seed: 2, Parallelism: sim.AutoParallelism}
		c.mut(&opt)
		r, err := sim.Run(mix, p, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.Execution != "sequential" || r.Workers != 0 {
			t.Fatalf("%s: Execution = %q Workers = %d, want the sequential fallback", c.name, r.Execution, r.Workers)
		}
	}
}

// TestShardedContextCancel: a canceled context stops a sharded run with
// the context's error.
func TestShardedContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sim.Run(goldenMix("multimedia"), platform.Default(8), sim.Options{
		Approach:    sim.NoPrefetch,
		Iterations:  500,
		Parallelism: 4,
		Context:     ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
}

// TestShardedDeadlineMode: deadline-mode accounting (misses, point
// energy) survives sharding bit for bit — PointEnergy is a float sum,
// the hardest field to keep shard-invariant.
func TestShardedDeadlineMode(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	ref := assertShardInvariant(t, "multimedia", p, sim.Options{
		Approach:   sim.Hybrid,
		Iterations: 100,
		Seed:       3,
		Deadline:   120 * model.Millisecond,
	})
	if ref.PointEnergy == 0 {
		t.Fatal("deadline mode accumulated no point energy")
	}
}

// TestSimRunAllocsSharded pins the scratch discipline of the sharded
// executor: per-shard scratch keeps the per-iteration hot path
// allocation-free, so a whole sharded run stays within a fixed budget
// dominated by per-run setup (shard clones, chunk partials). The
// SimRunParallel rows are BenchmarkSimRunParallel's (no-prefetch, 400
// iterations).
func TestSimRunAllocsSharded(t *testing.T) {
	sharded := func(ap sim.Approach, iters, workers int) sim.Options {
		return sim.Options{Approach: ap, Iterations: iters, Seed: 1, Parallelism: workers}
	}
	checkAllocs(t, []allocRow{
		{"hybrid/workers=2", 8, sharded(sim.Hybrid, 100, 2), 1323},
		{"SimRunParallel/workers=1", 8, sharded(sim.NoPrefetch, 400, 1), 654},
		{"SimRunParallel/workers=2", 8, sharded(sim.NoPrefetch, 400, 2), 836},
		{"SimRunParallel/workers=4", 8, sharded(sim.NoPrefetch, 400, 4), 911},
	})
}

// TestSimRunAllocsMultitaskParallel pins the per-shard scratch budget
// of the sharded multitask path: partition admission reuses the same
// per-shard scratch as serial, so sharding a multitask run must stay
// within the same order of setup-dominated allocations. The
// MultitaskRunParallel rows are BenchmarkMultitaskRunParallel's
// (run-time, 400 iterations).
func TestSimRunAllocsMultitaskParallel(t *testing.T) {
	sharded := func(ap sim.Approach, iters, parts, workers int) sim.Options {
		return sim.Options{
			Approach:    ap,
			Iterations:  iters,
			Seed:        1,
			Parallelism: workers,
			Multitask:   sim.Multitask{Mode: "partition", Partitions: parts},
		}
	}
	checkAllocs(t, []allocRow{
		{"hybrid/partitions=2/workers=2", 16, sharded(sim.Hybrid, 100, 2, 2), 1343},
		{"MultitaskRunParallel/partitions=2/workers=1", 16, sharded(sim.RunTime, 400, 2, 1), 1300},
		{"MultitaskRunParallel/partitions=2/workers=4", 16, sharded(sim.RunTime, 400, 2, 4), 1540},
		{"MultitaskRunParallel/partitions=4/workers=1", 16, sharded(sim.RunTime, 400, 4, 1), 1300},
		{"MultitaskRunParallel/partitions=4/workers=4", 16, sharded(sim.RunTime, 400, 4, 4), 1540},
	})
}
