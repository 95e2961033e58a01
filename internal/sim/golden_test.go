// Golden pins: the staged kernel with default Bernoulli arrivals must
// reproduce the pre-kernel simulator bit for bit. The expected values
// below were captured by running the monolithic pre-refactor sim.Run
// (commit c1c418a) on the built-in corpus under fixed seeds; any drift
// in RNG consumption order, accounting, or scheduling semantics shows
// up as a mismatch here.
package sim_test

import (
	"fmt"
	"testing"

	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/sim"
	"drhwsched/internal/workload"
)

func goldenMix(name string) []sim.TaskMix {
	if name == "pocketgl" {
		return []sim.TaskMix{{Task: workload.PocketGL().Task}}
	}
	var mix []sim.TaskMix
	for _, app := range workload.Multimedia() {
		mix = append(mix, sim.TaskMix{Task: app.Task, ScenarioWeights: app.ScenarioWeights})
	}
	return mix
}

func TestGoldenPreRefactorAggregates(t *testing.T) {
	type golden struct {
		wl         string
		approach   sim.Approach
		seed       int64
		iterations int
		deadline   model.Dur

		ideal, actual  model.Dur
		instances      int
		loads          int
		initLoads      int
		reuses         int
		cancelled      int
		subtasks       int
		deadlineMisses int
		loadEnergy     float64
		pointEnergy    float64
	}
	cases := []golden{
		{"multimedia", sim.NoPrefetch, 1, 200, 0, 42161000, 53797000, 645, 3698, 0, 0, 0, 3698, 0, 44376, 0},
		{"multimedia", sim.DesignTimePrefetch, 1, 200, 0, 42161000, 45081000, 645, 3698, 0, 0, 0, 3698, 0, 44376, 0},
		{"multimedia", sim.RunTime, 1, 200, 0, 42161000, 44869000, 645, 3337, 0, 361, 0, 3698, 0, 40044, 0},
		{"multimedia", sim.RunTimeInterTask, 1, 200, 0, 42161000, 42165000, 645, 3337, 0, 361, 0, 3698, 0, 40044, 0},
		{"multimedia", sim.Hybrid, 1, 200, 0, 42161000, 42165000, 645, 3337, 1042, 361, 270, 3698, 0, 40044, 0},
		{"pocketgl", sim.Hybrid, 7, 100, 0, 5807600, 5823600, 100, 604, 202, 396, 192, 1000, 0, 7248, 0},
		{"multimedia", sim.Hybrid, 3, 100, 120 * model.Millisecond, 21602000, 21618000, 327, 1876, 1559, 0, 0, 1876, 95, 22512, 2433132},
	}
	for _, c := range cases {
		c := c
		t.Run(c.wl+"/"+c.approach.String(), func(t *testing.T) {
			p := platform.Default(8)
			p.ISPs = 1
			r, err := sim.Run(goldenMix(c.wl), p, sim.Options{
				Approach:   c.approach,
				Iterations: c.iterations,
				Seed:       c.seed,
				Deadline:   c.deadline,
			})
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, got, want any) {
				if got != want {
					t.Errorf("%s = %v, pre-refactor value %v", name, got, want)
				}
			}
			check("IdealTotal", r.IdealTotal, c.ideal)
			check("ActualTotal", r.ActualTotal, c.actual)
			check("Instances", r.Instances, c.instances)
			check("Loads", r.Loads, c.loads)
			check("InitLoads", r.InitLoads, c.initLoads)
			check("Reuses", r.Reuses, c.reuses)
			check("Cancelled", r.Cancelled, c.cancelled)
			check("Subtasks", r.Subtasks, c.subtasks)
			check("DeadlineMisses", r.DeadlineMisses, c.deadlineMisses)
			check("LoadEnergy", r.LoadEnergy, c.loadEnergy)
			check("PointEnergy", r.PointEnergy, c.pointEnergy)
		})
	}
}

// TestSimRunAllocs pins the allocation win of the scratch-reusing
// kernel: the pre-refactor simulator spent ~43k allocations on this
// exact run (hybrid, multimedia, 100 iterations); the staged kernel
// spends ~6.5k, almost all of it in the one-time design-time phase.
// The bound sits at half the old cost so a regression that loses the
// scratch reuse fails loudly while normal variation does not.
func TestSimRunAllocs(t *testing.T) {
	mix := goldenMix("multimedia")
	p := platform.Default(8)
	p.ISPs = 1
	run := func() {
		if _, err := sim.Run(mix, p, sim.Options{Approach: sim.Hybrid, Iterations: 100, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm any global state
	allocs := testing.AllocsPerRun(3, run)
	if allocs > 21000 {
		t.Fatalf("sim.Run allocates %.0f objects/run; the scratch-reusing kernel budget is 21000 (pre-refactor: ~43000)", allocs)
	}
}

// TestSimRunAllocsPerInstance pins that the run-time phase allocates
// nothing per task instance: every allocation of a run belongs to its
// design-time preparation or its per-run setup, so a run of 1000
// iterations allocates no more than a run of 100 plus a small constant
// (sketch buckets and scratch buffers reaching a new high-water mark).
// It covers every approach under serial and partition admission, on the
// sequential kernel and sharded. The sharded runs use one worker: with
// more, how many shard scratches warm up depends on goroutine
// scheduling, and every shard runs the same code.
func TestSimRunAllocsPerInstance(t *testing.T) {
	mix := goldenMix("multimedia")
	p := platform.Default(16)
	p.ISPs = 1
	const slack = 32
	for _, ap := range []sim.Approach{sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid} {
		for _, mt := range []sim.Multitask{{}, {Mode: "partition", Partitions: 2}} {
			for _, workers := range []int{0, 1} {
				t.Run(fmt.Sprintf("%v/%s/workers=%d", ap, mt.Mode, workers), func(t *testing.T) {
					allocs := func(iters int) float64 {
						opt := sim.Options{Approach: ap, Iterations: iters, Seed: 1, Parallelism: workers, Multitask: mt}
						run := func() {
							if _, err := sim.Run(mix, p, opt); err != nil {
								t.Fatal(err)
							}
						}
						run()
						return testing.AllocsPerRun(2, run)
					}
					short, long := allocs(100), allocs(1000)
					if long-short > slack {
						t.Fatalf("1000 iterations allocate %.0f objects, 100 allocate %.0f: %.0f more, over the %d-object slack", long, short, long-short, slack)
					}
				})
			}
		}
	}
}
