// Multitask execute-stage tests: the serial admission mode must be
// indistinguishable from the default (which the golden tests pin to the
// pre-fabric kernel bit for bit), partition admission must actually
// overlap instances on a wide platform, and the event loop must keep
// the scratch discipline (allocation budget) and the replacement
// invariants.
package sim_test

import (
	"reflect"
	"testing"

	"drhwsched/internal/model"
	"drhwsched/internal/platform"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/sim"
)

// goldenRuns enumerates the golden corpus cases (all five approaches
// plus pocketgl and deadline mode) the serial-identity test replays.
func goldenRuns() []struct {
	wl  string
	opt sim.Options
} {
	return []struct {
		wl  string
		opt sim.Options
	}{
		{"multimedia", sim.Options{Approach: sim.NoPrefetch, Iterations: 200, Seed: 1}},
		{"multimedia", sim.Options{Approach: sim.DesignTimePrefetch, Iterations: 200, Seed: 1}},
		{"multimedia", sim.Options{Approach: sim.RunTime, Iterations: 200, Seed: 1}},
		{"multimedia", sim.Options{Approach: sim.RunTimeInterTask, Iterations: 200, Seed: 1}},
		{"multimedia", sim.Options{Approach: sim.Hybrid, Iterations: 200, Seed: 1}},
		{"pocketgl", sim.Options{Approach: sim.Hybrid, Iterations: 100, Seed: 7}},
		{"multimedia", sim.Options{Approach: sim.Hybrid, Iterations: 100, Seed: 3, Deadline: 120 * model.Millisecond}},
	}
}

// TestMultitaskSerialBitIdentical pins that an explicit multitask
// serial mode produces exactly the Result of the default options on the
// whole built-in corpus. Together with TestGoldenPreRefactorAggregates
// (default == pre-refactor kernel) this proves serial multitasking is
// bit-identical to the pre-fabric sequential replay.
func TestMultitaskSerialBitIdentical(t *testing.T) {
	for _, c := range goldenRuns() {
		c := c
		t.Run(c.wl+"/"+c.opt.Approach.String(), func(t *testing.T) {
			p := platform.Default(8)
			p.ISPs = 1
			base, err := sim.Run(goldenMix(c.wl), p, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			opt := c.opt
			opt.Multitask = sim.Multitask{Mode: "serial"}
			serial, err := sim.Run(goldenMix(c.wl), p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base, serial) {
				t.Fatalf("explicit serial mode diverges from the default:\n default: %+v\n serial:  %+v", base, serial)
			}
			if base.MultitaskMode != "serial" {
				t.Fatalf("default mode reported as %q, want serial", base.MultitaskMode)
			}
			if base.Instances > 0 && base.MaxInFlight != 1 {
				t.Fatalf("serial run reports %d instances in flight, want 1", base.MaxInFlight)
			}
		})
	}
}

// TestMultitaskPartitionOverlapsInstances is the acceptance assertion:
// partition admission on a double-width platform runs more than one
// instance concurrently (observed through the iteration observer), and
// the queueing-delay / response-time tails come out through Result.
func TestMultitaskPartitionOverlapsInstances(t *testing.T) {
	p := platform.Default(16) // 2x the paper's platform
	p.ISPs = 1
	overlapped := 0
	r, err := sim.Run(goldenMix("multimedia"), p, sim.Options{
		Approach:   sim.RunTime,
		Iterations: 50,
		Seed:       1,
		Multitask:  sim.Multitask{Mode: "partition", Partitions: 2},
		Observer: func(rec sim.IterationRecord) {
			if rec.MaxInFlight > 1 {
				overlapped++
			}
			if rec.MaxInFlight > rec.Instances {
				t.Errorf("iteration %d: %d in flight out of %d instances", rec.Iteration, rec.MaxInFlight, rec.Instances)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if overlapped == 0 {
		t.Fatal("partition mode never had >1 instance in flight on a 2x-tile platform")
	}
	if r.MaxInFlight < 2 {
		t.Fatalf("Result.MaxInFlight = %d, want >= 2", r.MaxInFlight)
	}
	if r.MultitaskMode != "partition" || r.Partitions != 2 {
		t.Fatalf("multitask telemetry = %q/%d, want partition/2", r.MultitaskMode, r.Partitions)
	}
	if r.ResponseTime.P50 <= 0 {
		t.Fatalf("response-time tail empty: %+v", r.ResponseTime)
	}
	if r.QueueDelay.P99 < r.QueueDelay.P50 {
		t.Fatalf("queue-delay tail not ordered: %+v", r.QueueDelay)
	}

	// Concurrency must shrink the admission wait relative to the
	// same workload run serially on the same platform.
	serial, err := sim.Run(goldenMix("multimedia"), p, sim.Options{
		Approach: sim.RunTime, Iterations: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.QueueDelay.P95 >= serial.QueueDelay.P95 {
		t.Fatalf("partition queue delay P95 %.3f ms not below serial %.3f ms",
			r.QueueDelay.P95, serial.QueueDelay.P95)
	}
}

// TestMultitaskGreedySmoke runs every approach under greedy admission:
// the run must complete, execute the same instance count as serial, and
// keep the aggregate sane.
func TestMultitaskGreedySmoke(t *testing.T) {
	p := platform.Default(16)
	p.ISPs = 1
	for _, ap := range []sim.Approach{sim.NoPrefetch, sim.DesignTimePrefetch, sim.RunTime, sim.RunTimeInterTask, sim.Hybrid} {
		opt := sim.Options{Approach: ap, Iterations: 30, Seed: 2}
		serial, err := sim.Run(goldenMix("multimedia"), p, opt)
		if err != nil {
			t.Fatalf("%v serial: %v", ap, err)
		}
		opt.Multitask = sim.Multitask{Mode: "greedy"}
		greedy, err := sim.Run(goldenMix("multimedia"), p, opt)
		if err != nil {
			t.Fatalf("%v greedy: %v", ap, err)
		}
		if greedy.Instances != serial.Instances || greedy.Subtasks != serial.Subtasks {
			t.Fatalf("%v: greedy ran %d/%d instances/subtasks, serial %d/%d",
				ap, greedy.Instances, greedy.Subtasks, serial.Instances, serial.Subtasks)
		}
		if greedy.OverheadPct < 0 {
			t.Fatalf("%v: negative overhead under greedy admission", ap)
		}
		if greedy.MaxInFlight < 2 {
			t.Fatalf("%v: greedy admission never overlapped instances on 16 tiles", ap)
		}
	}
}

// TestMultitaskValidation: bad configurations are rejected up front,
// with the same error from Validate and Run.
func TestMultitaskValidation(t *testing.T) {
	p := platform.Default(8)
	mix := goldenMix("pocketgl")
	cases := []sim.Multitask{
		{Mode: "time-travel"},
		{Mode: "partition", Partitions: 9}, // more partitions than tiles
		{Mode: "greedy", Partitions: 2},    // partitions outside partition mode
		{Mode: "serial", Partitions: 1},
	}
	for _, mt := range cases {
		opt := sim.Options{Approach: sim.Hybrid, Iterations: 1, Multitask: mt}
		vErr := sim.Validate(mix, p, opt)
		if vErr == nil {
			t.Fatalf("%+v accepted by Validate", mt)
		}
		if _, rErr := sim.Run(mix, p, opt); rErr == nil || rErr.Error() != vErr.Error() {
			t.Fatalf("%+v: Run error %v does not match Validate error %v", mt, rErr, vErr)
		}
	}
}

// TestSimRunAllocsMultitask pins the scratch discipline of the
// event-driven execute stage: a partition-mode run on a double-width
// platform must stay within the same order of allocations as the serial
// kernel — the event loop, claims and flight table all reuse buffers.
// The MultitaskRun rows are BenchmarkMultitaskRun's (run-time, 100
// iterations).
func TestSimRunAllocsMultitask(t *testing.T) {
	partition := func(ap sim.Approach, parts int) sim.Options {
		return sim.Options{Approach: ap, Iterations: 100, Seed: 1, Multitask: sim.Multitask{Mode: "partition", Partitions: parts}}
	}
	checkAllocs(t, []allocRow{
		{"hybrid/partitions=2", 16, partition(sim.Hybrid, 2), 1193},
		{"MultitaskRun/partitions=1", 16, partition(sim.RunTime, 1), 1179},
		{"MultitaskRun/partitions=2", 16, partition(sim.RunTime, 2), 1184},
		{"MultitaskRun/partitions=4", 16, partition(sim.RunTime, 4), 1181},
	})
}

// TestLookaheadBeatsLRUUnderContention is the replacement-policy
// contention guarantee on the built-in corpus: with the upcoming
// configuration stream published, the lookahead (Belady) policy must
// achieve at least the reuse rate of LRU.
func TestLookaheadBeatsLRUUnderContention(t *testing.T) {
	p := platform.Default(8)
	p.ISPs = 1
	run := func(opt sim.Options) *sim.Result {
		r, err := sim.Run(goldenMix("multimedia"), p, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	lru := run(sim.Options{Approach: sim.RunTime, Iterations: 100, Seed: 1})
	belady := run(sim.Options{Approach: sim.RunTime, Iterations: 100, Seed: 1,
		Policy: reconfig.Belady{}, Lookahead: true})
	if belady.ReusePct < lru.ReusePct {
		t.Fatalf("lookahead reuse %.2f%% below LRU %.2f%%", belady.ReusePct, lru.ReusePct)
	}
	if belady.Reuses == 0 {
		t.Fatal("no reuse at all under contention — the corpus should evict")
	}
}
