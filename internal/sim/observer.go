package sim

import "drhwsched/internal/model"

// IterationRecord is what the kernel's accounting stage emits once per
// iteration: the aggregate a streaming consumer (tail sketches, the
// drhwd NDJSON stream) needs without retaining per-instance detail.
type IterationRecord struct {
	// Iteration is the zero-based iteration index.
	Iteration int
	// Instances is the number of task arrivals executed (0 for an idle
	// iteration of a trace or on-off gap).
	Instances int
	// MaxInFlight is the peak number of instances concurrently holding
	// fabric claims this iteration: 1 whenever anything ran under
	// serial admission, possibly more under partition/greedy
	// multitasking.
	MaxInFlight int
	// Makespan is the iteration's wall-clock span: the latest
	// completion among its tasks minus the end of the previous
	// iteration (including any modelled scheduler CPU cost). Under
	// serial admission the tasks run back to back, so this is also the
	// sum of their spans; under partition/greedy multitasking
	// concurrent instances overlap and the makespan shrinks
	// accordingly.
	Makespan model.Dur
	// Overhead is the reconfiguration overhead this iteration added.
	Overhead model.Dur
	// Loads and Reuses count reconfigurations performed and subtasks
	// that found their configuration resident.
	Loads  int
	Reuses int
	// DeadlineMiss reports that the fastest point combination could not
	// meet Options.Deadline this iteration.
	DeadlineMiss bool
}

// Observer receives one record per iteration, synchronously from the
// run's goroutine, in iteration order. Observers must not retain the
// record's address beyond the call (it is reused); the value is plain
// data and may be copied freely. A non-nil Observer never changes the
// run's results — it only watches them. Runs fanned out concurrently
// (engine.Batch/Stream) each need their own Observer value unless the
// function is safe for concurrent use.
type Observer func(IterationRecord)

// Tail summarizes a per-iteration distribution: streaming P50/P95/P99
// estimates in milliseconds, each within stats.DefaultSketchAlpha
// relative error of the exact sample quantile (stats.Sketch).
type Tail struct {
	P50 float64
	P95 float64
	P99 float64
}
