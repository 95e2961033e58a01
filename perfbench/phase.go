package main

import (
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// workers is the process's parallelism: GOMAXPROCS, which the
// benchmark leaves at its default of one per CPU.
func workers() int { return runtime.GOMAXPROCS(0) }

// round is one repetition of a workload's unit of work within a
// measured phase. The end-to-end metrics are medians over rounds, so a
// burst of interference from outside the process moves a few rounds,
// not the reported figure.
type round struct {
	instances int           // simulated task instances (for the rate)
	elapsed   time.Duration // time those instances took
	latMS     []float64     // operation latencies
	heap      uint64        // peak live heap, from heapWatch
}

// phase is what one measured phase produced.
type phase struct {
	ops       int // successful operations
	instances int
	elapsed   time.Duration
	rates     []float64   // instances per second, per round
	lats      [][]float64 // operation latencies, per round
	heapMB    []float64   // peak live heap, per round

	maxInFlight int
	peakQueued  int
}

// addRound records a round. A round without instances contributes no
// rate; one without latencies contributes no latency quantiles.
func (p *phase) addRound(r round) {
	p.ops += len(r.latMS)
	if r.instances > 0 && r.elapsed > 0 {
		p.instances += r.instances
		p.elapsed += r.elapsed
		p.rates = append(p.rates, float64(r.instances)/r.elapsed.Seconds())
	}
	if len(r.latMS) > 0 {
		p.lats = append(p.lats, r.latMS)
	}
	if r.heap > 0 {
		p.heapMB = append(p.heapMB, float64(r.heap)/(1<<20))
	}
}

// merge folds another phase of the same workload into p.
func (p *phase) merge(q phase) {
	p.ops += q.ops
	p.instances += q.instances
	p.elapsed += q.elapsed
	p.rates = append(p.rates, q.rates...)
	p.lats = append(p.lats, q.lats...)
	p.heapMB = append(p.heapMB, q.heapMB...)
	p.maxInFlight = max(p.maxInFlight, q.maxInFlight)
	p.peakQueued = max(p.peakQueued, q.peakQueued)
}

// instancesPerSecond is the whole phase's rate.
func (p phase) instancesPerSecond() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(p.instances) / p.elapsed.Seconds()
}

// latencyQuantile is the median over rounds of each round's q-quantile.
func (p phase) latencyQuantile(q float64) float64 {
	per := make([]float64, len(p.lats))
	for i, l := range p.lats {
		per[i] = quantile(l, q)
	}
	return median(per)
}

// tracedSlices is how many slices a traced run's measured phase is cut
// into; they alternate between tracer off and on, so drift over the
// run does not bias the overhead estimate.
const tracedSlices = 4

// timedPhases runs the measured phase. Untraced, it runs once for the
// whole --seconds and sets the end-to-end metrics. Traced, it runs in
// tracedSlices equal slices, alternately with the tracer off and on,
// and reports the tracer's overhead as the difference in throughput
// between the two halves. It returns the phase the metrics came from.
func timedPhases(b *bench, run func(seconds float64) (phase, error)) phase {
	if b.tr == nil {
		ph, err := run(b.cfg.seconds)
		if err != nil {
			b.problem("measured phase: %v", err)
			return ph
		}
		b.set("instances_per_s", median(ph.rates), "1/s")
		b.set("p50_ms", ph.latencyQuantile(0.50), "ms")
		b.set("p99_ms", ph.latencyQuantile(0.99), "ms")
		b.set("peak_heap_mb", median(ph.heapMB), "MB")
		b.facts["ops"] = ph.ops
		b.facts["rounds"] = len(ph.rates)
		b.facts["latency_rounds"] = len(ph.lats)
		b.facts["instances"] = ph.instances
		return ph
	}
	var plain, traced phase
	for i := 0; i < tracedSlices; i++ {
		on := i%2 == 1
		b.tr.on.Store(on)
		ph, err := run(b.cfg.seconds / tracedSlices)
		b.tr.on.Store(false)
		if err != nil {
			b.problem("measured phase: %v", err)
			return ph
		}
		if on {
			traced.merge(ph)
		} else {
			plain.merge(ph)
		}
	}
	overhead := 100 * (plain.instancesPerSecond()/traced.instancesPerSecond() - 1)
	b.info("tracing overhead %.2f%% (%.1f instances/s untraced, %.1f traced)",
		overhead, plain.instancesPerSecond(), traced.instancesPerSecond())
	b.set("trace.overhead_pct", overhead, "%")
	b.set("sim.instances", float64(traced.instances), "count")
	b.set("fabric.max_in_flight", float64(traced.maxInFlight), "count")
	b.set("fabric.peak_queued", float64(traced.peakQueued), "count")
	return traced
}

// sameAggregate compares two aggregates produced by aggregate.
func sameAggregate(a, b map[string]any) bool { return reflect.DeepEqual(a, b) }

// heapWatch records the live heap each garbage collection finds, from
// watchHeap until stop: the memory the program holds while a round's
// operations are in flight. A collection's live heap is what its mark
// phase reached, so the figure does not depend on when in an operation
// the watcher happens to look, only on which collections ran.
type heapWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

// gcSentinel carries the watcher's finalizer. It holds a pointer so
// that it is not batched with other small objects by the tiny
// allocator, whose blocks may outlive it.
type gcSentinel struct{ _ *byte }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

// arm attaches a finalizer to a fresh, unreachable sentinel: the next
// collection queues it, and it samples the live heap and re-arms.
func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.stopped {
			return
		}
		w.peak = max(w.peak, liveHeap())
		w.arm()
	})
}

// stop ends the watch and returns the largest live heap seen, in
// bytes; without a collection during the watch, the last one's.
func (w *heapWatch) stop() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.peak == 0 {
		return liveHeap()
	}
	return w.peak
}

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
