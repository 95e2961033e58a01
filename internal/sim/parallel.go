package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"drhwsched/internal/fabric"
	"drhwsched/internal/model"
	"drhwsched/internal/reconfig"
	"drhwsched/internal/stats"
)

// The sharded executor (Options.Parallelism >= 1).
//
// The iteration stream is cut into fixed-size chunks, each an
// independent Monte-Carlo replication run by the kernel's one chunk
// loop (runChunk), which the sequential path runs over the single chunk
// [0, N). A shard starts a chunk on a cold fabric at clock zero; tile
// residency and availability carry across the iterations inside a chunk
// (the paper's cross-iteration reuse mechanism stays alive), and reset
// at chunk boundaries. Every iteration's randomness comes from its own
// counter-derived stream (seed.go), so a chunk's outcome is a pure
// function of (inputs, Seed, chunk index) — the only remaining
// shard-count hazard is accumulation order, handled by merging the
// per-chunk partials in chunk-index order — and any worker count
// produces bit-identical Results.
//
// Work distribution is chunk self-scheduling: workers pull chunk
// indices from an atomic counter, so a straggler chunk never idles the
// other workers, and the assignment of chunks to workers is free to
// vary between runs without affecting any result.

// shardChunk is the fixed replication length and scheduling grain of
// the sharded executor. Chunk boundaries depend only on the iteration
// count — never on the worker count — and every chunk accumulates into
// its own Result partial, merged in chunk-index order. That makes even
// the non-associative float sums (LoadEnergy, PointEnergy)
// bit-identical for every Parallelism and every scheduling order;
// integer sums, max merges and sketch merges are order-invariant
// anyway.
const shardChunk = 32

// chunkDone is a worker's completion report for one chunk.
type chunkDone struct {
	chunk int
	err   error
}

// runSharded executes the iteration stream across shardWorkers workers
// and merges the chunk partials into the master aggregate.
func (k *kernel) runSharded() (*Result, error) {
	total := k.opt.Iterations
	chunks := (total + shardChunk - 1) / shardChunk
	workers := min(k.shardWorkers, chunks)

	partials := make([]Result, chunks)
	var recs [][]IterationRecord
	if k.opt.Observer != nil {
		recs = make([][]IterationRecord, chunks)
	}
	shards := make([]*kernel, workers)
	for i := range shards {
		sh, err := k.newShard()
		if err != nil {
			return nil, err
		}
		shards[i] = sh
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	done := make(chan chunkDone, chunks)
	for _, sh := range shards {
		wg.Add(1)
		go func(sh *kernel) {
			defer wg.Done()
			for !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				lo := c * shardChunk
				hi := min(lo+shardChunk, total)
				var emit Observer
				if recs != nil {
					// The coordinator flushes each chunk's buffer in order.
					recs[c] = make([]IterationRecord, 0, hi-lo)
					emit = func(rec IterationRecord) { recs[c] = append(recs[c], rec) }
				}
				err := sh.runChunk(lo, hi, &partials[c], (*kernel).drawIndexed, emit)
				if err != nil {
					failed.Store(true)
				}
				done <- chunkDone{chunk: c, err: err}
			}
		}(sh)
	}
	go func() {
		wg.Wait()
		close(done)
	}()

	// The coordinator — the Run caller's goroutine — flushes observer
	// records as the completed chunk prefix grows, preserving the
	// Observer contract: synchronous with Run, in iteration order. On
	// error the lowest-index failure wins so the reported error does
	// not depend on worker scheduling.
	completed := make([]bool, chunks)
	flushed := 0
	errChunk := -1
	var firstErr error
	for d := range done {
		if d.err != nil {
			if errChunk < 0 || d.chunk < errChunk {
				errChunk, firstErr = d.chunk, d.err
			}
			continue
		}
		completed[d.chunk] = true
		if recs != nil {
			for flushed < chunks && completed[flushed] {
				for _, rec := range recs[flushed] {
					k.opt.Observer(rec)
				}
				recs[flushed] = nil
				flushed++
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	for c := range partials {
		k.res.addChunk(&partials[c])
	}
	for _, sh := range shards {
		if sh.maxInFlight > k.maxInFlight {
			k.maxInFlight = sh.maxInFlight
		}
		if sh.peakQueued > k.peakQueued {
			k.peakQueued = sh.peakQueued
		}
		for i, d := range sh.ispBusy {
			k.ispBusy[i] += d
		}
		for _, m := range [...][2]*stats.Sketch{
			{k.mkQ, sh.mkQ}, {k.ovQ, sh.ovQ}, {k.qdQ, sh.qdQ}, {k.rtQ, sh.rtQ},
		} {
			if err := m[0].Merge(m[1]); err != nil {
				return nil, err
			}
		}
	}
	return k.finish(), nil
}

// newShard clones the master kernel into a worker-owned copy: shared
// read-only design-time tables (mix, platform, prepared artifacts,
// admission policy), private everything-else (fabric, scratch,
// sketches, generators). The clone's hot path is the same
// single-goroutine code the sequential kernel runs.
func (k *kernel) newShard() (*kernel, error) {
	sh := &kernel{
		mix:          k.mix,
		p:            k.p,
		opt:          k.opt,
		prep:         k.prep,
		alloc:        k.alloc,
		modeName:     k.modeName,
		partitions:   k.partitions,
		useReuse:     k.useReuse,
		interTask:    k.interTask,
		shardWorkers: k.shardWorkers,
		rng:          rand.New(&splitmixSource{}),
		ispBusy:      make([]model.Dur, k.p.ISPs),
	}
	policy := k.opt.Policy
	if policy == nil {
		policy = reconfig.LRU{}
	}
	if _, ok := policy.(reconfig.Random); ok {
		// The one stateful policy: each shard draws victims from its
		// own generator, re-pointed per iteration (drawIndexed), so
		// victim choices stay a function of the iteration alone.
		sh.polRng = rand.New(&splitmixSource{})
		policy = reconfig.Random{Rng: sh.polRng}
	}
	sh.fab = fabric.New(k.p, policy)

	arrivals := k.opt.Arrivals
	if arrivals == nil {
		arrivals = Bernoulli{P: k.opt.InclusionProb}
	}
	sa, ok := arrivals.(ShardableArrivals)
	if !ok {
		// Unreachable through Run — Validate rejects this — but kept
		// for direct constructor misuse.
		return nil, fmt.Errorf("sim: arrival process %q cannot run sharded: it has no indexed per-iteration draw", arrivals.Name())
	}
	isrc, err := sa.StartSharded(len(k.mix), k.opt.Iterations, k.opt.Seed)
	if err != nil {
		return nil, err
	}
	sh.isrc = isrc

	sh.newSketches()
	sh.bindScratch()
	return sh, nil
}

// addChunk folds one chunk partial into the aggregate. Only the
// additive accumulation fields live in partials; derived fields
// (OverheadPct, tails, mode names) are computed once by finish.
func (r *Result) addChunk(p *Result) {
	r.IdealTotal += p.IdealTotal
	r.ActualTotal += p.ActualTotal
	r.Instances += p.Instances
	r.Loads += p.Loads
	r.InitLoads += p.InitLoads
	r.Reuses += p.Reuses
	r.Cancelled += p.Cancelled
	r.Subtasks += p.Subtasks
	r.LoadEnergy += p.LoadEnergy
	r.SavedLoads += p.SavedLoads
	r.SchedCost += p.SchedCost
	r.DeadlineMisses += p.DeadlineMisses
	r.PointEnergy += p.PointEnergy
	r.PrefetchHits += p.PrefetchHits
	r.DemandMisses += p.DemandMisses
}
