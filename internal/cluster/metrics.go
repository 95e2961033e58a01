package cluster

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"drhwsched/internal/httpx"
)

// metrics aggregates the coordinator's counters for /metrics. The
// request families come from the chassis drhwd shares, so one scrape
// config covers both tiers of the fabric; names use the drhwcoord_
// prefix.
type metrics struct {
	mu              sync.Mutex
	started         time.Time
	requests        *httpx.Metrics
	sweeps          int64 // completed coordinator sweeps
	cells           int64 // cells merged into client streams
	cellRetries     int64 // cells re-dispatched after a replica failure
	replicaFailures int64 // replica streams abandoned (error or idle timeout)
	shards          int64 // sub-sweeps issued (including retry waves)

	replicasAdded    int64 // pool additions (hot-add and reactivation)
	replicasRemoved  int64 // admin drains (pool → drained)
	replicasEvicted  int64 // probe-driven evictions (dropped entirely)
	peerPushes       int64 // successful /v1/peers pushes to members
	peerPushFailures int64 // failed pushes (member falls back to compute)
}

func newMetrics() *metrics {
	return &metrics{started: time.Now(), requests: httpx.NewMetrics()}
}

func (m *metrics) sweepDone(cells, retried, failures, shards int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweeps++
	m.cells += int64(cells)
	m.cellRetries += int64(retried)
	m.replicaFailures += int64(failures)
	m.shards += int64(shards)
}

func (m *metrics) replicaAdded() {
	m.mu.Lock()
	m.replicasAdded++
	m.mu.Unlock()
}

func (m *metrics) replicaRemoved() {
	m.mu.Lock()
	m.replicasRemoved++
	m.mu.Unlock()
}

func (m *metrics) replicaEvicted() {
	m.mu.Lock()
	m.replicasEvicted++
	m.mu.Unlock()
}

func (m *metrics) peerPush(ok bool) {
	m.mu.Lock()
	if ok {
		m.peerPushes++
	} else {
		m.peerPushFailures++
	}
	m.mu.Unlock()
}

// render writes the Prometheus text format. replicas is the active
// pool size; drained counts admin-removed members still serving peer
// fills; inflight is the admitted requests now running.
func (m *metrics) render(w io.Writer, replicas, drained, inflight int) {
	var buf bytes.Buffer
	m.mu.Lock()
	fmt.Fprintf(&buf, "# TYPE drhwcoord_uptime_seconds gauge\n")
	fmt.Fprintf(&buf, "drhwcoord_uptime_seconds %g\n", time.Since(m.started).Seconds())
	fmt.Fprintf(&buf, "# TYPE drhwcoord_inflight_requests gauge\n")
	fmt.Fprintf(&buf, "drhwcoord_inflight_requests %d\n", inflight)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_replicas gauge\n")
	fmt.Fprintf(&buf, "drhwcoord_replicas %d\n", replicas)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_replicas_drained gauge\n")
	fmt.Fprintf(&buf, "drhwcoord_replicas_drained %d\n", drained)

	m.requests.Render(&buf, "drhwcoord")
	fmt.Fprintf(&buf, "# TYPE drhwcoord_sweeps_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_sweeps_total %d\n", m.sweeps)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_cells_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_cells_total %d\n", m.cells)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_cell_retries_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_cell_retries_total %d\n", m.cellRetries)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_replica_failures_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_replica_failures_total %d\n", m.replicaFailures)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_shards_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_shards_total %d\n", m.shards)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_replicas_added_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_replicas_added_total %d\n", m.replicasAdded)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_replicas_removed_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_replicas_removed_total %d\n", m.replicasRemoved)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_replicas_evicted_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_replicas_evicted_total %d\n", m.replicasEvicted)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_peer_pushes_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_peer_pushes_total %d\n", m.peerPushes)
	fmt.Fprintf(&buf, "# TYPE drhwcoord_peer_push_failures_total counter\n")
	fmt.Fprintf(&buf, "drhwcoord_peer_push_failures_total %d\n", m.peerPushFailures)
	m.mu.Unlock()
	w.Write(buf.Bytes())
}
