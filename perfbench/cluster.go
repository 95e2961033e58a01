package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"drhwsched/internal/cluster"
	"drhwsched/internal/engine"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/server"
	"drhwsched/internal/workload"
)

// replicaIDs are the replicas' fixed identities: the base URLs the
// coordinator's hash ring and the peer stores' rendezvous ranking see.
// A dialer maps each to its loopback listener, so the ring places the
// same keys on the same replica in every run, whatever ports the
// listeners get. The third joins the pool at the hot-add; the names
// are chosen so that it then takes over the grid's costliest value
// (3 tiles), a real share of the re-homed work.
var replicaIDs = [3]string{
	"http://replica-30.perfbench.test",
	"http://replica-31.perfbench.test",
	"http://replica-32.perfbench.test",
}

const clusterIterations = 50

// clusterSweep is the cluster-reshard grid: bench_cluster.sh's
// analysis-heavy re-shard leg, a 12-subtask fan-out at the tight tile
// counts where the exact load search branches most, under every
// approach, with a seed-derived simulation seed.
func clusterSweep(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	sub := []workload.SubtaskDoc{{Name: "src", ExecMS: 5}}
	var edges []workload.EdgeDoc
	for i, ms := range []float64{10, 12, 8, 14, 9, 11, 13, 7, 10, 12, 6} {
		sub = append(sub, workload.SubtaskDoc{Name: fmt.Sprintf("p%d", i+1), ExecMS: ms})
		edges = append(edges, workload.EdgeDoc{From: 0, To: i + 1})
	}
	doc := workload.MixDoc{
		Name:     "reshard",
		Platform: &workload.PlatformDoc{Tiles: 4},
		Sim:      &workload.SimDoc{Approach: "hybrid", Iterations: clusterIterations, Seed: 1 + rng.Int63n(1<<30)},
		Tasks: []workload.TaskDoc{{Name: "fan", Scenarios: []workload.ScenarioDoc{{
			Subtasks: sub, Edges: edges,
		}}}},
	}
	return sweepBody(doc, []int{3, 4, 5, 6})
}

// sweepBody is a /v1/sweep request over tile counts under every
// approach.
func sweepBody(doc workload.MixDoc, tiles []int) ([]byte, error) {
	wl, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return json.Marshal(server.SweepRequest{Workload: wl, Param: "tiles", Values: tiles, Approaches: workload.Approaches()})
}

// dialMap resolves the fixed replica identities to listener addresses.
type dialMap struct {
	mu    sync.Mutex
	addrs map[string]string // host:port -> listener address
}

func (m *dialMap) set(id, addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.addrs[strings.TrimPrefix(id, "http://")+":80"] = addr
}

func (m *dialMap) transport() *http.Transport {
	var d net.Dialer
	return &http.Transport{
		Proxy: nil,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			m.mu.Lock()
			real, ok := m.addrs[addr]
			m.mu.Unlock()
			if !ok {
				real = addr
			}
			return d.DialContext(ctx, network, real)
		},
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}
}

// clusterTap collects what the traced cluster wrappers see.
type clusterTap struct {
	mu      sync.Mutex
	shardMS map[string][]float64 // replica identity -> shard durations
	fillMS  []float64            // successful peer fills
	fills   int
}

// pool is one in-process drhwcoord over the pinned replicas.
type pool struct {
	dm       *dialMap
	replicas [3]*daemon
	stores   [3]*peerstore.Store
	coord    *daemon
	client   *http.Client
	// transports are the replicas' peer-fill and the coordinator's
	// shard transports.
	transports []*timedTransport
}

// bootPool starts the three replicas, each over a tiered peer-fill
// store, and a coordinator over the first two.
func bootPool(tr *tracer, tap *clusterTap) (*pool, error) {
	p := &pool{dm: &dialMap{addrs: map[string]string{}}}
	fillTransport := &timedTransport{inner: p.dm.transport(), tr: tr, name: func(*http.Request) string { return "peerstore.fill" },
		onDone: func(req *http.Request, status int, d time.Duration) {
			if status == http.StatusOK {
				tap.mu.Lock()
				tap.fills++
				tap.fillMS = append(tap.fillMS, ms(d))
				tap.mu.Unlock()
			}
		}}
	for i, id := range replicaIDs {
		local, err := wrapStore(engine.NewLRUStore(0), tr, "peerstore.local", false)
		if err != nil {
			p.close()
			return nil, err
		}
		ps := peerstore.New(peerstore.Config{Local: local, Client: &http.Client{Transport: fillTransport}})
		store, err := wrapStore(ps, tr, "engine.store", true)
		if err != nil {
			p.close()
			return nil, err
		}
		srv := server.New(server.Config{Engine: engine.New(engine.Config{Store: store}), PeerStore: ps,
			ReplicaID: strings.TrimPrefix(id, "http://")})
		d, err := startDaemon(&timedHandler{inner: srv, tr: tr, name: "server.replica"})
		if err != nil {
			p.close()
			return nil, err
		}
		p.replicas[i], p.stores[i] = d, ps
		p.dm.set(id, strings.TrimPrefix(d.base, "http://"))
	}
	// Sweep dispatches are shards; the coordinator's other requests
	// are peer-set pushes.
	shardName := func(req *http.Request) string {
		if req.URL.Path == "/v1/sweep" {
			return "cluster.shard"
		}
		return "cluster.control"
	}
	shardTransport := &timedTransport{inner: p.dm.transport(), tr: tr, name: shardName,
		onDone: func(req *http.Request, status int, d time.Duration) {
			if req.URL.Path != "/v1/sweep" {
				return
			}
			tap.mu.Lock()
			tap.shardMS["http://"+req.URL.Host] = append(tap.shardMS["http://"+req.URL.Host], ms(d))
			tap.mu.Unlock()
		}}
	p.transports = []*timedTransport{fillTransport, shardTransport}
	c, err := cluster.New(cluster.Config{
		Replicas:         replicaIDs[:2],
		HTTPClient:       &http.Client{Transport: shardTransport},
		EvictAfterProbes: -1,
	})
	if err != nil {
		p.close()
		return nil, err
	}
	c.SyncPeers()
	if p.coord, err = startDaemon(&timedHandler{inner: c, tr: tr, name: "cluster.coordinator"}); err != nil {
		p.close()
		return nil, err
	}
	p.client = newClient(2)
	return p, nil
}

func (p *pool) close() {
	if p.client != nil {
		p.client.CloseIdleConnections()
	}
	for _, t := range p.transports {
		t.CloseIdleConnections()
	}
	if p.coord != nil {
		p.coord.close()
	}
	for _, d := range p.replicas {
		if d != nil {
			d.close()
		}
	}
}

// computeTier sums the compute-tier count over the replicas.
func (p *pool) computeTier() int64 {
	var n int64
	for _, s := range p.stores {
		n += s.TierStats().Compute
	}
	return n
}

// hotAdd joins the third replica through the coordinator's admin API.
func (p *pool) hotAdd(ctx context.Context) error {
	body, err := json.Marshal(cluster.ReplicasUpdateRequest{Add: []string{replicaIDs[2]}})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.coord.base+"/v1/replicas", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("hot-add: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// leg is one sweep through the coordinator.
type leg struct {
	cells   map[int][]byte // index -> normalized cell
	dup     int
	order   []int     // cell indices in arrival order
	latMS   []float64 // per arrival, from the leg's start
	elapsed time.Duration
	summary cluster.SweepSummary
}

// sweep posts the grid to the coordinator and reads the NDJSON stream.
func (p *pool) sweep(ctx context.Context, body []byte) (leg, error) {
	l := leg{cells: map[int][]byte{}}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.coord.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return l, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return l, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return l, fmt.Errorf("sweep: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	done := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done":true`)) {
			if err := json.Unmarshal(line, &l.summary); err != nil {
				return l, fmt.Errorf("sweep summary: %w", err)
			}
			done = true
			continue
		}
		idx, norm, err := normalizeCell(line)
		if err != nil {
			return l, err
		}
		if _, seen := l.cells[idx]; seen {
			l.dup++
		}
		l.cells[idx] = norm
		l.order = append(l.order, idx)
		l.latMS = append(l.latMS, ms(time.Since(start)))
	}
	if err := sc.Err(); err != nil {
		return l, err
	}
	l.elapsed = time.Since(start)
	if !done {
		return l, fmt.Errorf("sweep: stream ended without a summary")
	}
	return l, nil
}

// normalizeCell decodes one cell and re-encodes it with its cache
// counters blanked: they depend on which replica served it and what it
// held, not on the result.
func normalizeCell(line []byte) (int, []byte, error) {
	var c server.SweepCell
	if err := json.Unmarshal(line, &c); err != nil {
		return 0, nil, fmt.Errorf("sweep cell: %w", err)
	}
	if c.Error != "" {
		return 0, nil, fmt.Errorf("sweep cell %d: %s", c.Index, c.Error)
	}
	c.CacheHits, c.CacheMisses = 0, 0
	out, err := json.Marshal(c)
	return c.Index, out, err
}

// singleNodeSweep runs the grid on one in-process drhwd over a fresh
// engine: the reference every cluster leg must reproduce.
func singleNodeSweep(body []byte) (map[int][]byte, error) {
	srv := server.New(server.Config{ReplicaID: "perfbench-reference"})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("reference sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	cells := map[int][]byte{}
	for _, line := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
		if bytes.Contains(line, []byte(`"done":true`)) {
			continue
		}
		idx, norm, err := normalizeCell(line)
		if err != nil {
			return nil, err
		}
		cells[idx] = norm
	}
	return cells, nil
}

// assignment is the planner's placement of a grid over replicas:
// replica identity -> swept values it serves.
type assignment map[string][]int

func plannedAssignment(body []byte, replicas []string) (assignment, error) {
	var req server.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	g, err := cluster.ParseGrid(&req)
	if err != nil {
		return nil, err
	}
	all := make([]int, len(g.Values))
	for i := range all {
		all[i] = i
	}
	out := assignment{}
	for node, vis := range g.Assign(cluster.NewRing(replicas, 0), all) {
		for _, vi := range vis {
			out[node] = append(out[node], g.Values[vi])
		}
	}
	return out, nil
}

// dispatchedCells is the cells per replica a leg's summary reports.
func dispatchedCells(s cluster.SweepSummary, lines int) map[string]int {
	out := map[string]int{}
	for _, d := range s.ShardDispatches {
		out[d.Replica] += d.Values * lines
	}
	return out
}

// cycle is one cold leg and one re-shard leg on a fresh pool.
type cycle struct {
	cold, reshard  leg
	reshardCompute int64 // compute-tier gets during the re-shard leg
	reshardPeer    int64 // peer-tier gets on the hot-added replica
}

func runCycle(ctx context.Context, body []byte, tr *tracer, tap *clusterTap) (cycle, error) {
	var c cycle
	p, err := bootPool(tr, tap)
	if err != nil {
		return c, err
	}
	defer p.close()
	if c.cold, err = p.sweep(ctx, body); err != nil {
		return c, fmt.Errorf("cold leg: %w", err)
	}
	if err := p.hotAdd(ctx); err != nil {
		return c, err
	}
	before := p.computeTier()
	if c.reshard, err = p.sweep(ctx, body); err != nil {
		return c, fmt.Errorf("re-shard leg: %w", err)
	}
	c.reshardCompute = p.computeTier() - before
	c.reshardPeer = p.stores[2].TierStats().Peer
	return c, nil
}

type clusterState struct {
	body     []byte
	values   []int
	cells    int
	lines    int
	ref      map[int][]byte
	planned  [2]assignment // cold, re-shard
	instPerX map[int]int   // simulated instances per cell, from the reference
}

// buildCluster is the cluster-reshard set-up: the grid, its planned
// placement on the pinned identities, and the single-node reference
// sweep (which also gives each cell's simulated instance count).
func buildCluster(b *bench) (*clusterState, error) {
	body, err := clusterSweep(b.cfg.seed)
	if err != nil {
		return nil, err
	}
	return newClusterState(body)
}

func newClusterState(body []byte) (*clusterState, error) {
	st := &clusterState{body: body}
	var req server.SweepRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	st.values = req.Values
	st.lines = len(req.Approaches)
	st.cells = len(req.Values) * st.lines
	var err error
	if st.ref, err = singleNodeSweep(body); err != nil {
		return nil, err
	}
	if len(st.ref) != st.cells {
		return nil, fmt.Errorf("reference sweep returned %d cells, want %d", len(st.ref), st.cells)
	}
	for i, n := range []int{2, 3} {
		if st.planned[i], err = plannedAssignment(body, replicaIDs[:n]); err != nil {
			return nil, err
		}
	}
	spec, err := workload.ParseRun(req.Workload)
	if err != nil {
		return nil, err
	}
	// A cell's instance count depends on its arrivals, not on its
	// approach, so one run per swept value gives every cell's count.
	st.instPerX = map[int]int{}
	for _, x := range req.Values {
		p := spec.Platform
		p.Tiles = x
		res, err := engine.New(engine.Config{Workers: 1}).Simulate(spec.Mix, p, spec.Options)
		if err != nil {
			return nil, err
		}
		st.instPerX[x] = res.Instances
	}
	return st, nil
}

func (st *clusterState) instancesPerLeg() int {
	n := 0
	for _, x := range st.values {
		n += st.instPerX[x] * st.lines
	}
	return n
}

// checkLeg verifies one leg: every cell exactly once, byte-identical to
// the single-node reference, and placed as planned.
func (st *clusterState) checkLeg(name string, l leg, planned assignment) error {
	if l.dup > 0 {
		return fmt.Errorf("%s: %d cells delivered twice", name, l.dup)
	}
	if len(l.cells) != st.cells || l.summary.Delivered != st.cells || l.summary.Errors != 0 {
		return fmt.Errorf("%s: %d cells delivered (summary %d, %d errors), want %d",
			name, len(l.cells), l.summary.Delivered, l.summary.Errors, st.cells)
	}
	for idx, want := range st.ref {
		if !bytes.Equal(l.cells[idx], want) {
			return fmt.Errorf("%s: cell %d differs from the single-node sweep:\n got %s\nwant %s", name, idx, l.cells[idx], want)
		}
	}
	if l.summary.RetryWaves != 0 {
		return fmt.Errorf("%s: %d retry waves", name, l.summary.RetryWaves)
	}
	got := dispatchedCells(l.summary, st.lines)
	for node, values := range planned {
		if got[node] != len(values)*st.lines {
			return fmt.Errorf("%s: replica %s served %d cells, placement pins %d", name, node, got[node], len(values)*st.lines)
		}
	}
	if len(got) != len(planned) {
		return fmt.Errorf("%s: %d replicas served cells, placement pins %d", name, len(got), len(planned))
	}
	return nil
}

// checkPlacement compares the planned placement with the committed one
// and requires the hot-added replica to take a share.
func (st *clusterState) checkPlacement(b *bench) {
	data, err := json.Marshal(map[string]assignment{"cold": st.planned[0], "reshard": st.planned[1]})
	if err != nil {
		b.problem("placement: %v", err)
		return
	}
	b.info("cluster placement %s", data)
	b.facts["placement"] = json.RawMessage(data)
	if len(st.planned[1][replicaIDs[2]]) == 0 {
		b.problem("placement: the hot-added replica takes no share of the grid")
	}
	path := b.cfg.dir + "/expect/cluster-placement.json"
	if b.cfg.writeExpect {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			b.problem("placement: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		b.problem("placement: %v", err)
		return
	}
	if !bytes.Equal(bytes.TrimSpace(want), data) {
		b.problem("placement changed: got %s, committed %s", data, bytes.TrimSpace(want))
	}
}

func runCluster(b *bench) error {
	st, err := measureSetup(b, func() (*clusterState, error) { return buildCluster(b) })
	if err != nil {
		return err
	}
	st.checkPlacement(b)
	tap := &clusterTap{shardMS: map[string][]float64{}}
	var cycles []cycle
	timedPhases(b, func(seconds float64) (phase, error) {
		ph, cs := clusterPhase(b, st, seconds, tap)
		cycles = cs
		return ph, nil
	})
	coldS, reshardS := legRates(cycles, st.cells)
	b.info("cluster-reshard: %d cycles, cold leg %.2f cells/s, re-shard leg %.2f cells/s",
		len(cycles), coldS, reshardS)
	b.facts["cold_cells_per_s"] = coldS
	b.facts["reshard_cells_per_s"] = reshardS
	b.facts["cycles"] = len(cycles)
	b.work["cells_per_leg"] = st.cells
	b.work["iterations_per_cell"] = clusterIterations
	b.work["instances_per_cycle"] = 2 * st.instancesPerLeg()
	b.work["replicas"] = []int{2, 3}
	if b.tr != nil {
		clusterLayers(b, st, cycles, tap)
		in, err := clusterInputs(st.body)
		return ladder(b, in, err)
	}
	return nil
}

// clusterPhase runs cycles on fresh pools until seconds have passed.
// An operation is one cell; its latency is the time from the start of
// its leg to its arrival. Throughput counts the legs' time only.
func clusterPhase(b *bench, st *clusterState, seconds float64, tap *clusterTap) (phase, []cycle) {
	var ph phase
	var cycles []cycle
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) || len(cycles) == 0 {
		hw := watchHeap()
		c, err := runCycle(context.Background(), st.body, b.tr, tap)
		heap := hw.stop()
		if err == nil {
			err = st.checkLeg("cold leg", c.cold, st.planned[0])
		}
		if err == nil {
			err = st.checkLeg("re-shard leg", c.reshard, st.planned[1])
		}
		if err == nil && c.reshardCompute != 0 {
			err = fmt.Errorf("re-shard leg computed %d analyses, want 0 (peer fill)", c.reshardCompute)
		}
		if err == nil && c.reshardPeer == 0 {
			err = fmt.Errorf("re-shard leg: the hot-added replica filled nothing from its peers")
		}
		if err != nil {
			b.op(err)
			if time.Now().After(deadline) {
				break
			}
			continue
		}
		r := round{heap: heap}
		for _, l := range []leg{c.cold, c.reshard} {
			for _, idx := range l.order {
				b.op(nil)
				r.instances += st.instPerX[st.values[idx/st.lines]]
			}
			r.latMS = append(r.latMS, l.latMS...)
			r.elapsed += l.elapsed
		}
		ph.addRound(r)
		cycles = append(cycles, c)
	}
	return ph, cycles
}

func legRates(cycles []cycle, cells int) (cold, reshard float64) {
	var c, r time.Duration
	for _, cy := range cycles {
		c += cy.cold.elapsed
		r += cy.reshard.elapsed
	}
	n := float64(len(cycles) * cells)
	if c > 0 {
		cold = n / c.Seconds()
	}
	if r > 0 {
		reshard = n / r.Seconds()
	}
	return cold, reshard
}
