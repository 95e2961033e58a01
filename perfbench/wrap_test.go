package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/platform"
	"drhwsched/internal/server"
	"drhwsched/internal/sim"
)

func onTracer() *tracer {
	tr := newTracer()
	tr.on.Store(true)
	return tr
}

// TestWrapStoreForwardsExactly checks that a wrapped store implements
// the optional interfaces its inner store implements, and no others.
func TestWrapStoreForwardsExactly(t *testing.T) {
	cases := []struct {
		name      string
		inner     engine.Store
		pg, fr, t bool
	}{
		{"lru", engine.NewLRUStore(4), true, false, false},
		{"peerstore", peerstore.New(peerstore.Config{}), true, true, true},
	}
	for _, c := range cases {
		w, err := wrapStore(c.inner, onTracer(), "engine.store", true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, pg := w.(engine.PeerGetter)
		_, fr := w.(engine.FetchReporter)
		_, ts := w.(tierStatser)
		if pg != c.pg || fr != c.fr || ts != c.t {
			t.Errorf("%s: wrapper forwards PeerGetter=%v FetchReporter=%v TierStats=%v, inner has %v %v %v",
				c.name, pg, fr, ts, c.pg, c.fr, c.t)
		}
	}
}

// TestWrappedEngineSameResults runs the same simulations through an
// engine over a plain store and over a wrapped one (tracer on): every
// result field, cache counters included, must match.
func TestWrappedEngineSameResults(t *testing.T) {
	wrapped, err := wrapStore(engine.NewLRUStore(0), onTracer(), "engine.store", true)
	if err != nil {
		t.Fatal(err)
	}
	engines := []*engine.Engine{
		engine.New(engine.Config{Workers: 1}),
		engine.New(engine.Config{Workers: 1, Store: wrapped}),
	}
	var got [2][]*sim.Result
	for i, eng := range engines {
		for _, approach := range []sim.Approach{sim.RunTime, sim.Hybrid, sim.Hybrid} {
			r, err := eng.Simulate(multimediaMix(), platform.Default(8),
				sim.Options{Approach: approach, Iterations: 40, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = append(got[i], r)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("wrapped engine results differ from unwrapped ones")
	}
	if engines[0].CacheStats() != engines[1].CacheStats() {
		t.Fatalf("cache stats differ: %+v vs %+v", engines[0].CacheStats(), engines[1].CacheStats())
	}
}

// serveBodies sends the same requests to a server and returns the
// response bodies.
func serveBodies(t *testing.T, h http.Handler, reqs []corpusItem) [][]byte {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	var out [][]byte
	for _, it := range reqs {
		resp, err := http.Post(ts.URL+"/v1/"+it.endpoint, "application/json", bytes.NewReader(it.body))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", it.endpoint, resp.StatusCode, err, data)
		}
		if it.endpoint == "sweep" {
			data = canonicalSweep(t, data)
		}
		out = append(out, data)
	}
	return out
}

// canonicalSweep puts a sweep stream's cells, which arrive in
// completion order with per-cell cache attribution that depends on
// that order, into index order with the counters blanked; the summary
// line stays as it is.
func canonicalSweep(t *testing.T, data []byte) []byte {
	t.Helper()
	cells := map[int][]byte{}
	var summary []byte
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if bytes.Contains(line, []byte(`"done":true`)) {
			summary = line
			continue
		}
		idx, norm, err := normalizeCell(line)
		if err != nil {
			t.Fatal(err)
		}
		cells[idx] = norm
	}
	var out bytes.Buffer
	for i := 0; i < len(cells); i++ {
		out.Write(cells[i])
		out.WriteByte('\n')
	}
	out.Write(summary)
	return out.Bytes()
}

// TestWrappedServerSameResponses serves the same request sequence,
// streaming sweeps included, from a plain drhwd and from one whose
// handler and store are wrapped: the bodies must be byte-identical.
func TestWrappedServerSameResponses(t *testing.T) {
	corpus := probeDocs(t, 5, 6, 7)
	sweep, err := clusterSweep(5)
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(corpus[:len(corpus):len(corpus)], corpusItem{endpoint: "sweep", body: sweep})
	reqs = append(reqs, corpus...)

	plain := server.New(server.Config{ReplicaID: "r"})
	tr := onTracer()
	store, err := wrapStore(engine.NewLRUStore(0), tr, "engine.store", true)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{ReplicaID: "r", Engine: engine.New(engine.Config{Store: store})})
	a := serveBodies(t, plain, reqs)
	b := serveBodies(t, &timedHandler{inner: srv, tr: tr, name: "server.handler"}, reqs)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("request %d (%s): bodies differ:\n%s\n%s", i, reqs[i].endpoint, a[i], b[i])
		}
	}
	if len(tr.durations("server.handler")) != len(reqs) {
		t.Fatalf("handler spans = %d, want %d", len(tr.durations("server.handler")), len(reqs))
	}
}

// TestWrappedClusterSameCells runs one cold and one re-shard leg on a
// pool without a tracer and on one with every wrapper recording: the
// cells, the placement and the tier traffic must match.
func TestWrappedClusterSameCells(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two replica pools")
	}
	body, err := clusterSweep(5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var cycles [2]cycle
	var taps [2]*clusterTap
	for i, tr := range []*tracer{nil, onTracer()} {
		taps[i] = &clusterTap{shardMS: map[string][]float64{}}
		if cycles[i], err = runCycle(ctx, body, tr, taps[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct {
		name string
		a, b leg
	}{{"cold", cycles[0].cold, cycles[1].cold}, {"re-shard", cycles[0].reshard, cycles[1].reshard}} {
		if !reflect.DeepEqual(l.a.cells, l.b.cells) {
			t.Errorf("%s leg: cells differ", l.name)
		}
		if !reflect.DeepEqual(dispatchedCells(l.a.summary, 5), dispatchedCells(l.b.summary, 5)) {
			t.Errorf("%s leg: placement differs", l.name)
		}
	}
	if cycles[0].reshardCompute != cycles[1].reshardCompute || cycles[0].reshardPeer != cycles[1].reshardPeer {
		t.Errorf("tier traffic differs: compute %d/%d, peer %d/%d",
			cycles[0].reshardCompute, cycles[1].reshardCompute, cycles[0].reshardPeer, cycles[1].reshardPeer)
	}
	if taps[1].fills == 0 || len(taps[1].shardMS) == 0 {
		t.Errorf("the recording pool saw no fills (%d) or shards (%d)", taps[1].fills, len(taps[1].shardMS))
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: 50, End: 50}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Fatalf("median = %v, want 2.5", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Fatalf("max = %v", q)
	}
	if xs[0] != 4 {
		t.Fatal("quantile reordered its input")
	}
}
