package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"drhwsched/internal/obs"
	"drhwsched/internal/server"
)

// Replica is the coordinator's client for one drhwd process.
type Replica struct {
	// URL is the replica's base URL (http://host:port).
	URL    string
	client *http.Client
}

func newReplica(url string, client *http.Client) *Replica {
	return &Replica{URL: strings.TrimRight(url, "/"), client: client}
}

// ReplicaHealth is one replica's /healthz snapshot as the coordinator
// saw it, surfaced on the coordinator's own /healthz.
type ReplicaHealth struct {
	URL     string           `json:"url"`
	OK      bool             `json:"ok"`
	Replica string           `json:"replica,omitempty"`
	Cache   server.CacheWire `json:"cache,omitzero"`
	Error   string           `json:"error,omitempty"`
	// SpanID is the child span the coordinator minted for this probe;
	// TraceID echoes what the replica reported back, so a mismatch
	// exposes a proxy stripping trace context. ElapsedMS is the probe's
	// round-trip as the coordinator measured it.
	SpanID    string  `json:"span_id,omitempty"`
	TraceID   string  `json:"trace_id,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	// Drained marks an admin-removed replica: probed and listed in
	// peer sets, but taking no sweep shards.
	Drained bool `json:"drained,omitempty"`
}

// Health probes the replica's /healthz under the given trace context
// (a child span of the coordinator's request; empty means untraced).
func (r *Replica) Health(ctx context.Context, traceparent string) ReplicaHealth {
	h := ReplicaHealth{URL: r.URL}
	start := time.Now()
	defer func() { h.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000 }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.URL+"/healthz", nil)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	if traceparent != "" {
		req.Header.Set(obs.Header, traceparent)
		if tp, err := obs.ParseTraceParent(traceparent); err == nil {
			h.SpanID = tp.SpanIDString()
		}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		h.Error = err.Error()
		return h
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		h.Error = fmt.Sprintf("healthz returned %d", resp.StatusCode)
		return h
	}
	var body server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		h.Error = fmt.Sprintf("decoding healthz: %v", err)
		return h
	}
	h.OK = true
	h.Replica = body.Replica
	h.Cache = body.Cache
	h.TraceID = body.TraceID
	return h
}

// PushPeers replaces the replica's peer-fill set via POST /v1/peers.
// A 404 means the replica's server was built without a peer store
// (drhwd always has one; embedders and tests may not); that is not a
// push failure — the replica simply computes everything itself.
func (r *Replica) PushPeers(ctx context.Context, peers []string) error {
	body, err := json.Marshal(server.PeersRequest{Peers: peers})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.URL+"/v1/peers", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("peers push returned %d", resp.StatusCode)
	}
	return nil
}

// errStreamTruncated reports an NDJSON sweep stream that ended without
// its done=true summary line — the replica died mid-sweep.
var errStreamTruncated = fmt.Errorf("sweep stream ended without a summary line")

// SweepShard drives one sub-sweep on the replica, invoking onCell for
// every cell line in arrival order and returning the replica's summary
// line. traceparent, when non-empty, is the child span minted for this
// dispatch — every dispatch (including a retry of the same cells) must
// carry a fresh span ID so distributed traces show each attempt
// exactly once. idle bounds the silence between lines: a replica that
// stalls longer is abandoned (its request context is canceled) and the
// call errors, leaving the undelivered cells to the coordinator's
// retry path. onCell runs on the calling goroutine's stream reader;
// cells delivered before a mid-stream failure have already been
// consumed and must not be retried.
func (r *Replica) SweepShard(ctx context.Context, req server.SweepRequest, traceparent string, idle time.Duration, onCell func(server.SweepCell)) (*server.SweepSummary, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding sub-sweep: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set(obs.Header, traceparent)
	}

	var watchdog *time.Timer
	if idle > 0 {
		watchdog = time.AfterFunc(idle, cancel)
		defer watchdog.Stop()
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("sweep returned %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if watchdog != nil {
			watchdog.Reset(idle)
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %.120q: %w", line, err)
		}
		if probe.Done {
			var sum server.SweepSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, fmt.Errorf("bad summary line: %w", err)
			}
			return &sum, nil
		}
		var cell server.SweepCell
		if err := json.Unmarshal(line, &cell); err != nil {
			return nil, fmt.Errorf("bad cell line: %w", err)
		}
		onCell(cell)
	}
	if err := sc.Err(); err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("stream idle for %v: %w", idle, ctxErr)
		}
		return nil, err
	}
	return nil, errStreamTruncated
}
