// Command drhwd is the scheduling-as-a-service daemon: an HTTP/JSON
// server over the analysis-caching experiment engine. One shared engine
// serves every request, so concurrent clients analyzing or simulating
// the same workloads hit each other's cached design-time analyses.
//
// Usage:
//
//	drhwd [-addr host:port] [-workers N] [-cache N]
//	      [-peers URL[,URL...]]
//	      [-max-inflight N] [-max-subtasks N] [-max-sweep-cells N]
//	      [-timeout D] [-drain D] [-pprof-addr host:port]
//
// Endpoints: POST /v1/analyze, POST /v1/simulate (add
// ?stream=iterations for per-iteration NDJSON), POST /v1/sweep
// (streaming NDJSON), GET /v1/analysis/{fingerprint} (serialized
// cached analyses for sibling replicas), POST /v1/peers (live peer-set
// replacement, pushed by drhwcoord on pool changes), GET /healthz,
// GET /metrics. Request bodies are workload JSON documents (see
// internal/workload's schema comment).
//
// The analysis cache is the tiered store: a key missing locally is
// fetched from the -peers replicas — ranked by rendezvous hash, so both
// sides agree who likely owns it — before the engine falls back to
// computing it. -peers seeds the set;
// a coordinator updates it at runtime through /v1/peers.
//
// Use -addr 127.0.0.1:0 for an ephemeral port; the bound address is
// logged as "listening on HOST:PORT" once the listener is up. SIGINT
// and SIGTERM trigger a graceful drain: the listener closes, in-flight
// requests get -drain to finish, then their contexts are canceled.
//
// Per-request records (endpoint, status, duration, request and trace
// IDs) are structured slog lines on stderr. -pprof-addr opens a second
// listener serving net/http/pprof — keep it on a loopback or otherwise
// private address; it is off unless the flag is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/httpx/pprofsrv"
	"drhwsched/internal/peerstore"
	"drhwsched/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks an ephemeral port)")
		workers     = flag.Int("workers", 0, "engine worker-pool size (0: GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 0, "analysis-cache entries (0: 256)")
		maxInflight = flag.Int("max-inflight", 0, "admitted concurrent requests before 429 (0: 2*GOMAXPROCS)")
		maxSubtasks = flag.Int("max-subtasks", 0, "per-document subtask bound before 413 (0: 4096)")
		maxCells    = flag.Int("max-sweep-cells", 0, "per-sweep grid-cell bound before 413 (0: 1024)")
		timeout     = flag.Duration("timeout", 0, "per-request deadline (0: 60s)")
		drain       = flag.Duration("drain", 0, "shutdown drain budget for in-flight requests (0: 10s)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this side address (empty: disabled)")
		peers       = flag.String("peers", "", "sibling replica base URLs for peer fill (comma-separated; live-updatable via /v1/peers)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *pprofAddr != "" {
		pprofsrv.ServePprof(*pprofAddr, logger.Printf)
	}
	ps := peerstore.New(peerstore.Config{CacheSize: *cacheSize, Logf: logger.Printf})
	if *peers != "" {
		var list []string
		for _, u := range strings.Split(*peers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				list = append(list, u)
			}
		}
		ps.SetPeers(list)
		logger.Printf("drhwd: peer fill over %d seed peer(s)", len(ps.Peers()))
	}
	srv := server.New(server.Config{
		Engine:         engine.New(engine.Config{Workers: *workers, CacheSize: *cacheSize, Store: ps}),
		PeerStore:      ps,
		MaxInFlight:    *maxInflight,
		MaxSubtasks:    *maxSubtasks,
		MaxSweepCells:  *maxCells,
		MaxBodyBytes:   0,
		RequestTimeout: *timeout,
		DrainTimeout:   *drain,
		Logf:           logger.Printf,
		Logger:         slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	if err := srv.ListenAndServe(ctx, *addr); err != nil {
		fmt.Fprintf(os.Stderr, "drhwd: %v\n", err)
		os.Exit(1)
	}
	st := srv.Engine().CacheStats()
	logger.Printf("drhwd: exiting after %v (cache: %d hits, %d misses, %d entries)",
		time.Since(start).Round(time.Millisecond), st.Hits, st.Misses, st.Entries)
}
