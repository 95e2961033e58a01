package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"drhwsched/internal/core"
	"drhwsched/internal/engine"
	"drhwsched/internal/peerstore"
)

// The wrappers below time calls into the program from outside it. Each
// forwards every optional interface the program type-asserts on the
// value it wraps, so a wrapped run behaves exactly like an unwrapped
// one (wrap_test.go checks the outputs match):
//
//   - engine.Store: engine.PeerGetter and engine.FetchReporter (which
//     Engine.Peek asserts to avoid cross-fetch deadlock) and the
//     TierStats method drhwd's /healthz and /metrics assert;
//   - http.RoundTripper: CloseIdleConnections, which http.Client
//     asserts;
//   - http.Handler: the ResponseWriter is passed through unwrapped, so
//     http.Flusher and every other writer interface stay intact.

// spanHeader carries the benchmark client's span ID to the handler
// wrapper, so handler spans nest under the request that caused them.
const spanHeader = "X-Perfbench-Span"

type spanCtxKey struct{}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanCtxKey{}).(int64)
	return id
}

// tierStatser is the method drhwd asserts on an engine's store.
type tierStatser interface {
	TierStats() peerstore.TierStats
}

// timedStore wraps an engine.Store. Get is timed and counted as a hit
// or a miss; the time from a miss to the Put of the same key is the
// design-time compute the engine ran in between (core.Analyze).
type timedStore struct {
	inner engine.Store
	tr    *tracer
	// name prefixes the span and counter names; compute records the
	// miss-to-Put interval as a core.analyze span, which is right only
	// for the store the engine itself calls.
	name    string
	compute bool

	mu     sync.Mutex
	missAt map[string]time.Time
}

// wrapStore returns a timing wrapper that implements exactly the
// optional interfaces inner implements.
func wrapStore(inner engine.Store, tr *tracer, name string, compute bool) (engine.Store, error) {
	base := &timedStore{inner: inner, tr: tr, name: name, compute: compute, missAt: map[string]time.Time{}}
	_, pg := inner.(engine.PeerGetter)
	_, fr := inner.(engine.FetchReporter)
	_, ts := inner.(tierStatser)
	switch {
	case pg && fr && ts:
		return &tieredTimedStore{peerTimedStore{base}}, nil
	case pg && !fr && !ts:
		return &peerTimedStore{base}, nil
	case !pg && !fr && !ts:
		return base, nil
	}
	return nil, fmt.Errorf("wrapStore: %T has an optional-interface set the wrappers do not forward", inner)
}

func (s *timedStore) Get(key string) (*core.Analysis, bool) {
	sp := s.tr.start(s.name+"_get", 0)
	a, ok := s.inner.Get(key)
	sp.end()
	if s.tr.enabled() {
		if ok {
			s.tr.count(s.name+"_hits", 1)
		} else {
			s.tr.count(s.name+"_misses", 1)
		}
		if !ok && s.compute {
			s.mu.Lock()
			s.missAt[key] = time.Now()
			s.mu.Unlock()
		}
	}
	return a, ok
}

func (s *timedStore) Put(key string, a *core.Analysis) {
	s.mu.Lock()
	t0, ok := s.missAt[key]
	delete(s.missAt, key)
	s.mu.Unlock()
	if ok {
		s.tr.record("core.analyze", 0, t0, time.Now())
	}
	s.inner.Put(key, a)
}

func (s *timedStore) Stats() engine.CacheStats { return s.inner.Stats() }

// peerTimedStore adds engine.PeerGetter.
type peerTimedStore struct{ *timedStore }

func (s *peerTimedStore) GetLocal(key string) (*core.Analysis, bool) {
	return s.inner.(engine.PeerGetter).GetLocal(key)
}

// tieredTimedStore adds engine.FetchReporter and TierStats: the full
// surface of a peerstore.Store.
type tieredTimedStore struct{ peerTimedStore }

func (s *tieredTimedStore) Fetching(key string) bool {
	return s.inner.(engine.FetchReporter).Fetching(key)
}

func (s *tieredTimedStore) TierStats() peerstore.TierStats {
	return s.inner.(tierStatser).TierStats()
}

// timedTransport wraps an http.RoundTripper. A span covers the round
// trip and the reading of the response body, ending when the body is
// closed or read to EOF; its parent is the span of the handler whose
// request context the outgoing request carries.
type timedTransport struct {
	inner http.RoundTripper
	tr    *tracer
	name  func(*http.Request) string // the span name of a request
	// onDone, when set, sees every completed exchange.
	onDone func(req *http.Request, status int, d time.Duration)
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.enabled() {
		return t.inner.RoundTrip(req)
	}
	sp := t.tr.start(t.name(req), spanFrom(req.Context()))
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		sp.end()
		return resp, err
	}
	status := resp.StatusCode
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		d := sp.end()
		if t.onDone != nil {
			t.onDone(req, status, d)
		}
	}}
	return resp, nil
}

// CloseIdleConnections forwards the method http.Client asserts.
func (t *timedTransport) CloseIdleConnections() {
	if c, ok := t.inner.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// timedBody calls done once, at EOF or Close, whichever comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// timedHandler wraps an http.Handler. Its span nests under the client
// span named in spanHeader, and its ID rides in the request context so
// outgoing requests made on the handler's behalf nest under it.
type timedHandler struct {
	inner http.Handler
	tr    *tracer
	name  string
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.enabled() {
		h.inner.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	sp := h.tr.start(h.name, parent)
	h.inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, sp.id)))
	sp.end()
}
