// Package httpx is the HTTP chassis drhwd (internal/server) and
// drhwcoord (internal/cluster) both run on: the per-route middleware
// (method check, W3C trace context, request ID, Server-Timing,
// admission slots, body bound, per-request deadline, error mapping,
// request log and request metrics), the handler error helpers, and
// serve-and-drain. Each daemon only names itself and passes its Config
// values in, so the two services cannot drift apart.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"drhwsched/internal/obs"
)

// Config describes one daemon to the chassis.
type Config struct {
	// Name prefixes the daemon's log lines ("drhwd: drained").
	Name string
	// ID prefixes request IDs: ID-1, ID-2, ...
	ID string
	// Kind names the daemon in the 429 body: "<Kind> at capacity".
	Kind string
	// MaxInFlight bounds concurrently admitted requests.
	MaxInFlight int
	// MaxBodyBytes bounds every request body (413 beyond it).
	MaxBodyBytes int64
	// RequestTimeout is the deadline on admitted requests, mapped to
	// 504 when it fires. Zero means no per-request deadline.
	RequestTimeout time.Duration
	// ReadTimeout bounds the whole request read, body included.
	// Without it a client trickling its body one byte at a time would
	// hold an admission slot indefinitely: reading a body is not
	// context-aware, so the per-request deadline cannot reclaim it.
	ReadTimeout time.Duration
	// DrainTimeout is how long Serve waits for in-flight requests on
	// shutdown before canceling their contexts.
	DrainTimeout time.Duration
	// Logf receives lifecycle log lines (nil: silent).
	Logf func(format string, args ...any)
	// Logger receives one structured record per request (nil: none).
	Logger *slog.Logger
	// Metrics records every request.
	Metrics *Metrics
}

// Chassis wraps a daemon's handlers and serves them.
type Chassis struct {
	cfg    Config
	slots  chan struct{}
	reqSeq atomic.Int64
}

// New builds a chassis from cfg.
func New(cfg Config) *Chassis {
	return &Chassis{cfg: cfg, slots: make(chan struct{}, cfg.MaxInFlight)}
}

// InFlight reports how many admission slots are held.
func (c *Chassis) InFlight() int { return len(c.slots) }

// Logf writes a lifecycle log line when Config.Logf is set.
func (c *Chassis) Logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Serve runs h on l until ctx is canceled, then drains: the listener
// closes, in-flight requests get DrainTimeout to finish, then their
// contexts are canceled and the remaining connections closed. Returns
// nil after a clean drain.
func (c *Chassis) Serve(ctx context.Context, l net.Listener, h http.Handler) error {
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       c.cfg.ReadTimeout,
		BaseContext:       func(net.Listener) context.Context { return base },
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	c.Logf("%s: shutdown requested, draining for up to %v", c.cfg.Name, c.cfg.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if err != nil {
		// Stragglers: cancel their request contexts (aborting any
		// simulation at its next iteration) and close the connections.
		cancelBase()
		hs.Close()
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	c.Logf("%s: drained", c.cfg.Name)
	return nil
}

// ListenAndServe binds addr (host:0 picks an ephemeral port), logs the
// "listening on HOST:PORT (detail)" line scripts grep for, and serves h
// until ctx is canceled.
func (c *Chassis) ListenAndServe(ctx context.Context, addr string, h http.Handler, detail string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	c.Logf("%s: listening on %s (%s)", c.cfg.Name, l.Addr(), detail)
	return c.Serve(ctx, l, h)
}

// Handle wraps h in the middleware shared by every route: method
// check, trace-context extraction (a W3C traceparent is accepted from
// the client or minted here, then echoed so the caller can correlate),
// the request ID, admission control (slot pool and, when configured,
// per-request deadline), the body bound, error mapping, structured
// request logging, and metrics recording. Server-Timing carries the
// server-side elapsed time out on the first write, so clients can split
// their observed latency into server time vs network and queueing.
// Routes with admit=false (health, metrics, control plane) bypass the
// slot pool.
func (c *Chassis) Handle(endpoint, method string, admit bool, h func(http.ResponseWriter, *http.Request) error) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tp, tpErr := obs.ParseTraceParent(r.Header.Get(obs.Header))
		if tpErr != nil {
			tp = obs.NewTrace()
		}
		reqID := fmt.Sprintf("%s-%d", c.cfg.ID, c.reqSeq.Add(1))
		w := &statusWriter{ResponseWriter: rw, code: http.StatusOK}
		w.before = func() {
			w.Header().Set("Server-Timing",
				fmt.Sprintf("app;dur=%.3f", float64(time.Since(start).Microseconds())/1000))
		}
		w.Header().Set(obs.Header, tp.String())
		w.Header().Set("X-Request-Id", reqID)
		r = r.WithContext(context.WithValue(r.Context(), traceCtxKey, tp))
		defer func() {
			d := time.Since(start)
			c.cfg.Metrics.Observe(endpoint, w.code, d)
			if c.cfg.Logger != nil {
				c.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
					slog.String("endpoint", endpoint),
					slog.Int("code", w.code),
					slog.Duration("duration", d),
					slog.String("request_id", reqID),
					slog.String("trace_id", tp.TraceIDString()),
					slog.String("span_id", tp.SpanIDString()),
				)
			}
		}()

		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("use %s", method))
			return
		}
		if admit {
			select {
			case c.slots <- struct{}{}:
				defer func() { <-c.slots }()
			default:
				// Load-shedding, not queueing: refuse immediately so
				// the client can back off or retry elsewhere.
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests,
					fmt.Sprintf("%s at capacity (%d requests in flight)", c.cfg.Kind, c.cfg.MaxInFlight))
				return
			}
			if c.cfg.RequestTimeout > 0 {
				ctx, cancel := context.WithTimeout(r.Context(), c.cfg.RequestTimeout)
				defer cancel()
				r = r.WithContext(ctx)
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)

		err := h(w, r)
		if err == nil {
			return
		}
		if w.wrote {
			// Mid-stream failure: the status is already on the wire;
			// the NDJSON summary line (or its absence) tells the
			// client. Just log.
			c.Logf("%s: %s: late error: %v", c.cfg.Name, endpoint, err)
			return
		}
		var he *httpErr
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &he):
			writeError(w, he.code, he.msg)
		case errors.As(err, &mbe):
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
		case c.cfg.RequestTimeout > 0 && errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("request exceeded the %v deadline", c.cfg.RequestTimeout))
		case errors.Is(err, context.Canceled):
			// Client went away; nothing to write.
			c.Logf("%s: %s: canceled: %v", c.cfg.Name, endpoint, err)
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
	})
}

// httpErr carries a status code out of a handler.
type httpErr struct {
	code int
	msg  string
}

func (e *httpErr) Error() string { return e.msg }

// Errorf returns a handler error the middleware answers with code.
func Errorf(code int, format string, args ...any) error {
	return &httpErr{code: code, msg: fmt.Sprintf(format, args...)}
}

// BadRequest is Errorf(400, ...).
func BadRequest(format string, args ...any) error {
	return Errorf(http.StatusBadRequest, format, args...)
}

// TooLarge is Errorf(413, ...).
func TooLarge(format string, args ...any) error {
	return Errorf(http.StatusRequestEntityTooLarge, format, args...)
}

// statusWriter records the status code (and whether the header went
// out) for metrics and late-error suppression, passing Flush through
// for streaming responses. The before hook, when set, runs exactly
// once immediately ahead of the first header write — the last moment
// trailers-by-another-name like Server-Timing can still be set.
type statusWriter struct {
	http.ResponseWriter
	code   int
	wrote  bool
	before func()
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		if w.before != nil {
			w.before()
		}
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		if w.before != nil {
			w.before()
		}
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ctxKey scopes the request-trace context value to this package.
type ctxKey int

const traceCtxKey ctxKey = iota

// TraceFrom recovers the request's trace context inside a handler.
func TraceFrom(ctx context.Context) obs.TraceParent {
	tp, _ := ctx.Value(traceCtxKey).(obs.TraceParent)
	return tp
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON emits a 200 JSON body.
func WriteJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
