package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"drhwsched/internal/engine"
	"drhwsched/internal/server"
)

// corpusItem is one prepared request and the response it must get.
type corpusItem struct {
	endpoint string // "analyze" or "simulate"
	body     []byte
	want     []byte // the first response, cache counters masked
}

// maskCache drops what may differ between identical requests, the
// cache counters, from an indented drhwd response: the "cache_hits"
// and "cache_misses" lines and the "cache" object. Working on the bytes
// keeps the client's own CPU cost, which shares the host with the
// server, small.
func maskCache(body []byte) []byte {
	out := make([]byte, 0, len(body))
	skipIndent := -1
	for _, line := range bytes.SplitAfter(body, []byte("\n")) {
		t := bytes.TrimLeft(line, " ")
		indent := len(line) - len(t)
		if skipIndent >= 0 {
			if indent == skipIndent && bytes.HasPrefix(t, []byte("}")) {
				skipIndent = -1
			}
			continue
		}
		switch {
		case bytes.HasPrefix(t, []byte(`"cache_hits":`)), bytes.HasPrefix(t, []byte(`"cache_misses":`)):
			continue
		case bytes.HasPrefix(t, []byte(`"cache": {`)):
			skipIndent = indent
			continue
		}
		out = append(out, line...)
	}
	return out
}

// daemon is an in-process drhwd on a loopback listener.
type daemon struct {
	base string
	hs   *http.Server
	done chan struct{}
}

// startDaemon serves h, a drhwd or drhwcoord handler wrapped by
// timedHandler, on a fresh loopback listener. The http.Server carries
// the read timeouts server.Serve sets; serving through the wrapper in
// traced and untraced runs alike keeps the two stacks the same.
func startDaemon(h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + ln.Addr().String(), done: make(chan struct{}),
		hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 65 * time.Second}}
	go func() {
		defer close(d.done)
		d.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return d, nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.done
}

// newClient returns a loopback HTTP client over at most conns
// connections.
func newClient(conns int) *http.Client {
	t := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &http.Client{Transport: t, Timeout: 60 * time.Second}
}

type serveState struct {
	d      *daemon
	client *http.Client
	corpus []corpusItem
}

func (s *serveState) close() {
	s.client.CloseIdleConnections()
	s.d.close()
}

// newServeState boots drhwd over a fresh engine, with the engine's
// store and the handler wrapped for tracing, and sends each corpus
// request once: that warms the analysis cache and records the
// reference response every later answer must match.
func newServeState(tr *tracer, id string, corpus []corpusItem) (*serveState, error) {
	store, err := wrapStore(engine.NewLRUStore(0), tr, "engine.store", true)
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Engine: engine.New(engine.Config{Store: store}), ReplicaID: id})
	d, err := startDaemon(&timedHandler{inner: srv, tr: tr, name: "server.handler"})
	if err != nil {
		return nil, err
	}
	st := &serveState{d: d, client: newClient(workers()), corpus: append([]corpusItem(nil), corpus...)}
	for i := range st.corpus {
		want, err := st.send(context.Background(), &st.corpus[i], nil)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", st.corpus[i].endpoint, err)
		}
		st.corpus[i].want = want
	}
	return st, nil
}

// send posts one corpus item and returns the response with its cache
// counters masked. With a tracer on, the exchange is a loadgen.request
// span whose ID the handler span nests under.
func (s *serveState) send(ctx context.Context, it *corpusItem, tr *tracer) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.base+"/v1/"+it.endpoint, bytes.NewReader(it.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := tr.start("loadgen.request", 0)
	if sp.id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", it.endpoint, resp.StatusCode, bytes.TrimSpace(data))
	}
	return maskCache(data), nil
}

// check sends one item and compares the result with its reference.
func (s *serveState) check(ctx context.Context, it *corpusItem, tr *tracer) error {
	got, err := s.send(ctx, it, tr)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, it.want) {
		return fmt.Errorf("%s: response differs from the set-up reference", it.endpoint)
	}
	return nil
}

// openLoop sends rate requests per second for seconds, each due at a
// fixed offset from the start whatever happened to earlier ones, over
// the client's connections, cycling through the corpus. It returns the
// generator's lag per request: hand-off time minus due time.
func (s *serveState) openLoop(b *bench, rate float64, seconds float64) []float64 {
	n := max(1, int(rate*seconds))
	// Sized to the number of sends, so the generator never blocks on
	// a busy sender and its lag stays its own.
	jobs := make(chan int, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = s.check(context.Background(), &s.corpus[i%len(s.corpus)], b.tr)
			}
		}()
	}
	lateMS := make([]float64, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lateMS[i] = ms(time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		b.op(err)
	}
	return lateMS
}

// serverLayers reports the serving layers from the traced spans:
// handler time, the client time outside the handler, and the
// generator's own lag.
func serverLayers(b *bench, lateMS []float64) {
	handler := b.tr.durationsMS("server.handler")
	b.set("server.handler_ms.p50", quantile(handler, 0.5), "ms")
	b.set("server.handler_ms.p99", quantile(handler, 0.99), "ms")
	b.set("server.off_handler_ms", offHandler(b.tr), "ms")
	b.set("loadgen.lateness_p99_ms", quantile(lateMS, 0.99), "ms")
}

// offHandler is the median, over requests, of the client's time minus
// the handler's: decode-free transport, loopback and queueing time.
func offHandler(tr *tracer) float64 {
	tr.mu.Lock()
	client := map[int64]span{}
	for _, s := range tr.spans {
		if s.Name == "loadgen.request" {
			client[s.ID] = s
		}
	}
	var off []float64
	for _, s := range tr.spans {
		if s.Name == "server.handler" {
			if c, ok := client[s.Parent]; ok {
				off = append(off, ms(c.dur()-s.dur()))
			}
		}
	}
	tr.mu.Unlock()
	return median(off)
}
