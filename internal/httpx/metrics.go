package httpx

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"drhwsched/internal/obs"
)

// LatencyBuckets are the request-latency histogram upper bounds in
// seconds. Analyses return in microseconds-to-milliseconds; full
// simulations and sweeps run for seconds, hence the wide spread.
var LatencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics keeps per-endpoint request counts (by status code) and
// latency histograms. It is safe for concurrent use.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]map[int]int64
	latency  map[string]*obs.Histogram
}

// NewMetrics returns empty request metrics.
func NewMetrics() *Metrics {
	return &Metrics{requests: map[string]map[int]int64{}, latency: map[string]*obs.Histogram{}}
}

// Observe records one finished request.
func (m *Metrics) Observe(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byCode := m.requests[endpoint]
	if byCode == nil {
		byCode = map[int]int64{}
		m.requests[endpoint] = byCode
		h := obs.NewHistogram(LatencyBuckets)
		m.latency[endpoint] = &h
	}
	byCode[code]++
	m.latency[endpoint].Observe(d.Seconds())
}

// Render writes the prefix_requests_total counter and the
// prefix_request_duration_seconds histogram families, endpoints and
// codes in sorted order. The lock is held while writing, so w should
// be a buffer.
func (m *Metrics) Render(w io.Writer, prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	fmt.Fprintf(w, "# TYPE %s_requests_total counter\n", prefix)
	for _, ep := range endpoints {
		byCode := m.requests[ep]
		codes := make([]int, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "%s_requests_total{endpoint=%q,code=\"%d\"} %d\n", prefix, ep, c, byCode[c])
		}
	}
	fmt.Fprintf(w, "# TYPE %s_request_duration_seconds histogram\n", prefix)
	for _, ep := range endpoints {
		m.latency[ep].Render(w, prefix+"_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep))
	}
}
