package cluster

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"drhwsched/internal/obs"
	"drhwsched/internal/server"
)

// chassisSubject is one daemon run on the shared httpx chassis, served
// through its own Serve on a loopback listener with one admission slot.
type chassisSubject struct {
	name     string
	idPrefix string // X-Request-Id is idPrefix-N
	prefix   string // metric-name prefix
	route    string // an admitted POST route that reads its body
	endpoint string // route's metrics label
	okBody   string // a body route answers 200
	// readTimeout is the daemon's whole-request read bound: how long a
	// trickling body can hold the slot.
	readTimeout time.Duration
	start       func(t *testing.T) string // base URL
}

// contractMaxBody is every subject's MaxBodyBytes.
const contractMaxBody = 16 << 10

// serveOn runs srv's Serve on a fresh loopback listener until the test
// ends, then requires a clean drain.
func serveOn(t *testing.T, srv interface {
	Serve(context.Context, net.Listener) error
}) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, l) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("Serve = %v after drain", err)
		}
	})
	return "http://" + l.Addr().String()
}

func chassisSubjects() []chassisSubject {
	const drhwdTimeout = 250 * time.Millisecond
	return []chassisSubject{
		{
			name: "drhwd", idPrefix: "contract", prefix: "drhwd",
			route: "/v1/analyze", endpoint: "analyze", okBody: planDoc,
			readTimeout: drhwdTimeout + 5*time.Second,
			start: func(t *testing.T) string {
				return serveOn(t, server.New(server.Config{
					ReplicaID: "contract", MaxInFlight: 1, MaxBodyBytes: contractMaxBody,
					RequestTimeout: drhwdTimeout, Logf: t.Logf,
				}))
			},
		},
		{
			name: "drhwcoord", idPrefix: "drhwcoord", prefix: "drhwcoord",
			route: "/v1/sweep", endpoint: "sweep", okBody: sweepBody(`[2]`),
			readTimeout: bodyReadTimeout,
			start: func(t *testing.T) string {
				c, err := New(Config{
					Replicas:    []string{newReplicaServer(t, "r1").URL},
					MaxInFlight: 1, MaxBodyBytes: contractMaxBody, Logf: t.Logf,
				})
				if err != nil {
					t.Fatal(err)
				}
				return serveOn(t, c)
			},
		},
	}
}

// contractDo issues one request and returns the response with its body
// read and closed.
func contractDo(t *testing.T, method, url, body string, header map[string]string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// trickle opens a request on route whose headers promise 1000 body
// bytes of which only one ever arrives, so its handler holds an
// admission slot inside the body read. Closing the returned conn ends
// the read.
func trickle(t *testing.T, url, route string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", strings.TrimPrefix(url, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: contract\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{", route)
	return conn
}

// probeUntil posts a malformed body to route (400 when admitted, 429
// when shed) until done accepts the status, failing after within.
func probeUntil(t *testing.T, url, route string, within time.Duration, done func(code int) bool) *http.Response {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		resp, _ := contractDo(t, http.MethodPost, url+route, "{", nil)
		if done(resp.StatusCode) {
			return resp
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s still answers %d after %v", route, resp.StatusCode, within)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func shed(code int) bool     { return code == http.StatusTooManyRequests }
func admitted(code int) bool { return code != http.StatusTooManyRequests }

// TestChassisContract runs one behaviour table against both daemons, so
// drhwd and drhwcoord answer the same way wherever the shared chassis
// decides: method check, load shedding, the body bound, trace context,
// request IDs, Server-Timing, the slow-body read bound and the request
// metrics families.
func TestChassisContract(t *testing.T) {
	restore := bodyReadTimeout
	bodyReadTimeout = 2 * time.Second
	t.Cleanup(func() { bodyReadTimeout = restore })

	rows := []struct {
		name string
		run  func(t *testing.T, sub chassisSubject, url string)
	}{
		{"405 with Allow", func(t *testing.T, sub chassisSubject, url string) {
			resp, body := contractDo(t, http.MethodGet, url+sub.route, "", nil)
			if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
				t.Fatalf("GET %s = %d Allow %q: %s", sub.route, resp.StatusCode, resp.Header.Get("Allow"), body)
			}
		}},
		{"413 over MaxBodyBytes", func(t *testing.T, sub chassisSubject, url string) {
			big := `{"pad": "` + strings.Repeat("x", 2*contractMaxBody) + `"}`
			resp, body := contractDo(t, http.MethodPost, url+sub.route, big, nil)
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body = %d: %s", resp.StatusCode, body)
			}
		}},
		{"traceparent, request id and server timing", func(t *testing.T, sub chassisSubject, url string) {
			const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
			resp, _ := contractDo(t, http.MethodGet, url+"/metrics", "", map[string]string{obs.Header: parent})
			if got := resp.Header.Get(obs.Header); got != parent {
				t.Errorf("valid traceparent echoed as %q", got)
			}
			if id := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(id, sub.idPrefix+"-") {
				t.Errorf("X-Request-Id = %q, want %s-N", id, sub.idPrefix)
			}
			if st := resp.Header.Get("Server-Timing"); !strings.HasPrefix(st, "app;dur=") {
				t.Errorf("Server-Timing = %q", st)
			}
			const malformed = "00-zzzz-1111-01"
			resp, _ = contractDo(t, http.MethodGet, url+"/metrics", "", map[string]string{obs.Header: malformed})
			minted := resp.Header.Get(obs.Header)
			if _, err := obs.ParseTraceParent(minted); err != nil || minted == malformed {
				t.Errorf("malformed traceparent answered with %q (%v), want a minted one", minted, err)
			}
		}},
		{"429 with Retry-After while the slot is held", func(t *testing.T, sub chassisSubject, url string) {
			conn := trickle(t, url, sub.route)
			resp := probeUntil(t, url, sub.route, sub.readTimeout, shed)
			if resp.Header.Get("Retry-After") != "1" {
				t.Errorf("429 with Retry-After %q", resp.Header.Get("Retry-After"))
			}
			if resp, body := contractDo(t, http.MethodGet, url+"/healthz", "", nil); resp.StatusCode != http.StatusOK {
				t.Errorf("healthz under load = %d: %s", resp.StatusCode, body)
			}
			conn.Close()
			probeUntil(t, url, sub.route, sub.readTimeout, admitted)
			if resp, body := contractDo(t, http.MethodPost, url+sub.route, sub.okBody, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("after release = %d: %s", resp.StatusCode, body)
			}
		}},
		{"slow body returns its slot", func(t *testing.T, sub chassisSubject, url string) {
			trickle(t, url, sub.route)
			probeUntil(t, url, sub.route, sub.readTimeout, shed)
			probeUntil(t, url, sub.route, 10*sub.readTimeout, admitted)
		}},
		{"metrics validate with request families", func(t *testing.T, sub chassisSubject, url string) {
			if resp, body := contractDo(t, http.MethodPost, url+sub.route, sub.okBody, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s = %d: %s", sub.route, resp.StatusCode, body)
			}
			_, text := contractDo(t, http.MethodGet, url+"/metrics", "", nil)
			if err := obs.ValidateExposition(text); err != nil {
				t.Fatalf("live /metrics fails the strict validator: %v\n%s", err, text)
			}
			for _, want := range []string{
				sub.prefix + "_inflight_requests 0\n",
				fmt.Sprintf("%s_requests_total{endpoint=%q,code=\"200\"} 1\n", sub.prefix, sub.endpoint),
				fmt.Sprintf("%s_request_duration_seconds_count{endpoint=%q} 1\n", sub.prefix, sub.endpoint),
			} {
				if !strings.Contains(text, want) {
					t.Errorf("metrics missing %q:\n%s", want, text)
				}
			}
		}},
	}
	for _, sub := range chassisSubjects() {
		t.Run(sub.name, func(t *testing.T) {
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					t.Parallel()
					row.run(t, sub, sub.start(t))
				})
			}
		})
	}
}
