package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"drhwsched/internal/server"
)

// probeDocs is the serve probe's documents for the paper-sweep inputs
// of each seed.
func probeDocs(t *testing.T, seeds ...int64) []corpusItem {
	t.Helper()
	var docs []corpusItem
	for _, seed := range seeds {
		in, err := sweepInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, in.docs...)
	}
	return docs
}

// TestMaskCacheKeepsResults checks that masking removes only the cache
// counters: a cold and a warm response to one request mask equal, and
// requests with different results do not.
func TestMaskCacheKeepsResults(t *testing.T) {
	corpus := probeDocs(t, 7, 8)
	srv := server.New(server.Config{ReplicaID: "r"})
	post := func(it corpusItem) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+it.endpoint, bytes.NewReader(it.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", it.endpoint, rec.Code)
		}
		return rec.Body.Bytes()
	}
	var sims [][]byte
	for _, it := range corpus {
		cold, warm := post(it), post(it)
		if bytes.Equal(cold, warm) {
			t.Fatalf("%s: cold and warm responses are identical; the cache counters should differ", it.endpoint)
		}
		mc, mw := maskCache(cold), maskCache(warm)
		if !bytes.Equal(mc, mw) {
			t.Fatalf("%s: masked responses differ:\n%s\n%s", it.endpoint, mc, mw)
		}
		if bytes.Contains(mc, []byte(`"cache`)) || !bytes.Contains(mc, []byte(`"name"`)) {
			t.Fatalf("%s: masking removed too little or too much:\n%s", it.endpoint, mc)
		}
		if it.endpoint == "simulate" {
			sims = append(sims, mc)
		}
	}
	if bytes.Equal(sims[0], sims[1]) {
		t.Fatal("two different simulate requests masked to the same bytes")
	}
}
