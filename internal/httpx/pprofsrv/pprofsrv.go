// Package pprofsrv serves net/http/pprof on a side listener for the
// daemons' -pprof-addr flag. It is apart from httpx because importing
// net/http/pprof registers its handlers on http.DefaultServeMux, which
// the library packages that import httpx must not do.
package pprofsrv

import (
	"net/http"
	"net/http/pprof"
)

// ServePprof exposes the pprof handlers on their own listener and mux
// (not http.DefaultServeMux), so the side listener serves profiles and
// nothing else.
func ServePprof(addr string, logf func(string, ...any)) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logf("pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logf("pprof listener: %v", err)
		}
	}()
}
