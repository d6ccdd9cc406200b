package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the -obs HTTP handler for reg:
//
//	/metrics        registry snapshot as JSON (stable key order);
//	                ?counters=1 restricts it to the deterministic
//	                counter subset (Snapshot.CountersOnly)
//	/metrics.md     the same snapshot rendered as markdown
//	/debug/pprof/   net/http/pprof profiles (heap, profile, trace, …)
//	/debug/vars     expvar (Go runtime memstats + cmdline)
//	/               plain-text index of the above
//
// The handler reads reg live: each request serves a fresh snapshot, so
// curling /metrics during a run shows counters in motion.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		s := reg.Snapshot()
		if r.URL.Query().Get("counters") == "1" {
			s = s.CountersOnly()
		}
		if err := s.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.md", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		fmt.Fprint(w, reg.Snapshot().Markdown())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "multiscatter obs endpoints:")
		for _, p := range []string{"/metrics", "/metrics.md", "/debug/pprof/", "/debug/vars"} {
			fmt.Fprintln(w, "  "+p)
		}
	})
	return mux
}

// Serve starts an HTTP server for Handler(reg) on addr (e.g. ":6060").
// It returns the server and the bound address (useful with ":0") without
// blocking; the caller owns shutdown (srv.Shutdown for graceful drain,
// srv.Close to abort). This is what the CLIs' -obs flag starts.
func Serve(addr string, reg *Registry) (srv *http.Server, boundAddr string, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv = &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
