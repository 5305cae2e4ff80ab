package serve

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
)

// Server is a running observability HTTP server bound to one Hub.
type Server struct {
	hub *Hub
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (":8080", "127.0.0.1:0", ...) and serves the
// hub's snapshots in the background. Close shuts the listener down.
func Start(addr string, hub *Hub) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{hub: hub, ln: ln}
	s.srv = &http.Server{Handler: s.routes(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// routes returns the server's request multiplexer.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/spans", s.handleSpans)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/blame", s.handleBlame)
	mux.HandleFunc("/summary", s.handleSummary)
	// pprof is registered explicitly on this mux (not the default one) so
	// profiling works regardless of what the host binary does globally.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Hub returns the hub this server reads from.
func (s *Server) Hub() *Hub { return s.hub }

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `sda live observability
  /healthz       liveness + publish count
  /metrics       Prometheus text exposition (0.0.4)
  /progress      run progress JSON; ?sse=1 for a live SSE stream
  /spans         span tail as NDJSON; ?n=100 limits lines
  /trace         causal trace trees as NDJSON; ?task=NAME filters by task
  /blame         live miss-cause attribution JSON; ?format=md for markdown
  /summary       human-readable telemetry digest
  /debug/pprof/  runtime profiles
`)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"status":"ok","publishes":%d}`+"\n", s.hub.Publishes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(s.hub.Metrics())
}

func (s *Server) handleSummary(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.hub.Summary())
}

// query parses r's query string; on a malformed one it answers 400 and
// reports false.
func query(w http.ResponseWriter, r *http.Request) (url.Values, bool) {
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		http.Error(w, "bad query: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	return q, true
}

// oneOf reports whether parameter name holds one of vals ("" when it is
// absent); otherwise it answers 400 with a message naming the parameter.
func oneOf(w http.ResponseWriter, q url.Values, name string, vals ...string) bool {
	if v := q.Get(name); !slices.Contains(vals, v) {
		http.Error(w, fmt.Sprintf("bad %s=%q: want one of %q", name, v, vals), http.StatusBadRequest)
		return false
	}
	return true
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	q, ok := query(w, r)
	if !ok || !oneOf(w, q, "sse", "", "0", "1") {
		return
	}
	if q.Get("sse") == "1" || r.Header.Get("Accept") == "text/event-stream" {
		s.streamProgress(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if p := s.hub.ProgressJSON(); p != nil {
		w.Write(p)
		w.Write([]byte("\n"))
		return
	}
	fmt.Fprintln(w, "{}")
}

// streamProgress serves /progress as Server-Sent Events: the current
// progress immediately, then the latest progress after each wake-up from
// a publish until the client disconnects. Publishes that land while the
// stream is writing coalesce into one event.
func (s *Server) streamProgress(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)
	for {
		if p := s.hub.ProgressJSON(); p != nil {
			fmt.Fprintf(w, "data: %s\n\n", p)
			fl.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

// handleSpans serves the span tail; ?n= keeps the last n lines, and an n
// at or above the tail length keeps them all.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	q, ok := query(w, r)
	if !ok {
		return
	}
	tail := s.hub.SpansTail()
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad n=%q: want a non-negative integer", v), http.StatusBadRequest)
			return
		}
		if n < len(tail) {
			tail = tail[len(tail)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for i := range tail {
		if err := obs.WriteRecord(w, tail[i]); err != nil {
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	q, ok := query(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := s.hub.Trace(w, q.Get("task")); err != nil {
		// Headers are gone; all we can do is stop writing.
		return
	}
}

func (s *Server) handleBlame(w http.ResponseWriter, r *http.Request) {
	q, ok := query(w, r)
	if !ok || !oneOf(w, q, "format", "", "md") {
		return
	}
	if q.Get("format") == "md" {
		rpt := s.hub.Blame()
		w.Header().Set("Content-Type", "text/markdown; charset=utf-8")
		if rpt == nil {
			fmt.Fprintln(w, "# Miss-cause attribution\n\nNo snapshot published yet.")
			return
		}
		fmt.Fprint(w, rpt.Markdown())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if b := s.hub.BlameJSON(); b != nil {
		w.Write(b)
		return
	}
	fmt.Fprintln(w, "{}")
}
