package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// queryPaths are the hub's own endpoints (pprof is the standard library's).
var queryPaths = []string{"/", "/healthz", "/metrics", "/progress", "/spans", "/trace", "/blame", "/summary"}

// publishedMux returns the routes of a server, bound to no listener, whose
// hub serves the fold of one short observed replication.
func publishedMux(tb testing.TB) http.Handler {
	tb.Helper()
	cfg := sim.Default()
	cfg.Duration = 1000
	cfg.Warmup = 100
	cfg.Replications = 1
	cfg.Obs = obs.Options{Enabled: true, SampleEvery: 25}
	sys, err := sim.NewSystem(cfg, 7)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		tb.Fatal(err)
	}
	sys.Finish(sys.Horizon())
	hub, fold := NewHub(0), obs.NewMerged()
	info := RunInfo{Label: "query", Replication: 1, Replications: 1, Horizon: float64(sys.Horizon())}
	hub.Publish(sys.Telemetry(), fold, info, float64(sys.Horizon()), true)
	if err := sys.Telemetry().MergeInto(fold); err != nil {
		tb.Fatal(err)
	}
	return (&Server{hub: hub}).routes()
}

// request serves one GET of path with the given raw query string. Its
// context is already cancelled, so an SSE stream returns after its first
// event instead of waiting for publishes.
func request(h http.Handler, path, rawQuery string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.URL.RawQuery = rawQuery
	ctx, cancel := context.WithCancel(req.Context())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.WithContext(ctx))
	return rec
}

// ndjsonLines returns body's lines, or fails unless every line is one
// JSON value and the body is empty or newline-terminated.
func ndjsonLines(t *testing.T, what, body string) []string {
	t.Helper()
	if body == "" {
		return nil
	}
	if !strings.HasSuffix(body, "\n") {
		t.Fatalf("%s: body not newline-terminated: %.80q", what, body[max(0, len(body)-80):])
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	for i, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("%s: line %d is not JSON: %.120q", what, i+1, ln)
		}
	}
	return lines
}

func TestQueryParameters(t *testing.T) {
	h := publishedMux(t)
	all := ndjsonLines(t, "/spans", request(h, "/spans", "").Body.String())
	if len(all) < 4 {
		t.Fatalf("span tail holds %d lines, want several", len(all))
	}
	for _, tc := range []struct {
		path, query string
		code        int
		names       string // 400: the message must name this parameter
		lines       int    // /spans 200: expected line count
	}{
		{"/spans", "n=abc", 400, "n=", 0},
		{"/spans", "n=-1", 400, "n=", 0},
		{"/spans", "n=1.5", 400, "n=", 0},
		{"/spans", "n=", 200, "", len(all)},
		{"/spans", "n=0", 200, "", 0},
		{"/spans", "n=3", 200, "", 3},
		{"/spans", "n=" + strconv.Itoa(len(all)), 200, "", len(all)},
		{"/spans", "n=" + strconv.Itoa(len(all)+1), 200, "", len(all)},
		{"/spans", "n=%zz", 400, "query", 0},
		{"/blame", "format=json", 400, "format=", 0},
		{"/blame", "format=MD", 400, "format=", 0},
		{"/blame", "format=md", 200, "", 0},
		{"/blame", "format=", 200, "", 0},
		{"/progress", "sse=2", 400, "sse=", 0},
		{"/progress", "sse=true", 400, "sse=", 0},
		{"/progress", "sse=0", 200, "", 0},
		{"/progress", "sse=1", 200, "", 0},
		{"/trace", "task=no-such-task", 200, "", 0},
		{"/trace", "task=a;b", 400, "query", 0},
	} {
		rec := request(h, tc.path, tc.query)
		what := tc.path + "?" + tc.query
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d, want %d (%.120q)", what, rec.Code, tc.code, rec.Body.String())
		}
		if tc.code == 400 && !strings.Contains(rec.Body.String(), tc.names) {
			t.Fatalf("%s: message %q does not name %q", what, rec.Body.String(), tc.names)
		}
		if tc.code == 200 && tc.path == "/spans" {
			got := ndjsonLines(t, what, rec.Body.String())
			if len(got) != tc.lines {
				t.Fatalf("%s: %d lines, want %d", what, len(got), tc.lines)
			}
			if tc.lines > 0 && got[len(got)-1] != all[len(all)-1] {
				t.Fatalf("%s: last line differs from the tail's last span", what)
			}
		}
	}
}

// FuzzQuery drives every hub endpoint with an arbitrary raw query string
// against a published snapshot: no handler may panic, every answer is 200
// or 400, and every 200 body of /spans and /trace is valid NDJSON.
func FuzzQuery(f *testing.F) {
	for _, seed := range []string{
		"", "n=abc", "n=-1", "n=5", "n=99999999999999999999", "n=%zz",
		"task=x", "task=", "task=%E2%9C%93&n=2", "format=md", "format=x",
		"sse=1", "sse=0", "sse=yes", "a;b", "n=1&n=x", "%", "&&=&",
	} {
		f.Add(seed)
	}
	h := publishedMux(f)
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range queryPaths {
			rec := request(h, path, raw)
			switch rec.Code {
			case http.StatusOK:
				if path == "/spans" || path == "/trace" {
					ndjsonLines(t, path+"?"+raw, rec.Body.String())
				}
			case http.StatusBadRequest:
			default:
				t.Fatalf("%s?%q: status %d", path, raw, rec.Code)
			}
		}
	})
}
