package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wackamole/internal/metrics"
)

func TestHandlerNilCollaborators(t *testing.T) {
	h := NewHandler(nil, nil, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Body.Len() != 0 {
		t.Fatalf("empty metrics = %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/events", nil))
	if rec.Body.Len() != 0 {
		t.Fatalf("nil tracer produced events: %q", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path code = %d", rec.Code)
	}
}

// TestHandlerPrometheusDialect pins the upgraded /metrics: with a registry
// installed the endpoint serves text exposition format 0.0.4 carrying both
// the legacy counters (as counter families) and the registry's histograms.
func TestHandlerPrometheusDialect(t *testing.T) {
	r := metrics.New()
	r.Histogram("gcs_token_rotation_seconds", "", metrics.L("node", "d1")).Observe(0.002)
	h := NewHandler(func() map[string]uint64 {
		return map[string]uint64{"gcs_tokens_forwarded": 41}
	}, nil, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE gcs_tokens_forwarded counter",
		"gcs_tokens_forwarded 41",
		"# TYPE gcs_token_rotation_seconds histogram",
		`gcs_token_rotation_seconds_count{node="d1"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestServerEndToEnd(t *testing.T) {
	tr := New(16, fixedNow())
	tr.Emit(Event{Source: SourceGCS, Kind: KindInstall, Node: "d1"})
	tr.Emit(Event{Source: SourceCore, Kind: KindAcquire, Node: "d1/wackd", Addr: "10.0.0.100"})
	r := metrics.New()
	r.Counter("gcs_data_delivered_total", "").Add(5)
	srv, err := ServeHandler("127.0.0.1:0", NewHandler(func() map[string]uint64 {
		return map[string]uint64{"obs_events_emitted": tr.Emitted()}
	}, tr, r))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	want := "# TYPE obs_events_emitted counter\nobs_events_emitted 2\n" +
		"# TYPE gcs_data_delivered_total counter\n"
	if !strings.HasPrefix(string(body), want) || !strings.Contains(string(body), "\ngcs_data_delivered_total 5\n") {
		t.Fatalf("metrics body:\n%s", body)
	}

	resp, err = client.Get("http://" + srv.Addr() + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 {
		t.Fatalf("event lines = %d, want 2:\n%s", len(lines), body)
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind != KindAcquire || ev.Addr != "10.0.0.100" {
		t.Fatalf("event = %+v", ev)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("http://" + srv.Addr() + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}
