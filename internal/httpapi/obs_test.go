package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/obs"
)

// parseExposition is a minimal Prometheus text-format 0.0.4 reader: it
// returns sample values keyed by the full series line prefix
// (name{labels}) and the set of TYPE declarations.
func parseExposition(t *testing.T, body string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := make(map[string]float64)
	types := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[line[:idx]] = v
	}
	return samples, types
}

func TestObsHandlerMetricsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("rt_requests_total", "Requests seen.", obs.L("path", "/v1/x")).Add(7)
	reg.Gauge("rt_queue_depth", "Queued items.").Set(3)
	h := reg.Histogram("rt_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	srv := httptest.NewServer(NewObsHandler(reg, obs.NewTracer(8)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	samples, types := parseExposition(t, string(body))

	if got := samples[`rt_requests_total{path="/v1/x"}`]; got != 7 {
		t.Fatalf("counter = %v, want 7", got)
	}
	if got := samples[`rt_queue_depth`]; got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
	if got := types["rt_latency_seconds"]; got != "histogram" {
		t.Fatalf("TYPE rt_latency_seconds = %q", got)
	}
	// Cumulative buckets: le="0.1" holds 1, le="1" holds 2, +Inf holds 3.
	for _, tc := range []struct {
		le   string
		want float64
	}{{"0.1", 1}, {"1", 2}, {"+Inf", 3}} {
		key := fmt.Sprintf(`rt_latency_seconds_bucket{le=%q}`, tc.le)
		if got := samples[key]; got != tc.want {
			t.Fatalf("%s = %v, want %v", key, got, tc.want)
		}
	}
	if got := samples["rt_latency_seconds_count"]; got != 3 {
		t.Fatalf("count = %v, want 3", got)
	}
	if got := samples["rt_latency_seconds_sum"]; got != 5.55 {
		t.Fatalf("sum = %v, want 5.55", got)
	}
}

func TestObsHandlerMetricsJSON(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("js_hits_total", "Hits.").Add(2)
	srv := httptest.NewServer(NewObsHandler(reg, obs.NewTracer(8)))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatalf("GET /metrics.json: %v", err)
	}
	defer resp.Body.Close()
	var snaps []obs.MetricSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Name != "js_hits_total" || snaps[0].Value != 2 {
		t.Fatalf("snapshot = %+v", snaps)
	}
}

func TestObsHandlerDebugSpans(t *testing.T) {
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	tr := obs.NewTracer(8)
	tr.StartAt("director", "recommend", base).EndAt(base.Add(3 * time.Minute))

	srv := httptest.NewServer(NewObsHandler(obs.NewRegistry(), tr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/spans?component=director")
	if err != nil {
		t.Fatalf("GET /debug/spans: %v", err)
	}
	defer resp.Body.Close()
	var groups map[string][]obs.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&groups); err != nil {
		t.Fatalf("decode: %v", err)
	}
	spans := groups["director"]
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1 (groups %+v)", len(spans), groups)
	}
	if spans[0].Name != "recommend" || !spans[0].Start.Equal(base) || spans[0].End.Sub(spans[0].Start) != 3*time.Minute {
		t.Fatalf("span = %+v", spans[0])
	}

	// Filtering by an unknown component yields an empty group, not an error.
	resp2, err := http.Get(srv.URL + "/debug/spans?component=nope")
	if err != nil {
		t.Fatalf("GET filtered: %v", err)
	}
	defer resp2.Body.Close()
	var none map[string][]obs.SpanData
	if err := json.NewDecoder(resp2.Body).Decode(&none); err != nil {
		t.Fatalf("decode filtered: %v", err)
	}
	if len(none["nope"]) != 0 {
		t.Fatalf("filtered spans = %d, want 0", len(none["nope"]))
	}
}

func TestObsHandlerMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(NewObsHandler(obs.NewRegistry(), obs.NewTracer(8)))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatalf("POST /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}
