package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"datamime/internal/core"
	"datamime/internal/opt"
)

// metricSample is one parsed exposition line: name{labels} value.
type metricSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseExposition parses Prometheus text format strictly enough to catch
// malformed output: every non-comment line must be name{labels} value with
// well-formed quoted label values and a parseable float.
func parseExposition(t *testing.T, body string) []metricSample {
	t.Helper()
	var out []metricSample
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line
		name := rest
		labels := map[string]string{}
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			end := strings.IndexByte(rest, '}')
			if end < i {
				t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
			}
			for _, kv := range strings.Split(rest[i+1:end], ",") {
				eq := strings.IndexByte(kv, '=')
				if eq < 0 {
					t.Fatalf("line %d: malformed label %q in %q", ln+1, kv, line)
				}
				val, err := strconv.Unquote(kv[eq+1:])
				if err != nil {
					t.Fatalf("line %d: label value %q not quoted: %v", ln+1, kv, err)
				}
				labels[kv[:eq]] = val
			}
			rest = rest[end+1:]
		} else if sp := strings.IndexByte(rest, ' '); sp >= 0 {
			name = rest[:sp]
			rest = rest[sp:]
		}
		fields := strings.Fields(rest)
		if len(fields) != 1 {
			t.Fatalf("line %d: want one value, got %q", ln+1, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("line %d: bad value in %q: %v", ln+1, line, err)
		}
		out = append(out, metricSample{name: name, labels: labels, value: v})
	}
	return out
}

func scrape(t *testing.T, ts *httptest.Server) []metricSample {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	return parseExposition(t, string(data))
}

// TestMetricsExposition: the /metrics output is well-formed, the new phase
// histogram family is internally consistent (le ordering, cumulative
// monotonicity, +Inf == count), and active jobs get per-job gauges that
// disappear once the job terminates.
func TestMetricsExposition(t *testing.T) {
	svc := newTelemetryServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var submitted struct {
		ID string `json:"id"`
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(500, 17), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitFor(t, "job to make progress", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.TraceLen >= 2
	})

	samples := scrape(t, ts)
	byName := map[string][]metricSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, want := range []string{
		"datamimed_jobs", "datamimed_workers", "datamimed_workers_busy",
		"datamimed_eval_cache_hits_total", "datamimed_evaluations_total",
		"datamimed_simulated_cycles_total", "datamimed_sse_subscribers",
		"datamimed_uptime_seconds",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("missing metric family %s", want)
		}
	}

	// Histogram family: group buckets by phase and verify each series.
	buckets := map[string][]metricSample{}
	for _, s := range byName["datamimed_phase_seconds_bucket"] {
		buckets[s.labels["phase"]] = append(buckets[s.labels["phase"]], s)
	}
	if len(buckets) == 0 {
		t.Fatal("no datamimed_phase_seconds_bucket series for a telemetry-enabled running job")
	}
	sums := map[string]float64{}
	for _, s := range byName["datamimed_phase_seconds_sum"] {
		sums[s.labels["phase"]] = s.value
	}
	counts := map[string]float64{}
	for _, s := range byName["datamimed_phase_seconds_count"] {
		counts[s.labels["phase"]] = s.value
	}
	for _, phase := range []string{"propose", "generate", "profile", "observe"} {
		if len(buckets[phase]) == 0 {
			t.Errorf("no bucket series for phase %q", phase)
		}
	}
	for phase, bs := range buckets {
		// le values must already be in ascending order with a final +Inf,
		// and cumulative counts monotone up to the count series.
		var prevLe float64
		var prevCum float64
		sawInf := false
		for i, b := range bs {
			le := b.labels["le"]
			if le == "+Inf" {
				if i != len(bs)-1 {
					t.Fatalf("phase %s: +Inf bucket not last", phase)
				}
				sawInf = true
			} else {
				v, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("phase %s: bad le %q", phase, le)
				}
				if i > 0 && v <= prevLe {
					t.Fatalf("phase %s: le not ascending at %g", phase, v)
				}
				prevLe = v
			}
			if b.value < prevCum {
				t.Fatalf("phase %s: bucket counts not monotone", phase)
			}
			prevCum = b.value
		}
		if !sawInf {
			t.Fatalf("phase %s: no +Inf bucket", phase)
		}
		if prevCum != counts[phase] {
			t.Fatalf("phase %s: +Inf bucket %g != count %g", phase, prevCum, counts[phase])
		}
		if counts[phase] > 0 && sums[phase] < 0 {
			t.Fatalf("phase %s: negative sum %g", phase, sums[phase])
		}
	}

	// Per-job gauges exist while the job runs…
	foundGauge := false
	for _, s := range byName["datamimed_job_iterations_done"] {
		if s.labels["job"] == submitted.ID {
			foundGauge = true
			if s.value < 2 {
				t.Errorf("job gauge %g, want >= 2", s.value)
			}
		}
	}
	if !foundGauge {
		t.Errorf("no datamimed_job_iterations_done gauge for running job %s", submitted.ID)
	}

	// …and disappear once it terminates.
	if code := httpJSON(t, ts, "POST", "/v1/jobs/"+submitted.ID+"/cancel", nil, nil); code != http.StatusOK {
		t.Fatalf("cancel = %d", code)
	}
	waitFor(t, "job to cancel", func() bool {
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+submitted.ID, nil, &st)
		return st.State == JobCanceled
	})
	for _, s := range scrape(t, ts) {
		if strings.HasPrefix(s.name, "datamimed_job_") {
			t.Fatalf("per-job gauge %s{job=%q} survived job termination", s.name, s.labels["job"])
		}
	}
}

// TestMetricsWithoutTelemetry: with telemetry off the histogram family is
// absent but the exposition stays well-formed.
func TestMetricsWithoutTelemetry(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var names []string
	for _, s := range scrape(t, ts) {
		names = append(names, s.name)
	}
	sort.Strings(names)
	for _, n := range names {
		if strings.HasPrefix(n, "datamimed_phase_seconds") {
			t.Fatalf("phase histogram %s present with telemetry disabled", n)
		}
	}
	if len(names) == 0 {
		t.Fatal("empty exposition")
	}
}

// TestJitterEscalationsCountedWithoutTelemetry: every record's snapshot is
// folded into its job where the eval is, so on a server without telemetry
// datamimed_gp_jitter_escalations_total counts each snapshot whose fit needed
// escalated jitter, and no other.
func TestJitterEscalationsCountedWithoutTelemetry(t *testing.T) {
	svc := newTestServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job := &Job{id: "job-fold"}
	for i, level := range []int{0, 1, 0, 3} {
		svc.foldEval(job, core.EvalEvent{Record: core.IterationRecord{
			Iteration:   i,
			Diagnostics: &opt.Diagnostics{Observations: 6, JitterLevel: level},
		}})
	}
	for _, s := range scrape(t, ts) {
		if s.name == "datamimed_gp_jitter_escalations_total" {
			if s.value != 2 {
				t.Fatalf("jitter escalations = %g, want 2", s.value)
			}
			return
		}
	}
	t.Fatal("no datamimed_gp_jitter_escalations_total family")
}
