package inspect

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSummaryJSON(t *testing.T) {
	artifact := `{"type":"log","job":"job-9","time_ns":1000,"msg":"datamime run artifact"}
{"type":"span","job":"job-9","iter":0,"phase":"profile.sim","dur_ns":500000,"time_ns":1800000,"attrs":{"worker":0,"ways":8}}
{"type":"span","job":"job-9","iter":0,"phase":"propose","dur_ns":100000,"time_ns":1900000}
{"type":"eval","job":"job-9","iter":0,"time_ns":2100000,"params":[0.5,0.2],"attrs":{"error":0.4,"best_error":0.4,"emd_cpu_util":0.4}}
{"type":"eval","job":"job-9","iter":1,"time_ns":3100000,"params":[0.6,0.1],"attrs":{"error":0.3,"best_error":0.3,"cache_hit":1,"emd_cpu_util":0.3}}
`
	run, err := LoadRun(strings.NewReader(artifact))
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(run, nil, "")
	sum := NewRunSummary(rep)

	if !sum.BestFound || sum.BestError != 0.3 || sum.BestIter != 1 {
		t.Fatalf("best = %+v", sum)
	}
	if len(sum.Trajectory) != 2 || sum.Trajectory[0] != 0.4 || sum.Trajectory[1] != 0.3 {
		t.Fatalf("trajectory = %v", sum.Trajectory)
	}
	if sum.Evals != 2 || sum.CacheHits != 1 || sum.Misses != 1 {
		t.Fatalf("counts = %+v", sum)
	}
	if len(sum.Attribution) != 1 || sum.Attribution[0].Component != "cpu_util" {
		t.Fatalf("attribution = %+v", sum.Attribution)
	}
	if sum.PhaseSeconds["propose"] != 0.0001 {
		t.Fatalf("phase seconds = %v", sum.PhaseSeconds)
	}
	if sum.Timeline == nil || sum.Timeline.Workers != 1 {
		t.Fatalf("timeline = %+v", sum.Timeline)
	}

	// The JSON output must round-trip and be stable field-for-field.
	var buf bytes.Buffer
	if err := sum.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back RunSummary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("summary JSON does not round-trip: %v", err)
	}
	if back.BestError != sum.BestError || back.Evals != sum.Evals {
		t.Fatalf("round trip changed values: %+v vs %+v", back, sum)
	}
	var buf2 bytes.Buffer
	if err := sum.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("summary JSON is not deterministic")
	}
}
