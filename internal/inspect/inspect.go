// Package inspect is Datamime's profile/search introspection layer: it
// consumes the JSONL run artifacts and checkpoints the search pipeline
// already emits (internal/telemetry) and turns them into evidence a human
// can read — which metric, and which region of its distribution, drives a
// candidate's remaining error.
//
// The package has three engines:
//
//   - an eCDF diff engine (attribution.go) that decomposes each per-metric
//     normalized EMD into quantile-band contributions, producing the ranked
//     error-attribution table behind the paper's "why is this benchmark
//     (not) representative" figures;
//   - a run-comparison engine (diff.go) that diffs two run artifacts —
//     convergence series, best-point parameters, per-metric EMD deltas —
//     under configurable regression thresholds, with a machine-readable
//     verdict CI can gate on;
//   - a deterministic report renderer (report.go, html.go) emitting a
//     terminal summary and a self-contained single-file HTML report with
//     inline SVG convergence plots and target-vs-best eCDF overlays.
//
// Everything here is read-only over artifacts and profiles: inspect never
// feeds back into the search, and rendering the same inputs twice produces
// byte-identical output (no clocks, no map-order leakage).
package inspect

import (
	"encoding/json"
	"fmt"

	"datamime/internal/core"
	"datamime/internal/profile"
)

// ProfilesDoc pairs the target profile of a search with the profile of its
// best candidate — the distributions behind the run's final error. It is the
// payload of datamimed's GET /v1/jobs/{id}/profiles and of cmd/datamime's
// -profiles output, and the input the report renderer overlays eCDFs from.
// Either side may be nil (metric-objective jobs have no target profile;
// unfinished jobs have no best).
type ProfilesDoc struct {
	// Job is the originating job ID, when the doc came from datamimed.
	Job string `json:"job,omitempty"`
	// Components is the final per-component error attribution of the best
	// candidate (unweighted normalized distances, keyed by component name).
	Components map[string]float64 `json:"components,omitempty"`
	// Target is the profile the search tried to match.
	Target *profile.Profile `json:"target,omitempty"`
	// Best is the profile measured at the best parameters found.
	Best *profile.Profile `json:"best,omitempty"`
}

// EncodeJSON renders the doc with stable indentation.
func (d *ProfilesDoc) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

// DecodeProfilesDoc parses a ProfilesDoc produced by EncodeJSON (or served
// by GET /v1/jobs/{id}/profiles).
func DecodeProfilesDoc(data []byte) (*ProfilesDoc, error) {
	var d ProfilesDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("inspect: decoding profiles doc: %w", err)
	}
	return &d, nil
}

// Complete reports whether both sides of the pair are present, i.e. whether
// eCDF overlays and quantile-band attribution can be computed.
func (d *ProfilesDoc) Complete() bool {
	return d != nil && d.Target != nil && d.Best != nil
}

// componentKind classifies a component name as a distribution or a
// sensitivity curve, mirroring core's error model.
func componentKind(name string) string {
	switch core.Component(name) {
	case core.CompLLCCurve, core.CompIPCCurve:
		return KindCurve
	default:
		return KindDistribution
	}
}
