package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"
)

// Wire endpoints. A worker serves /v1/evaluate and /v1/healthz; a
// coordinator serves /v1/workers (fleet registration).
const (
	PathEvaluate = "/v1/evaluate"
	PathHealthz  = "/v1/healthz"
	PathWorkers  = "/v1/workers"
)

// ErrBusy is returned by a RemoteBackend when the worker sheds load (HTTP
// 503): its in-flight and backlog slots are full. The dispatcher treats it
// like any other attempt failure — retry elsewhere, then fall back local —
// but it does not count against the worker's failure limit, since a
// saturated worker is healthy.
var ErrBusy = fmt.Errorf("backend: worker is at capacity")

// WorkerHealth is the /v1/healthz body: the protocol handshake plus the
// worker's advertised identity and capacity. Its load is its own
// datamime_worker_inflight and datamime_worker_evaluations_total.
type WorkerHealth struct {
	Protocol int    `json:"protocol"`
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	// Version is the worker binary's build version (buildinfo), so version
	// skew across a fleet is visible from the coordinator.
	Version string `json:"version,omitempty"`
}

// wireError is the JSON error body of every non-2xx protocol response.
type wireError struct {
	Error string `json:"error"`
}

// RemoteBackend speaks the evaluation protocol to one datamime-worker.
type RemoteBackend struct {
	name string
	base string
	hc   *http.Client

	// capacity is the worker's advertised concurrency, refreshed by every
	// Health probe (0 until the first one answers).
	capacity atomic.Int64
	// version is the worker's self-reported build version, refreshed by
	// every Health probe.
	version atomic.Value // string
}

// NewRemoteBackend builds a client for the worker at baseURL (e.g.
// "http://host:9090"). name defaults to the URL; an explicit name (the
// worker's self-registration name) makes telemetry friendlier.
func NewRemoteBackend(baseURL, name string) *RemoteBackend {
	base := strings.TrimRight(baseURL, "/")
	if name == "" {
		name = base
	}
	return &RemoteBackend{
		name: name,
		base: base,
		hc:   &http.Client{},
	}
}

// URL returns the worker's base URL (the fleet's dedup key).
func (r *RemoteBackend) URL() string { return r.base }

// Name implements EvalBackend.
func (r *RemoteBackend) Name() string { return r.name }

// Capacity implements EvalBackend: the worker's advertised concurrency as
// of the last successful health probe.
func (r *RemoteBackend) Capacity() int { return int(r.capacity.Load()) }

// SetCapacity seeds the advertised capacity (e.g. from a registration
// message) before the first health probe.
func (r *RemoteBackend) SetCapacity(n int) { r.capacity.Store(int64(n)) }

// Version returns the worker's build version as of the last successful
// health probe ("" until one answers).
func (r *RemoteBackend) Version() string {
	v, _ := r.version.Load().(string)
	return v
}

// SetVersion seeds the reported version (e.g. from a registration message)
// before the first health probe.
func (r *RemoteBackend) SetVersion(v string) {
	if v != "" {
		r.version.Store(v)
	}
}

// Health implements EvalBackend: GET /v1/healthz, verifying the protocol
// version and refreshing the advertised capacity.
func (r *RemoteBackend) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+PathHealthz, nil)
	if err != nil {
		return err
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("backend: health %s: %w", r.name, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backend: health %s: HTTP %d", r.name, resp.StatusCode)
	}
	var h WorkerHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("backend: health %s: decoding: %w", r.name, err)
	}
	if h.Protocol != ProtocolVersion {
		return fmt.Errorf("backend: worker %s speaks protocol %d, want %d", r.name, h.Protocol, ProtocolVersion)
	}
	if h.Capacity > 0 {
		r.capacity.Store(int64(h.Capacity))
	}
	r.SetVersion(h.Version)
	return nil
}

// Evaluate implements EvalBackend: POST /v1/evaluate and decode the result.
func (r *RemoteBackend) Evaluate(ctx context.Context, req EvalRequest) (EvalResult, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		// What cannot be encoded (a NaN parameter) no worker will ever see.
		return EvalResult{}, fmt.Errorf("%w: encoding: %w", ErrRequest, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+PathEvaluate, bytes.NewReader(body))
	if err != nil {
		return EvalResult{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(hreq)
	arrived := time.Now().UnixNano()
	if err != nil {
		return EvalResult{}, fmt.Errorf("backend: evaluate on %s: %w", r.name, err)
	}
	defer drain(resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusServiceUnavailable:
		return EvalResult{}, fmt.Errorf("%w (%s)", ErrBusy, r.name)
	case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		reason := strings.TrimPrefix(readWireError(resp.Body), ErrRequest.Error()+": ")
		return EvalResult{}, fmt.Errorf("%w: refused by %s: %s", ErrRequest, r.name, reason)
	default:
		return EvalResult{}, fmt.Errorf("backend: evaluate on %s: HTTP %d: %s",
			r.name, resp.StatusCode, readWireError(resp.Body))
	}
	var wire EvalResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		return EvalResult{}, fmt.Errorf("backend: evaluate on %s: decoding: %w", r.name, err)
	}
	if wire.Profile == nil {
		return EvalResult{}, fmt.Errorf("backend: evaluate on %s: result without a profile", r.name)
	}
	// The response envelope carries the observability sidecars; fold them
	// into the in-memory (never-marshaled) EvalResult fields.
	res := wire.EvalResult
	res.Spans = anchorSpans(wire.Spans, wire.TimeNS, arrived)
	if res.Worker == "" {
		res.Worker = r.name
	}
	return res, nil
}

// anchorSpans places a worker's shipped spans on this process's clock by the
// round trip that carried them. The worker stamped its response (workerNS)
// after every shipped span ended, and each span began after the request
// arrived there, so moving that stamp to arrivedNS — when the response got
// here — draws every span inside the round trip, whatever the worker's clock
// reads. Nothing outlives the response, so nothing goes stale when a worker's
// clock steps. One translation keeps the order; an unstamped span stays
// unstamped, and a response without a stamp ships its spans unmoved. The
// decoded slice is shifted in place.
func anchorSpans(spans []WireSpan, workerNS, arrivedNS int64) []WireSpan {
	if workerNS == 0 {
		return spans
	}
	shift := workerNS - arrivedNS
	for i := range spans {
		if spans[i].TimeNS != 0 {
			spans[i].TimeNS -= shift
		}
	}
	return spans
}

var _ EvalBackend = (*RemoteBackend)(nil)

// WorkerRegistration is the POST /v1/workers body a worker announces itself
// with (and the coordinator's static -worker flag equivalent).
type WorkerRegistration struct {
	// URL is the worker's reachable base URL — the fleet's dedup key.
	URL string `json:"url"`
	// Name is the worker's display name (defaults to the URL).
	Name string `json:"name,omitempty"`
	// Capacity is the worker's max concurrent evaluations.
	Capacity int `json:"capacity,omitempty"`
	// Protocol is the worker's protocol version (ProtocolVersion).
	Protocol int `json:"protocol,omitempty"`
	// Version is the worker binary's build version (buildinfo), carried on
	// every heartbeat so the coordinator can surface fleet version skew.
	Version string `json:"build_version,omitempty"`
}

// Announce registers a worker with a coordinator: POST /v1/workers. Workers
// re-announce periodically; registration is idempotent on URL.
func Announce(ctx context.Context, coordinator string, reg WorkerRegistration) error {
	reg.Protocol = ProtocolVersion
	body, err := json.Marshal(&reg)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(coordinator, "/")+PathWorkers, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := announceClient.Do(req)
	if err != nil {
		return fmt.Errorf("backend: announcing to %s: %w", coordinator, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backend: announcing to %s: HTTP %d: %s",
			coordinator, resp.StatusCode, readWireError(resp.Body))
	}
	return nil
}

// Withdraw deregisters a worker from a coordinator: DELETE
// /v1/workers?url=... (a clean shutdown; crashed workers are reaped by the
// coordinator's health loop instead).
func Withdraw(ctx context.Context, coordinator, workerURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		strings.TrimRight(coordinator, "/")+PathWorkers+"?url="+url.QueryEscape(workerURL), nil)
	if err != nil {
		return err
	}
	resp, err := announceClient.Do(req)
	if err != nil {
		return fmt.Errorf("backend: withdrawing from %s: %w", coordinator, err)
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("backend: withdrawing from %s: HTTP %d", coordinator, resp.StatusCode)
	}
	return nil
}

// announceClient bounds registration round-trips so a dead coordinator
// cannot hang a worker's announce loop or shutdown path.
var announceClient = &http.Client{Timeout: 10 * time.Second}

// readWireError extracts the protocol error message from a non-2xx body.
func readWireError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var we wireError
	if json.Unmarshal(data, &we) == nil && we.Error != "" {
		return we.Error
	}
	return strings.TrimSpace(string(data))
}

// drain consumes and closes a response body so the connection is reusable.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}
