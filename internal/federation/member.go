package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/obs"
	"biochip/internal/service"
)

// ErrUnknownJob is returned by member calls for a job the member does
// not know — after a non-durable member restart, the canonical "lost
// the job" signal.
var ErrUnknownJob = errors.New("federation: unknown job")

// ErrUnreachable wraps transport-level member failures, so callers can
// distinguish "member down" from "member refused".
var ErrUnreachable = errors.New("federation: member unreachable")

// rpcTimeout bounds plain request/response member calls; long-polls
// and SSE streams manage their own deadlines.
const rpcTimeout = 10 * time.Second

// Member is the gateway's client for one worker daemon: the remote
// counterpart of the local shard pool, speaking the worker's public
// HTTP API. Calls report transport failures as ErrUnreachable and a
// job the member does not know as ErrUnknownJob.
type Member struct {
	// Name and Addr come from the members spec.
	Name string
	Addr string
	// Profiles is the member's declared fleet, expanded to full die
	// configs (FleetSpecOf).
	Profiles []service.Profile
	// mats is the cache key material of each profile, aligned with
	// Profiles; nil entries mark NoCache profiles.
	mats []cache.ProfileMaterial

	client *http.Client
}

// NewMember builds the client for one spec entry, expanding its
// profile declaration into die configs and cache key material.
func NewMember(spec MemberSpec) (*Member, error) {
	cfg := FleetSpecOf(spec).ServiceConfig()
	m := &Member{
		Name:     spec.Name,
		Addr:     spec.Addr,
		Profiles: cfg.Profiles,
		client:   &http.Client{},
	}
	for _, p := range cfg.Profiles {
		if p.NoCache {
			m.mats = append(m.mats, cache.ProfileMaterial{})
			continue
		}
		raw, err := cache.ConfigJSON(p.Chip)
		if err != nil {
			return nil, fmt.Errorf("federation: member %q: %w", spec.Name, err)
		}
		m.mats = append(m.mats, cache.ProfileMaterial{Name: p.Name, Config: raw})
	}
	return m, nil
}

// Eligible returns the member profiles that can run the program —
// the same requirement evaluation the member's own placement performs
// (service.place), run gateway-side against the declared fleet — plus
// per-profile rejection reasons for the 422 path.
func (m *Member) Eligible(pr assay.Program) ([]service.Profile, map[string]string) {
	reqs := pr.EffectiveRequirements()
	var eligible []service.Profile
	reasons := make(map[string]string, len(m.Profiles))
	for _, p := range m.Profiles {
		if err := reqs.Check(p.Chip); err != nil {
			reasons[p.Name] = err.Error()
			continue
		}
		if err := pr.Check(p.Chip); err != nil {
			reasons[p.Name] = err.Error()
			continue
		}
		eligible = append(eligible, p)
	}
	return eligible, reasons
}

// Submit forwards one submission to the member, carrying traceParent
// in the X-Assay-Trace header (the member records it as its root
// span's parent, stitching the federation hop; docs/observability.md).
// The worker's typed errors are rebuilt from its service.ErrorBody
// envelope: 422 → *service.IncompatibleError, 429 →
// *service.QueueFullError (backlog included), 503 →
// service.ErrDraining, 500 → service.ErrPersist. Transport failures
// wrap ErrUnreachable.
func (m *Member) Submit(pr assay.Program, seed uint64, traceParent string) (service.SubmitResult, error) {
	body, err := json.Marshal(service.SubmitRequest{Seed: seed, Program: pr})
	if err != nil {
		return service.SubmitResult{}, fmt.Errorf("federation: encoding submission: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.Addr+"/v1/assays", bytes.NewReader(body))
	if err != nil {
		return service.SubmitResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceParent != "" {
		req.Header.Set("X-Assay-Trace", traceParent)
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return service.SubmitResult{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusAccepted {
		var res service.SubmitResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return service.SubmitResult{}, fmt.Errorf("%w: %s: decoding accept: %v", ErrUnreachable, m.Name, err)
		}
		return res, nil
	}
	var eb service.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		return service.SubmitResult{}, fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
	switch resp.StatusCode {
	case http.StatusUnprocessableEntity:
		ie := &service.IncompatibleError{Program: pr.Name, Reasons: eb.Profiles}
		if eb.Requirements != nil {
			ie.Requirements = *eb.Requirements
		}
		return service.SubmitResult{}, ie
	case http.StatusTooManyRequests:
		qf := &service.QueueFullError{Depth: eb.QueueDepth, Classes: eb.Backlog}
		if eb.Queued != nil {
			qf.Queued = *eb.Queued
		}
		return service.SubmitResult{}, qf
	case http.StatusServiceUnavailable:
		return service.SubmitResult{}, fmt.Errorf("%w: member %s: %s", service.ErrDraining, m.Name, eb.Error)
	case http.StatusInternalServerError:
		return service.SubmitResult{}, fmt.Errorf("%w: member %s: %s", service.ErrPersist, m.Name, eb.Error)
	default:
		return service.SubmitResult{}, fmt.Errorf("federation: member %s: %s", m.Name, eb.Error)
	}
}

// JobErr fetches a job snapshot: ErrUnknownJob on 404, ErrUnreachable
// wrapping on transport failure.
func (m *Member) JobErr(id string) (service.Job, error) {
	return m.getJob(m.Addr+"/v1/assays/"+url.PathEscape(id), rpcTimeout)
}

// WaitTimeoutErr long-polls the member until the job is terminal or
// the timeout elapses, returning the latest snapshot either way
// (mirroring service.WaitTimeout, plus transport errors).
func (m *Member) WaitTimeoutErr(id string, timeout time.Duration) (service.Job, error) {
	secs := timeout.Seconds()
	if secs < 0 {
		secs = 0
	}
	u := fmt.Sprintf("%s/v1/assays/%s?wait=1&timeout=%s",
		m.Addr, url.PathEscape(id), strconv.FormatFloat(secs, 'f', -1, 64))
	// Allow headroom over the server-side window before the transport
	// deadline fires.
	return m.getJob(u, timeout+rpcTimeout)
}

func (m *Member) getJob(u string, timeout time.Duration) (service.Job, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return service.Job{}, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return service.Job{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var j service.Job
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			return service.Job{}, fmt.Errorf("%w: %s: decoding job: %v", ErrUnreachable, m.Name, err)
		}
		return j, nil
	case http.StatusNotFound:
		return service.Job{}, ErrUnknownJob
	default:
		return service.Job{}, fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
}

// StatsErr snapshots the member's /v1/stats.
func (m *Member) StatsErr() (service.Stats, error) {
	var st service.Stats
	if err := m.getJSON(m.Addr+"/v1/stats", &st); err != nil {
		return service.Stats{}, err
	}
	return st, nil
}

// TraceErr fetches a job's span tree from the member: ErrUnknownJob on
// 404 (unknown job, or the member runs without observability),
// ErrUnreachable wrapping on transport failure.
func (m *Member) TraceErr(id string) (obs.TraceDoc, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		m.Addr+"/v1/assays/"+url.PathEscape(id)+"/trace", nil)
	if err != nil {
		return obs.TraceDoc{}, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return obs.TraceDoc{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var doc obs.TraceDoc
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return obs.TraceDoc{}, fmt.Errorf("%w: %s: decoding trace: %v", ErrUnreachable, m.Name, err)
		}
		return doc, nil
	case http.StatusNotFound:
		return obs.TraceDoc{}, ErrUnknownJob
	default:
		return obs.TraceDoc{}, fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
}

// MetricsErr scrapes the member's /v1/metrics exposition. A member
// running without observability (404) yields no families and no error
// — the member is up, it just has nothing to report.
func (m *Member) MetricsErr() ([]obs.MetricFamily, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Addr+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		fams, err := obs.ParseExposition(resp.Body)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: parsing exposition: %v", ErrUnreachable, m.Name, err)
		}
		return fams, nil
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return nil, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
}

// Healthz fetches the member's /v1/healthz. The body decodes on both
// 200 and 503 (a draining member still reports itself).
func (m *Member) Healthz() (service.Health, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.Addr+"/v1/healthz", nil)
	if err != nil {
		return service.Health{}, err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return service.Health{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer resp.Body.Close()
	var h service.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return service.Health{}, fmt.Errorf("%w: %s: decoding health: %v", ErrUnreachable, m.Name, err)
	}
	return h, nil
}

func (m *Member) getJSON(u string, v interface{}) error {
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnreachable, m.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%w: %s: status %d", ErrUnreachable, m.Name, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
