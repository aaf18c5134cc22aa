package federation

import (
	"fmt"
	"sync"

	"biochip/internal/assay"
	"biochip/internal/cache"
	"biochip/internal/service"
)

// Member is one worker daemon behind the gateway: the remote
// counterpart of the local shard pool. It calls the worker's /v1 API
// through the embedded service.Client (transport failures match
// service.ErrUnreachable, a job the worker does not know
// service.ErrUnknownJob) and carries the declaration the gateway
// places against.
type Member struct {
	*service.Client
	// Name and Addr come from the members spec.
	Name string
	Addr string
	// Profiles is the member's declared fleet, expanded to full die
	// configs (FleetSpecOf).
	Profiles []service.Profile
	// mats is the cache key material of each profile, aligned with
	// Profiles; nil entries mark NoCache profiles.
	mats []cache.ProfileMaterial
}

// NewMember builds the client for one spec entry, expanding its
// profile declaration into die configs and cache key material.
func NewMember(spec MemberSpec) (*Member, error) {
	cfg := FleetSpecOf(spec).ServiceConfig()
	m := &Member{
		Client:   service.NewClient(spec.Addr, nil),
		Name:     spec.Name,
		Addr:     spec.Addr,
		Profiles: cfg.Profiles,
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

// fanOut calls f for every member concurrently and returns the results
// in members order.
func fanOut[T any](members []*Member, f func(*Member) T) []T {
	out := make([]T, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = f(m)
		}()
	}
	wg.Wait()
	return out
}
