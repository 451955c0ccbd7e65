// Service-layer fault injection: the client-side misbehavior a serving
// front end must survive — disconnects mid-request, unmeetable
// deadlines, and slow-tenant storms — generated with the same
// deterministic seeded-hash discipline as the runtime-level injector.
// Decisions are pure functions of (seed, site, tenant, sequence), so a
// soak run's fault schedule is reproducible from its seed alone.

package chaos

import (
	"hash/fnv"
	"time"
)

// Service-layer decision sites (continuing the chaos.go salt space).
const (
	siteDisconnect uint64 = iota + 16
	siteDeadline
	siteSlow
)

// ServiceConfig parameterizes a ServiceInjector. Probabilities are in
// [0, 1]; zero disables the class.
type ServiceConfig struct {
	// Seed selects the deterministic fault pattern.
	Seed int64
	// DisconnectProb is the per-request probability the client hangs up
	// mid-request (the request context is canceled while the batch may
	// already be admitted or running).
	DisconnectProb float64
	// DeadlineProb is the per-request probability of a deadline-storm
	// request: the batch carries TinyDeadline instead of a sane one,
	// all but guaranteeing a 504. TinyDeadline 0 means 1ms.
	DeadlineProb float64
	TinyDeadline time.Duration
	// SlowProb is the per-request probability of a slow-tenant batch:
	// each task is padded with SlowWork spin units so one tenant's
	// traffic hogs its runner while other tenants must stay unaffected.
	// SlowWork 0 means 200k units per task.
	SlowProb float64
	SlowWork int64
}

// ServiceInjector makes seeded per-request fault decisions for a
// serving-layer soak. All methods are safe for concurrent use.
type ServiceInjector struct {
	cfg ServiceConfig
}

// NewService builds a service-layer injector.
func NewService(cfg ServiceConfig) *ServiceInjector {
	if cfg.TinyDeadline <= 0 {
		cfg.TinyDeadline = time.Millisecond
	}
	if cfg.SlowWork <= 0 {
		cfg.SlowWork = 200_000
	}
	return &ServiceInjector{cfg: cfg}
}

// roll maps (seed, site, tenant, seq) to [0, 1). The tenant name is
// folded through FNV so distinct tenants draw independent streams.
func (i *ServiceInjector) roll(site uint64, tenant string, seq int) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(tenant))
	x := mix64(mix64(uint64(i.cfg.Seed)^site<<56) ^ h.Sum64() ^ uint64(seq)<<20)
	return float64(x>>11) / float64(uint64(1)<<53)
}

// Disconnect reports whether the client should hang up mid-request for
// this (tenant, seq) request.
func (i *ServiceInjector) Disconnect(tenant string, seq int) bool {
	if i.cfg.DisconnectProb <= 0 || i.roll(siteDisconnect, tenant, seq) >= i.cfg.DisconnectProb {
		return false
	}
	return true
}

// Deadline returns the deadline this request should carry: the storm's
// tiny deadline (true) or the caller's default (false).
func (i *ServiceInjector) Deadline(tenant string, seq int) (time.Duration, bool) {
	if i.cfg.DeadlineProb <= 0 || i.roll(siteDeadline, tenant, seq) >= i.cfg.DeadlineProb {
		return 0, false
	}
	return i.cfg.TinyDeadline, true
}

// SlowBatch reports whether this request should carry slow-tenant spin
// padding, and how many work units per task.
func (i *ServiceInjector) SlowBatch(tenant string, seq int) (int64, bool) {
	if i.cfg.SlowProb <= 0 || i.roll(siteSlow, tenant, seq) >= i.cfg.SlowProb {
		return 0, false
	}
	return i.cfg.SlowWork, true
}
