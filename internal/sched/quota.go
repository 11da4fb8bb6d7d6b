package sched

import (
	"fmt"
	"sync"
)

// Admission control: per-tenant quotas over the shared scheduling core.
// The queue and policies decide which running job gets the next slot;
// Admission decides whether a tenant may add to the job stream at all —
// how many of its submissions may run concurrently and how many more may
// wait parked behind them. The accounting is backend-agnostic (it counts
// submissions, not task attempts) and concurrency-safe, because admission
// decisions arrive from many client connections at once.

// QuotaConfig bounds one tenant's footprint on the job stream.
type QuotaConfig struct {
	// MaxConcurrent caps the tenant's simultaneously running submissions.
	// <= 0 means unlimited.
	MaxConcurrent int
	// MaxQueued caps submissions held waiting behind the concurrency cap.
	// <= 0 means nothing may queue: past MaxConcurrent, submissions are
	// rejected outright.
	MaxQueued int
}

// QuotaError reports a rejected submission: which tenant hit which limit.
// Callers map it to HTTP 429 with a Retry-After hint.
type QuotaError struct {
	Tenant string
	// Kind is "concurrent" (the run cap with no queue room... MaxQueued 0)
	// or "queued" (the waiting room itself is full).
	Kind  string
	Limit int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("sched: tenant %q exceeded %s quota (%d)", e.Tenant, e.Kind, e.Limit)
}

// Admission applies one quota to every tenant and owns each tenant's
// waiting room: the items admitted past the concurrency cap, oldest first.
// Admitting-or-parking is one step and so is retiring-and-promoting, so a
// tenant never runs more than MaxConcurrent items and a parked item is
// never overtaken by a later one. The zero value is not usable; create
// with NewAdmission. All methods are safe for concurrent use.
type Admission[T any] struct {
	mu      sync.Mutex
	q       QuotaConfig
	tenants map[string]*tenantUse[T]
}

// tenantUse is one tenant's running count and waiting room; a tenant with
// neither has no entry.
type tenantUse[T any] struct {
	running int
	parked  []T
}

// NewAdmission returns an admission controller applying q to every tenant.
func NewAdmission[T any](q QuotaConfig) *Admission[T] {
	return &Admission[T]{q: q, tenants: make(map[string]*tenantUse[T])}
}

// Acquire admits item for the tenant. It returns run=true when the item may
// start now (counted running), run=false when it was parked (a later
// Release hands it back, counted running, for the caller to start), or a
// *QuotaError — keeping nothing — when both the concurrency cap and the
// waiting room are full.
func (a *Admission[T]) Acquire(tenant string, item T) (run bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u := a.tenants[tenant]
	if u == nil {
		u = &tenantUse[T]{}
		a.tenants[tenant] = u
	}
	if a.q.MaxConcurrent <= 0 || u.running < a.q.MaxConcurrent {
		u.running++
		return true, nil
	}
	if len(u.parked) < a.q.MaxQueued {
		u.parked = append(u.parked, item)
		return false, nil
	}
	kind, limit := "queued", a.q.MaxQueued
	if a.q.MaxQueued <= 0 {
		kind, limit = "concurrent", a.q.MaxConcurrent
	}
	return false, &QuotaError{Tenant: tenant, Kind: kind, Limit: limit}
}

// Release retires one of the tenant's running items. If that leaves room
// for the tenant's oldest parked item, the item takes the slot (counted
// running) and is returned with ok=true; the caller starts it.
func (a *Admission[T]) Release(tenant string) (next T, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u := a.tenants[tenant]
	if u == nil {
		return next, false
	}
	if u.running > 0 {
		u.running--
	}
	if len(u.parked) > 0 && (a.q.MaxConcurrent <= 0 || u.running < a.q.MaxConcurrent) {
		next, ok = u.parked[0], true
		var zero T
		u.parked[0] = zero // the slice's backing array must not pin it
		u.parked = u.parked[1:]
		u.running++
	}
	if u.running == 0 && len(u.parked) == 0 {
		delete(a.tenants, tenant)
	}
	return next, ok
}
