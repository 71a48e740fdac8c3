package multicell

import (
	"sync"
	"time"

	"repro/internal/beacon"
)

// tenantTable owns the per-tenant serving state: a token-bucket rate
// limiter and a live-stream count per tenant key. Isolation is the point —
// one tenant exhausting its bucket or its stream quota must not affect any
// other tenant's draws (TestTenantIsolation pins this under -race).
//
// The table is bounded: tenant keys arrive from the network, so an
// attacker inventing fresh keys must not grow the map without limit. Past
// maxTenants distinct keys, new tenants share one overflow bucket (they
// are still rate-limited — collectively — and still count streams against
// the shared slot), which degrades the attacker, not the established
// tenants.
type tenantTable struct {
	mu         sync.Mutex
	rate       float64
	burst      int
	maxStreams int
	maxTenants int
	now        func() time.Time
	tenants    map[string]*tenantState
	overflow   *tenantState
}

type tenantState struct {
	bucket  *beacon.TokenBucket
	streams int
}

func newTenantTable(rate float64, burst, maxStreams, maxTenants int, now func() time.Time) *tenantTable {
	if rate > 0 && burst <= 0 {
		burst = 1
	}
	return &tenantTable{
		rate:       rate,
		burst:      burst,
		maxStreams: maxStreams,
		maxTenants: maxTenants,
		now:        now,
		tenants:    make(map[string]*tenantState),
	}
}

// state returns (creating on demand) the tenant's slot, or the shared
// overflow slot once the table is full. The caller holds no lock.
func (t *tenantTable) state(tenant string) *tenantState {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st, ok := t.tenants[tenant]; ok {
		return st
	}
	if len(t.tenants) >= t.maxTenants {
		if t.overflow == nil {
			t.overflow = t.newState()
		}
		return t.overflow
	}
	st := t.newState()
	t.tenants[tenant] = st
	return st
}

func (t *tenantTable) newState() *tenantState {
	st := &tenantState{}
	if t.rate > 0 {
		st.bucket = beacon.NewTokenBucket(t.rate, t.burst, t.now)
	}
	return st
}

// allow spends one rate-limit token for the tenant (always true when no
// rate is configured).
func (t *tenantTable) allow(tenant string) bool {
	st := t.state(tenant)
	if st.bucket == nil {
		return true
	}
	return st.bucket.Allow()
}

// acquireStream claims one live-stream slot for the tenant; the returned
// release must be called exactly once when the stream ends. ok is false
// when the tenant is at its quota.
func (t *tenantTable) acquireStream(tenant string) (release func(), ok bool) {
	st := t.state(tenant)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxStreams > 0 && st.streams >= t.maxStreams {
		return nil, false
	}
	st.streams++
	var once sync.Once
	return func() {
		once.Do(func() {
			t.mu.Lock()
			st.streams--
			t.mu.Unlock()
		})
	}, true
}
