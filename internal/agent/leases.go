package agent

import (
	"sort"
	"time"
)

// renew extends the lease of the listed queries from the agent's own
// clock. TTL == 0 keeps each query's current lease duration; a query
// installed without a lease stays immortal unless the renewal carries an
// explicit TTL.
func (a *Agent) renew(m Renew) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range m.QueryIDs {
		qs, ok := a.queries[id]
		if !ok {
			continue
		}
		ttl := m.TTL
		if ttl <= 0 {
			ttl = qs.ttl
		}
		if ttl <= 0 {
			continue
		}
		qs.ttl = ttl
		qs.expiry = now + ttl
	}
}

// expireLeases uninstalls every query whose lease has lapsed. Called from
// Flush, so orphaned queries disappear within one reporting interval of
// their deadline.
func (a *Agent) expireLeases() {
	now := a.now()
	a.mu.Lock()
	var expired []string
	for id, qs := range a.queries {
		if qs.expiry > 0 && now >= qs.expiry {
			expired = append(expired, id)
		}
	}
	a.mu.Unlock()
	sort.Strings(expired)
	for _, id := range expired {
		a.uninstall(id)
		a.live.LeasesExpired.Add(1)
	}
}

// LeaseDeadline returns the query's lease expiry on the agent's clock, or
// 0 if the query is not installed or has no lease.
func (a *Agent) LeaseDeadline(queryID string) time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if qs, ok := a.queries[queryID]; ok {
		return qs.expiry
	}
	return 0
}
