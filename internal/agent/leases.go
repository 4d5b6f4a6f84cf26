package agent

import (
	"sort"
	"time"
)

// Lease is a query's lease on one process's clock: the agent holds one per
// installed query, a delivering combiner one per tenant route.
type Lease struct {
	TTL    time.Duration // lease duration; 0 = immortal
	Expiry time.Duration // deadline; 0 = never
}

// Renew restarts the lease from now for grace durations. A ttl <= 0 keeps
// the current duration, so a lease without one stays immortal.
func (l *Lease) Renew(ttl, now time.Duration, grace int) {
	if ttl > 0 {
		l.TTL = ttl
	}
	if l.TTL > 0 {
		l.Expiry = now + time.Duration(grace)*l.TTL
	}
}

// Lapsed reports whether the lease has a deadline and now has reached it.
func (l Lease) Lapsed(now time.Duration) bool { return l.Expiry > 0 && now >= l.Expiry }

// renew extends the lease of the listed queries from the agent's own
// clock. TTL == 0 keeps each query's current lease duration; a query
// installed without a lease stays immortal unless the renewal carries an
// explicit TTL.
func (a *Agent) renew(m Renew) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range m.QueryIDs {
		if qs, ok := a.queries[id]; ok {
			qs.lease.Renew(m.TTL, now, 1)
		}
	}
	a.leasesChangedLocked()
}

// leasesChangedLocked recomputes nextLapse after a lease was granted,
// renewed or given up. Caller holds a.mu.
func (a *Agent) leasesChangedLocked() {
	a.nextLapse = 0
	for _, qs := range a.queries {
		if e := qs.lease.Expiry; e > 0 && (a.nextLapse == 0 || e < a.nextLapse) {
			a.nextLapse = e
		}
	}
}

// expireLeases uninstalls every query whose lease has lapsed. Called from
// Flush, so orphaned queries disappear within one reporting interval of
// their deadline; it looks at the queries only once the earliest deadline
// has come.
func (a *Agent) expireLeases() {
	now := a.now()
	a.mu.Lock()
	if a.nextLapse == 0 || now < a.nextLapse {
		a.mu.Unlock()
		return
	}
	var expired []string
	for id, qs := range a.queries {
		if qs.lease.Lapsed(now) {
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
