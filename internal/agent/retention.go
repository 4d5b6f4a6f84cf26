package agent

// SetRetention sets the capacity of the agent's outage ring buffer: how
// many reports are retained for replay while the bus link is down. When
// the buffer is full the oldest report is evicted and counted as dropped.
// capacity <= 0 selects DefaultRetention.
func (a *Agent) SetRetention(capacity int) {
	if capacity <= 0 {
		capacity = DefaultRetention
	}
	a.retainMu.Lock()
	a.retainCap = capacity
	a.retainMu.Unlock()
}

// Retain buffers a report that failed to reach the bus server (the link's
// OnDrop path), evicting the oldest buffered report — counted in
// ReportsDropped — if the ring is full.
func (a *Agent) Retain(r Report) {
	a.retainMu.Lock()
	evicted := 0
	for len(a.retained) >= a.retainCap {
		a.retained = append(a.retained[:0], a.retained[1:]...)
		evicted++
	}
	a.retained = append(a.retained, r)
	a.retainMu.Unlock()

	a.live.ReportsRetained.Add(1)
	a.live.ReportsDropped.Add(int64(evicted))
}

// ReplayRetained drains the outage buffer in FIFO order through send,
// stopping at the first failure (the failed report stays buffered, at the
// front). It returns how many reports were replayed. Typically called
// from a link's OnUp callback with the link's direct Send.
func (a *Agent) ReplayRetained(send func(Report) error) int {
	replayed := 0
	for {
		a.retainMu.Lock()
		if len(a.retained) == 0 {
			a.retainMu.Unlock()
			break
		}
		r := a.retained[0]
		a.retained = a.retained[1:]
		a.retainMu.Unlock()

		if err := send(r); err != nil {
			// Put the failed report back at the front; it is still the
			// oldest unreplayed one.
			a.retainMu.Lock()
			a.retained = append([]Report{r}, a.retained...)
			a.retainMu.Unlock()
			break
		}
		replayed++
		a.live.ReportsReplayed.Add(1)
	}
	return replayed
}

// Buffered returns the number of reports currently awaiting replay.
func (a *Agent) Buffered() int {
	a.retainMu.Lock()
	defer a.retainMu.Unlock()
	return len(a.retained)
}

// NoteReconnect records a bus-link reconnection in the agent's stats (the
// pivot layer wires this to the link's OnUp callback so heartbeats carry
// the count).
func (a *Agent) NoteReconnect() {
	a.live.Reconnects.Add(1)
}
