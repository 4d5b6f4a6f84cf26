package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/tracepoint"
)

func heartbeat(host, proc string, at, interval time.Duration) agent.Heartbeat {
	return agent.Heartbeat{
		Host: host, ProcName: proc, Time: at, Interval: interval,
	}
}

func TestStatusHeartbeatStaleness(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	b.Publish(agent.HealthTopic, heartbeat("h1", "svc", 10*time.Second, time.Second))

	// Fresh: within 3 intervals of the heartbeat.
	s := pt.StatusAt(12 * time.Second)
	if len(s.Agents) != 1 {
		t.Fatalf("agents = %v", s.Agents)
	}
	if a := s.Agents[0]; !a.Healthy || a.Age != 2*time.Second {
		t.Errorf("fresh agent = %+v", a)
	}

	// Exactly at the staleness boundary is still healthy.
	if a := pt.StatusAt(13 * time.Second).Agents[0]; !a.Healthy {
		t.Errorf("boundary agent unhealthy: %+v", a)
	}

	// One tick past 3 intervals: unhealthy.
	if a := pt.StatusAt(13*time.Second + time.Nanosecond).Agents[0]; a.Healthy {
		t.Errorf("stale agent healthy: %+v", a)
	}

	// A heartbeat from the future (clock skew) is also flagged.
	if a := pt.StatusAt(9 * time.Second).Agents[0]; a.Healthy {
		t.Errorf("future heartbeat healthy: %+v", a)
	}

	// A new heartbeat recovers the agent.
	b.Publish(agent.HealthTopic, heartbeat("h1", "svc", 20*time.Second, time.Second))
	if a := pt.StatusAt(21 * time.Second).Agents[0]; !a.Healthy {
		t.Errorf("recovered agent unhealthy: %+v", a)
	}
}

// TestStatusKeepsAgentsWhoseJoinedNamesCollide: host "a/b" with proc "c"
// and host "a" with proc "b/c" join to the same "a/b/c"; both agents
// still appear in Status, each with its own heartbeat.
func TestStatusKeepsAgentsWhoseJoinedNamesCollide(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	b.Publish(agent.HealthTopic, heartbeat("a/b", "c", time.Second, time.Second))
	b.Publish(agent.HealthTopic, heartbeat("a", "b/c", 2*time.Second, time.Second))

	s := pt.StatusAt(2 * time.Second)
	if len(s.Agents) != 2 {
		t.Fatalf("agents = %+v, want both a/b:c and a:b/c", s.Agents)
	}
	want := []struct {
		host, proc string
		age        time.Duration
	}{{"a", "b/c", 0}, {"a/b", "c", time.Second}}
	for i, a := range s.Agents {
		if a.Host != want[i].host || a.ProcName != want[i].proc || a.Age != want[i].age {
			t.Errorf("agent[%d] = %s:%s age %v, want %s:%s age %v",
				i, a.Host, a.ProcName, a.Age, want[i].host, want[i].proc, want[i].age)
		}
	}
}

func TestStatusSortsAgentsAndRendersHealth(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	b.Publish(agent.HealthTopic, heartbeat("h2", "svc", time.Second, time.Second))
	b.Publish(agent.HealthTopic, heartbeat("h1", "worker", time.Second, time.Second))
	b.Publish(agent.HealthTopic, heartbeat("h1", "svc", 0, time.Second)) // stale below

	s := pt.StatusAt(10 * time.Second)
	if len(s.Agents) != 3 {
		t.Fatalf("agents = %v", s.Agents)
	}
	order := []string{"h1/svc", "h1/worker", "h2/svc"}
	for i, a := range s.Agents {
		if got := a.Host + "/" + a.ProcName; got != order[i] {
			t.Errorf("agent[%d] = %s, want %s", i, got, order[i])
		}
	}

	out := RenderStatus(s)
	if !strings.Contains(out, "UNHEALTHY") {
		t.Errorf("stale agent not flagged:\n%s", out)
	}
	if !strings.Contains(out, "agents (3):") {
		t.Errorf("agent count missing:\n%s", out)
	}
}

// TestStatusHeaderCarriesEveryDeclaredColumn: the agents table is built
// from agent.StatFields, so each counter that declares a ptstat column gets
// exactly one, under that name.
func TestStatusHeaderCarriesEveryDeclaredColumn(t *testing.T) {
	out := RenderStatus(Status{Agents: []AgentHealth{{Host: "h", ProcName: "p"}}})
	lines := strings.Split(out, "\n")
	header := make(map[string]int)
	for _, col := range strings.Fields(lines[1]) {
		header[col]++
	}
	for _, f := range agent.StatFields {
		if f.Column != "" && header[f.Column] != 1 {
			t.Errorf("agent.Stats.%s declares column %q, which the header carries %d times:\n%s", f.Name, f.Column, header[f.Column], lines[1])
		}
	}
	if got, want := len(strings.Fields(lines[2])), len(strings.Fields(lines[1])); got != want {
		t.Errorf("an agent row has %d cells under %d header columns:\n%s\n%s", got, want, lines[1], lines[2])
	}
}

func TestStatusRequestRoundTrip(t *testing.T) {
	b := bus.New()
	pt := New(b, tracepoint.NewRegistry())
	defer pt.Close()

	var got agent.StatusResponse
	sub := b.Subscribe(agent.StatusResponseTopic, func(msg any) {
		if resp, ok := msg.(agent.StatusResponse); ok {
			got = resp
		}
	})
	defer b.Unsubscribe(sub)

	b.Publish(agent.StatusRequestTopic, agent.StatusRequest{ID: "req-7"})
	if got.ID != "req-7" {
		t.Fatalf("response ID = %q", got.ID)
	}
	if !strings.Contains(got.Text, "agents (0):") {
		t.Errorf("status text = %q", got.Text)
	}
}
