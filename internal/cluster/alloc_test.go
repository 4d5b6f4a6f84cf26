//go:build !race

package cluster

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"context"
	"testing"

	"repro/internal/simtime"
)

// TestAllocsRPC pins what the substrate charges for one simulated request:
// NewRequest plus one Call between processes on two hosts, with no query
// installed — the round trip of the root BenchmarkSimRPC. The ceiling is the
// measured count: the request's context node and the callee's, each holding
// its baggage, and one netsim flow each way. Nothing in it is a park:
// parking in virtual time allocates nothing.
func TestAllocsRPC(t *testing.T) {
	const ceiling = 4
	env := simtime.NewEnv()
	env.Run(func() {
		c := New(env, DefaultConfig())
		client, server := c.Start("h1", "client"), c.Start("h2", "server")
		server.Handle("Svc.Echo", func(ctx context.Context, req any) (any, error) { return req, nil })
		if got := testing.AllocsPerRun(200, func() {
			if _, err := client.Call(client.NewRequest(), server, "Svc.Echo", nil, Sizes{Request: 100, Response: 100}); err != nil {
				t.Fatal(err)
			}
		}); got > ceiling {
			t.Errorf("NewRequest + Call allocates %.0f objects, ceiling %d", got, ceiling)
		} else {
			t.Logf("NewRequest + Call: %.0f objects", got)
		}
	})
}
