//go:build !race

package hdfs

// Excluded under -race: the race detector's instrumentation adds
// bookkeeping allocations unrelated to the code under test.

import (
	"testing"

	"repro/internal/simtime"
)

// TestAllocOpen pins what one Open costs, client and NameNode together,
// with no query installed, in an existing request: the path boxed once for
// the RPC, and the call itself (the callee's context node and one netsim
// flow each way; see cluster.TestAllocsRPC). The NameNode's read lock
// hands out an unlock func bound at start, not a method value made per
// call, and its tracepoint takes the request as it was boxed: each of
// those cost one more object.
func TestAllocOpen(t *testing.T) {
	const ceiling = 4
	env := simtime.NewEnv()
	env.Run(func() {
		_, _, cl := testDeploy(env, 3, DefaultConfig(), ClientConfig{})
		ctx := cl.Proc.NewRequest()
		if err := cl.CreateMetadataOnly(ctx, "/f", 1e6); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() {
			if err := cl.Open(ctx, "/f"); err != nil {
				t.Fatal(err)
			}
		}); got > ceiling {
			t.Errorf("Open allocates %.0f objects, ceiling %d", got, ceiling)
		} else {
			t.Logf("Open: %.0f objects", got)
		}
	})
}
