package hdfs

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/tuple"
)

// testDeploy builds a NameNode + n DataNodes + one client process.
func testDeploy(env *simtime.Env, n int, nnCfg Config, clCfg ClientConfig) (*cluster.Cluster, *NameNode, *Client) {
	cfg := cluster.DefaultConfig()
	cfg.RPCLatency = 0
	c := cluster.New(env, cfg)
	nn := NewNameNode(c, "namenode", nnCfg)
	for i := 0; i < n; i++ {
		NewDataNode(c, dnHost(i), nn)
	}
	clientProc := c.Start("client-0", "FSclient")
	cl := NewClient(clientProc, nn, clCfg)
	return c, nn, cl
}

func dnHost(i int) string { return string(rune('A'+i)) + "-dn" }

func TestCreateAndReadRoundtrip(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		_, nn, cl := testDeploy(env, 4, DefaultConfig(), ClientConfig{})
		ctx := cl.Proc.NewRequest()
		if err := cl.Create(ctx, "/f1", 64e6); err != nil {
			t.Error(err)
			return
		}
		nn.mu.Lock()
		fi, ok := nn.files["/f1"]
		nn.mu.Unlock()
		if !ok || fi.size != 64e6 {
			t.Errorf("file /f1: %+v, %v; want 64e6 bytes", fi, ok)
		}
		if err := cl.Read(ctx, "/f1", 0, 64e6); err != nil {
			t.Error(err)
		}
	})
}

func TestReadMissingFileErrors(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		_, _, cl := testDeploy(env, 3, DefaultConfig(), ClientConfig{})
		if err := cl.Read(cl.Proc.NewRequest(), "/missing", 0, 100); err == nil {
			t.Error("expected error for missing file")
		}
	})
}

func TestMultiBlockFile(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		_, _, cl := testDeploy(env, 4, DefaultConfig(), ClientConfig{})
		ctx := cl.Proc.NewRequest()
		// 300 MB = 3 blocks (128 + 128 + 44).
		if err := cl.CreateMetadataOnly(ctx, "/big", 300e6); err != nil {
			t.Error(err)
			return
		}
		locs, err := cl.GetBlockLocations(ctx, "/big", 0, 300e6)
		if err != nil {
			t.Error(err)
			return
		}
		if len(locs) != 3 {
			t.Errorf("blocks = %d, want 3", len(locs))
		}
		if locs[2].Size != 300e6-2*BlockSize {
			t.Errorf("last block size = %v", locs[2].Size)
		}
		for _, bl := range locs {
			if len(bl.Replicas) != 3 {
				t.Errorf("replicas = %v, want 3", bl.Replicas)
			}
		}
	})
}

func TestBuggyOrderingIsStatic(t *testing.T) {
	// With the HDFS-6268 bug, non-local replicas always appear in the same
	// relative order for every client.
	env := simtime.NewEnv()
	env.Run(func() {
		_, _, cl := testDeploy(env, 6, DefaultConfig(), ClientConfig{})
		ctx := cl.Proc.NewRequest()
		// Create many single-block files and record the pairwise order of
		// hosts in the returned replica lists. With the bug, the relation
		// must be antisymmetric: if a ever precedes b, b never precedes a.
		before := map[[2]string]bool{}
		for i := 0; i < 40; i++ {
			src := "/f" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := cl.CreateMetadataOnly(ctx, src, 1e6); err != nil {
				t.Error(err)
				return
			}
			locs, err := cl.GetBlockLocations(ctx, src, 0, 1e6)
			if err != nil {
				t.Error(err)
				return
			}
			replicas := locs[0].Replicas
			for x := 0; x < len(replicas); x++ {
				for y := x + 1; y < len(replicas); y++ {
					a, b := replicas[x], replicas[y]
					if before[[2]string{b, a}] {
						t.Errorf("order violated: saw both %s<%s and %s<%s", a, b, b, a)
						return
					}
					before[[2]string{a, b}] = true
				}
			}
		}
	})
}

func TestFixedOrderingIsRandomized(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := DefaultConfig()
		cfg.RandomizeReplicaOrder = true
		_, _, cl := testDeploy(env, 6, cfg, ClientConfig{RandomReplicaSelection: true})
		ctx := cl.Proc.NewRequest()
		firsts := map[string]int{}
		for i := 0; i < 60; i++ {
			src := "/r" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			cl.CreateMetadataOnly(ctx, src, 1e6)
			locs, err := cl.GetBlockLocations(ctx, src, 0, 1e6)
			if err != nil {
				t.Error(err)
				return
			}
			firsts[locs[0].Replicas[0]]++
		}
		// With random ordering and placement, no single host should
		// dominate the first position.
		for h, n := range firsts {
			if n > 30 {
				t.Errorf("host %s first %d/60 times despite randomization", h, n)
			}
		}
	})
}

func TestClientPrefersLocalReplicaWhenFixed(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := cluster.DefaultConfig()
		cfg.RPCLatency = 0
		c := cluster.New(env, cfg)
		nn := NewNameNode(c, "namenode", DefaultConfig())
		for i := 0; i < 3; i++ {
			NewDataNode(c, dnHost(i), nn)
		}
		// Client co-located with DataNode B-dn.
		clientProc := c.Start(dnHost(1), "FSclient")
		cl := NewClient(clientProc, nn, ClientConfig{RandomReplicaSelection: true})
		if got := cl.chooseReplica([]string{dnHost(0), dnHost(1), dnHost(2)}); got != dnHost(1) {
			t.Errorf("chooseReplica = %s, want local %s", got, dnHost(1))
		}
	})
}

func TestReadTimeMatchesDiskAndNetworkModel(t *testing.T) {
	env := simtime.NewEnv()
	var elapsed time.Duration
	env.Run(func() {
		cfg := cluster.DefaultConfig()
		cfg.RPCLatency = 0
		cfg.NICRate = 100e6  // 100 MB/s network
		cfg.DiskRate = 200e6 // 200 MB/s disk
		c := cluster.New(env, cfg)
		nnCfg := DefaultConfig()
		nnCfg.Replication = 1
		nn := NewNameNode(c, "namenode", nnCfg)
		NewDataNode(c, "dn-a", nn)
		clientProc := c.Start("client-0", "FSclient")
		cl := NewClient(clientProc, nn, ClientConfig{})

		ctx := cl.Proc.NewRequest()
		cl.CreateMetadataOnly(ctx, "/f", 100e6)
		start := env.Now()
		if err := cl.Read(ctx, "/f", 0, 100e6); err != nil {
			t.Error(err)
		}
		elapsed = env.Now() - start
	})
	// 100 MB: 0.5s disk + 1.0s network (plus negligible RPC costs).
	want := 1500 * time.Millisecond
	if elapsed < want || elapsed > want+50*time.Millisecond {
		t.Fatalf("read took %v, want ~%v", elapsed, want)
	}
}

func TestWritePipelineReplicatesToAllDataNodes(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := cluster.DefaultConfig()
		cfg.RPCLatency = 0
		c := cluster.New(env, cfg)
		nn := NewNameNode(c, "namenode", DefaultConfig())
		var dns []*DataNode
		for i := 0; i < 3; i++ {
			dns = append(dns, NewDataNode(c, dnHost(i), nn))
		}
		clientProc := c.Start("client-0", "FSclient")
		cl := NewClient(clientProc, nn, ClientConfig{})

		// Install a query counting WRITE_BLOCK ops per DataNode host.
		h, err := c.PT.Install(
			`From dnop In DN.DataTransferProtocol
			 Where dnop.op = "WRITE_BLOCK"
			 GroupBy dnop.host
			 Select dnop.host, COUNT`)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := cl.Proc.NewRequest()
		if err := cl.Create(ctx, "/f", 10e6); err != nil {
			t.Error(err)
			return
		}
		c.FlushAgents()
		rows := h.Rows()
		if len(rows) != 3 {
			t.Fatalf("rows = %v, want one per replica", rows)
		}
		for _, r := range rows {
			if r[1].Int() != 1 {
				t.Errorf("row %v: want 1 write per DataNode", r)
			}
		}
	})
}

func TestExclusiveLockingSerializesReads(t *testing.T) {
	env := simtime.NewEnv()
	run := func(exclusive bool) time.Duration {
		e := simtime.NewEnv()
		var elapsed time.Duration
		e.Run(func() {
			cfg := cluster.DefaultConfig()
			cfg.RPCLatency = 0
			c := cluster.New(e, cfg)
			nnCfg := DefaultConfig()
			nnCfg.ExclusiveLocking = exclusive
			nnCfg.OpDelay = time.Millisecond
			nn := NewNameNode(c, "namenode", nnCfg)
			NewDataNode(c, "dn-a", nn)
			clientProc := c.Start("client-0", "FSclient")
			cl := NewClient(clientProc, nn, ClientConfig{})
			ctx := cl.Proc.NewRequest()
			cl.CreateMetadataOnly(ctx, "/f", 1e6)

			start := e.Now()
			wg := e.NewWaitGroup()
			for i := 0; i < 10; i++ {
				wg.Add(1)
				e.Go(func() {
					defer wg.Done()
					cl.Open(cl.Proc.NewRequest(), "/f")
				})
			}
			wg.Wait()
			elapsed = e.Now() - start
		})
		return elapsed
	}
	_ = env
	shared := run(false)
	exclusive := run(true)
	if exclusive < 5*shared {
		t.Fatalf("exclusive locking (%v) should be much slower than shared (%v)", exclusive, shared)
	}
}

func TestIncrBytesReadTracepointFires(t *testing.T) {
	env := simtime.NewEnv()
	env.Run(func() {
		c, _, cl := testDeploy(env, 3, DefaultConfig(), ClientConfig{})
		h, err := c.PT.Install(
			`From incr In DataNodeMetrics.incrBytesRead
			 GroupBy incr.host
			 Select incr.host, SUM(incr.delta)`)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := cl.Proc.NewRequest()
		cl.CreateMetadataOnly(ctx, "/f", 8e6)
		if err := cl.Read(ctx, "/f", 0, 8e6); err != nil {
			t.Error(err)
			return
		}
		c.FlushAgents()
		rows := h.Rows()
		if len(rows) != 1 || rows[0][1].Float() != 8e6 {
			t.Fatalf("rows = %v, want one host with 8e6 bytes", rows)
		}
	})
}

func TestQ2CrossTierAttribution(t *testing.T) {
	// The headline Pivot Tracing capability: DataNode disk metrics grouped
	// by the top-level client application name.
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := cluster.DefaultConfig()
		cfg.RPCLatency = 0
		c := cluster.New(env, cfg)
		nn := NewNameNode(c, "namenode", DefaultConfig())
		for i := 0; i < 4; i++ {
			NewDataNode(c, dnHost(i), nn)
		}
		mk := func(host, name string) *Client {
			return NewClient(c.Start(host, name), nn, ClientConfig{})
		}
		c1 := mk("client-1", "FSREAD4M")
		c2 := mk("client-2", "FSREAD64M")

		h, err := c.PT.Install(
			`From incr In DataNodeMetrics.incrBytesRead
			 Join cl In First(ClientProtocols) On cl -> incr
			 GroupBy cl.procName
			 Select cl.procName, SUM(incr.delta)`)
		if err != nil {
			t.Error(err)
			return
		}
		ctx := c1.Proc.NewRequest()
		c1.CreateMetadataOnly(ctx, "/a", 4e6)
		c1.Read(ctx, "/a", 0, 4e6)
		ctx = c2.Proc.NewRequest()
		c2.CreateMetadataOnly(ctx, "/b", 64e6)
		c2.Read(ctx, "/b", 0, 64e6)

		c.FlushAgents()
		rows := h.Rows()
		if len(rows) != 2 {
			t.Fatalf("rows = %v", rows)
		}
		byName := map[string]tuple.Value{}
		for _, r := range rows {
			byName[r[0].Str()] = r[1]
		}
		if byName["FSREAD4M"].Float() != 4e6 || byName["FSREAD64M"].Float() != 64e6 {
			t.Fatalf("rows = %v", rows)
		}
	})
}
