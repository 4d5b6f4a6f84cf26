package hdfs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/cluster"
	"repro/internal/tracepoint"
)

// ClientConfig controls client-side replica selection.
type ClientConfig struct {
	// RandomReplicaSelection, when false, reproduces the client half of
	// HDFS-6268: the client always reads the first location returned by
	// the NameNode. When true (the fix), it prefers a local replica and
	// otherwise selects uniformly at random.
	RandomReplicaSelection bool
	// Seed drives random selection.
	Seed int64
}

// Client is the HDFS client library, embedded in an application process.
type Client struct {
	Proc *cluster.Process
	nn   *NameNode
	cfg  ClientConfig

	mu  sync.Mutex
	rng *rand.Rand // seeded on first use: most clients never draw

	tpClientProto *tracepoint.Tracepoint
}

// rpcOverhead is the payload size of small control RPCs.
const rpcOverhead = 200

// NewClient creates an HDFS client inside proc.
func NewClient(proc *cluster.Process, nn *NameNode, cfg ClientConfig) *Client {
	c := &Client{
		Proc: proc,
		nn:   nn,
		cfg:  cfg,
	}
	// The paper's Q2 instruments the client protocols of HDFS, HBase, and
	// MapReduce under one tracepoint vocabulary.
	c.tpClientProto = proc.Define("ClientProtocols")
	return c
}

// GetBlockLocations asks the NameNode for the replica map of a byte range.
func (c *Client) GetBlockLocations(ctx context.Context, src string, offset, length float64) ([]BlockLocation, error) {
	resp, err := c.Proc.Call(ctx, c.nn.Proc, "ClientProtocol.GetBlockLocations",
		GetBlockLocationsReq{Src: src, ClientHost: c.Proc.Info.Host, Offset: offset, Length: length},
		cluster.Sizes{Request: rpcOverhead, Response: rpcOverhead})
	if err != nil {
		return nil, err
	}
	locs, _ := resp.([]BlockLocation)
	return locs, nil
}

// chooseReplica applies the client half of the replica selection logic.
func (c *Client) chooseReplica(replicas []string) string {
	if len(replicas) == 0 {
		return ""
	}
	if !c.cfg.RandomReplicaSelection {
		// HDFS-6268: always take the first location.
		return replicas[0]
	}
	// Fixed behaviour: local replica if present, else uniform random.
	for _, h := range replicas {
		if h == c.Proc.Info.Host {
			return h
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(c.cfg.Seed ^ c.Proc.Info.ProcID))
	}
	return replicas[c.rng.Intn(len(replicas))]
}

// Read reads length bytes of src starting at offset, selecting a replica
// per block and streaming the data from its DataNode.
func (c *Client) Read(ctx context.Context, src string, offset, length float64) error {
	c.tpClientProto.Here(ctx)
	locs, err := c.GetBlockLocations(ctx, src, offset, length)
	if err != nil {
		return err
	}
	remaining := length
	for _, bl := range locs {
		n := bl.Size
		if n > remaining {
			n = remaining
		}
		if err := c.readBlock(ctx, bl, n); err != nil {
			return err
		}
		remaining -= n
	}
	return nil
}

// readBlock streams one block from its chosen replica, falling back to
// the remaining replicas in location order when a DataNode fails (the
// real client's dead-node retry). The error of the last attempt is
// returned if every replica fails.
func (c *Client) readBlock(ctx context.Context, bl BlockLocation, n float64) error {
	chosen := c.chooseReplica(bl.Replicas)
	if chosen == "" {
		return fmt.Errorf("hdfs: block %q has no replicas", bl.Block)
	}
	var lastErr error
	tried := 0
	for i := -1; i < len(bl.Replicas); i++ {
		host := chosen
		if i >= 0 {
			if bl.Replicas[i] == chosen {
				continue // already tried as the primary choice
			}
			host = bl.Replicas[i]
		}
		tried++
		dnProc := c.Proc.C.Proc(host, "DataNode")
		if dnProc == nil {
			return fmt.Errorf("hdfs: no DataNode on %q", host)
		}
		_, err := c.Proc.Call(ctx, dnProc, "DataTransferProtocol.ReadBlock",
			ReadBlockReq{Block: bl.Block, Length: n, DestHost: c.Proc.Info.Host},
			cluster.Sizes{Request: rpcOverhead, Response: 64})
		if err == nil {
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("hdfs: all %d replicas of %q failed: %w", tried, bl.Block, lastErr)
}

// Create creates src with the given size and writes its blocks through the
// replication pipelines.
func (c *Client) Create(ctx context.Context, src string, size float64) error {
	c.tpClientProto.Here(ctx)
	resp, err := c.Proc.Call(ctx, c.nn.Proc, "ClientProtocol.Create",
		CreateReq{Src: src, Size: size},
		cluster.Sizes{Request: rpcOverhead, Response: rpcOverhead})
	if err != nil {
		return err
	}
	locs, _ := resp.([]BlockLocation)
	for _, bl := range locs {
		if err := c.writeBlock(ctx, bl); err != nil {
			return err
		}
	}
	_, err = c.Proc.Call(ctx, c.nn.Proc, "ClientProtocol.Complete", src,
		cluster.Sizes{Request: rpcOverhead, Response: rpcOverhead})
	return err
}

// writeBlock streams one block into its replication pipeline, skipping
// offline heads (pipeline recovery's client half: when the first replica
// is down, the next one leads the pipeline).
func (c *Client) writeBlock(ctx context.Context, bl BlockLocation) error {
	if len(bl.Replicas) == 0 {
		return nil
	}
	var lastErr error
	for i := range bl.Replicas {
		head := c.Proc.C.Proc(bl.Replicas[i], "DataNode")
		if head == nil {
			return fmt.Errorf("hdfs: no DataNode on %q", bl.Replicas[i])
		}
		_, err := c.Proc.Call(ctx, head, "DataTransferProtocol.WriteBlock",
			WriteBlockReq{
				Block: bl.Block, Length: bl.Size,
				SrcHost: c.Proc.Info.Host, Pipeline: bl.Replicas[i+1:],
			},
			cluster.Sizes{Request: bl.Size, Response: 64})
		if err == nil || !errors.Is(err, ErrDataNodeOffline) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("hdfs: all %d pipeline replicas of %q offline: %w", len(bl.Replicas), bl.Block, lastErr)
}

// CreateMetadataOnly registers src in the namespace without transferring
// block data — used to pre-populate large datasets instantly.
func (c *Client) CreateMetadataOnly(ctx context.Context, src string, size float64) error {
	_, err := c.Proc.Call(ctx, c.nn.Proc, "ClientProtocol.Create",
		CreateReq{Src: src, Size: size},
		cluster.Sizes{Request: rpcOverhead, Response: rpcOverhead})
	return err
}

// Open checks that src exists (a NameNode read operation).
func (c *Client) Open(ctx context.Context, src string) error {
	c.tpClientProto.Here(ctx)
	_, err := c.Proc.Call(ctx, c.nn.Proc, "ClientProtocol.Open", src,
		cluster.Sizes{Request: rpcOverhead, Response: rpcOverhead})
	return err
}

// Rename renames src to dst (a NameNode write operation).
func (c *Client) Rename(ctx context.Context, src, dst string) error {
	c.tpClientProto.Here(ctx)
	_, err := c.Proc.Call(ctx, c.nn.Proc, "ClientProtocol.Rename",
		RenameReq{Src: src, Dst: dst},
		cluster.Sizes{Request: rpcOverhead, Response: rpcOverhead})
	return err
}
