// Package hdfs implements a simulated Hadoop Distributed File System: a
// NameNode managing the namespace and block map, DataNodes serving block
// reads and writes from local disks, and a client library with the replica
// selection logic — including the HDFS-6268 replica-ordering bug the paper
// diagnoses in §6.1, reproduced here behind configuration switches.
package hdfs

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// BlockSize is the HDFS block size (128 MB, as in the paper's experiments).
const BlockSize = 128e6

// DefaultReplication is the block replication factor.
const DefaultReplication = 3

// Config controls NameNode behaviour, in particular the two halves of
// HDFS-6268 and the locking discipline of §6.2's NameNode overload case.
type Config struct {
	// RandomizeReplicaOrder, when false, reproduces the NameNode half of
	// HDFS-6268: non-local replicas are returned in a fixed static order
	// instead of being shuffled.
	RandomizeReplicaOrder bool
	// Replication is the block replication factor (default 3).
	Replication int
	// ExclusiveLocking, when true, makes every namespace operation take
	// the write lock — the overloaded-NameNode behaviour of §6.2.
	ExclusiveLocking bool
	// OpDelay is the CPU cost of one namespace operation under the lock.
	OpDelay time.Duration
	// Seed drives replica placement and ordering.
	Seed int64
	// DeterministicPlacement keys replica placement on the file path and
	// block index instead of a shared rng, making placement independent
	// of the order concurrent Create operations reach the NameNode. The
	// scenario harness requires it for byte-identical reports; the
	// default preserves the historical shared-rng placement.
	DeterministicPlacement bool
}

// DefaultConfig returns the buggy-ordering configuration used by the §6.1
// case study.
func DefaultConfig() Config {
	return Config{Replication: DefaultReplication, OpDelay: 30 * time.Microsecond, Seed: 1}
}

type fileInfo struct {
	blocks []string
	size   float64
}

// NameNode is the HDFS metadata server.
type NameNode struct {
	Proc *cluster.Process
	cfg  Config

	lock *simtime.RWLock // namespace lock (held across simulated CPU work)
	mu   sync.Mutex      // protects the maps below (never held across blocking)

	// unlockRead and unlockWrite are lock's unlock methods, bound once so
	// that readLock hands one out without allocating.
	unlockRead, unlockWrite func()

	files       map[string]*fileInfo
	blocks      map[string][]string // block -> replica DataNode hosts
	dataNodes   []string
	staticOrder map[string]int // the HDFS-6268 static priority of each host
	nextBlock   int64
	rng         *rand.Rand
	// placeRng (under mu) is reseeded for each placement under
	// DeterministicPlacement, instead of building a source per block.
	placeRng *rand.Rand

	tpGetLoc, tpCreate, tpOpen, tpRename, tpComplete *tracepoint.Tracepoint
}

// NewNameNode starts a NameNode process on the given host.
func NewNameNode(c *cluster.Cluster, host string, cfg Config) *NameNode {
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.OpDelay <= 0 {
		cfg.OpDelay = 30 * time.Microsecond
	}
	proc := c.Start(host, "NameNode")
	nn := &NameNode{
		Proc:        proc,
		cfg:         cfg,
		lock:        c.Env.NewRWLock(),
		files:       make(map[string]*fileInfo),
		blocks:      make(map[string][]string),
		staticOrder: make(map[string]int),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		placeRng:    rand.New(rand.NewSource(0)),
	}
	nn.unlockRead, nn.unlockWrite = nn.lock.RUnlock, nn.lock.Unlock
	nn.tpGetLoc = proc.Define("NN.GetBlockLocations", "src", "replicas")
	nn.tpCreate = proc.Define("NN.Create", "src")
	nn.tpOpen = proc.Define("NN.Open", "src")
	nn.tpRename = proc.Define("NN.Rename", "src", "dst")
	nn.tpComplete = proc.Define("NN.Complete", "src")

	proc.Handle("ClientProtocol.GetBlockLocations", nn.handleGetBlockLocations)
	proc.Handle("ClientProtocol.Create", nn.handleCreate)
	proc.Handle("ClientProtocol.Open", nn.handleOpen)
	proc.Handle("ClientProtocol.Rename", nn.handleRename)
	proc.Handle("ClientProtocol.Complete", nn.handleComplete)
	return nn
}

// RegisterDataNode adds a DataNode host to the placement pool. The static
// ordering position reproduces HDFS-6268: when ordering is not randomized,
// replicas are returned sorted by this fixed priority.
func (nn *NameNode) RegisterDataNode(host string) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.dataNodes = append(nn.dataNodes, host)
	// A deterministic pseudo-random permutation: the priority is the hash
	// order the buggy comparator happened to produce.
	nn.staticOrder[host] = len(nn.dataNodes)*7919%10007 + len(nn.dataNodes)
}

// readLock acquires the namespace lock for a read operation, honouring the
// exclusive-locking misconfiguration.
func (nn *NameNode) readLock() func() {
	if nn.cfg.ExclusiveLocking {
		nn.lock.Lock()
		return nn.unlockWrite
	}
	nn.lock.RLock()
	return nn.unlockRead
}

// GetBlockLocationsReq asks for the replica locations of a byte range.
type GetBlockLocationsReq struct {
	Src        string
	ClientHost string
	Offset     float64
	Length     float64
}

// BlockLocation is one block with its replica hosts in selection order.
type BlockLocation struct {
	Block    string
	Replicas []string
	Size     float64
}

func (nn *NameNode) handleGetBlockLocations(ctx context.Context, req any) (any, error) {
	r := req.(GetBlockLocationsReq)
	unlock := nn.readLock()
	nn.Proc.C.Env.Sleep(nn.cfg.OpDelay)

	nn.mu.Lock()
	fi, ok := nn.files[r.Src]
	var out []BlockLocation
	if ok {
		first := int(r.Offset / BlockSize)
		last := int((r.Offset + r.Length - 1) / BlockSize)
		if last >= len(fi.blocks) {
			last = len(fi.blocks) - 1
		}
		for i := first; i <= last && i >= 0; i++ {
			b := fi.blocks[i]
			replicas := nn.orderReplicas(r.ClientHost, nn.blocks[b])
			size := BlockSize
			if i == len(fi.blocks)-1 {
				if rem := fi.size - float64(i)*BlockSize; rem < size {
					size = rem
				}
			}
			out = append(out, BlockLocation{Block: b, Replicas: replicas, Size: size})
		}
	}
	nn.mu.Unlock()
	unlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", r.Src)
	}
	for _, bl := range out {
		nn.tpGetLoc.Here(ctx, r.Src, strings.Join(bl.Replicas, ","))
	}
	return out, nil
}

// orderReplicas sorts replica hosts for a client: a local replica first,
// then the rest — shuffled when RandomizeReplicaOrder is set, otherwise in
// the fixed static order (the HDFS-6268 bug). Caller holds nn.mu.
func (nn *NameNode) orderReplicas(clientHost string, replicas []string) []string {
	out := make([]string, 0, len(replicas))
	rest := make([]string, 0, len(replicas))
	for _, h := range replicas {
		if h == clientHost {
			out = append(out, h)
		} else {
			rest = append(rest, h)
		}
	}
	if nn.cfg.RandomizeReplicaOrder {
		nn.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	} else {
		// Static priority sort: the bug.
		for i := 1; i < len(rest); i++ {
			for k := i; k > 0 && nn.staticOrder[rest[k]] < nn.staticOrder[rest[k-1]]; k-- {
				rest[k], rest[k-1] = rest[k-1], rest[k]
			}
		}
	}
	return append(out, rest...)
}

// CreateReq creates a file of the given size; blocks are allocated and
// placed immediately (the simulation does not model incremental writes to
// the namespace).
type CreateReq struct {
	Src  string
	Size float64
}

func (nn *NameNode) handleCreate(ctx context.Context, req any) (any, error) {
	r := req.(CreateReq)
	nn.lock.Lock()
	nn.Proc.C.Env.Sleep(nn.cfg.OpDelay)
	locs := nn.createLocked(r.Src, r.Size)
	nn.lock.Unlock()
	nn.tpCreate.Here(ctx, r.Src)
	return locs, nil
}

// createLocked allocates blocks with uniform random placement.
func (nn *NameNode) createLocked(src string, size float64) []BlockLocation {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	fi := &fileInfo{size: size}
	var out []BlockLocation
	nBlocks := int((size + BlockSize - 1) / BlockSize)
	if nBlocks == 0 {
		nBlocks = 1
	}
	for i := 0; i < nBlocks; i++ {
		nn.nextBlock++
		b := fmt.Sprintf("blk_%d", nn.nextBlock)
		replicas := nn.placeReplicas(src, i)
		nn.blocks[b] = replicas
		fi.blocks = append(fi.blocks, b)
		bs := BlockSize
		if i == nBlocks-1 {
			if rem := size - float64(i)*BlockSize; rem < bs && rem > 0 {
				bs = rem
			}
		}
		out = append(out, BlockLocation{Block: b, Replicas: replicas, Size: bs})
	}
	nn.files[src] = fi
	return out
}

// placeReplicas picks Replication distinct DataNodes uniformly at random.
// Under DeterministicPlacement the choice is a pure function of (src,
// block index, seed); otherwise it consumes the shared placement rng.
// Caller holds nn.mu, which guards placeRng.
func (nn *NameNode) placeReplicas(src string, idx int) []string {
	n := nn.cfg.Replication
	if n > len(nn.dataNodes) {
		n = len(nn.dataNodes)
	}
	rng := nn.rng
	if nn.cfg.DeterministicPlacement {
		h := int64(1469598103934665603)
		for _, c := range src {
			h = (h ^ int64(c)) * 1099511628211
		}
		rng = nn.placeRng
		rng.Seed(nn.cfg.Seed ^ h ^ int64(idx)*-0x61C8864680B583EB)
	}
	// Rejection-sample n distinct datanodes: O(n) for the thousand-host
	// pools the scenario harness builds, where a full Perm is O(hosts)
	// per block.
	out := make([]string, 0, n)
	used := make(map[int]bool, n)
	for len(out) < n {
		i := rng.Intn(len(nn.dataNodes))
		if used[i] {
			continue
		}
		used[i] = true
		out = append(out, nn.dataNodes[i])
	}
	return out
}

func (nn *NameNode) handleOpen(ctx context.Context, req any) (any, error) {
	src := req.(string)
	unlock := nn.readLock()
	nn.Proc.C.Env.Sleep(nn.cfg.OpDelay)
	nn.mu.Lock()
	_, ok := nn.files[src]
	nn.mu.Unlock()
	unlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", src)
	}
	nn.tpOpen.Here(ctx, req) // src, boxed once already
	return true, nil
}

// RenameReq renames a file.
type RenameReq struct{ Src, Dst string }

func (nn *NameNode) handleRename(ctx context.Context, req any) (any, error) {
	r := req.(RenameReq)
	nn.lock.Lock()
	nn.Proc.C.Env.Sleep(nn.cfg.OpDelay)
	nn.mu.Lock()
	fi, ok := nn.files[r.Src]
	if ok {
		delete(nn.files, r.Src)
		nn.files[r.Dst] = fi
	}
	nn.mu.Unlock()
	nn.lock.Unlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: no such file %q", r.Src)
	}
	nn.tpRename.Here(ctx, r.Src, r.Dst)
	return true, nil
}

func (nn *NameNode) handleComplete(ctx context.Context, req any) (any, error) {
	src := req.(string)
	nn.lock.Lock()
	nn.Proc.C.Env.Sleep(nn.cfg.OpDelay)
	nn.lock.Unlock()
	nn.tpComplete.Here(ctx, src)
	return true, nil
}
