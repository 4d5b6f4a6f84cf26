// Package yarn implements a simulated YARN container manager: a central
// ResourceManager tracking cluster capacity and per-host NodeManagers that
// launch containers (tasks run as managed goroutines on the container's
// host). MapReduce runs its ApplicationMaster and tasks in YARN containers,
// as in the paper's stack (§6).
package yarn

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// DefaultContainersPerNode is each NodeManager's container capacity.
const DefaultContainersPerNode = 8

// ResourceManager allocates containers across NodeManagers.
type ResourceManager struct {
	Proc *cluster.Process

	mu    sync.Mutex
	nodes []*NodeManager
	avail *simtime.Semaphore // cluster-wide container slots
	rr    int

	tpAllocate *tracepoint.Tracepoint
}

// NewResourceManager starts the ResourceManager on a host.
func NewResourceManager(c *cluster.Cluster, host string) *ResourceManager {
	proc := c.Start(host, "ResourceManager")
	rm := &ResourceManager{Proc: proc, avail: c.Env.NewSemaphore(0)}
	rm.tpAllocate = proc.Define("RM.AllocateContainer", "preferredHost", "grantedHost")
	proc.Handle("ApplicationClientProtocol.Allocate", rm.handleAllocate)
	return rm
}

// NodeManager manages containers on one host.
type NodeManager struct {
	Proc *cluster.Process
	rm   *ResourceManager
	free *simtime.Semaphore
	cap  int

	// draining, when set, removes the node from container placement (a
	// rolling restart or decommission); running containers finish.
	draining atomic.Bool

	tpLaunch *tracepoint.Tracepoint
}

// SetDraining marks the node as out of (or back into) container
// placement. The RM skips draining nodes when granting containers.
func (nm *NodeManager) SetDraining(d bool) { nm.draining.Store(d) }

// NewNodeManager starts a NodeManager with the given container capacity on
// a host and registers it with the ResourceManager.
func NewNodeManager(c *cluster.Cluster, host string, rm *ResourceManager, capacity int) *NodeManager {
	if capacity <= 0 {
		capacity = DefaultContainersPerNode
	}
	proc := c.Start(host, "NodeManager")
	nm := &NodeManager{Proc: proc, rm: rm, free: c.Env.NewSemaphore(capacity), cap: capacity}
	nm.tpLaunch = proc.Define("NM.LaunchContainer", "app")
	rm.mu.Lock()
	rm.nodes = append(rm.nodes, nm)
	rm.mu.Unlock()
	for i := 0; i < capacity; i++ {
		rm.avail.Release()
	}
	return nm
}

// AllocateReq asks for one container, preferably on PreferredHost (data
// locality).
type AllocateReq struct {
	App           string
	PreferredHost string
}

// Container is a granted execution slot on a host.
type Container struct {
	App  string
	Host string
	nm   *NodeManager
}

func (rm *ResourceManager) handleAllocate(ctx context.Context, req any) (any, error) {
	r := req.(AllocateReq)
	// Wait for cluster capacity, then pick a node: preferred host if it
	// has a free slot, else round-robin over nodes with capacity. The
	// capacity semaphore can admit us while every placeable slot sits on
	// a draining node (its slots still count until it re-registers), so
	// placement retries on a short backoff instead of failing the job.
	const maxTries = 1000
	for try := 0; try < maxTries; try++ {
		rm.avail.Acquire()
		rm.mu.Lock()
		var pick *NodeManager
		for _, nm := range rm.nodes {
			if nm.Proc.Info.Host == r.PreferredHost && nm.tryReserve() {
				pick = nm
				break
			}
		}
		for i := 0; pick == nil && i < len(rm.nodes); i++ {
			rm.rr = (rm.rr + 1) % len(rm.nodes)
			if rm.nodes[rm.rr].tryReserve() {
				pick = rm.nodes[rm.rr]
			}
		}
		rm.mu.Unlock()
		if pick != nil {
			rm.tpAllocate.Here(ctx, r.PreferredHost, pick.Proc.Info.Host)
			return Container{App: r.App, Host: pick.Proc.Info.Host, nm: pick}, nil
		}
		rm.avail.Release()
		rm.Proc.C.Env.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("yarn: no container available despite capacity")
}

// tryReserve takes a slot if one is immediately free and the node is
// accepting containers.
func (nm *NodeManager) tryReserve() bool {
	if nm.draining.Load() {
		return false
	}
	return nm.free.TryAcquire()
}

// Release returns the container's slot to its NodeManager.
func (c Container) Release() {
	c.nm.free.Release()
	c.nm.rm.avail.Release()
}

// Run executes fn in the container as a managed goroutine inside proc
// (the task's process on the container host), with a branch of the request
// baggage. The returned join function waits for completion and merges the
// baggage branch back.
func (c Container) Run(ctx context.Context, proc *cluster.Process, fn func(ctx context.Context)) (join func()) {
	c.nm.tpLaunch.Here(ctx, c.App)
	return proc.Go(ctx, func(branchCtx context.Context) {
		fn(proc.In(branchCtx))
	})
}

// Allocate is the client call requesting a container from the RM.
func Allocate(ctx context.Context, from *cluster.Process, rm *ResourceManager, app, preferredHost string) (Container, error) {
	resp, err := from.Call(ctx, rm.Proc, "ApplicationClientProtocol.Allocate",
		AllocateReq{App: app, PreferredHost: preferredHost},
		cluster.Sizes{Request: 300, Response: 300})
	if err != nil {
		return Container{}, err
	}
	return resp.(Container), nil
}
