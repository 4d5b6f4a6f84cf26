package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baggage"
)

// Handle registers an RPC handler under "Service.Method".
func (p *Process) Handle(method string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.handlers[method]; dup {
		panic(fmt.Sprintf("cluster: duplicate handler %s on %s/%s",
			method, p.Info.Host, p.Info.ProcName))
	}
	p.handlers[method] = handler{serve: h, method: method}
}

// Sizes gives the simulated payload sizes of an RPC, in bytes (baggage
// bytes are added automatically).
type Sizes struct {
	Request  float64
	Response float64
}

// Call issues a synchronous RPC from the process owning ctx to the target
// process. Baggage is serialized into the request message, deserialized at
// the callee (lazily), propagated through the handler, and carried back in
// the response; the caller's baggage is replaced by the response baggage —
// the paper's execution-path propagation across process boundaries.
//
// The transfer contends for the caller's transmit link and the callee's
// receive link (and the reverse for the response).
func (p *Process) Call(ctx context.Context, target *Process, method string, req any, sz Sizes) (any, error) {
	target.mu.Lock()
	h, ok := target.handlers[method]
	target.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("rpc: no handler %s on %s/%s",
			method, target.Info.Host, target.Info.ProcName)
	}
	callerBag := baggage.FromContext(ctx)
	wire := callerBag.Serialize()
	p.chargeBaggageCost(len(wire))

	// Request transfer (payload + baggage on the wire).
	p.Host.Send(target.Host, sz.Request+float64(len(wire)))

	// The callee sees its own deserialized copy — process isolation.
	calleeCtx := target.receive(ctx, wire)
	target.rpcRecv.Here(calleeCtx, h.method)
	resp, err := h.serve(calleeCtx, req)
	target.rpcResp.Here(calleeCtx, h.method)

	respWire := calleeCtx.bag.Serialize()
	target.chargeBaggageCost(len(respWire))

	// Response transfer.
	target.Host.Send(p.Host, sz.Response+float64(len(respWire)))

	// Propagate the response baggage back into the caller's context.
	if callerBag != nil {
		callerBag.Load(respWire)
	}
	return resp, err
}

// baggageFixedCost and baggageByteCost model the CPU cost of
// serializing/deserializing non-empty baggage at each process boundary
// crossing (the overheads Table 5 measures). Empty baggage costs nothing —
// the paper's zero-byte default.
const (
	baggageFixedCost = 500 * time.Nanosecond
	baggageByteCost  = 2 * time.Nanosecond
)

// chargeBaggageCost burns virtual CPU time for serializing non-empty
// baggage at a process boundary (the Table 5 overhead model).
func (p *Process) chargeBaggageCost(wireBytes int) {
	if wireBytes == 0 {
		return
	}
	p.C.Env.Sleep(baggageFixedCost + time.Duration(wireBytes)*baggageByteCost)
}

// Go runs fn as a new thread of this process with its own branch of the
// request's baggage; it returns a join function that blocks until fn
// completes and merges the branch back (the paper's split/join for
// branching executions). The pattern:
//
//	join := p.Go(ctx, func(ctx context.Context) { ... })
//	...
//	join()
func (p *Process) Go(ctx context.Context, fn func(ctx context.Context)) (join func()) {
	parent := baggage.FromContext(ctx)
	mine, branchCtx := baggage.SplitContexts(ctx)
	if parent != nil {
		*parent = *baggage.FromContext(mine)
	}
	done := p.C.Env.NewWaitGroup()
	done.Add(1)
	p.C.Env.Go(func() {
		defer done.Done()
		fn(branchCtx)
	})
	return func() {
		done.Wait()
		if parent != nil {
			*parent = *baggage.Join(parent, baggage.FromContext(branchCtx))
		}
	}
}
