package hdfs

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// DataNodeHandlers is the size of a DataNode's request handler pool.
const DataNodeHandlers = 16

// SeekCost models the positioning cost of one random block read as
// equivalent disk bytes (~3.4 ms on a 150 MB/s disk). Small random reads
// are seek-dominated, which is what saturates the hot DataNodes in the
// §6.1 stress test (Fig 8a/8c).
const SeekCost = 512e3

// DataNode serves block reads and writes from its host's local disk.
type DataNode struct {
	Proc *cluster.Process
	nn   *NameNode
	sem  *simtime.Semaphore

	// offline, when set, makes the DataNode refuse new operations (a
	// restarting or crashed process). Requests fail before any
	// tracepoint fires, so op counts reflect served work only.
	offline atomic.Bool

	tpProto      *tracepoint.Tracepoint // DN.DataTransferProtocol
	tpQueued     *tracepoint.Tracepoint // DN.OpQueued
	tpStart      *tracepoint.Tracepoint // DN.OpStart
	tpXferStart  *tracepoint.Tracepoint // DN.TransferStart
	tpXferEnd    *tracepoint.Tracepoint // DN.TransferEnd
	tpBytesRead  *tracepoint.Tracepoint // DataNodeMetrics.incrBytesRead
	tpBytesWrite *tracepoint.Tracepoint // DataNodeMetrics.incrBytesWritten
}

// NewDataNode starts a DataNode process on the given host and registers it
// with the NameNode.
func NewDataNode(c *cluster.Cluster, host string, nn *NameNode) *DataNode {
	proc := c.Start(host, "DataNode")
	dn := &DataNode{
		Proc: proc,
		nn:   nn,
		sem:  c.Env.NewSemaphore(DataNodeHandlers),
	}
	dn.tpProto = proc.Define("DN.DataTransferProtocol", "op", "size")
	dn.tpQueued = proc.Define("DN.OpQueued", "op")
	dn.tpStart = proc.Define("DN.OpStart", "op")
	dn.tpXferStart = proc.Define("DN.TransferStart", "size", "dest")
	dn.tpXferEnd = proc.Define("DN.TransferEnd", "size", "dest")
	dn.tpBytesRead = proc.Define("DataNodeMetrics.incrBytesRead", "delta")
	dn.tpBytesWrite = proc.Define("DataNodeMetrics.incrBytesWritten", "delta")

	proc.Handle("DataTransferProtocol.ReadBlock", dn.handleReadBlock)
	proc.Handle("DataTransferProtocol.WriteBlock", dn.handleWriteBlock)
	nn.RegisterDataNode(host)
	return dn
}

// ErrDataNodeOffline is returned (wrapped) for operations against an
// offline DataNode.
var ErrDataNodeOffline = fmt.Errorf("hdfs: datanode offline")

// SetOffline toggles the DataNode's availability (rolling-restart fault
// injection). While offline, every read and write fails immediately;
// clients fall back to another replica.
func (dn *DataNode) SetOffline(off bool) { dn.offline.Store(off) }

// SetDiskRate changes the DataNode host's disk bandwidth (limplock fault
// injection: the node keeps serving, slowly).
func (dn *DataNode) SetDiskRate(rate float64) { dn.Proc.Host.SetDiskRate(rate) }

// ReadBlockReq reads length bytes of a block and pushes them to the
// requesting host.
type ReadBlockReq struct {
	Block    string
	Length   float64
	DestHost string
	// Pipeline hosts still to receive the data (write path re-uses the
	// read plumbing for replication forwarding).
}

func (dn *DataNode) handleReadBlock(ctx context.Context, req any) (any, error) {
	r := req.(ReadBlockReq)
	if dn.offline.Load() {
		return nil, fmt.Errorf("%w: %s", ErrDataNodeOffline, dn.Proc.Info.Host)
	}
	dn.tpProto.Here(ctx, "READ_BLOCK", r.Length)
	dn.tpQueued.Here(ctx, "READ_BLOCK")
	dn.sem.Acquire()
	defer dn.sem.Release()
	dn.tpStart.Here(ctx, "READ_BLOCK")

	// Read from the local disk (crosses FileInputStream.read); the seek
	// charge contends for the disk but is not part of the byte stream.
	dn.Proc.Host.DiskRead(SeekCost)
	dn.Proc.DiskRead(ctx, r.Length)

	// Push the data to the destination host as an explicit network flow so
	// the transfer time is observable between tracepoints (Fig 9's "DN
	// transfer" span).
	dn.tpXferStart.Here(ctx, r.Length, r.DestHost)
	if dest := dn.Proc.C.Host(r.DestHost); dest != dn.Proc.Host {
		dn.Proc.Host.Send(dest, r.Length)
	}
	dn.tpXferEnd.Here(ctx, r.Length, r.DestHost)

	dn.tpBytesRead.Here(ctx, r.Length)
	return r.Length, nil
}

// WriteBlockReq writes length bytes to a block replica; Pipeline lists the
// downstream replica hosts the data must be forwarded to.
type WriteBlockReq struct {
	Block    string
	Length   float64
	SrcHost  string
	Pipeline []string
}

func (dn *DataNode) handleWriteBlock(ctx context.Context, req any) (any, error) {
	r := req.(WriteBlockReq)
	if dn.offline.Load() {
		return nil, fmt.Errorf("%w: %s", ErrDataNodeOffline, dn.Proc.Info.Host)
	}
	dn.tpProto.Here(ctx, "WRITE_BLOCK", r.Length)
	dn.tpQueued.Here(ctx, "WRITE_BLOCK")
	dn.sem.Acquire()
	defer dn.sem.Release()
	dn.tpStart.Here(ctx, "WRITE_BLOCK")

	// Write to the local disk (crosses FileOutputStream.write).
	dn.Proc.DiskWrite(ctx, r.Length)
	dn.tpBytesWrite.Here(ctx, r.Length)

	// Forward down the replication pipeline. An offline downstream node is
	// dropped and the pipeline continues with the nodes after it (HDFS
	// pipeline recovery: the block stays under-replicated rather than
	// failing the write while healthy replicas remain).
	for i := 0; i < len(r.Pipeline); i++ {
		next := dn.Proc.C.Proc(r.Pipeline[i], "DataNode")
		if next == nil {
			continue
		}
		fwd := WriteBlockReq{
			Block: r.Block, Length: r.Length,
			SrcHost: dn.Proc.Info.Host, Pipeline: r.Pipeline[i+1:],
		}
		_, err := dn.Proc.Call(ctx, next, "DataTransferProtocol.WriteBlock", fwd,
			cluster.Sizes{Request: r.Length, Response: 64})
		if err == nil || !errors.Is(err, ErrDataNodeOffline) {
			return r.Length, err
		}
	}
	return r.Length, nil
}
