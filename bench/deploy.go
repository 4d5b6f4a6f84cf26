package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/bus"
	"repro/internal/combiner"
	"repro/internal/wire"
	"repro/pivot"
)

// awaitTimeout bounds every wait for a message to cross the deployment; a
// wait that hits it is a failed flush point, not a hang.
const awaitTimeout = 20 * time.Second

// gate counts events delivered on another goroutine and lets one waiter
// sleep until the count reaches a target — the wake-up the reporter uses
// instead of polling Rows().
type gate struct {
	n  atomic.Int64
	ch chan struct{}
}

func newGate() *gate { return &gate{ch: make(chan struct{}, 1)} }

func (g *gate) add(k int64) {
	g.n.Add(k)
	select {
	case g.ch <- struct{}{}:
	default:
	}
}

// wait blocks until the count reaches target; false on timeout.
func (g *gate) wait(target int64) bool {
	if g.n.Load() >= target {
		return true
	}
	timer := time.NewTimer(awaitTimeout)
	defer timer.Stop()
	for g.n.Load() < target {
		select {
		case <-g.ch:
		case <-timer.C:
			return g.n.Load() >= target
		}
	}
	return true
}

// midCombiner is a combiner-tier process bridged onto the TCP bus the way
// pivot/resilience_test.go's startTCPCombiner does it: a private local bus
// whose link receives the tier's partition topics and sends the merged
// stream upstream on the shared results topic.
type midCombiner struct {
	comb *combiner.Combiner
	link *bus.Link
}

// deployment is one OS process hosting the bus server, the frontend, the
// worker runtimes and (in the tree topology) the mid combiners, all
// talking over loopback TCP.
type deployment struct {
	srv     *bus.Server
	fe      *pivot.PT
	workers []*pivot.PT
	combs   []*midCombiner
	closers []func()

	// merged counts reports delivered to (and merged by) the frontend;
	// leafIn counts reports delivered to (and merged by) a combiner. Both
	// handlers subscribe after the component they observe, and the
	// in-process bus delivers in subscription order, so a count implies
	// the merge is done.
	merged, leafIn         *gate
	mergedWant, leafInWant int64

	// Gathered for the per-layer counters.
	flushes      int64        // flush points handled
	agentFlushes int64        // Agent.Flush calls made
	rowsIn       atomic.Int64 // rows arriving at combiners
	reportBytes  atomic.Int64 // agent.ReportSize over published reports
	healthBytes  atomic.Int64 // encoded heartbeat bytes published by workers
	queuedMax    int64
	pendingMax   int
}

// countReports returns how many reports a results-topic message carries.
func countReports(msg any) (reports, rows int64) {
	switch m := msg.(type) {
	case agent.Report:
		return 1, int64(len(m.Groups) + len(m.Raws))
	case agent.ReportBatch:
		for i := range m.Reports {
			rows += int64(len(m.Reports[i].Groups) + len(m.Reports[i].Raws))
		}
		return int64(len(m.Reports)), rows
	}
	return 0, 0
}

// deploy brings up the bus server, the frontend, one worker per name and
// one mid combiner per entry of combTopics (each owning those partition
// topics). With combiners, worker i reports on
// combiner.PartitionTopic(i, len(names)). define declares the workload's
// tracepoints on every runtime; countPayloads (the traced pass) also sizes
// every report and heartbeat the workers publish. It returns once every
// link is registered at the server, so a control frame sent afterwards
// reaches every worker.
func deploy(names []string, combTopics [][]string, define func(*pivot.PT), countPayloads bool) (*deployment, error) {
	srv, err := bus.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("bus server: %w", err)
	}
	d := &deployment{srv: srv, merged: newGate(), leafIn: newGate()}
	d.closers = append(d.closers, srv.Close)
	addr := srv.Addr()

	d.fe = pivot.New("frontend")
	define(d.fe)
	d.fe.Bus.Subscribe(agent.ResultsTopic, func(msg any) {
		n, _ := countReports(msg)
		d.merged.add(n)
	})
	disconnect, err := d.fe.ConnectFrontend(addr, pivot.DefaultBusOptions())
	if err != nil {
		d.close()
		return nil, fmt.Errorf("frontend link: %w", err)
	}
	d.closers = append(d.closers, disconnect)

	for i, name := range names {
		w := pivot.New(name)
		define(w)
		opts := pivot.DefaultBusOptions()
		if len(combTopics) > 0 {
			opts.ReportTopic = combiner.PartitionTopic(i, len(names))
		}
		if countPayloads {
			topic := agent.ResultsTopic
			if opts.ReportTopic != "" {
				topic = opts.ReportTopic
			}
			w.Bus.Subscribe(topic, func(msg any) {
				if b, ok := msg.(agent.ReportBatch); ok {
					for i := range b.Reports {
						d.reportBytes.Add(int64(agent.ReportSize(&b.Reports[i])))
					}
				}
			})
			w.Bus.Subscribe(agent.HealthTopic, func(msg any) {
				if p, err := wire.Marshal(msg); err == nil {
					d.healthBytes.Add(int64(len(p)))
				}
			})
		}
		disconnect, err := w.ConnectBusWith(addr, opts)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("worker %s link: %w", name, err)
		}
		d.closers = append(d.closers, disconnect)
		d.workers = append(d.workers, w)
	}

	for i, topics := range combTopics {
		b := bus.New()
		comb := combiner.New(nil, "ctier", fmt.Sprintf("mid-%d", i), b, combiner.Config{Subscribe: topics})
		for _, t := range topics {
			b.Subscribe(t, func(msg any) {
				n, rows := countReports(msg)
				d.rowsIn.Add(rows)
				d.leafIn.add(n)
			})
		}
		link, err := bus.ConnectOptions(b, addr, wire.BusCodec{},
			[]string{agent.ResultsTopic, agent.HealthTopic}, topics,
			bus.LinkOptions{Reconnect: true})
		if err != nil {
			d.close()
			return nil, fmt.Errorf("combiner mid-%d link: %w", i, err)
		}
		d.closers = append(d.closers, link.Close, comb.Close)
		d.combs = append(d.combs, &midCombiner{comb: comb, link: link})
	}

	links := int64(1 + len(names) + len(combTopics))
	conns := srv.Telemetry().Gauge("bus.server.conns")
	if !poll(func() bool { return conns.Load() == links }) {
		d.close()
		return nil, fmt.Errorf("only %d of %d links registered at the bus server", conns.Load(), links)
	}
	return d, nil
}

// poll sleeps in short steps until cond holds; false after awaitTimeout.
// It is used only where the system offers no event to wait on (link
// registration, weave propagation), never on the measured visible path.
func poll(cond func() bool) bool {
	deadline := time.Now().Add(awaitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// install installs a query at the frontend under a fixed name (so the
// bytes on the wire do not depend on how many queries came before).
func (d *deployment) install(name, text string) (*pivot.Query, error) {
	q, err := d.fe.InstallNamed(name, text)
	if err != nil {
		return nil, fmt.Errorf("install %s: %w", name, err)
	}
	return q, nil
}

// awaitInstalled waits until every worker's agent holds (want=true) or
// has shed (want=false) the named query.
func (d *deployment) awaitInstalled(name string, want bool) error {
	ok := poll(func() bool {
		for _, w := range d.workers {
			if w.Agent.Installed(name) != want {
				return false
			}
		}
		return true
	})
	if !ok {
		return fmt.Errorf("query %s: installed=%v not reached on every worker", name, want)
	}
	return nil
}

// renewEvery is how many flush points pass between lease renewals — a
// count, not a ticker, so control frames repeat exactly for a seed. At
// the slowest workload's ~25 flush points/s it renews every few seconds,
// well inside agent.DefaultLease.
const renewEvery = 64

// flushAndAwait is one reporting tick for the given workers: flush them
// (then, in the tree, wait for the combiners to have merged what was
// published and flush those), and sleep until the frontend has merged
// every report the tick produced. Expected report counts come from the
// publishers' own counters, so a flush that found nothing to report is
// not waited for. Spans go to tr under parent (both may be nil/-1).
func (d *deployment) flushAndAwait(tr *tracer, parent int, unit int64, workers []int) error {
	d.flushes++
	if d.flushes%renewEvery == 0 {
		d.fe.RenewLeases()
	}
	var published int64
	for _, i := range workers {
		w := d.workers[i]
		d.agentFlushes++
		before := w.Agent.Stats().Reports
		s := tr.begin("agent.flush", parent, unit)
		w.Flush()
		tr.end(s)
		published += w.Agent.Stats().Reports - before
	}
	if q := d.srv.Telemetry().Gauge("bus.server.queued.frames").Load(); q > d.queuedMax {
		d.queuedMax = q
	}
	if len(d.combs) > 0 {
		d.leafInWant += published
		s := tr.begin("bus.leaf-transit", parent, unit)
		ok := d.leafIn.wait(d.leafInWant)
		tr.end(s)
		if !ok {
			return fmt.Errorf("combiners merged %d of %d reports", d.leafIn.n.Load(), d.leafInWant)
		}
		published = 0
		for _, c := range d.combs {
			if p := c.comb.Pending(); p > d.pendingMax {
				d.pendingMax = p
			}
			before := c.comb.Stats().Reports
			s := tr.begin("combiner.flush", parent, unit)
			c.comb.Flush()
			tr.end(s)
			published += c.comb.Stats().Reports - before
		}
	}
	d.mergedWant += published
	s := tr.begin("bus.transit", parent, unit)
	ok := d.merged.wait(d.mergedWant)
	tr.end(s)
	if !ok {
		return fmt.Errorf("frontend merged %d of %d reports", d.merged.n.Load(), d.mergedWant)
	}
	return nil
}

// dropped sums every loss counter of every worker: a correct run has 0.
func (d *deployment) dropped() int64 {
	var n int64
	for _, w := range d.workers {
		st := w.Agent.Stats()
		n += st.ReportsDropped + st.RawsDropped + st.GroupsOverflowed +
			st.BaggageGroupsDropped + st.BaggageTuplesDropped + st.BaggageBytesDropped
	}
	return n
}

// close tears the deployment down in reverse order of construction.
func (d *deployment) close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}

// counters adds the deployment's per-layer counts to m: what the agents,
// the bus server, the combiners and the frontend say they did.
func (d *deployment) counters(m map[string]float64) {
	var st agent.Stats
	var drops, reconnects int64
	links := func(pt *pivot.PT) {
		tel := pt.Frontend.Telemetry()
		drops += tel.Counter("bus.link.drops").Load()
		reconnects += tel.Counter("bus.link.reconnects").Load()
	}
	links(d.fe)
	for _, w := range d.workers {
		s := w.Agent.Stats()
		st.Reports += s.Reports
		st.Batches += s.Batches
		st.RowsReported += s.RowsReported
		st.TuplesEmitted += s.TuplesEmitted
		links(w)
	}
	m["agent.flushes"] = float64(d.agentFlushes)
	m["agent.reports"] = float64(st.Reports)
	m["agent.batches"] = float64(st.Batches)
	m["agent.rows_out"] = float64(st.RowsReported)
	m["agent.report_bytes"] = float64(d.reportBytes.Load())
	m["agent.tuples_emitted"] = float64(st.TuplesEmitted)
	m["agent.dropped"] = float64(d.dropped())

	var rowsOut, framesOut int64
	for _, c := range d.combs {
		s := c.comb.Stats()
		rowsOut += s.RowsReported
		framesOut += s.CombinerFramesOut
		drops += c.link.Drops()
		reconnects += c.link.Reconnects()
	}
	rowsIn := d.rowsIn.Load()
	m["combiner.rows_in"] = float64(rowsIn)
	m["combiner.rows_out"] = float64(rowsOut)
	if rowsIn > 0 {
		m["combiner.reduction_ratio"] = float64(rowsOut) / float64(rowsIn)
	}
	m["combiner.frames_out"] = float64(framesOut)
	m["combiner.pending_max"] = float64(d.pendingMax)

	srv := d.srv.Telemetry()
	m["bus.server_frames"] = float64(srv.Counter("bus.server.frames").Load())
	m["bus.server_bytes"] = float64(srv.Counter("bus.server.bytes").Load())
	m["bus.server_queued_max"] = float64(d.queuedMax)
	m["bus.health_bytes"] = float64(d.healthBytes.Load())
	m["bus.link_drops"] = float64(drops)
	m["bus.link_reconnects"] = float64(reconnects)
	m["core.reports_merged"] = float64(d.fe.Frontend.Telemetry().Counter("core.reports.merged").Load())
}
