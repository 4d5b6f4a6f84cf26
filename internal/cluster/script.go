package cluster

import (
	"fmt"
	"time"

	"repro/internal/baggage"
	"repro/internal/querygen"
	"repro/internal/simtime"
	"repro/internal/tracepoint"
)

// scriptBranch is one live baggage branch during trace execution.
type scriptBranch struct {
	bag  *baggage.Baggage
	proc int
}

// ScriptExec realizes a querygen trace script on a simulated cluster:
// fires cross real tracepoints with real baggage contexts, splits and
// joins use the baggage branch operations, and transfers serialize the
// baggage across the (netsim) wire into the destination process. The
// differential harness, the tracing acceptance tests, and the cmd demo
// workloads all share this interpreter, so the substrate they measure
// cannot drift apart.
type ScriptExec struct {
	Procs []*Process
	TPs   [][]*tracepoint.Tracepoint // [proc][tp]
	// Err records the first script/substrate inconsistency (a fire whose
	// branch is in the wrong process); later ops are ignored.
	Err error

	c        *querygen.Case
	cl       *Cluster
	branches map[int]*scriptBranch
}

// NewScriptExec starts one cluster process per case process, defines the
// case's tracepoints in each, and returns an executor ready to Run the
// script.
func NewScriptExec(cl *Cluster, c *querygen.Case) *ScriptExec {
	x := &ScriptExec{c: c, cl: cl}
	x.Procs = make([]*Process, c.NumProcs)
	x.TPs = make([][]*tracepoint.Tracepoint, c.NumProcs)
	for p := range x.Procs {
		x.Procs[p] = cl.Start(c.Hosts[p], c.ProcNames[p])
		x.TPs[p] = make([]*tracepoint.Tracepoint, len(c.TPs))
		for ti, tp := range c.TPs {
			names := make([]string, len(tp.Fields))
			for i, f := range tp.Fields {
				names[i] = f.Name
			}
			x.TPs[p][ti] = x.Procs[p].Define(tp.Name, names...)
		}
	}
	return x
}

// RunDemo drives the querygen demo case through a fresh simulated cluster:
// span capture on (which also ships EXPLAIN ANALYZE counters), a 5 ms
// reporting interval, requests runs of the script (at least one), then a
// settle of three intervals and a flush of every agent. install, when
// non-nil, runs on the deployed cluster before the first request; its
// error ends the run. The returned cluster has stopped: read results off
// its frontend. The ptq and pttrace demos share this runner.
func RunDemo(requests int, install func(*Cluster) error) (*Cluster, error) {
	var cl *Cluster
	var runErr error
	env := simtime.NewEnv()
	env.Run(func() {
		cfg := DefaultConfig()
		cfg.ReportInterval = 5 * time.Millisecond
		cfg.Spans = true
		cl = New(env, cfg)
		x := NewScriptExec(cl, querygen.DemoCase())
		if install != nil {
			if runErr = install(cl); runErr != nil {
				return
			}
		}
		for i := 0; i < max(requests, 1); i++ {
			if runErr = x.Run(); runErr != nil {
				return
			}
			env.Sleep(time.Millisecond)
		}
		env.Sleep(3 * cfg.ReportInterval)
		cl.FlushAgents()
	})
	return cl, runErr
}

// Run interprets the script once as one fresh request (new empty baggage
// on the root branch). Calling Run again replays the script as another
// request; event stamps then reflect the latest run.
func (x *ScriptExec) Run() error {
	// The root branch's baggage is a new request's in the originating
	// process, sampling decision included.
	bag := baggage.FromContext(x.Procs[0].NewRequest())
	x.branches = map[int]*scriptBranch{0: {bag: bag, proc: 0}}
	x.c.Execute(x)
	return x.Err
}

// Fire fires event ev on branch in its generated process, stamping the
// event with the time and identity the substrate actually observed.
func (x *ScriptExec) Fire(branch int, ev *querygen.Event) {
	st := x.branches[branch]
	if st.proc != ev.Proc {
		if x.Err == nil {
			x.Err = fmt.Errorf("branch %d is in proc %d but event %d was generated for proc %d",
				branch, st.proc, ev.ID, ev.Proc)
		}
		return
	}
	p := x.Procs[ev.Proc]
	ctx := baggage.NewContext(p.Context(), st.bag)
	args := make([]any, len(ev.Args))
	for i, v := range ev.Args {
		args[i] = v
	}
	ev.Time = int64(x.cl.Env.Now())
	ev.Host = p.Info.Host
	ev.ProcName = p.Info.ProcName
	ev.ProcID = p.Info.ProcID
	ev.Stamped = true
	x.TPs[ev.Proc][ev.TP].Here(ctx, args...)
}

// Split forks branch, minting child with the same causal past.
func (x *ScriptExec) Split(branch, child int) {
	st := x.branches[branch]
	l, r := st.bag.Split()
	st.bag = l
	x.branches[child] = &scriptBranch{bag: r, proc: st.proc}
}

// Join merges branch src into dst; src is dead afterwards.
func (x *ScriptExec) Join(dst, src int) {
	d, s := x.branches[dst], x.branches[src]
	d.bag = baggage.Join(d.bag, s.bag)
	delete(x.branches, src)
}

// Transfer moves branch across a process boundary: serialize the baggage,
// ship it over the simulated network, deserialize in the destination.
func (x *ScriptExec) Transfer(branch, proc int) {
	st := x.branches[branch]
	payload := st.bag.Serialize()
	from, to := x.Procs[st.proc].Host, x.Procs[proc].Host
	if from != to {
		from.Send(to, float64(len(payload))+64)
	}
	st.bag = baggage.Deserialize(payload)
	st.proc = proc
}

// Delay advances virtual time.
func (x *ScriptExec) Delay(d time.Duration) { x.cl.Env.Sleep(d) }
