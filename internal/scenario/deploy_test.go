package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/workload"
)

// TestDeploymentStartOrder pins the processes each deployment starts:
// host, name, ProcID and whether an agent monitors it, in start order.
// ProcIDs seed every HDFS client's replica rng, so a reordered start moves
// report bytes; this names the move before the goldens do.
func TestDeploymentStartOrder(t *testing.T) {
	cases := []struct {
		name  string
		build func(env *simtime.Env) *workload.Deployment
		want  []string
	}{{
		name: "testbed/4 hosts, HBase and MapReduce",
		build: func(env *simtime.Env) *workload.Deployment {
			cfg := workload.DefaultTestbedConfig()
			cfg.Hosts = 4
			d := workload.NewTestbed(env, cfg)
			d.StartHBase(d.Workers, 16)
			d.StartMapReduce(d.Workers, 0)
			return d
		},
		want: []string{
			"master NameNode 1 monitored",
			"master admin 2 unmonitored",
			"host-A DataNode 3 monitored",
			"host-B DataNode 4 monitored",
			"host-C DataNode 5 monitored",
			"host-D DataNode 6 monitored",
			"master HBaseMaster 7 monitored",
			"host-A RegionServer 8 monitored",
			"host-B RegionServer 9 monitored",
			"host-C RegionServer 10 monitored",
			"host-D RegionServer 11 monitored",
			"master ResourceManager 12 monitored",
			"host-A NodeManager 13 monitored",
			"host-B NodeManager 14 monitored",
			"host-C NodeManager 15 monitored",
			"host-D NodeManager 16 monitored",
		},
	}, {
		name: "scenario/16 hosts, DataNodes",
		build: func(env *simtime.Env) *workload.Deployment {
			d := deploy(&Run{S: &Scenario{Interval: time.Second}, Seed: 1, Hosts: 16, Env: env})
			d.StartDataNodes()
			return d
		},
		want: []string{
			"master NameNode 1 monitored",
			"master admin 2 unmonitored",
			"hr000n000 DataNode 3 monitored",
			"hr000n001 DataNode 4 monitored",
			"hr000n002 DataNode 5 monitored",
			"hr000n003 DataNode 6 monitored",
			"hr000n004 DataNode 7 monitored",
			"hr000n005 DataNode 8 monitored",
			"hr000n006 DataNode 9 monitored",
			"hr000n007 DataNode 10 monitored",
			"hr000n008 DataNode 11 monitored",
			"hr000n009 DataNode 12 monitored",
			"hr000n010 DataNode 13 monitored",
			"hr000n011 DataNode 14 monitored",
			"hr000n012 DataNode 15 monitored",
			"hr000n013 DataNode 16 monitored",
			"hr000n014 DataNode 17 monitored",
			"hr000n015 DataNode 18 monitored",
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			env := simtime.NewEnv()
			env.Run(func() {
				for _, p := range tc.build(env).C.Procs() {
					mon := "monitored"
					if p.Agent == nil {
						mon = "unmonitored"
					}
					got = append(got, fmt.Sprintf("%s %s %d %s", p.Info.Host, p.Info.ProcName, p.Info.ProcID, mon))
				}
			})
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("processes in start order:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
