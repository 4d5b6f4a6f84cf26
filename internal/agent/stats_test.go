package agent

import (
	"reflect"
	"testing"

	"repro/internal/advice"
	"repro/internal/bus"
	"repro/internal/telemetry"
	"repro/internal/tracepoint"
)

// TestStatFieldsDeclareEachCounterOnce: Counters is the only list of
// heartbeat counters, so what wire, core and telemetry derive from it must
// be well-formed — every field an int64 with a telemetry name no other
// field has and a ptstat column that is empty or no other field's — and
// Values must index the fields in declaration order, for Stats and the
// operator counters OpStats carries, advice.Costs, alike (reflection is
// the independent witness here).
func TestStatFieldsDeclareEachCounterOnce(t *testing.T) {
	var s Stats
	for i := range s.Values() {
		s.Values()[i] = int64(i + 1)
	}
	sv := reflect.ValueOf(s)
	if sv.NumField() != NumStats {
		t.Fatalf("Stats has %d fields, NumStats = %d", sv.NumField(), NumStats)
	}
	metrics, columns := map[string]string{}, map[string]string{}
	for i, f := range StatFields {
		sf := sv.Type().Field(i)
		if sf.Type.Kind() != reflect.Int64 || sf.Name != f.Name || sv.Field(i).Int() != int64(i+1) {
			t.Errorf("Stats field %d: %s %s = %d, want int64 %s = %d", i, sf.Name, sf.Type, sv.Field(i).Int(), f.Name, i+1)
		}
		if prev, dup := metrics[f.Metric]; dup || f.Metric == "" {
			t.Errorf("Stats.%s: telemetry name %q is empty or also Stats.%s's", f.Name, f.Metric, prev)
		}
		metrics[f.Metric] = f.Name
		if prev, dup := columns[f.Column]; dup && f.Column != "" {
			t.Errorf("Stats.%s: column %q is also Stats.%s's", f.Name, f.Column, prev)
		}
		columns[f.Column] = f.Name
	}

	var c advice.Costs[int64]
	for i := range c.Values() {
		c.Values()[i] = int64(i + 1)
	}
	cv := reflect.ValueOf(c)
	if cv.NumField() != advice.NumCosts {
		t.Fatalf("advice.Costs has %d fields, NumCosts = %d", cv.NumField(), advice.NumCosts)
	}
	for i := 0; i < advice.NumCosts; i++ {
		if f := cv.Field(i); f.Kind() != reflect.Int64 || f.Int() != int64(i+1) {
			t.Errorf("advice.Costs.%s = %v, want int64 %d", cv.Type().Field(i).Name, f, i+1)
		}
	}
}

// TestTelemetryCarriesStats: after SetTelemetry a registry snapshot holds
// every Stats counter under its metric name with the value Stats reports —
// those the agent counts itself and those it reads from a component (here
// the sampling rate) alike.
func TestTelemetryCarriesStats(t *testing.T) {
	b := bus.New()
	reg := tracepoint.NewRegistry()
	tp := reg.Define("Tp", "v")
	a := New(nil, info("h1"), reg, b, 0)
	defer a.Close()
	tel := telemetry.NewRegistry()
	a.SetTelemetry(tel)
	b.Publish(ControlTopic, Install{QueryID: "Q", Programs: []*advice.Program{q1Program()}})
	tp.Here(request("h1"), 1)
	a.Flush()

	s, snap := a.Stats(), tel.Snapshot()
	if s.TuplesEmitted != 1 || s.Reports != 1 || s.SampleRateMilli != 1000 {
		t.Fatalf("setup: Stats = %+v", s)
	}
	for i, f := range StatFields {
		if got, ok := snap.Counters[f.Metric]; !ok || got != s.Values()[i] {
			t.Errorf("snapshot counter %q = %d (present %v), want Stats.%s = %d", f.Metric, got, ok, f.Name, s.Values()[i])
		}
	}
}
