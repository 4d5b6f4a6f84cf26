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
// Values must index the fields in declaration order, for Stats and OpStats
// alike (reflection is the independent witness here).
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

	op := OpStats{Tracepoint: "Tp"}
	for i := range op.Values() {
		op.Values()[i] = int64(i + 1)
	}
	ov := reflect.ValueOf(op)
	if ov.NumField() != 1+NumOpStats || op.Tracepoint != "Tp" {
		t.Fatalf("OpStats has %d fields after Tracepoint (%q), NumOpStats = %d", ov.NumField()-1, op.Tracepoint, NumOpStats)
	}
	for i := 0; i < NumOpStats; i++ {
		if f := ov.Field(1 + i); f.Kind() != reflect.Int64 || f.Int() != int64(i+1) {
			t.Errorf("OpStats.%s = %v, want int64 %d", ov.Type().Field(1+i).Name, f, i+1)
		}
	}
}

// TestTelemetryCarriesStats: after SetTelemetry a registry snapshot holds
// every Stats counter under its metric name with the value Stats reports —
// those the agent counts itself and those it reads from a component (here
// the sampler's rate) alike.
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
