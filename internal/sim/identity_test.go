package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"svf/internal/faultinject"
	"svf/internal/pipeline"
	"svf/internal/synth"
	"svf/internal/telemetry"
)

// TestCellIdentityJoinsUp: a cell has one identity, its key, and every
// 16-hex fingerprint is that key's short form — on a fault, on the events
// of the run that executed it, and on the events of later requests served
// from the cache.
func TestCellIdentityJoinsUp(t *testing.T) {
	prof := synth.Gzip()

	t.Run("timing fault", func(t *testing.T) {
		opt := Options{MaxInsts: 50_000, FaultPlan: &faultinject.Plan{PanicCycle: 2000}}
		_, err := RunContext(context.Background(), prof, opt)
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("err = %v, want a *Fault", err)
		}
		if want := shortKey(RunCellKey(prof, opt)); f.Fingerprint != want {
			t.Errorf("fault fingerprint = %s, want the cell key's short form %s", f.Fingerprint, want)
		}
	})

	t.Run("run events", func(t *testing.T) {
		var buf bytes.Buffer
		log := telemetry.NewEventLog(&buf)
		c := NewRunCache()
		c.SetObserver(&Observer{Events: log})
		opt := Options{MaxInsts: 2_000}
		for i := 0; i < 2; i++ {
			if _, err := c.Do(context.Background(), RunCell(prof, &opt)); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		evs := decodeEvents(t, buf.Bytes())
		key := RunCellKey(prof, opt)
		if hits := eventsOfType(evs, "cache_hit"); len(hits) != 1 || hits[0].Key != key {
			t.Fatalf("cache_hit events = %+v, want one keyed %q", hits, key)
		}
		for _, typ := range []string{"run_start", "run_finish", "cache_hit"} {
			typed := eventsOfType(evs, typ)
			if len(typed) != 1 || typed[0].Fingerprint != shortKey(key) {
				t.Errorf("%s events = %+v, want one with fp %s", typ, typed, shortKey(key))
			}
		}
	})

	t.Run("traffic faults", func(t *testing.T) {
		var fps []string
		for _, pol := range []pipeline.StackPolicy{pipeline.PolicySVF, pipeline.PolicyStackCache} {
			key := TrafficCellKey(prof, pol, 8<<10, 100_000, 0)
			f := trafficFault(prof, key, 0, nil, errors.New("injected"))
			if f.Fingerprint != shortKey(key) {
				t.Errorf("%v: fault fingerprint = %s, want %s", pol, f.Fingerprint, shortKey(key))
			}
			fps = append(fps, f.Fingerprint)
		}
		if fps[0] == fps[1] {
			t.Errorf("svf and stack-cache traffic faults share fingerprint %s", fps[0])
		}
	})
}
