//go:build !race

package sim

import (
	"bytes"
	"reflect"
	"testing"

	"svf/internal/synth"
	"svf/internal/trace"
)

// TestCampaignRecordingsFitDefaultBudget records every campaign-traffic
// workload — the 17 benchmark inputs and the 4 families — at the default
// 2M-instruction traffic budget, and checks that together they fit the
// default trace-cache budget, so a campaign records each workload once
// and evicts nothing. It records 42M instructions, too slow for the race
// detector.
func TestCampaignRecordingsFitDefaultBudget(t *testing.T) {
	const insts = 2_000_000
	var total int64
	for _, prof := range append(synth.BenchmarkInputs(), synth.Families()...) {
		prog, err := ProgramFor(prof)
		if err != nil {
			t.Fatal(err)
		}
		rec := recordProgram(prog, insts, trace.ShapeLimit(insts, DefaultTraceCacheBytes))
		if rec == nil {
			t.Fatalf("%s: not recordable under the default budget", prof.ID())
		}
		t.Logf("%-26s %5.2f bytes/inst", prof.ID(), float64(rec.Bytes())/insts)
		total += rec.Bytes()
	}
	t.Logf("total %.1f MiB of %d MiB", float64(total)/(1<<20), DefaultTraceCacheBytes>>20)
	if total > DefaultTraceCacheBytes {
		t.Errorf("the campaign's recordings take %d bytes, over the %d-byte default budget", total, DefaultTraceCacheBytes)
	}
}

// TestCampaignTraceFilesRoundTrip writes the first 1M instructions of
// every campaign workload as a trace file and reads it back: the decoded
// recording is the recorded one, and the file takes under 6.5 bytes per
// instruction, against 28 in the version 1 format.
func TestCampaignTraceFilesRoundTrip(t *testing.T) {
	const insts = 1_000_000
	for _, prof := range append(synth.BenchmarkInputs(), synth.Families()...) {
		prog, err := ProgramFor(prof)
		if err != nil {
			t.Fatal(err)
		}
		rec := recordProgram(prog, insts, trace.MaxShapes)
		if rec == nil {
			t.Fatalf("%s: more than MaxShapes shapes", prof.ID())
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, rec); err != nil {
			t.Fatal(err)
		}
		perInst := float64(buf.Len()) / insts
		got, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("%s: %v", prof.ID(), err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%s: the decoded recording differs from the recorded one", prof.ID())
		}
		t.Logf("%-26s %5.2f bytes/inst on disk", prof.ID(), perInst)
		if perInst >= 6.5 {
			t.Errorf("%s: the trace file takes %.2f bytes per instruction, want under 6.5", prof.ID(), perInst)
		}
	}
}
