package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"svf"
	"svf/internal/isa"
	"svf/internal/trace"
)

// TestRecordInfoReplay drives the three subcommands over one recorded
// trace: info counts what was recorded, replay times it exactly as a
// live run of the same workload and options, and a version 1 file fails
// with an error that names its version. A trace of a corrupted kind
// still gets its info.
func TestRecordInfoReplay(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "svftrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building svftrace: %v\n%s", err, out)
	}
	svftrace := func(args ...string) (string, error) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		return string(out), err
	}
	trc := filepath.Join(dir, "gzip.trc")
	if out, err := svftrace("record", "-bench", "164.gzip", "-insts", "20000", "-o", trc); err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}

	out, err := svftrace("info", trc)
	if err != nil {
		t.Fatalf("info: %v\n%s", err, out)
	}
	if !strings.HasPrefix(out, "instructions   20000\n") {
		t.Errorf("info does not report 20000 instructions:\n%s", out)
	}

	out, err = svftrace("replay", "-policy", "svf", "-stackports", "2", trc)
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, out)
	}
	live, err := svf.Run(svf.ByName("164.gzip"), svf.Options{
		Policy: svf.PolicySVF, DL1Ports: 2, StackPorts: 2, StackSizeBytes: 8192, MaxInsts: 20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("replayed 20000 instructions in %d cycles ", live.Cycles()); !strings.HasPrefix(out, want) {
		t.Errorf("replay printed %q, want it to start %q", out, want)
	}

	v1 := filepath.Join(dir, "v1.trc")
	if err := os.WriteFile(v1, []byte("SVFTRC1\x00\x01\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{"info", "replay"} {
		out, err := svftrace(cmd, v1)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(out, "version 1") {
			t.Errorf("%s of a version 1 file: %v, output %q; want exit 1 naming version 1", cmd, err, out)
		}
	}
	bad := filepath.Join(dir, "bad.trc")
	f, err := os.Create(bad)
	if err != nil {
		t.Fatal(err)
	}
	insts := []isa.Inst{{PC: 4, Kind: 200}}
	if err := trace.Write(f, trace.Record(trace.NewSliceStream(insts), 1, trace.MaxShapes)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if out, err := svftrace("info", bad); err != nil || !strings.Contains(out, "kind(200)") {
		t.Errorf("info of a trace with kind 200: %v\n%s", err, out)
	}
}
