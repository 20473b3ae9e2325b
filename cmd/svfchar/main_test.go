package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestFamiliesVerify: the four stack-stress families characterise within
// their calibration bands; svfchar -verify exits non-zero on any miss.
func TestFamiliesVerify(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "svfchar")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building svfchar: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-families", "-verify", "-insts", "300000").CombinedOutput(); err != nil {
		t.Fatalf("svfchar -families -verify: %v\n%s", err, out)
	}
}
