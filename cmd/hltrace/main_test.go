package main

import (
	"os"
	"testing"
)

// TestGoldenSeed1 pins the rendered timeline of `hltrace -seed 1` byte for
// byte: every NIC trace site must keep emitting the same Info strings when a
// tracer is attached, whatever the datapath does when none is.
func TestGoldenSeed1(t *testing.T) {
	want, err := os.ReadFile("testdata/seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(256, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("trace differs from testdata/seed1.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
