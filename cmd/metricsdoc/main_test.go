package main

import (
	"bytes"
	"os"
	"testing"
)

// TestMetricsDocUpToDate regenerates the metrics reference from live
// expositions and compares it byte-for-byte against the committed
// METRICS.md — the drift gate CI's test job runs. A new family, a
// reworded HELP string, or a label change all land here first.
func TestMetricsDocUpToDate(t *testing.T) {
	want, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatalf("reading committed METRICS.md: %v", err)
	}
	got, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("METRICS.md has drifted from the live expositions; regenerate with: go run ./cmd/metricsdoc -out METRICS.md")
	}
}
