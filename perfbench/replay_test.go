package main

import (
	"testing"

	"ccrp/internal/trace"
)

// TestReplayHandWorked checks the independent front-end model against a
// trace worked by hand: a 64-byte direct-mapped cache (two lines) and a
// one-entry CLB.
func TestReplayHandWorked(t *testing.T) {
	pcs := []uint32{
		0x000, // line 0 → slot 0: miss; group 0: CLB miss
		0x004, // line 0: hit
		0x040, // line 2 → slot 0: miss (evicts line 0); group 0: CLB hit
		0x000, // line 0 → slot 0: miss; group 0: CLB hit
		0x020, // line 1 → slot 1: miss; group 0: CLB hit
		0x100, // line 8 → slot 0: miss; group 1: CLB miss (evicts group 0)
		0x024, // line 1: hit
		0x000, // line 0 → slot 0: miss; group 0: CLB miss
	}
	events := make([]trace.Event, len(pcs))
	for i, pc := range pcs {
		events[i].PC = pc
	}
	got := replay(events, 64, 1)
	want := replayCounts{Accesses: 8, Misses: 6, CLBMisses: 3}
	if got != want {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}

	// With two CLB entries the LRU keeps group 0 across the group 1 miss.
	got = replay(events, 64, 2)
	want.CLBMisses = 2
	if got != want {
		t.Fatalf("two-entry CLB: replay = %+v, want %+v", got, want)
	}
}

// TestReplayLRUOrder checks that a CLB hit refreshes recency: with two
// entries, touching group 0 again before group 2 arrives makes group 1
// the victim.
func TestReplayLRUOrder(t *testing.T) {
	// Each PC sits in its own cache line of a 32-byte (one-line) cache, so
	// every fetch misses and probes the CLB.
	pcs := []uint32{0x000, 0x100, 0x000, 0x200, 0x000, 0x100}
	events := make([]trace.Event, len(pcs))
	for i, pc := range pcs {
		events[i].PC = pc
	}
	got := replay(events, 32, 2)
	// Misses in the CLB: 0x000, 0x100, 0x200 (evicts group 1), 0x100.
	want := replayCounts{Accesses: 6, Misses: 6, CLBMisses: 4}
	if got != want {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
}
