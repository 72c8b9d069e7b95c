package main

import (
	"fmt"

	"ccrp/internal/core"
	"ccrp/internal/trace"
)

// Geometry of the independent front-end model. They restate the paper's
// §3 parameters rather than importing the program's constants, so a
// change to those constants shows up as a failed check.
const (
	replayLineBytes  = 32  // i-cache line and compression block
	replayGroupBytes = 256 // program bytes covered by one LAT entry
)

// replayCounts is what the independent front-end model predicts for one
// trace and configuration.
type replayCounts struct {
	Accesses  uint64
	Misses    uint64
	CLBMisses uint64
}

// replay runs a trace through a direct-mapped instruction cache with
// 32-byte lines and an LRU CLB over 256-byte LAT groups that is probed
// only on cache misses. It is written apart from internal/cache and
// internal/clb (a tag array and a recency list instead of use clocks) so
// that it checks them rather than repeats them.
func replay(events []trace.Event, cacheBytes, clbEntries int) replayCounts {
	lines := cacheBytes / replayLineBytes
	tags := make([]uint32, lines)
	valid := make([]bool, lines)
	recent := make([]uint32, 0, clbEntries) // most recently used first
	var c replayCounts
	for _, ev := range events {
		c.Accesses++
		line := ev.PC / replayLineBytes
		slot := int(line % uint32(lines))
		if valid[slot] && tags[slot] == line {
			continue
		}
		c.Misses++
		tags[slot], valid[slot] = line, true

		group := ev.PC / replayGroupBytes
		at := -1
		for i, g := range recent {
			if g == group {
				at = i
				break
			}
		}
		if at < 0 {
			c.CLBMisses++
			if len(recent) < clbEntries {
				recent = append(recent, 0)
			}
			at = len(recent) - 1
		}
		copy(recent[1:at+1], recent[:at])
		recent[0] = group
	}
	return c
}

// checkStats applies the checks that hold for any comparison: both
// systems' cycles sum their cost terms, both see the same fetch stream,
// standard traffic is one line per miss, and the counts match the
// independent replay.
func checkStats(cmp *core.Comparison, want replayCounts) error {
	for _, s := range []struct {
		name string
		st   core.Stats
	}{{"standard", cmp.Standard}, {"ccrp", cmp.CCRP}} {
		if s.st.Cycles != s.st.BaseCycles+s.st.RefillCycles+s.st.DataCycles {
			return fmt.Errorf("%s cycles %d != base %d + refill %d + data %d", s.name,
				s.st.Cycles, s.st.BaseCycles, s.st.RefillCycles, s.st.DataCycles)
		}
		if s.st.Accesses != want.Accesses || s.st.Misses != want.Misses {
			return fmt.Errorf("%s saw %d accesses, %d misses; replay gives %d, %d", s.name,
				s.st.Accesses, s.st.Misses, want.Accesses, want.Misses)
		}
	}
	if cmp.CCRP.CLBMisses != want.CLBMisses {
		return fmt.Errorf("ccrp CLB misses %d; replay gives %d", cmp.CCRP.CLBMisses, want.CLBMisses)
	}
	if cmp.Standard.TrafficBytes != replayLineBytes*want.Misses {
		return fmt.Errorf("standard traffic %d bytes; %d misses × %d = %d", cmp.Standard.TrafficBytes,
			want.Misses, replayLineBytes, replayLineBytes*want.Misses)
	}
	return nil
}

// ratios are what a sweep point or a simulate response reports beside
// the two systems' counts.
type ratios struct {
	relPerf, missRate, clbMissRate, traffic float64
}

// checkRatios applies checkStats, then checks every reported ratio against
// the counts it is made of: RelPerf is CCRP cycles over standard cycles
// (the paper's convention), the miss and CLB miss rates come from the
// replay, and the traffic ratio from the two systems' traffic.
func checkRatios(r ratios, cmp *core.Comparison, rc replayCounts) error {
	if err := checkStats(cmp, rc); err != nil {
		return err
	}
	ccrp, std := cmp.CCRP, cmp.Standard
	switch {
	case r.relPerf != float64(ccrp.Cycles)/float64(std.Cycles):
		return fmt.Errorf("relative performance %v != %d/%d", r.relPerf, ccrp.Cycles, std.Cycles)
	case r.missRate != float64(rc.Misses)/float64(rc.Accesses):
		return fmt.Errorf("miss rate %v != %d/%d", r.missRate, rc.Misses, rc.Accesses)
	case rc.Misses > 0 && r.clbMissRate != float64(rc.CLBMisses)/float64(rc.Misses):
		return fmt.Errorf("CLB miss rate %v != %d/%d", r.clbMissRate, rc.CLBMisses, rc.Misses)
	case r.traffic != float64(ccrp.TrafficBytes)/float64(std.TrafficBytes):
		return fmt.Errorf("traffic ratio %v != %d/%d", r.traffic, ccrp.TrafficBytes, std.TrafficBytes)
	}
	return nil
}
