package main

import (
	"fmt"
	"sort"
	"testing"

	"ccrp/internal/experiments"
)

// TestPaperPointsMatchExperiments checks that paperPoints is still the
// point set of the paper's sweeps: the (program, memory, cache, CLB,
// data-cache rate) keys of Tables 1–8, Tables 9–10, Figure 9 and
// Tables 11–13, as experiments runs them, with the same multiplicity.
func TestPaperPointsMatchExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper's four sweeps")
	}
	key := func(prog, mem string, cache, clb int, dmiss float64) string {
		return fmt.Sprintf("%s/%s/%d/%d/%g", prog, mem, cache, clb, dmiss)
	}
	var want []string
	add := func(pts []experiments.PerfPoint) {
		for _, p := range pts {
			want = append(want, key(p.Program, p.Memory, p.CacheBytes, p.CLBEntries, p.DCacheMissRate))
		}
	}
	for _, table := range []func() (map[string][]experiments.PerfPoint, error){
		experiments.Tables1to8, experiments.Tables9and10, experiments.Tables11to13,
	} {
		byProg, err := table()
		if err != nil {
			t.Fatal(err)
		}
		for _, pts := range byProg {
			add(pts)
		}
	}
	fig9, err := experiments.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	add(fig9)

	var got []string
	for _, s := range paperPoints() {
		got = append(got, key(s.prog, s.mem.Name(), s.cache, s.clb, s.dmiss))
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("paperPoints has %d points; the paper's sweeps run %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("paperPoints differs from the paper's sweeps: %s where they have %s", got[i], want[i])
		}
	}
}
