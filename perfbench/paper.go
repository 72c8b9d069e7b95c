package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/memory"
	"ccrp/internal/parallel"
	"ccrp/internal/sweep"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// pointSpec is one point of the paper's evaluation.
type pointSpec struct {
	prog  string
	cache int
	clb   int
	mem   memory.Model
	dmiss float64
}

// paperPoints lists every point the paper's performance sections run, in
// the order experiments' sweeps build them: Tables 1–8, Tables 9–10,
// Figure 9 and Tables 11–13 (295 points).
func paperPoints() []pointSpec {
	var specs []pointSpec
	for _, prog := range experiments.PerfPrograms {
		models := []memory.Model{memory.EPROM{}, memory.BurstEPROM{}}
		if prog == "matrix25a" {
			models = append(models, memory.SCDRAM{})
		}
		for _, mem := range models {
			for _, cs := range experiments.CacheSizes {
				specs = append(specs, pointSpec{prog, cs, 16, mem, 1})
			}
		}
	}
	for _, prog := range []string{"nasa7", "espresso"} {
		for _, mem := range []memory.Model{memory.EPROM{}, memory.BurstEPROM{}} {
			for _, cs := range experiments.CacheSizes {
				for _, clb := range experiments.CLBSizes {
					specs = append(specs, pointSpec{prog, cs, clb, mem, 1})
				}
			}
		}
	}
	for _, prog := range experiments.PerfPrograms {
		for _, mem := range memory.Models() {
			for _, cs := range experiments.CacheSizes {
				specs = append(specs, pointSpec{prog, cs, 16, mem, 1})
			}
		}
	}
	for _, prog := range []string{"nasa7", "espresso", "fpppp"} {
		for _, mem := range []memory.Model{memory.EPROM{}, memory.BurstEPROM{}} {
			for _, dm := range experiments.DCacheMissRates {
				specs = append(specs, pointSpec{prog, 1024, 16, mem, dm})
			}
		}
	}
	return specs
}

// passesPerSecond turns --seconds into whole sweep passes: a pass of the
// 295 points takes 3–4 s on the reference host, so a 10-second run is
// three passes.
const passesPerSecond = 0.3

// paperSweep is the paper_sweep workload.
type paperSweep struct {
	seed   int64
	passes int
	specs  []pointSpec
	first  []experiments.PerfPoint // first pass's results, by spec index
	mismat error                   // the first difference from the first pass's results
	tracer *tracing.Tracer         // set only by the traced run

	passWall []time.Duration // per pass
	busy     time.Duration   // Σ point time over all passes
}

func (p *paperSweep) setup() error {
	p.specs = paperPoints()
	for _, w := range workload.All() {
		if _, err := w.Trace(); err != nil {
			return err
		}
	}
	if _, err := experiments.PreselectedCode(); err != nil {
		return err
	}
	// One point per program builds its ROM into the artifact cache, so the
	// timed passes start warm.
	for _, prog := range experiments.PerfPrograms {
		if _, err := experiments.Point(prog, 1024, 16, memory.BurstEPROM{}, 1); err != nil {
			return err
		}
	}
	return nil
}

func newPaperSweep(seed int64, seconds int) *paperSweep {
	return &paperSweep{seed: seed, passes: max(1, int(float64(seconds)*passesPerSecond+0.5))}
}

func (p *paperSweep) size() int { return p.passes }

// loopSegment runs sweep passes [from, to), each over every point in an
// order seeded by the pass number.
func (p *paperSweep) loopSegment(from, to int) (*loopResult, error) {
	eng := &sweep.Engine{Workers: clients, Tracer: p.tracer}
	if p.first == nil {
		p.first = make([]experiments.PerfPoint, len(p.specs))
	}
	lr := &loopResult{}
	start := time.Now()
	for pass := from; pass < to; pass++ {
		order := rand.New(rand.NewSource(p.seed<<16 + int64(pass))).Perm(len(p.specs))
		lat := make([]time.Duration, len(order))
		errs := make([]error, len(order))
		pstart := time.Now()
		// A failed point is counted below; Map's own error only repeats it.
		pts, _ := sweep.Map(context.Background(), eng, len(order),
			func(_ context.Context, i int, _ sweep.Obs) (experiments.PerfPoint, error) {
				s := p.specs[order[i]]
				t := time.Now()
				pt, err := experiments.Point(s.prog, s.cache, s.clb, s.mem, s.dmiss)
				lat[i], errs[i] = time.Since(t), err
				return pt, err
			})
		p.passWall = append(p.passWall, time.Since(pstart))
		lr.attempted += len(order)
		for i, pt := range pts {
			p.busy += lat[i]
			if errs[i] != nil {
				fmt.Fprintf(os.Stderr, "perfbench: point %d: %v\n", order[i], errs[i])
				lr.failed++
				continue
			}
			lr.lat = append(lr.lat, lat[i])
			idx := order[i]
			if p.first[idx].Program == "" {
				p.first[idx] = pt
			} else if pt != p.first[idx] && p.mismat == nil {
				p.mismat = fmt.Errorf("pass %d point %d (%s) differs from the first pass", pass, idx, p.specs[idx].prog)
			}
		}
	}
	lr.wall = time.Since(start)
	return lr, nil
}

// preselectedROMs builds each paper program's image under the preselected
// code directly through core, the same way experiments does.
func preselectedROMs() (map[string]*core.ROM, error) {
	code, err := experiments.PreselectedCode()
	if err != nil {
		return nil, err
	}
	roms := make(map[string]*core.ROM)
	for _, prog := range experiments.PerfPrograms {
		w, _ := workload.ByName(prog)
		text, err := w.Text()
		if err != nil {
			return nil, err
		}
		rom, err := core.BuildROM(text, core.Options{Codes: []*huffman.Code{code}})
		if err != nil {
			return nil, err
		}
		roms[prog] = rom
	}
	return roms, nil
}

// compareSpec runs one point through core.Compare with a prebuilt ROM.
func compareSpec(s pointSpec, rom *core.ROM) (*core.Comparison, error) {
	w, _ := workload.ByName(s.prog)
	tr, err := w.Trace()
	if err != nil {
		return nil, err
	}
	text, err := w.Text()
	if err != nil {
		return nil, err
	}
	cfg := core.Config{CacheBytes: s.cache, CLBEntries: s.clb, Mem: s.mem, ROM: rom}
	if s.dmiss < 1 {
		cfg.DataCache, cfg.DCacheMissRate = true, s.dmiss
	}
	return core.Compare(tr, text, cfg)
}

// replayCache memoizes replays by (program, cache size, CLB size); the
// memory model and data-cache rate do not change the fetch stream.
type replayCache struct {
	mu sync.Mutex
	m  map[string]replayCounts
}

func (c *replayCache) get(prog string, cacheBytes, clbEntries int) (replayCounts, error) {
	key := fmt.Sprintf("%s/%d/%d", prog, cacheBytes, clbEntries)
	c.mu.Lock()
	rc, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return rc, nil
	}
	w, ok := workload.ByName(prog)
	if !ok {
		return replayCounts{}, fmt.Errorf("unknown program %q", prog)
	}
	tr, err := w.Trace()
	if err != nil {
		return replayCounts{}, err
	}
	rc = replay(tr.Events, cacheBytes, clbEntries)
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]replayCounts)
	}
	c.m[key] = rc
	c.mu.Unlock()
	return rc, nil
}

// checkPoint compares a sweep result with the direct comparison and the
// replay of the same point.
func checkPoint(pt experiments.PerfPoint, cmp *core.Comparison, rc replayCounts) error {
	if pt.CyclesCCRP != cmp.CCRP.Cycles || pt.CyclesStd != cmp.Standard.Cycles {
		return fmt.Errorf("sweep cycles %d/%d, direct %d/%d", pt.CyclesCCRP, pt.CyclesStd, cmp.CCRP.Cycles, cmp.Standard.Cycles)
	}
	return checkRatios(ratios{pt.RelPerf, pt.MissRate, pt.CLBMissRate, pt.Traffic}, cmp, rc)
}

// verify runs every point once more through core.Compare directly, on
// `clients` goroutines, and checks it against the replay and against what
// the sweep returned.
func (p *paperSweep) verify() error {
	if err := checkCorpusOutputs(); err != nil {
		return err
	}
	if p.mismat != nil {
		return p.mismat
	}
	roms, err := preselectedROMs()
	if err != nil {
		return err
	}
	var rcache replayCache
	return parallel.ForEach(context.Background(), len(p.specs), clients, func(idx int) error {
		s := p.specs[idx]
		cmp, err := compareSpec(s, roms[s.prog])
		if err == nil {
			var rc replayCounts
			if rc, err = rcache.get(s.prog, s.cache, s.clb); err == nil {
				if p.first[idx].Program == "" { // the point failed in the sweep
					err = checkStats(cmp, rc)
				} else {
					err = checkPoint(p.first[idx], cmp, rc)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("point %d (%s, %d B, %d CLB, %s, dmiss %g): %w",
				idx, s.prog, s.cache, s.clb, s.mem.Name(), s.dmiss, err)
		}
		return nil
	})
}

func (p *paperSweep) close() {}

// checkCorpusOutputs checks every corpus program's console output against
// its hand-written expected output.
func checkCorpusOutputs() error {
	for _, w := range workload.All() {
		_, out, err := w.Run()
		if err != nil {
			return err
		}
		if out != w.WantOutput {
			return fmt.Errorf("%s printed %q, want %q", w.Name, out, w.WantOutput)
		}
	}
	return nil
}
