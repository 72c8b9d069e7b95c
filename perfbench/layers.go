package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ccrp/internal/asm"
	"ccrp/internal/cache"
	"ccrp/internal/clb"
	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/lat"
	"ccrp/internal/server"
	"ccrp/internal/sim"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

// The traced run measures each layer by calling its public functions from
// outside, on the inputs the workload gives that layer, and runs the
// workload's own loop as twins — untraced, and with ccrpd's span tracer or
// the sweep engine's tracer attached — so the difference between the two
// is the tracing overhead. Layers the workload never reaches are measured
// on a short run of a workload that does reach them (serve_corpus for
// paper_sweep, one sweep pass for the serve workloads), so every traced
// run reports every per-layer metric.

// spanSink keeps finished spans in memory until the run ends.
type spanSink struct {
	mu   sync.Mutex
	recs []tracing.Record
}

func (s *spanSink) Emit(r tracing.Record) {
	s.mu.Lock()
	s.recs = append(s.recs, r)
	s.mu.Unlock()
}

func (s *spanSink) Close() error { return nil }

// newTracer returns a tracer that keeps every span and no tail capture.
func newTracer() (*tracing.Tracer, *spanSink) {
	sink := &spanSink{}
	return tracing.New(tracing.Config{Sink: sink, TailSlow: -1, TailErrored: -1}), sink
}

// layerReport collects per-layer metrics and the detail written beside
// them.
type layerReport struct {
	metrics map[string]metric
	detail  map[string]any
}

func (r *layerReport) set(name string, v float64, unit string) {
	r.metrics[name] = metric{v, unit}
}

// loopSummary is what a traced-run loop reports in the detail file.
type loopSummary struct {
	Ops     int     `json:"ops"`
	Failed  int     `json:"failed"`
	OpsPerS float64 `json:"ops_per_s"`
	P50MS   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_percentile"`
	TailMS  float64 `json:"tail_ms"`
	WallS   float64 `json:"wall_s"`
}

func summarize(lr *loopResult) loopSummary {
	sorted := sortDurations(lr.lat)
	return loopSummary{
		Ops:     lr.attempted,
		Failed:  lr.failed,
		OpsPerS: float64(len(lr.lat)) / lr.wall.Seconds(),
		P50MS:   percentileMS(sorted, 5000),
		TailPct: tailPercentile(len(sorted)),
		TailMS:  tailMS(sorted),
		WallS:   lr.wall.Seconds(),
	}
}

// segments is how many slices the traced run cuts each loop into, taking
// the loops' slices in turn. The host's speed drifts over minutes, so
// comparing loops slice by slice compares like with like.
const segments = 6

// runtimeFigures are the Go runtime's costs over a set of loops.
type runtimeFigures struct {
	gcCPUShare      float64 // GC CPU ÷ total CPU
	retainedKBPerOp float64 // live heap growth ÷ ops
}

func (rt runtimeFigures) report(rep *layerReport) {
	rep.set("runtime.gc_cpu_share", rt.gcCPUShare, "ratio")
	rep.set("runtime.heap_retained_kb_per_op", rt.retainedKBPerOp, "KB")
}

// interleave sets up the workloads, runs their loops slice by slice in
// turn between forced GCs, checks them and summarizes each. The runtime
// figures cover all the loops together. The workloads stay open so a
// caller can read a server's counters; close them after.
func interleave(ws ...bench) ([]loopSummary, []*loopResult, runtimeFigures, error) {
	var rt runtimeFigures
	for _, w := range ws {
		if err := w.setup(); err != nil {
			return nil, nil, rt, err
		}
	}
	results := make([]*loopResult, len(ws))
	for i := range results {
		results[i] = &loopResult{}
	}
	runtime.GC()
	before := readRuntime()
	for seg := 0; seg < segments; seg++ {
		for i, w := range ws {
			from, to := seg*w.size()/segments, (seg+1)*w.size()/segments
			if from == to {
				continue
			}
			lr, err := w.loopSegment(from, to)
			if err != nil {
				return nil, nil, rt, err
			}
			results[i].add(lr)
		}
	}
	after := readRuntime()
	runtime.GC()
	live := readRuntime().liveBytes
	ops := 0
	summaries := make([]loopSummary, len(ws))
	for i, w := range ws {
		if err := w.verify(); err != nil {
			return nil, nil, rt, fmt.Errorf("check failed: %w", err)
		}
		ops += results[i].attempted
		summaries[i] = summarize(results[i])
	}
	rt.gcCPUShare = (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU)
	rt.retainedKBPerOp = (live - before.liveBytes) / float64(ops) / 1024
	return summaries, results, rt, nil
}

// overhead compares a traced loop with its untraced twin.
func overhead(untraced, traced loopSummary) map[string]float64 {
	return map[string]float64{
		"p50_pct":       100 * (traced.P50MS/untraced.P50MS - 1),
		"tail_pct":      100 * (traced.TailMS/untraced.TailMS - 1),
		"ops_per_s_pct": 100 * (traced.OpsPerS/untraced.OpsPerS - 1),
	}
}

func runTraced(name string, seed int64, seconds int, outDir string) (*result, error) {
	rep := &layerReport{metrics: map[string]metric{}, detail: map[string]any{
		"workload": name, "seed": seed, "seconds": seconds,
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}}
	// The set-up layers run first, in a fresh process, as set-up does.
	if err := probeSetupLayers(rep); err != nil {
		return nil, err
	}

	var own *loopResult
	var images [][]byte
	switch name {
	case "paper_sweep":
		// Untraced and traced twins of half the run each.
		half := max(1, seconds/2)
		untraced, traced := newPaperSweep(seed, half), newPaperSweep(seed, half)
		var sink *spanSink
		traced.tracer, sink = newTracer()
		sums, lrs, rt, err := interleave(untraced, traced)
		if err != nil {
			return nil, err
		}
		own = lrs[0]
		rt.report(rep)
		rep.detail["loop"] = map[string]any{"untraced": sums[0], "traced": sums[1], "sweep_spans": len(sink.recs)}
		rep.detail["tracing_overhead"] = overhead(sums[0], sums[1])
		reportSweep(rep, untraced)
		// ccrpd's layers, on a short serve_corpus run.
		if _, err := probeServe(rep, kindCorpus, seed, 2); err != nil {
			return nil, err
		}
		images = corpusImages(experiments.PerfPrograms)
	default:
		kind := kindUpload
		if name == "serve_corpus" {
			kind = kindCorpus
		}
		if kind == kindUpload {
			// Uploads never simulate: the simulate route and its stages
			// are measured on a short serve_corpus run first, and the
			// upload run below leaves them alone.
			if _, err := probeServe(rep, kindCorpus, seed, 1); err != nil {
				return nil, err
			}
		}
		// Untraced, traced and handler-direct triplets of a third each.
		untraced, err := probeServe(rep, kind, seed, max(1, seconds/3))
		if err != nil {
			return nil, err
		}
		own = untraced.lr
		rep.detail["tracing_overhead"] = untraced.overhead
		untraced.rt.report(rep)
		if kind == kindUpload {
			images = untraced.windows[:min(64, len(untraced.windows))]
		} else {
			images = corpusImages(workload.Names())
		}
		// The sweep engine's layers, on one pass of the paper's points.
		probe := newPaperSweep(seed, 1)
		if _, _, _, err := interleave(probe); err != nil {
			return nil, err
		}
		reportSweep(rep, probe)
	}
	if err := probeCycleModel(rep); err != nil {
		return nil, err
	}
	if err := probeBuildAndDecode(rep, images); err != nil {
		return nil, err
	}

	res := &result{Correct: true, Attempted: own.attempted, Failed: own.failed, Metrics: rep.metrics}
	rep.detail["metrics"] = rep.metrics
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(rep.detail, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+name+".json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return res, nil
}

// probeSetupLayers times the assembler and simulator on every corpus
// program, and the preselected code's training.
func probeSetupLayers(rep *layerReport) error {
	type progStat struct {
		AssembleMS    float64 `json:"assemble_ms"`
		MInstrPerS    float64 `json:"minstr_per_s"`
		AllocMBPerRun float64 `json:"alloc_mb_per_run"`
		Instructions  uint64  `json:"instructions"`
	}
	per := map[string]progStat{}
	var asmTotal, simTime time.Duration
	var instr uint64
	var allocTotal float64
	for _, w := range workload.All() {
		src := w.Source()
		t := time.Now()
		prog, err := asm.AssembleFor(w.ISA, w.Name, src)
		at := time.Since(t)
		if err != nil {
			return err
		}
		var out bytes.Buffer
		before := readRuntime()
		t = time.Now()
		m := sim.New(prog, sim.Config{Stdout: &out, CollectTrace: true, MaxInstr: 4_000_000})
		r, err := m.Run()
		st := time.Since(t)
		alloc := readRuntime().allocBytes - before.allocBytes
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if out.String() != w.WantOutput {
			return fmt.Errorf("%s printed %q, want %q", w.Name, out.String(), w.WantOutput)
		}
		per[w.Name] = progStat{ms(at), float64(r.Instructions) / st.Seconds() / 1e6, alloc / (1 << 20), r.Instructions}
		asmTotal += at
		simTime += st
		instr += r.Instructions
		allocTotal += alloc
	}
	n := float64(len(workload.All()))
	rep.set("asm.assemble_ms", ms(asmTotal), "ms")
	rep.set("sim.minstr_per_s", float64(instr)/simTime.Seconds()/1e6, "Minstr/s")
	rep.set("sim.alloc_mb_per_run", allocTotal/n/(1<<20), "MB")
	rep.detail["corpus_programs"] = per

	h, err := experiments.CorpusHistogram()
	if err != nil {
		return err
	}
	var train []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := huffman.BuildBounded(h.Smooth(), experiments.HuffmanBound); err != nil {
			return err
		}
		train = append(train, ms(time.Since(t)))
	}
	rep.set("huffman.train_ms", medianFloat(train), "ms")
	return nil
}

// reportSweep reports the sweep engine's pass time and how busy its
// workers kept.
func reportSweep(rep *layerReport, p *paperSweep) {
	var walls []float64
	var wall time.Duration
	for _, d := range p.passWall {
		walls = append(walls, d.Seconds())
		wall += d
	}
	rep.set("sweep.pass_s", medianFloat(walls), "s")
	rep.set("sweep.busy_share", p.busy.Seconds()/(float64(clients)*wall.Seconds()), "ratio")
}

// servedLoop is what probeServe keeps of its loops: the untraced loop's
// op results and uploaded images, the runtime's costs over all three, and
// the tracing overhead.
type servedLoop struct {
	lr       *loopResult
	windows  [][]byte
	rt       runtimeFigures
	overhead map[string]float64
}

// probeServe runs a serve workload three ways, slice by slice in turn:
// over loopback untraced, over loopback with ccrpd's span tracer, and
// straight into the handler. It reports ccrpd's counters and wire sizes
// from the first, stage self times from the second, handler times from
// the third and HTTP time as the first minus the third. Stages and routes
// the workload never reaches keep whatever an earlier probe reported.
func probeServe(rep *layerReport, kind serveKind, seed int64, seconds int) (*servedLoop, error) {
	untraced := newServeBench(kind, seed, seconds)
	traced := newServeBench(kind, seed, seconds)
	var sink *spanSink
	traced.tracer, sink = newTracer()
	direct := newServeBench(kind, seed, seconds)
	direct.direct = true
	defer untraced.close()
	defer traced.close()
	defer direct.close()
	sums, lrs, rt, err := interleave(untraced, traced, direct)
	if err != nil {
		return nil, err
	}

	reg := untraced.srv.Registry()
	hits := float64(reg.Counter("ccrpd_linecache_hits_total", "").Value())
	misses := float64(reg.Counter("ccrpd_linecache_misses_total", "").Value())
	parallel := float64(reg.Counter("ccrpd_decode_parallel_total", "").Value())
	decomp := float64(reg.CounterVec("ccrpd_requests_total", "", "route").With("/v1/decompress").Value())
	rep.set("server.linecache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("server.decode_parallel_share", ratio(parallel, decomp), "ratio")
	reqs := float64(untraced.requests.Load())
	rep.set("server.req_kb", float64(untraced.reqBytes.Load())/reqs/1024, "KB")
	rep.set("server.resp_kb", float64(untraced.respBytes.Load())/reqs/1024, "KB")

	a := tracing.Analyze(sink.recs, 0)
	stages := map[string]tracing.StageStat{}
	for _, st := range a.Stages {
		stages[st.Stage] = st
	}
	for _, stage := range []string{server.StageDecodeBody, server.StageText, server.StageCompress,
		server.StageDecompress, server.StageEncode, server.StageSimQueue, server.StageSimRun} {
		if st, ok := stages[stage]; ok {
			rep.set("span."+stage+"_ms", st.SelfMS/float64(st.Count), "ms")
		}
	}
	rep.set("span.coverage", a.Coverage.MeanFrac, "ratio")

	loopback, handler := untraced.routeTimes(), direct.routeTimes()
	for route, name := range map[string]string{
		"/v1/compress": "server.compress_ms", "/v1/decompress": "server.decompress_ms", "/v1/simulate": "server.simulate_ms",
	} {
		if rs, ok := handler[route]; ok {
			rep.set(name, rs.MeanMS, "ms")
		}
	}
	rep.set("http.loopback_ms", loopback[""].MeanMS-handler[""].MeanMS, "ms")

	oh := overhead(sums[0], sums[1])
	rep.detail["serve_"+[...]string{kindUpload: "upload", kindCorpus: "corpus"}[kind]] = map[string]any{
		"untraced": sums[0], "traced": sums[1], "direct": sums[2],
		"tracing_overhead": oh, "stages": a.Stages, "coverage": a.Coverage,
		"loopback_routes": loopback, "handler_routes": handler,
	}
	return &servedLoop{lr: lrs[0], windows: untraced.windows, rt: rt, overhead: oh}, nil
}

// routeSummary is one route's request count and mean time; the "" route
// sums every route.
type routeSummary struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
}

func (b *serveBench) routeTimes() map[string]routeSummary {
	b.routeMu.Lock()
	defer b.routeMu.Unlock()
	out := map[string]routeSummary{}
	var all routeStat
	for route, rs := range b.routeTime {
		out[route] = routeSummary{rs.n, ms(rs.total) / float64(rs.n)}
		all.n += rs.n
		all.total += rs.total
	}
	if all.n > 0 {
		out[""] = routeSummary{all.n, ms(all.total) / float64(all.n)}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// corpusImages returns the zero-padded texts of the named programs.
func corpusImages(names []string) [][]byte {
	var out [][]byte
	for _, name := range names {
		w, _ := workload.ByName(name)
		text, err := w.Text()
		if err != nil {
			continue
		}
		out = append(out, padToLines(text))
	}
	return out
}

// padToLines returns text zero-padded to whole cache lines, the image
// ccrpd compresses and decompresses.
func padToLines(text []byte) []byte {
	padded := make([]byte, (len(text)+core.LineSize-1)/core.LineSize*core.LineSize)
	copy(padded, text)
	return padded
}

// probeCycleModel times core.Compare on every point of the paper's
// evaluation, one at a time, sums the model's counts over them, and times
// the cache and CLB on their own over one trace.
func probeCycleModel(rep *layerReport) error {
	roms, err := preselectedROMs()
	if err != nil {
		return err
	}
	var total time.Duration
	var events, misses, clbMisses, ccrp, std uint64
	var alloc float64
	var rel, traffic []float64
	specs := paperPoints()
	for _, s := range specs {
		w, _ := workload.ByName(s.prog)
		tr, err := w.Trace()
		if err != nil {
			return err
		}
		before := readRuntime()
		t := time.Now()
		cmp, err := compareSpec(s, roms[s.prog])
		total += time.Since(t)
		alloc += readRuntime().allocBytes - before.allocBytes
		if err != nil {
			return err
		}
		events += uint64(len(tr.Events))
		misses += cmp.Standard.Misses
		clbMisses += cmp.CCRP.CLBMisses
		ccrp += cmp.CCRP.Cycles
		std += cmp.Standard.Cycles
		rel = append(rel, cmp.RelativePerformance())
		traffic = append(traffic, cmp.TrafficRatio())
	}
	n := float64(len(specs))
	rep.set("core.compare_ms", ms(total)/n, "ms")
	rep.set("core.compare_mevents_per_s", float64(events)/total.Seconds()/1e6, "Mevents/s")
	rep.set("core.compare_alloc_kb", alloc/n/1024, "KB")
	rep.set("cache.misses", float64(misses), "count")
	rep.set("clb.misses", float64(clbMisses), "count")
	rep.set("core.ccrp_cycles", float64(ccrp), "count")
	rep.set("core.std_cycles", float64(std), "count")
	rep.set("core.relperf_geomean", geomean(rel), "ratio")
	rep.set("core.traffic_ratio_geomean", geomean(traffic), "ratio")

	// Cache and CLB alone, over espresso's trace at the paper's base
	// configuration (1 KB direct-mapped, 16-entry CLB).
	w, _ := workload.ByName("espresso")
	tr, err := w.Trace()
	if err != nil {
		return err
	}
	ic, err := cache.NewAssoc(1024, core.LineSize, 1)
	if err != nil {
		return err
	}
	var missIdx []uint32
	t := time.Now()
	for _, ev := range tr.Events {
		if !ic.Access(ev.PC) {
			missIdx = append(missIdx, ev.PC/lat.GroupSpan)
		}
	}
	accessNS := float64(time.Since(t).Nanoseconds()) / float64(len(tr.Events))
	buf := clb.New(16)
	t = time.Now()
	for _, idx := range missIdx {
		if _, hit := buf.Lookup(idx); !hit {
			buf.Insert(idx, lat.Entry{})
		}
	}
	rep.set("cache.access_ns", accessNS, "ns")
	rep.set("clb.lookup_ns", float64(time.Since(t).Nanoseconds())/float64(len(missIdx)), "ns")
	return nil
}

// probeBuildAndDecode times ROM builds and verification over the images
// the workload compresses, then the multi-symbol decode kernel over the
// stored lines of those ROMs.
func probeBuildAndDecode(rep *layerReport, images [][]byte) error {
	code, err := experiments.PreselectedCode()
	if err != nil {
		return err
	}
	var build, verify time.Duration
	var roms []*core.ROM
	for _, img := range images {
		t := time.Now()
		rom, err := core.BuildROM(img, core.Options{Codes: []*huffman.Code{code}})
		build += time.Since(t)
		if err != nil {
			return err
		}
		t = time.Now()
		err = rom.Verify()
		verify += time.Since(t)
		if err != nil {
			return err
		}
		roms = append(roms, rom)
	}
	n := float64(len(images))
	rep.set("core.build_rom_ms", ms(build)/n, "ms")
	rep.set("core.verify_ms", ms(verify)/n, "ms")

	dec := code.Multi()
	dst := make([]byte, core.LineSize)
	var decoded int
	var rates []float64
	for r := 0; r < 5; r++ {
		decoded = 0
		t := time.Now()
		for _, rom := range roms {
			for _, l := range rom.Lines {
				if l.Raw {
					continue
				}
				if err := dec.DecodeInto(dst, l.Stored); err != nil {
					return err
				}
				decoded += core.LineSize
			}
		}
		rates = append(rates, float64(decoded)/time.Since(t).Seconds()/1e6)
	}
	rep.set("huffman.decode_mb_per_s", medianFloat(rates), "MB/s")
	return nil
}
