// Command perfbench is the CCRP reproduction's end-to-end benchmark. One
// process runs one named workload — the paper's evaluation sweep or one of
// two ccrpd traffic mixes — checks every output against results computed
// apart from the program, and prints its metrics as one JSON line.
//
// Usage (normally through run.py, which builds this package first):
//
//	perfbench --workload paper_sweep|serve_upload|serve_corpus
//	          --seed N --seconds S --trace 0|1 [--out DIR]
//
// A run does a fixed amount of work derived from --seconds (whole sweep
// passes, or a fixed op count), so sizes and per-op costs do not depend on
// how fast the host ran. With --trace 0 it prints the end-to-end metrics;
// with --trace 1 it runs the layer probes and the traced loop instead,
// prints the per-layer metrics and writes them, with ccrpd's stage spans
// and the tracing overhead, to DIR/trace-<workload>.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// clients is the closed-loop concurrency of every workload: one sweep
// worker or HTTP client per CPU of the reference host.
const clients = 2

// setupRepeats is how many fresh processes time the set-up; setup_s is
// their median.
const setupRepeats = 9

// bench is one benchmark workload.
type bench interface {
	// setup builds every input and warms every cache the timed loop
	// relies on: everything between process start and the first timed op.
	setup() error
	// size is the run's fixed amount of work, in the units loopSegment
	// counts: sweep passes or ops.
	size() int
	// loopSegment runs work units [from, to) closed-loop with `clients`
	// workers.
	loopSegment(from, to int) (*loopResult, error)
	// verify runs the independent checks over everything loop produced.
	verify() error
	// close releases servers and connections.
	close()
}

// loopResult is the outcome of one timed loop.
type loopResult struct {
	lat       []time.Duration // per completed op
	wall      time.Duration
	attempted int
	failed    int
}

// add folds another segment's outcome into r.
func (r *loopResult) add(o *loopResult) {
	r.lat = append(r.lat, o.lat...)
	r.wall += o.wall
	r.attempted += o.attempted
	r.failed += o.failed
}

// newWorkload returns the named workload sized for a run of the given
// length at the reference rate.
func newWorkload(name string, seed int64, seconds int) (bench, error) {
	switch name {
	case "paper_sweep":
		return newPaperSweep(seed, seconds), nil
	case "serve_upload":
		return newServeBench(kindUpload, seed, seconds), nil
	case "serve_corpus":
		return newServeBench(kindCorpus, seed, seconds), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have paper_sweep, serve_upload, serve_corpus)", name)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "paper_sweep, serve_upload or serve_corpus")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length at the reference rate; sets the fixed amount of work")
	traced := flag.Int("trace", 0, "1 runs the layer probes and prints per-layer metrics")
	out := flag.String("out", "perfbench/out", "directory for the traced run's report")
	setupOnly := flag.Bool("setup-only", false, "run the set-up and exit (used to time set-up in fresh processes)")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	w, err := newWorkload(*name, *seed, *seconds)
	if err != nil {
		fatal(err)
	}
	if *setupOnly {
		if err := w.setup(); err != nil {
			fatal(err)
		}
		w.close()
		return
	}
	var res *result
	if *traced == 1 {
		res, err = runTraced(*name, *seed, *seconds, *out)
	} else {
		res, err = runEndToEnd(*name, w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(blob))
}

// runEndToEnd times set-up in fresh processes, then runs the workload's
// fixed work untraced and checks it.
func runEndToEnd(name string, w bench, seed int64, seconds int) (*result, error) {
	setups, err := timeSetups(name, seed, seconds)
	if err != nil {
		return nil, err
	}
	if err := w.setup(); err != nil {
		return nil, err
	}
	defer w.close()
	before := readRuntime()
	cpu0 := processCPU()
	lr, err := w.loopSegment(0, w.size())
	if err != nil {
		return nil, err
	}
	cpu1 := processCPU()
	after := readRuntime()
	peakMB := peakRSSMB()
	verr := w.verify()
	if verr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", name, verr)
	}

	sorted := sortDurations(lr.lat)
	res := &result{
		Correct:   verr == nil,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics: map[string]metric{
			"setup_s":         {medianFloat(setups), "s"},
			"ops_per_s":       {float64(len(lr.lat)) / lr.wall.Seconds(), "1/s"},
			"p50_ms":          {percentileMS(sorted, 5000), "ms"},
			"tail_ms":         {tailMS(sorted), "ms"},
			"peak_rss_mb":     {peakMB, "MB"},
			"alloc_kb_per_op": {(after.allocBytes - before.allocBytes) / float64(lr.attempted) / 1024, "KB"},
		},
	}
	detail := map[string]any{
		"workload":        name,
		"seed":            seed,
		"tail_percentile": tailPercentile(len(sorted)),
		"samples":         len(sorted),
		"setup_runs_s":    setups,
		"wall_s":          lr.wall.Seconds(),
		"cpu_s":           cpu1 - cpu0,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
	}
	blob, err := json.Marshal(map[string]any{"detail": detail})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(blob))
	return res, nil
}

// timeSetups runs the set-up in setupRepeats fresh processes, one after
// another, and returns each one's wall time from start to exit.
func timeSetups(name string, seed int64, seconds int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	var out []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", name,
			"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		// A set-up process must not outlive the run that started it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes float64 // heap bytes allocated since start
	liveBytes  float64 // heap live after the last GC
	gcCPU      float64 // CPU seconds spent in the GC
	totalCPU   float64 // CPU seconds available to the process
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2), val(3)}
}

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// processCPU is the user and system CPU time the process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
