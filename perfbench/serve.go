package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ccrp/internal/core"
	"ccrp/internal/experiments"
	"ccrp/internal/huffman"
	"ccrp/internal/server"
	"ccrp/internal/tracing"
	"ccrp/internal/workload"
)

type serveKind int

const (
	kindUpload serveKind = iota // distinct uploaded images: every op misses ccrpd's caches
	kindCorpus                  // ccrp-load's default mix over the named corpus: warm caches
)

// Op rates that turn --seconds into a fixed op count. serve_corpus's is
// its rate on the reference host. serve_upload's is half its rate there:
// ccrpd's artifact cache keeps every uploaded image, so its peak RSS grows
// ~0.4 MB per op and a full-length run would pass 1 GB.
const (
	uploadOpsPerSecond = 150
	corpusOpsPerSecond = 280
)

// Upload windows are line-aligned and 4–36 KB long.
const (
	windowMin   = 4 << 10
	windowLines = (36<<10 - windowMin) / core.LineSize
)

// corpusMix is ccrp-load's default traffic mix (compress=4, roundtrip=2,
// simulate=1). Compress and round trip name a corpus program; simulate runs
// one point of it at the server's defaults and a given cache size.
var corpusMix = []struct {
	class  string
	weight int
}{{"compress", 4}, {"roundtrip", 2}, {"simulate", 1}}

// corpusOp is one planned op of serve_corpus.
type corpusOp struct {
	class string
	prog  string
	cache int // simulate only
}

// lineInfo is ccrpd's per-line record: stored length and raw flag.
type lineInfo struct {
	Len int  `json:"len"`
	Raw bool `json:"raw,omitempty"`
}

type compressOut struct {
	OriginalBytes int        `json:"original_bytes"`
	BlocksB64     string     `json:"blocks_b64"`
	Lines         []lineInfo `json:"lines"`
}

type decompressOut struct {
	TextB64 string `json:"text_b64"`
}

// simulateOut is the part of a /v1/simulate response the checks read.
type simulateOut struct {
	Workload            string     `json:"workload"`
	CacheBytes          int        `json:"cache_bytes"`
	CLBEntries          int        `json:"clb_entries"`
	RelativePerformance float64    `json:"relative_performance"`
	MissRate            float64    `json:"miss_rate"`
	TrafficRatio        float64    `json:"traffic_ratio"`
	CLBMissRate         float64    `json:"clb_miss_rate"`
	Standard            core.Stats `json:"standard"`
	CCRP                core.Stats `json:"ccrp"`
}

// serveBench is the serve_upload and serve_corpus workloads: ccrpd with
// its default configuration behind an in-process loopback server.
type serveBench struct {
	kind   serveKind
	seed   int64
	n      int
	tracer *tracing.Tracer // set only by the traced run

	srv     *server.Server
	ts      *httptest.Server
	tr      *http.Transport
	client  *http.Client
	coderID string
	code    *huffman.Code

	texts    map[string][]byte     // zero-padded corpus text images
	expected map[string][]lineInfo // per-line records the code predicts, by program
	windows  [][]byte              // serve_upload: one distinct image per op
	plan     []corpusOp            // serve_corpus: one planned op per index

	// direct sends every request straight to the handler through an
	// httptest.ResponseRecorder instead of the loopback server; the traced
	// run uses it to split handler time from HTTP time.
	direct bool

	// Wire traffic and per-route request time, recorded by post.
	requests, reqBytes, respBytes atomic.Int64
	routeMu                       sync.Mutex
	routeTime                     map[string]*routeStat

	mu       sync.Mutex
	checkErr error
	sims     map[string]simulateOut // serve_corpus: first response per point
}

func newServeBench(kind serveKind, seed int64, seconds int) *serveBench {
	if kind == kindUpload {
		return &serveBench{kind: kind, seed: seed, n: seconds * uploadOpsPerSecond}
	}
	round := corpusRoundLen()
	rounds := max(1, (seconds*corpusOpsPerSecond+round/2)/round)
	return &serveBench{kind: kind, seed: seed, n: rounds * round}
}

// corpusRoundLen is the op count of one serve_corpus round: every corpus
// program under every class of the mix, as many times as its weight.
func corpusRoundLen() int {
	total := 0
	for _, c := range corpusMix {
		total += c.weight
	}
	return total * len(workload.Names())
}

func (b *serveBench) setup() error {
	b.texts = make(map[string][]byte)
	for _, w := range workload.All() {
		text, err := w.Text()
		if err != nil {
			return err
		}
		b.texts[w.Name] = padToLines(text)
	}
	code, err := experiments.PreselectedCode()
	if err != nil {
		return err
	}
	b.code = code

	b.srv = server.New(server.Config{Tracer: b.tracer})
	if !b.direct {
		b.ts = httptest.NewServer(b.srv.Handler())
		b.tr = &http.Transport{MaxIdleConnsPerHost: clients}
		b.client = &http.Client{Transport: b.tr, Timeout: 2 * time.Minute}
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := b.post("/v1/coders", map[string]string{"kind": "preselected"}, &info); err != nil {
		return fmt.Errorf("training the preselected coder: %w", err)
	}
	b.coderID = info.ID

	rng := rand.New(rand.NewSource(b.seed))
	if b.kind == kindUpload {
		// The warm-up windows are distinct from the timed ones, so no
		// timed op hits a cache.
		seen := make(map[uint64]bool)
		b.windows = b.cutWindows(rng, b.n, seen)
		for _, win := range b.cutWindows(rng, 2*clients, seen) {
			check, err := b.upload(win)
			if err == nil {
				err = check()
			}
			if err != nil {
				return fmt.Errorf("warm-up upload: %w", err)
			}
		}
		return nil
	}

	b.expected = make(map[string][]lineInfo)
	for name, text := range b.texts {
		b.expected[name] = expectLines(b.code, text)
	}
	// The plan is whole rounds, so every run sends the same multiset of
	// ops: simulate's cache size steps through 256 B–2 KB from round to
	// round, starting where the seed says. The seed also sets the order of
	// the ops within each round.
	names := workload.Names()
	b.plan = make([]corpusOp, 0, b.n)
	step := rng.Intn(4)
	for round := 0; len(b.plan) < b.n; round++ {
		start := len(b.plan)
		for pi, name := range names {
			cache := 256 << ((step + round + pi) % 4)
			for _, c := range corpusMix {
				for k := 0; k < c.weight; k++ {
					b.plan = append(b.plan, corpusOp{class: c.class, prog: name, cache: cache})
				}
			}
		}
		ops := b.plan[start:]
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	// Warm-up: one round trip per program fills the ROM and line caches.
	for _, name := range names {
		check, err := b.corpusOp(corpusOp{class: "roundtrip", prog: name})
		if err == nil {
			err = check()
		}
		if err != nil {
			return fmt.Errorf("warm-up round trip of %s: %w", name, err)
		}
	}
	return nil
}

// cutWindows cuts n line-aligned windows of 4–36 KB from the corpus
// texts, each with content not in seen (FNV-64a hashes, updated). The
// sizes are spread evenly over the range, so every run of n uploads the
// same number of bytes; the seed sets their order and where each window is
// cut.
func (b *serveBench) cutWindows(rng *rand.Rand, n int, seen map[uint64]bool) [][]byte {
	names := workload.Names()
	out := make([][]byte, 0, n)
	order := rng.Perm(n)
	for len(out) < n {
		size := windowMin + core.LineSize*(order[len(out)]*windowLines/max(1, n-1))
		var fit []string
		for _, name := range names {
			if len(b.texts[name]) >= size {
				fit = append(fit, name)
			}
		}
		text := b.texts[fit[rng.Intn(len(fit))]]
		off := core.LineSize * rng.Intn((len(text)-size)/core.LineSize+1)
		win := text[off : off+size]
		h := fnv.New64a()
		h.Write(win)
		if sum := h.Sum64(); !seen[sum] {
			seen[sum] = true
			out = append(out, win)
		}
	}
	return out
}

// expectLines predicts ccrpd's per-line records for an image from the
// code's lengths alone: ceil(Σ codeword bits / 8) bytes, or a raw 32-byte
// line when that would not be smaller.
func expectLines(code *huffman.Code, img []byte) []lineInfo {
	out := make([]lineInfo, 0, (len(img)+core.LineSize-1)/core.LineSize)
	for off := 0; off < len(img); off += core.LineSize {
		bits, encodable := 0, true
		for k := 0; k < core.LineSize; k++ {
			var c byte
			if off+k < len(img) {
				c = img[off+k]
			}
			n := code.Len(c)
			encodable = encodable && n > 0
			bits += n
		}
		if n := (bits + 7) / 8; encodable && n < core.LineSize {
			out = append(out, lineInfo{Len: n})
		} else {
			out = append(out, lineInfo{Len: core.LineSize, Raw: true})
		}
	}
	return out
}

func sameLines(got, want []lineInfo) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d line records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("line %d stored as %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// routeStat sums the request time of one route.
type routeStat struct {
	n     int
	total time.Duration
}

// post sends one JSON request and decodes the 200 response into out. The
// recorded request time covers sending the body and reading the whole
// response, not the JSON encoding on either side of it.
func (b *serveBench) post(path string, in, out any) error {
	blob, err := json.Marshal(in)
	if err != nil {
		return err
	}
	start := time.Now()
	status, body, err := b.send(path, blob)
	d := time.Since(start)
	if err != nil {
		return err
	}
	b.requests.Add(1)
	b.reqBytes.Add(int64(len(blob)))
	b.respBytes.Add(int64(len(body)))
	b.routeMu.Lock()
	if b.routeTime == nil {
		b.routeTime = make(map[string]*routeStat)
	}
	rs := b.routeTime[path]
	if rs == nil {
		rs = &routeStat{}
		b.routeTime[path] = rs
	}
	rs.n++
	rs.total += d
	b.routeMu.Unlock()
	if status != http.StatusOK {
		return fmt.Errorf("%s: %d: %.200s", path, status, body)
	}
	return json.Unmarshal(body, out)
}

// send delivers one request body over loopback HTTP, or to the handler
// directly in direct mode.
func (b *serveBench) send(path string, blob []byte) (int, []byte, error) {
	if b.direct {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		b.srv.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
	resp, err := b.client.Post(b.ts.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// roundTrip is compress by the given body, then decompress of the result
// through coder_id+blocks_b64+lines.
func (b *serveBench) roundTrip(compressBody map[string]any) (*compressOut, string, error) {
	var comp compressOut
	if err := b.post("/v1/compress", compressBody, &comp); err != nil {
		return nil, "", err
	}
	var dec decompressOut
	err := b.post("/v1/decompress", map[string]any{
		"coder_id": b.coderID, "blocks_b64": comp.BlocksB64, "lines": comp.Lines,
	}, &dec)
	return &comp, dec.TextB64, err
}

// upload runs one serve_upload op and returns its check, which the loop
// runs outside the op's timing.
func (b *serveBench) upload(win []byte) (func() error, error) {
	comp, textB64, err := b.roundTrip(map[string]any{
		"coder_id": b.coderID, "text_b64": base64.StdEncoding.EncodeToString(win),
	})
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := checkImage(textB64, win); err != nil {
			return err
		}
		return sameLines(comp.Lines, expectLines(b.code, win))
	}, nil
}

func checkImage(textB64 string, want []byte) error {
	got, err := base64.StdEncoding.DecodeString(textB64)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("decompressed %d bytes differ from the %d sent", len(got), len(want))
	}
	return nil
}

// corpusOp runs one serve_corpus op and returns its check, which the loop
// runs outside the op's timing.
func (b *serveBench) corpusOp(op corpusOp) (func() error, error) {
	body := map[string]any{"coder_id": b.coderID, "workload": op.prog}
	switch op.class {
	case "compress":
		var comp compressOut
		if err := b.post("/v1/compress", body, &comp); err != nil {
			return nil, err
		}
		return func() error { return sameLines(comp.Lines, b.expected[op.prog]) }, nil
	case "roundtrip":
		comp, textB64, err := b.roundTrip(body)
		if err != nil {
			return nil, err
		}
		return func() error {
			if err := checkImage(textB64, b.texts[op.prog]); err != nil {
				return err
			}
			return sameLines(comp.Lines, b.expected[op.prog])
		}, nil
	default:
		var sim simulateOut
		if err := b.post("/v1/simulate", map[string]any{"workload": op.prog, "cache_bytes": op.cache}, &sim); err != nil {
			return nil, err
		}
		return func() error {
			if sim.Workload != op.prog || sim.CacheBytes != op.cache {
				return fmt.Errorf("simulate of %s at %d B answered for %s at %d B",
					op.prog, op.cache, sim.Workload, sim.CacheBytes)
			}
			return b.recordSim(sim)
		}, nil
	}
}

// recordSim keeps the first response per point and checks every later
// one against it; verify checks the kept ones against the replay.
func (b *serveBench) recordSim(sim simulateOut) error {
	key := fmt.Sprintf("%s/%d/%d", sim.Workload, sim.CacheBytes, sim.CLBEntries)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.sims == nil {
		b.sims = make(map[string]simulateOut)
	}
	first, ok := b.sims[key]
	if !ok {
		b.sims[key] = sim
		return nil
	}
	if first != sim {
		return fmt.Errorf("simulate %s returned %+v after %+v", key, sim, first)
	}
	return nil
}

func (b *serveBench) size() int { return b.n }

// loopSegment runs ops [from, to) closed-loop with `clients` clients.
func (b *serveBench) loopSegment(from, to int) (*loopResult, error) {
	lat := make([]time.Duration, to-from)
	failed := make([]bool, to-from)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(lat) {
					return
				}
				i := from + k
				t := time.Now()
				var check func() error
				var err error
				if b.kind == kindUpload {
					check, err = b.upload(b.windows[i])
				} else {
					check, err = b.corpusOp(b.plan[i])
				}
				lat[k] = time.Since(t)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
					failed[k] = true
					continue
				}
				if err := check(); err != nil {
					b.fail(fmt.Errorf("op %d: %w", i, err))
				}
			}
		}()
	}
	wg.Wait()
	lr := &loopResult{wall: time.Since(start), attempted: len(lat)}
	for k, f := range failed {
		if f {
			lr.failed++
		} else {
			lr.lat = append(lr.lat, lat[k])
		}
	}
	return lr, nil
}

// fail records the first failed check.
func (b *serveBench) fail(err error) {
	b.mu.Lock()
	if b.checkErr == nil {
		b.checkErr = err
	}
	b.mu.Unlock()
}

func (b *serveBench) verify() error {
	if err := checkCorpusOutputs(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.checkErr != nil {
		return b.checkErr
	}
	var rcache replayCache
	for key, sim := range b.sims {
		rc, err := rcache.get(sim.Workload, sim.CacheBytes, sim.CLBEntries)
		if err != nil {
			return err
		}
		cmp := &core.Comparison{Standard: sim.Standard, CCRP: sim.CCRP}
		r := ratios{sim.RelativePerformance, sim.MissRate, sim.CLBMissRate, sim.TrafficRatio}
		if err := checkRatios(r, cmp, rc); err != nil {
			return fmt.Errorf("simulate %s: %w", key, err)
		}
	}
	return nil
}

// close stops the loopback server and drops the server, so its caches
// can be collected before the next measurement in the same process.
func (b *serveBench) close() {
	if b.ts != nil {
		b.ts.Close()
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
	}
	b.srv, b.ts, b.tr, b.client = nil, nil, nil, nil
}
