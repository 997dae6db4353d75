package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trustd"
)

// trustd-serve: a trustd node recovered from a pre-written durability
// directory, serving a seeded request stream through its HTTP handler,
// called in process: every request goes through the handler's routing,
// query parsing, body decoding, WAL append and JSON encoding, without the
// loopback sockets and the wake-ups between processes, whose cost on a
// shared virtual machine is the host's more than the program's.
const (
	trustdPeers           = 10_000
	trustdBatch           = 8      // complaints per ingest batch
	trustdCkptBatches     = 12_500 // pre-written batches the checkpoint covers
	trustdTailBatches     = 20_000 // pre-written batches in the WAL tail
	trustdCheckpointEvery = 8_000  // complaints between automatic checkpoints while serving
	trustdIngestShare     = 0.10
	trustdZipfS           = 1.1
	trustdSetupReps       = 9
	trustdPool            = 1 << 13 // requests the stream cycles through
	trustdChunk           = 512     // requests per measured unit
)

// trustdState is the server-side input: the fixed peer population, the
// peers in Zipf rank order, and the pre-written complaint history, which is
// regenerated from the seed wherever it is needed rather than held.
type trustdState struct {
	seed      int64
	peers     []trust.PeerID // sorted
	ranked    []trust.PeerID // Zipf rank order, permuted by the seed
	batches   int            // pre-written batches
	ckptAfter int            // of which the checkpoint covers the first ckptAfter
}

func newTrustdState(seed int64, scale float64) trustdState {
	st := trustdState{seed: seed}
	st.peers = make([]trust.PeerID, scaled(trustdPeers, scale, 64))
	for i := range st.peers {
		st.peers[i] = trust.PeerID(fmt.Sprintf("p%05d", i))
	}
	rng := rand.New(rand.NewSource(seedmix.Derive(seed, 0)))
	st.ranked = append([]trust.PeerID(nil), st.peers...)
	rng.Shuffle(len(st.ranked), func(i, j int) { st.ranked[i], st.ranked[j] = st.ranked[j], st.ranked[i] })
	st.ckptAfter = scaled(trustdCkptBatches, scale, 8)
	st.batches = st.ckptAfter + scaled(trustdTailBatches, scale, 8)
	return st
}

// eachBatch calls fn with every pre-written batch in order.
func (st trustdState) eachBatch(fn func(i int, b []complaints.Complaint) error) error {
	pre := newTraffic(st.ranked, seedmix.Derive(st.seed, 1))
	for i := 0; i < st.batches; i++ {
		if err := fn(i, pre.batch()); err != nil {
			return err
		}
	}
	return nil
}

// history returns the pre-written batches.
func (st trustdState) history() [][]complaints.Complaint {
	out := make([][]complaints.Complaint, 0, st.batches)
	_ = st.eachBatch(func(_ int, b []complaints.Complaint) error { // never fails
		out = append(out, b)
		return nil
	})
	return out
}

// prewriteDir writes the durability directory a restarted node recovers
// from: a checkpoint covering the first batches, then a WAL tail.
func prewriteDir(dir string, st trustdState) error {
	srv, err := trustd.Open(trustd.Options{Dir: dir, Backend: "sharded", Population: st.peers})
	if err != nil {
		return err
	}
	err = st.eachBatch(func(i int, b []complaints.Complaint) error {
		if i == st.ckptAfter {
			if err := srv.Checkpoint(); err != nil {
				return err
			}
		}
		return srv.Ingest(b)
	})
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceEvery is the share of trustd requests the traced run records a
// span for, one in traceEvery: a run serves millions of requests.
const traceEvery = 8

// tracedHandler wraps trustd's handler with a span for every traceEvery-th
// request; a span's unit is the request's number in the order the wrapper
// saw them.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := n.Add(1)
		if id%traceEvery != 0 {
			h.ServeHTTP(w, r)
			return
		}
		name := uint8(spanScoreHandler)
		if r.Method == http.MethodPost {
			name = spanIngestHandler
		}
		sp := rec.begin(name, -1, id, -1)
		h.ServeHTTP(w, r)
		rec.end(sp)
	})
}

// request is one generated request, built once and sent many times.
type request struct {
	ingest bool
	batch  []complaints.Complaint // ingest batch
	data   []byte                 // its complaints.Delta encoding
	body   *bytes.Reader          // rewound to data before each send
	req    *http.Request
}

// traffic draws requests: queries for Zipf-skewed peers, ingests of
// 8-complaint batches about Zipf-skewed peers from uniform complainers.
type traffic struct {
	peers []trust.PeerID // in Zipf rank order
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newTraffic(peers []trust.PeerID, seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	return &traffic{peers: peers, rng: rng, zipf: rand.NewZipf(rng, trustdZipfS, 1, uint64(len(peers)-1))}
}

func (t *traffic) batch() []complaints.Complaint {
	b := make([]complaints.Complaint, trustdBatch)
	for i := range b {
		b[i] = complaints.Complaint{From: t.peers[t.rng.Intn(len(t.peers))], About: t.peers[t.zipf.Uint64()]}
	}
	return b
}

func (t *traffic) next() request {
	if t.rng.Float64() < trustdIngestShare {
		b := t.batch()
		r := request{ingest: true, batch: b, data: complaints.NewDelta(b).Encode()}
		r.body = bytes.NewReader(r.data)
		r.req = newRequest(http.MethodPost, "/v1/complaints", io.NopCloser(r.body))
		r.req.Header.Set("Content-Type", "application/octet-stream")
		return r
	}
	return request{req: scoreRequest(t.peers[t.zipf.Uint64()])}
}

func (t *traffic) list(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = t.next()
	}
	return out
}

// newRequest builds a server-side request, as net/http's server would hand
// it to the handler.
func newRequest(method, target string, body io.ReadCloser) *http.Request {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		panic(err) // targets are built here
	}
	if body == nil {
		body = http.NoBody
	}
	return &http.Request{Method: method, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: body, Host: "trustd", RequestURI: target}
}

func scoreRequest(p trust.PeerID) *http.Request {
	return newRequest(http.MethodGet, "/v1/score?peer="+url.QueryEscape(string(p)), nil)
}

// response is a reusable http.ResponseWriter.
type response struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newResponse() *response { return &response{header: http.Header{}} }

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *response) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// send serves r through h and reports whether it was answered 200 OK.
func send(h http.Handler, r *request, w *response) bool {
	clear(w.header)
	w.status = 0
	w.body.Reset()
	if r.ingest {
		r.body.Reset(r.data)
	}
	h.ServeHTTP(w, r.req)
	return w.status == http.StatusOK
}

// stream cycles through the generated requests and counts their acks.
type stream struct {
	reqs  []request
	acked []int // acked[i] counts the acks of reqs[i]
	next  int
	w     *response
}

func newStream(reqs []request) *stream {
	return &stream{reqs: reqs, acked: make([]int, len(reqs)), w: newResponse()}
}

// chunk sends the stream's next trustdChunk requests through h and appends
// the thread CPU time of each acked query to t.latencyUS.
func (s *stream) chunk(h http.Handler, t *tally, res *result) {
	prev := cpuNow(threadCPU)
	for k := 0; k < trustdChunk; k++ {
		i := s.next % len(s.reqs)
		s.next++
		ok := send(h, &s.reqs[i], s.w)
		now := cpuNow(threadCPU)
		t.ops++
		switch {
		case !ok:
			res.Failed++
		case s.reqs[i].ingest:
			s.acked[i]++
		default:
			t.latencyUS = append(t.latencyUS, float64((now-prev).Nanoseconds())/1e3)
		}
		prev = now
	}
}

// serveLoad sends the stream through h in chunks until d has passed. Each
// query's time, scaled by the speed of the probe pass after its chunk, is a
// latency sample.
func serveLoad(h http.Handler, s *stream, d time.Duration, t *tally, res *result) error {
	return measure(d, t, func(_ int, probe *speedProbe) error {
		first := len(t.latencyUS)
		s.chunk(h, t, res)
		speed := probe.pass()
		for i := first; i < len(t.latencyUS); i++ {
			t.latencyUS[i] *= speed
		}
		t.units++
		return nil
	})
}

// serveTraced sends the stream in pairs of chunks until d has passed: one
// through h, then one through traced, back to back, for the overhead ratio.
func serveTraced(h, traced http.Handler, s *stream, d time.Duration, t *tally, res *result) (twin, error) {
	var tw twin
	err := measure(d, t, func(_ int, probe *speedProbe) error {
		plain, _ := timeRef(probe, func() error { s.chunk(h, t, res); return nil })
		tr, _ := timeRef(probe, func() error { s.chunk(traced, t, res); return nil })
		tw.plain += plain
		tw.traced += tr
		return nil
	})
	return tw, err
}

// ackedBatches lists every acked batch, once per ack.
func ackedBatches(reqs []request, acked []int) [][]complaints.Complaint {
	var out [][]complaints.Complaint
	for i, n := range acked {
		for ; n > 0; n-- {
			out = append(out, reqs[i].batch)
		}
	}
	return out
}

// ackError checks that the server ingested exactly the batches it acked.
func ackError(acked, ingested int64) error {
	if acked != ingested {
		return fmt.Errorf("%d batches acked, server ingested %d", acked, ingested)
	}
	return nil
}

// checkScores compares every peer's score, served by h, with a direct
// assessor over the recovered history plus the acked batches.
func checkScores(h http.Handler, st trustdState, acked [][]complaints.Complaint) error {
	ref, err := referenceAssessor(st.peers, st.history(), acked)
	if err != nil {
		return err
	}
	w := newResponse()
	for _, p := range st.peers {
		if !send(h, &request{req: scoreRequest(p)}, w) {
			return fmt.Errorf("score of %s: HTTP %d: %s", p, w.status, w.body.String())
		}
		var got trustd.Score
		if err := json.Unmarshal(w.body.Bytes(), &got); err != nil {
			return err
		}
		if err := scoreMismatch(got, ref); err != nil {
			return err
		}
	}
	return nil
}

// scoreMismatch compares one served score with a direct assessor over the
// reference store; nil means every field matches bit for bit.
func scoreMismatch(got trustd.Score, a complaints.Assessor) error {
	p := got.Peer
	cr, err := a.Store.Received(p)
	if err != nil {
		return err
	}
	cf, err := a.Store.Filed(p)
	if err != nil {
		return err
	}
	prod, err := a.Product(p)
	if err != nil {
		return err
	}
	score, err := a.NormalisedScore(p)
	if err != nil {
		return err
	}
	prob, err := a.Probability(p)
	if err != nil {
		return err
	}
	trusted, err := a.Trustworthy(p)
	if err != nil {
		return err
	}
	if got.Received != cr || got.Filed != cf || got.Trustworthy != trusted ||
		math.Float64bits(got.Product) != math.Float64bits(prod) ||
		math.Float64bits(got.Score) != math.Float64bits(score) ||
		math.Float64bits(got.Probability) != math.Float64bits(prob) {
		return fmt.Errorf("peer %s served %+v, reference received=%d filed=%d product=%v score=%v probability=%v trustworthy=%v",
			p, got, cr, cf, prod, score, prob, trusted)
	}
	return nil
}

// referenceAssessor feeds a fresh store exactly the given batches.
func referenceAssessor(peers []trust.PeerID, batches ...[][]complaints.Complaint) (complaints.Assessor, error) {
	ref := complaints.NewMemoryStore()
	for _, bs := range batches {
		for _, b := range bs {
			if err := ref.FileBatch(b); err != nil {
				return complaints.Assessor{}, err
			}
		}
	}
	return complaints.Assessor{Store: ref, Population: peers}, nil
}

// checkpointP50MS reads the checkpoint-duration median off the metrics
// exposition.
func checkpointP50MS(srv *trustd.Server) (float64, error) {
	var b bytes.Buffer
	if err := srv.WriteMetrics(&b); err != nil {
		return 0, err
	}
	const prefix = `trustd_checkpoint_duration_ns{quantile="0.5"} `
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			ns, err := strconv.ParseFloat(v, 64)
			return ns / 1e6, err
		}
	}
	return 0, errors.New("metrics have no checkpoint median")
}

func runTrustdServe(opts options, res *result) error {
	st := newTrustdState(opts.seed, opts.scale)
	dir := filepath.Join(opts.work, fmt.Sprintf("trustd-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := prewriteDir(dir, st); err != nil {
		return fmt.Errorf("pre-writing the durability directory: %w", err)
	}
	// Fsync off is cmd/trustd's default; stated here so the WAL path measured
	// is the one operators run unless they opt in.
	srvOpts := trustd.Options{Dir: dir, Backend: "sharded", Population: st.peers,
		CheckpointEvery: trustdCheckpointEvery, Fsync: false}
	setup, err := timeSetup(trustdSetupReps, 1, func() (func(), error) {
		srv, err := trustd.Open(srvOpts)
		if err != nil {
			return nil, err
		}
		return func() { srv.Close() }, nil
	})
	if err != nil {
		return fmt.Errorf("recovering: %w", err)
	}
	srv, err := trustd.Open(srvOpts)
	if err != nil {
		return fmt.Errorf("recovering: %w", err)
	}
	defer srv.Close()

	s := newStream(newTraffic(st.ranked, seedmix.Derive(opts.seed, 4)).list(scaled(trustdPool, opts.scale, 64)))
	dur := time.Duration(opts.seconds * float64(time.Second))
	h := srv.Handler()
	var u tally
	if err := serveLoad(h, s, dur, &u, res); err != nil {
		return err
	}
	res.Attempted = u.ops
	// Read before the gates below build their reference store.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trustd-serve: %d requests in %.2fs, %.2f CPU s (%.0f requests/CPU s at reference speed, host speed %.3f), query p50/p90/p99 %.2f/%.2f/%.2f us\n",
		u.ops, u.seconds, u.cpuSeconds, u.throughput(), median(u.speeds), median(u.p50s), median(u.p90s), median(u.p99s))

	var rec *recorder
	var t tally
	var tw twin
	if opts.trace {
		rec = newRecorder()
		if tw, err = serveTraced(h, tracedHandler(h, rec), s, dur, &t, res); err != nil {
			return err
		}
		res.Attempted += t.ops
	}
	stats := srv.Stats()
	all := ackedBatches(s.reqs, s.acked)
	if err := ackError(int64(len(all)), stats.IngestedBatches); err != nil {
		res.fail("trustd-serve: %v", err)
	}
	if err := checkScores(h, st, all); err != nil {
		res.fail("trustd-serve: %v", err)
	}

	if !opts.trace {
		res.set("setup_s", setup)
		res.set("peak_rss_mb", rss)
		res.set("throughput_per_cpu_s", u.throughput())
		res.set("latency_p50_us", median(u.p50s))
		res.set("latency_p90_us", median(u.p90s))
		return nil
	}

	spans := rec.spans
	score, ingest := durations(spans, spanScoreHandler), durations(spans, spanIngestHandler)
	ckpt, err := checkpointP50MS(srv)
	if err != nil {
		return err
	}
	res.set("trustd.score_handler_us_p50", quantile(score, 0.50)/1e3)
	res.set("trustd.score_handler_us_p99", quantile(score, 0.99)/1e3)
	res.set("trustd.ingest_handler_us_p50", quantile(ingest, 0.50)/1e3)
	res.set("trustd.ingest_handler_us_p99", quantile(ingest, 0.99)/1e3)
	if looked := stats.CacheHits + stats.CacheMisses; looked > 0 {
		res.set("trustd.cache_hit_ratio", float64(stats.CacheHits)/float64(looked))
	}
	if stats.IngestedComplaints > 0 {
		res.set("trustd.wal_bytes_per_complaint", float64(stats.WALBytes)/float64(stats.IngestedComplaints))
	}
	res.set("trustd.wal_appends", float64(stats.WALAppends))
	res.set("trustd.wal_fsyncs", float64(stats.WALFsyncs))
	res.set("trustd.checkpoints", float64(stats.Checkpoints))
	res.set("trustd.checkpoint_ms_p50", ckpt)
	res.set("trustd.recovery_s", float64(stats.RecoveryNs)/1e9)
	res.set("trustd.recovered_complaints", float64(stats.RecoveredComplaints))
	res.set("trace.overhead_ratio", tw.ratio())
	res.set("trace.spans", float64(len(spans)))
	res.set("host.steal_share", u.steal)
	res.set("host.speed", median(u.speeds))
	res.set("run.latency_p99_us", median(u.p99s))
	res.zeroLayers()
	return writeSpans(spanFile(opts, "trustd-serve"), spans)
}
