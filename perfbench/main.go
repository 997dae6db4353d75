// Command perfbench is the repository benchmark: one process runs one named
// workload for a fixed number of seconds, checks the program's outputs, and
// prints a JSON result line with either the end-to-end metrics (untraced
// run) or the per-layer metrics (a traced run next to an untraced one).
//
//	go run . --workload session-contested --seed 1 --seconds 12 --trace 0
//
// run.sh builds and runs it from a repository checkout; README.md explains
// the workloads, the metrics and how they are meant to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carries the command line into a workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	work    string // scratch directory for the durability dir and span files
	// scale shrinks the workload's sizes (populations, cells, rates) for the
	// smoke test; 1 is the benchmark.
	scale float64
}

// workload runs one named shape and reports into res. A gate that fails
// sets res.Correct to false and explains on stderr.
type workload func(opts options, res *result) error

var workloads = map[string]workload{
	"session-contested":     runSessionContested,
	"cell-posterior-gossip": runCellGossip,
	"trustd-serve":          runTrustdServe,
}

// End-to-end metrics, printed by every untraced run (--trace 0).
var endToEnd = []string{"setup_s", "peak_rss_mb", "throughput_per_cpu_s", "latency_p50_us", "latency_p90_us"}

// Per-layer metrics, printed by every traced run (--trace 1). A layer that
// a workload does not exercise reports 0.
var perLayer = []string{
	"core.safe_share", "core.trust_path_share", "core.plan_us_p50", "core.plan_us_p99",
	"exchange.combined_feasible_ratio", "exchange.combined_fail_us_p50",
	"market.self_us_per_session", "market.alloc_kb_per_session", "market.gc_cycles", "market.no_trade_share",
	"netsim.events_per_session", "netsim.messages_per_session",
	"trust.estimate_calls", "trust.estimate_ns_p50", "trust.estimate_ns_p99", "trust.record_calls", "trust.record_ns_p50",
	"complaints.filed",
	"gossip.rounds", "gossip.exchange_us_p50", "gossip.exchange_us_p99", "gossip.exchange_share",
	"gossip.bytes_per_session", "gossip.apply_ns_per_item", "gossip.items_delivered",
	"trustd.score_handler_us_p50", "trustd.score_handler_us_p99", "trustd.cache_hit_ratio",
	"trustd.ingest_handler_us_p50", "trustd.ingest_handler_us_p99", "trustd.wal_bytes_per_complaint",
	"trustd.wal_appends", "trustd.wal_fsyncs", "trustd.checkpoints", "trustd.checkpoint_ms_p50",
	"trustd.recovery_s", "trustd.recovered_complaints",
	"trace.overhead_ratio", "trace.spans", "host.steal_share", "host.speed", "run.latency_p99_us",
}

// units names every metric's unit; a metric a run sets must appear here.
var units = map[string]string{
	"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_cpu_s": "1/s", "latency_p50_us": "us", "latency_p90_us": "us",

	"core.safe_share": "ratio", "core.trust_path_share": "ratio", "core.plan_us_p50": "us", "core.plan_us_p99": "us",
	"exchange.combined_feasible_ratio": "ratio", "exchange.combined_fail_us_p50": "us",
	"market.self_us_per_session": "us", "market.alloc_kb_per_session": "KB", "market.gc_cycles": "count",
	"market.no_trade_share": "ratio", "netsim.events_per_session": "count", "netsim.messages_per_session": "count",
	"trust.estimate_calls": "count", "trust.estimate_ns_p50": "ns", "trust.estimate_ns_p99": "ns",
	"trust.record_calls": "count", "trust.record_ns_p50": "ns", "complaints.filed": "count",
	"gossip.rounds": "count", "gossip.exchange_us_p50": "us", "gossip.exchange_us_p99": "us", "gossip.exchange_share": "ratio",
	"gossip.bytes_per_session": "B", "gossip.apply_ns_per_item": "ns", "gossip.items_delivered": "count",
	"trustd.score_handler_us_p50": "us", "trustd.score_handler_us_p99": "us", "trustd.cache_hit_ratio": "ratio",
	"trustd.ingest_handler_us_p50": "us", "trustd.ingest_handler_us_p99": "us",
	"trustd.wal_bytes_per_complaint": "B", "trustd.wal_appends": "count", "trustd.wal_fsyncs": "count",
	"trustd.checkpoints": "count", "trustd.checkpoint_ms_p50": "ms", "trustd.recovery_s": "s",
	"trustd.recovered_complaints": "count",
	"trace.overhead_ratio":        "ratio", "trace.spans": "count",
	"host.steal_share": "ratio", "host.speed": "ratio", "run.latency_p99_us": "us",
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: session-contested, cell-posterior-gossip or trustd-serve")
	seed := fs.Int64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds per run (a traced run measures this twice: untraced, then traced)")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints per-layer metrics instead of end-to-end ones")
	work := fs.String("work", ".bench_build/work", "scratch directory (durability directory, span files)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, work: *work, scale: 1}
	steal := startSteal()
	res, err := runWorkload(w, opts)
	// Every run says how much CPU the hypervisor took from the host while it
	// ran. The timed metrics are read on CPU-time clocks, which steal does
	// not advance; a high share still marks a host busy with other guests.
	fmt.Fprintf(os.Stderr, "perfbench: %s: host steal share %.3f\n", *name, steal.share())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs w and checks that it reported exactly the metric set its
// mode promises.
func runWorkload(w workload, opts options) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	if err := w(opts, &res); err != nil {
		return res, err
	}
	want := endToEnd
	if opts.trace {
		want = perLayer
	}
	for _, name := range want {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s not reported", name)
		}
	}
	for name := range res.Metrics {
		if !slices.Contains(want, name) {
			return res, fmt.Errorf("metric %s reported outside its mode", name)
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// set records one metric with its registered unit.
func (r *result) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	fmt.Fprintf(os.Stderr, "perfbench: gate failed: "+format+"\n", args...)
}

// zeroLayers reports 0 for every per-layer metric the workload leaves
// unset: the layer is not exercised there.
func (r *result) zeroLayers() {
	for _, name := range perLayer {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0)
		}
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is left as it was. 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	xs = slices.Clone(xs)
	slices.Sort(xs)
	return sortedQuantile(xs, q)
}

// sortedQuantile is quantile for xs already in ascending order.
func sortedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuTicks reads the host's steal and total CPU ticks from /proc/stat.
func cpuTicks() (steal, total uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter measures the share of CPU time the hypervisor took from this
// host's virtual CPUs over an interval: a run with a high share measured a
// slower machine, whatever the program did.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t, _ := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t, err := cpuTicks()
	if err != nil || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// timeSetup returns the median, over reps, of the mean process CPU time in
// seconds of batch consecutive builds, at reference host speed: the speed
// probe makes a pass after each rep. Each rep starts
// from a collected heap, so one rep's garbage does not land in the next,
// and a batch of builds evens out allocator state that would dominate a
// single microsecond-scale build. build's returned closer (if any) runs
// outside the timing.
func timeSetup(reps, batch int, build func() (func(), error)) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	probe := newSpeedProbe()
	samples := make([]float64, 0, reps)
	closers := make([]func(), 0, batch)
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := cpuNow(processCPU)
		for j := 0; j < batch; j++ {
			done, err := build()
			if err != nil {
				return 0, err
			}
			if done != nil {
				closers = append(closers, done)
			}
		}
		el := cpuNow(processCPU) - start
		speed := probe.pass()
		samples = append(samples, el.Seconds()*speed/float64(batch))
		for _, done := range closers {
			done()
		}
		closers = closers[:0]
	}
	return median(samples), nil
}

// CPU-time clocks. processCPU counts every thread of this process (not its
// children); threadCPU only the calling OS thread, so its reader must hold
// runtime.LockOSThread. Neither advances while the hypervisor runs another
// guest on the CPU or while another process holds it, so a time read on
// them is the program's work, not the host's availability.
const (
	processCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	threadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuNow reads a CPU-time clock.
func cpuNow(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime(%d): %v", clock, errno))
	}
	return time.Duration(ts.Nano())
}

// spanFile is where a traced run writes its spans.
func spanFile(opts options, workload string) string {
	return filepath.Join(opts.work, fmt.Sprintf("spans-%s-seed%d.json", workload, opts.seed))
}
