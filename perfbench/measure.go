package main

import (
	"crypto/sha256"
	"math/rand"
	"runtime"
	"slices"
	"time"
)

// The host this benchmark runs on is a virtual machine that shares its
// physical cores, caches and memory bandwidth with other guests. How fast
// it runs the same code changes by a half from one stretch of a few hundred
// milliseconds to the next, and drifts by a fifth within minutes, even on
// CPU-time clocks, which hypervisor steal does not advance. So every timing
// is scaled to a reference host speed: right after each piece of the
// program's work (a marketplace, a gossip round, a chunk of requests) the
// benchmark runs a fixed computation that uses none of the program's code,
// and multiplies the piece's time by how much faster than its reference
// rate that computation ran. A change to the program moves the metrics; a
// change in the host's speed moves the program and the probe alike and
// cancels out.

// probeReference is the probe's rate, in passes per second of thread CPU
// time, on the host the benchmark's bounds were set on (a 2-vCPU Sapphire
// Rapids virtual machine). It only fixes the scale of the reported numbers.
const probeReference = 2500.0

// speedProbe is the fixed computation: sorting, hashing into a map and
// SHA-256, over inputs built once, without allocating.
type speedProbe struct {
	src, xs []int
	m       map[int]int
	buf     []byte
	sink    int
	runs    int           // passes so far
	cpu     time.Duration // their thread CPU time
}

func newSpeedProbe() *speedProbe {
	rng := rand.New(rand.NewSource(7))
	p := &speedProbe{src: make([]int, 4096), xs: make([]int, 4096), m: make(map[int]int, 1024), buf: make([]byte, 8<<10)}
	for i := range p.src {
		p.src[i] = rng.Int()
	}
	rng.Read(p.buf)
	return p
}

func (p *speedProbe) once() {
	copy(p.xs, p.src)
	slices.Sort(p.xs)
	clear(p.m)
	for i := 0; i < 1024; i++ {
		p.m[p.xs[i*4]] = i
	}
	h := sha256.Sum256(p.buf)
	p.sink += len(p.m) + int(h[0])
}

// pass makes one pass and returns how fast the host ran it relative to
// the reference (above 1: faster). One pass, right after the work it is
// to scale, finds the caches as that work left them, as the work's next
// piece will; further passes would run warm and track the host less
// closely. The caller holds runtime.LockOSThread.
func (p *speedProbe) pass() float64 {
	start := cpuNow(threadCPU)
	p.once()
	el := cpuNow(threadCPU) - start
	p.runs++
	p.cpu += el
	return speedOf(1, el)
}

// speedOf is the speed of n passes in el.
func speedOf(n int, el time.Duration) float64 {
	return float64(n) / el.Seconds() / probeReference
}

// tally accumulates one measured run of a workload.
type tally struct {
	units             int64
	ops               int64 // sessions, or requests on trustd-serve
	noTrade, modeSafe int64
	events, messages  int64
	// latencyUS holds the current window's latency samples: the thread CPU
	// time of each marketplace, gossip round or query, at reference speed.
	// When the window closes they are summarised into its percentiles, so a
	// run keeps a few numbers per second, not every sample.
	latencyUS            []float64
	p50s, p90s, p99s     []float64 // latency percentiles of each window
	start                time.Time // when the run began
	prints               [][32]byte
	seconds, cpuSeconds  float64   // wall and process CPU time of the run, probe excluded
	rates                []float64 // ops per process CPU second of each rateWindow-long chunk of units, at reference speed
	speeds               []float64 // host speed of each window
	steal                float64   // host steal share over the run
	allocBytes, gcCycles uint64
}

// rateWindow is the least wall time a window spans. Throughput and the
// latency percentiles are medians over the run's windows, so a second or
// two in which the program's CPU time ran slow (a collection, a cold
// cache) moves them less than it would move a figure over the whole run.
const rateWindow = time.Second

// closeWindow records the percentiles of the window's latency samples.
func (t *tally) closeWindow() {
	if len(t.latencyUS) == 0 {
		return
	}
	xs := t.latencyUS
	slices.Sort(xs)
	t.p50s = append(t.p50s, sortedQuantile(xs, 0.50))
	t.p90s = append(t.p90s, sortedQuantile(xs, 0.90))
	t.p99s = append(t.p99s, sortedQuantile(xs, 0.99))
	t.latencyUS = xs[:0]
}

// throughput is the median, over the run's windows, of ops per second of
// process CPU time at reference host speed. Every workload runs on one
// goroutine apart from the garbage collector, whose CPU time counts.
func (t *tally) throughput() float64 {
	return median(t.rates)
}

// twin holds the thread CPU time, at reference speed, of the units a
// traced run runs twice back to back: untraced, then traced. Both runs of
// a unit meet the same host, so plain/traced is the throughput ratio that
// tracing costs, without the drift between two loops run one after the
// other.
type twin struct{ plain, traced time.Duration }

func (tw twin) ratio() float64 { return tw.plain.Seconds() / tw.traced.Seconds() }

// timeRef runs f and returns its thread CPU time at reference speed: the
// probe passes f makes are left out of the time and set its scale; if f
// makes none, one pass follows it.
func timeRef(probe *speedProbe, f func() error) (time.Duration, error) {
	start, runs, probeCPU := cpuNow(threadCPU), probe.runs, probe.cpu
	if err := f(); err != nil {
		return 0, err
	}
	el := cpuNow(threadCPU) - start - (probe.cpu - probeCPU)
	if probe.runs == runs {
		probe.pass()
	}
	return time.Duration(float64(el) * speedOf(probe.runs-runs, probe.cpu-probeCPU)), nil
}

// measure runs unit(0), unit(1), … until d of wall time has passed, with
// the GC and allocation counters read around the loop. It locks the calling
// goroutine to its OS thread, so units can time themselves on threadCPU.
// Each unit times its latency samples, makes a probe pass right after
// each, and appends them scaled by the speed the pass returned. Throughput counts each unit's process CPU time, probe
// excluded, scaled by the speed of the probe passes it made (measure makes
// one after a unit that made none).
func measure(d time.Duration, t *tally, unit func(m int, probe *speedProbe) error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	probe := newSpeedProbe()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	steal := startSteal()
	start := time.Now()
	t.start = start
	window, windowOps := start, t.ops
	var work, ref time.Duration // the window's work, and at reference speed
	for m := 0; ; m++ {
		cpu, runs, probeCPU := cpuNow(processCPU), probe.runs, probe.cpu
		if err := unit(m, probe); err != nil {
			return err
		}
		el := cpuNow(processCPU) - cpu - (probe.cpu - probeCPU)
		if probe.runs == runs {
			probe.pass()
		}
		work += el
		ref += time.Duration(float64(el) * speedOf(probe.runs-runs, probe.cpu-probeCPU))
		done := time.Since(start) >= d
		if time.Since(window) < rateWindow && !done {
			continue
		}
		t.rates = append(t.rates, float64(t.ops-windowOps)/ref.Seconds())
		t.speeds = append(t.speeds, ref.Seconds()/work.Seconds())
		t.cpuSeconds += work.Seconds()
		t.closeWindow()
		window, windowOps, work, ref = time.Now(), t.ops, 0, 0
		if done {
			break
		}
	}
	t.seconds = time.Since(start).Seconds()
	t.steal = steal.share()
	runtime.ReadMemStats(&after)
	t.allocBytes = after.TotalAlloc - before.TotalAlloc
	t.gcCycles = uint64(after.NumGC - before.NumGC)
	return nil
}
