package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// Span names. Every span is recorded by this package around a call into a
// public function of the program; nothing inside the program is changed.
const (
	spanMarketRun     = iota // market.Engine.Run of one marketplace
	spanEstimate             // trust.Estimator.Estimate (decorator)
	spanRecord               // trust.Estimator.Record / TryRecord (decorator)
	spanPlan                 // core.Planner.PlanExchange (replay)
	spanSchedule             // exchange.Schedule on the combined band (replay)
	spanRunCell              // eval.RunCellObserved of one cell
	spanExchange             // gossip.Fabric.Exchange (onExchange hook)
	spanScoreHandler         // trustd GET /v1/score handler (http.Handler wrapper)
	spanIngestHandler        // trustd POST /v1/complaints handler
	spanProbe                // the benchmark's speed probe, where it runs inside a traced span
)

var spanNames = []string{
	"market.Run", "trust.Estimate", "trust.Record", "core.PlanExchange", "exchange.Schedule",
	"eval.RunCell", "gossip.Exchange", "trustd.score", "trustd.ingest", "perfbench.probe",
}

// span is one timed call. Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the enclosing span (-1 for a root); Unit
// identifies the marketplace, cell or request the span belongs to, and
// Session the session within a marketplace (-1 when not known).
type span struct {
	Name       uint8
	Start, End int64
	Parent     int32
	Unit       int64
	Session    int32
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index for end.
func (r *recorder) begin(name uint8, parent int32, unit int64, session int32) int32 {
	start := r.now()
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: start, Parent: parent, Unit: unit, Session: session})
	r.mu.Unlock()
	return i
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	t := r.now()
	r.mu.Lock()
	r.spans[i].End = t
	r.mu.Unlock()
}

// micros returns span i's duration in microseconds.
func (r *recorder) micros(i int32) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.spans[i].End-r.spans[i].Start) / 1e3
}

// add records a span whose interval is already known.
func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	i := int32(len(r.spans))
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return i
}

// durations returns the durations in ns of every span with the given name.
func durations(spans []span, name uint8) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] -= covered
	}
	return self
}

// selfSum totals the self time of every span with the given name.
func selfSum(spans []span, self []int64, name uint8) int64 {
	var sum int64
	for i, s := range spans {
		if s.Name == name {
			sum += self[i]
		}
	}
	return sum
}

// writeSpans writes the spans as one JSON document:
//
//	{"names": [...], "fields": [...], "spans": [[name, start_ns, end_ns, parent, unit, session], ...]}
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	fmt.Fprint(w, `{"names":[`)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	fmt.Fprint(w, `],"fields":["name","start_ns","end_ns","parent","unit","session"],"spans":[`)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "[%d,%d,%d,%d,%d,%d]", s.Name, s.Start, s.End, s.Parent, s.Unit, s.Session)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
