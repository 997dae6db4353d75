package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trustd"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestEveryMetricPrintedWithUnit runs every workload at a tiny size, untraced
// and traced, and checks that each prints exactly the metrics BENCHMARK.json
// declares for its mode, with the declared units, and passes its gates.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	e2e, layers := declared(t)
	if len(e2e) != len(endToEnd) || len(layers) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end and %d per-layer metrics; the benchmark has %d and %d",
			len(e2e), len(layers), len(endToEnd), len(perLayer))
	}
	for name := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{seed: 3, seconds: 0.3, trace: traced, work: t.TempDir(), scale: 0.02}
			res, err := runWorkload(workloads[name], opts)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", name, traced, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok {
					t.Errorf("%s trace=%v: %s not printed", name, traced, metric)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: %s printed in %q, declared %q", name, traced, metric, got.Unit, unit)
				}
			}
			if !traced {
				for metric := range e2e {
					if res.Metrics[metric].Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", name, metric, res.Metrics[metric].Value)
					}
				}
			}
		}
	}
}

func TestConservationGateFiresOnDroppedSession(t *testing.T) {
	agents, err := population(agent.PopConfig{Honest: 8, Opportunist: 2, Stake: contestedStake}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := newMarketplace(agents, agent.IDs(agents), 1, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := conservationError(r, 16); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	dropped := r
	switch {
	case dropped.Completed > 0:
		dropped.Completed--
	default:
		dropped.Defected--
	}
	if conservationError(dropped, 16) == nil {
		t.Error("a dropped session passed the conservation gate")
	}
	if conservationError(r, 17) == nil {
		t.Error("a missing session passed the conservation gate")
	}
}

func TestIdentityGateFiresOnChangedResult(t *testing.T) {
	agents, err := population(agent.PopConfig{Honest: 8, Opportunist: 2, Stake: contestedStake}, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := newMarketplace(agents, agent.IDs(agents), 2, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	a := [][32]byte{fingerprint(r)}
	if err := identityError(a, [][32]byte{fingerprint(r)}); err != nil {
		t.Fatalf("identical results rejected: %v", err)
	}
	changed := r
	changed.Welfare += goods.Money(1)
	if identityError(a, [][32]byte{fingerprint(changed)}) == nil {
		t.Error("a changed market.Result passed the identity gate")
	}
	if identityError(a, nil) == nil {
		t.Error("an empty traced run passed the identity gate")
	}
}

func TestScoreGateFiresOnFlippedBit(t *testing.T) {
	st := newTrustdState(4, 0.01)
	srv, err := trustd.Open(trustd.Options{Dir: t.TempDir(), Backend: "sharded", Population: st.peers})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	history := st.history()
	for _, b := range history {
		if err := srv.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := referenceAssessor(st.peers, history)
	if err != nil {
		t.Fatal(err)
	}
	peer := history[0][0].About
	got, err := srv.ScoreOf(peer)
	if err != nil {
		t.Fatal(err)
	}
	if err := scoreMismatch(got, ref); err != nil {
		t.Fatalf("served score rejected: %v", err)
	}
	flipped := got
	flipped.Probability = math.Float64frombits(math.Float64bits(got.Probability) ^ 1)
	if scoreMismatch(flipped, ref) == nil {
		t.Error("a score with one flipped bit passed the score gate")
	}
	short, err := referenceAssessor(st.peers, history[1:])
	if err != nil {
		t.Fatal(err)
	}
	var mismatched bool
	for _, c := range history[0] {
		sc, err := srv.ScoreOf(c.About)
		if err != nil {
			t.Fatal(err)
		}
		mismatched = mismatched || scoreMismatch(sc, short) != nil
	}
	if !mismatched {
		t.Error("a reference missing one acked batch passed the score gate")
	}
	if ackError(int64(len(history)), srv.Stats().IngestedBatches) != nil {
		t.Error("matching ack counts rejected")
	}
	if ackError(int64(len(history)-1), srv.Stats().IngestedBatches) == nil {
		t.Error("a lost ack passed the ack gate")
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 30, Parent: 0},
		{Start: 20, End: 40, Parent: 0},  // overlaps the first child
		{Start: 90, End: 120, Parent: 0}, // runs past the parent's end
		{Start: 25, End: 35, Parent: 1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 5, 20, 30, 10}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d self time %d, want %d", i, self[i], want[i])
		}
	}
}

// TestTracedEstimatorForwardsTryRecord checks the decorator forwards the fallible
// write path, so reputation.Feed behaves the same with and without it.
func TestTracedEstimatorForwardsTryRecord(t *testing.T) {
	store := complaints.NewMemoryStore()
	pop := []trust.PeerID{"a", "b"}
	inner := &complaints.Estimator{Assessor: complaints.NewAssessor(store, pop), Observer: "a"}
	tr := &trustTracer{rec: newRecorder(), parent: -1}
	est := tr.wrap(inner)
	fr, ok := est.(trust.FallibleRecorder)
	if !ok {
		t.Fatal("decorator hides TryRecord")
	}
	if err := fr.TryRecord("b", trust.Outcome{Cooperated: false}); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Received("b"); n != 1 {
		t.Errorf("complaint not filed through the decorator: received=%d", n)
	}
	if got, want := est.Estimate("b"), inner.Estimate("b"); got != want {
		t.Errorf("decorated estimate %+v, inner %+v", got, want)
	}
	if len(tr.rec.spans) != 2 {
		t.Errorf("recorded %d spans, want 2", len(tr.rec.spans))
	}
}

func TestCloseWindowSummarises(t *testing.T) {
	var tl tally
	for i := 1; i <= 101; i++ {
		tl.latencyUS = append(tl.latencyUS, float64(i))
	}
	tl.closeWindow()
	if len(tl.latencyUS) != 0 {
		t.Errorf("%d samples left after the window closed", len(tl.latencyUS))
	}
	if tl.p50s[0] != 51 || tl.p90s[0] != 91 || tl.p99s[0] != 100 {
		t.Errorf("window p50/p90/p99 = %v/%v/%v, want 51/91/100", tl.p50s[0], tl.p90s[0], tl.p99s[0])
	}
	tl.closeWindow()
	if len(tl.p50s) != 1 {
		t.Error("an empty window recorded percentiles")
	}
}

func TestReplayGateFiresOnMismatchedLog(t *testing.T) {
	agents, err := population(agent.PopConfig{Honest: 8, Opportunist: 2, Stake: contestedStake}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tr := &trustTracer{rec: rec, parent: -1}
	eng, _, err := newMarketplace(agents, agent.IDs(agents), 5, 32, tr.wrap)
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	lg := replayLog{seed: 5, calls: tr.calls, modeSafe: r.ModeSafe, noTrade: r.NoTrade}
	if len(lg.calls) == 0 {
		t.Fatal("no session took the trust path; pick another seed")
	}
	if rp := replayPlans(rec, agents, 32, []replayLog{lg}); rp.err != nil {
		t.Fatalf("faithful log rejected: %v", rp.err)
	}
	safe := lg
	safe.modeSafe++
	if replayPlans(rec, agents, 32, []replayLog{safe}).err == nil {
		t.Error("a log with one more safe session passed the replay gate")
	}
	short := lg
	short.calls = lg.calls[:len(lg.calls)-1]
	if replayPlans(rec, agents, 32, []replayLog{short}).err == nil {
		t.Error("a log missing a trust read passed the replay gate")
	}
}
