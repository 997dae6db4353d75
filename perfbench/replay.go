package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"trustcoop/internal/agent"
	"trustcoop/internal/core"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
)

// estimateCall is one trust read the planner made, in call order.
type estimateCall struct {
	peer trust.PeerID
	est  trust.Estimate
}

// trustTracer decorates the agents' estimators of a traced marketplace:
// it records an Estimate or Record span around each call, parented to the
// marketplace's Run span, and logs every estimate for the planner replay.
type trustTracer struct {
	rec    *recorder
	parent int32
	unit   int64
	calls  []estimateCall
}

func (t *trustTracer) wrap(inner trust.Estimator) trust.Estimator {
	return &tracedEstimator{inner: inner, t: t}
}

// tracedEstimator is the trust.Estimator decorator passed in through
// market.Config.EstimatorOf. It forwards every call unchanged; TryRecord is
// forwarded too, so reputation.Feed takes the same path it takes without
// the decorator.
type tracedEstimator struct {
	inner trust.Estimator
	t     *trustTracer
}

var (
	_ trust.Estimator        = (*tracedEstimator)(nil)
	_ trust.FallibleRecorder = (*tracedEstimator)(nil)
)

func (e *tracedEstimator) Name() string { return e.inner.Name() }

func (e *tracedEstimator) Estimate(peer trust.PeerID) trust.Estimate {
	i := e.t.rec.begin(spanEstimate, e.t.parent, e.t.unit, -1)
	est := e.inner.Estimate(peer)
	e.t.rec.end(i)
	e.t.calls = append(e.t.calls, estimateCall{peer: peer, est: est})
	return est
}

func (e *tracedEstimator) Record(peer trust.PeerID, o trust.Outcome) {
	i := e.t.rec.begin(spanRecord, e.t.parent, e.t.unit, -1)
	e.inner.Record(peer, o)
	e.t.rec.end(i)
}

func (e *tracedEstimator) TryRecord(peer trust.PeerID, o trust.Outcome) error {
	fr, ok := e.inner.(trust.FallibleRecorder)
	if !ok {
		e.Record(peer, o)
		return nil
	}
	i := e.t.rec.begin(spanRecord, e.t.parent, e.t.unit, -1)
	err := fr.TryRecord(peer, o)
	e.t.rec.end(i)
	return err
}

// replayLog is what the traced run keeps of one marketplace for the replay.
type replayLog struct {
	seed              int64
	calls             []estimateCall
	modeSafe, noTrade int
}

// replayResult is the planner replay's measurements.
type replayResult struct {
	planUS             []float64 // core.Planner.PlanExchange per session
	combined, feasible int       // combined-band exchange.Schedule calls, and those that found a plan
	failUS             []float64 // the combined-band calls that found none
	err                error     // the replay did not reproduce the traced run
}

// replayQueue hands the recorded estimates back in call order.
type replayQueue struct {
	calls []estimateCall
	next  int
	err   error
}

// replayEstimator answers the planner from the queue, checking that the
// planner asks about the same peer it asked about in the traced run.
type replayEstimator struct {
	q *replayQueue
}

func (r replayEstimator) Name() string                       { return "replay" }
func (r replayEstimator) Record(trust.PeerID, trust.Outcome) {}
func (r replayEstimator) Estimate(peer trust.PeerID) trust.Estimate {
	q := r.q
	if q.next >= len(q.calls) {
		if q.err == nil {
			q.err = fmt.Errorf("planner read trust about %s beyond the %d reads recorded", peer, len(q.calls))
		}
		return trust.Estimate{P: 0.5}
	}
	c := q.calls[q.next]
	q.next++
	if c.peer != peer && q.err == nil {
		q.err = fmt.Errorf("planner read trust about %s where the traced run read %s", peer, c.peer)
	}
	return c.est
}

// replayPlans re-plans every session of the logged marketplaces outside the
// engine: it regenerates each session's pair and bundle the way the engine
// draws them (pairing stream 0, session stream id+1, concurrency 1), answers
// the planner's trust reads with the estimates the traced run recorded, and
// times core.Planner.PlanExchange and, on the trust path, the combined-band
// exchange.Schedule call the planner makes first. Spans go to rec. A replay
// that disagrees with the traced run (a different number of safe or
// no-trade sessions, trust read about other peers, or a combined-band result
// the planner did not act on) reports err.
func replayPlans(rec *recorder, agents []*agent.Agent, sessions int, logs []replayLog) replayResult {
	var rr replayResult
	gen := goods.DefaultGenConfig()
	planner := core.Planner{RequireBeneficial: true}
	for m, lg := range logs {
		q := &replayQueue{calls: lg.calls}
		est := replayEstimator{q: q}
		pairRng := rand.New(rand.NewSource(seedmix.Derive(lg.seed, 0)))
		safe, noTrade := 0, 0
		for id := 0; id < sessions; id++ {
			srng := rand.New(rand.NewSource(seedmix.Derive(lg.seed, uint64(id)+1)))
			i := pairRng.Intn(len(agents))
			j := pairRng.Intn(len(agents) - 1)
			if j >= i {
				j++
			}
			sup, con := agents[i], agents[j]
			bundle, err := goods.Generate(gen, srng)
			if err != nil {
				rr.err = err
				return rr
			}
			terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
			before := q.next

			s := rec.begin(spanPlan, -1, int64(m), int32(id))
			res, err := planner.PlanExchange(
				core.Participant{ID: sup.ID, Estimator: est, Policy: sup.Policy, Stake: sup.Stake},
				core.Participant{ID: con.ID, Estimator: est, Policy: con.Policy, Stake: con.Stake},
				terms)
			rec.end(s)
			rr.planUS = append(rr.planUS, rec.micros(s))
			switch {
			case errors.Is(err, core.ErrNoAgreement):
				noTrade++
			case err != nil:
				rr.err = err
				return rr
			case res.Mode == core.ModeSafe:
				safe++
			}
			if q.next-before != 2 {
				continue
			}
			// Trust path: the consumer's read of the supplier came first.
			pInSupplier, pInConsumer := q.calls[before].est.P, q.calls[before+1].est.P
			caps := exchange.ExposureCaps{
				Supplier: sup.Policy.ExposureLimit(pInConsumer, terms.SupplierGain()),
				Consumer: con.Policy.ExposureLimit(pInSupplier, terms.ConsumerGain()),
			}
			bands := exchange.CombinedBands(exchange.Stakes{Supplier: sup.Stake, Consumer: con.Stake}, caps)
			s = rec.begin(spanSchedule, -1, int64(m), int32(id))
			plan, err := exchange.Schedule(terms, bands, planner.Options)
			rec.end(s)
			rr.combined++
			// The caps and the combined-band call above copy the planner's
			// own; a plan found here must be the plan it returned.
			switch {
			case res.Mode == core.ModeTrustAware && res.Caps != caps:
				rr.err = fmt.Errorf("marketplace %d session %d: replayed caps %+v, the planner's %+v", m, id, caps, res.Caps)
			case err == nil && (res.Mode != core.ModeTrustAware || !reflect.DeepEqual(plan, res.Plan)):
				rr.err = fmt.Errorf("marketplace %d session %d: the combined band found a plan the planner did not return", m, id)
			case err != nil && !errors.Is(err, exchange.ErrNoFeasibleSequence) && !errors.Is(err, exchange.ErrBudgetExhausted):
				rr.err = fmt.Errorf("marketplace %d session %d: combined band: %w", m, id, err)
			}
			if rr.err != nil {
				return rr
			}
			if err == nil {
				rr.feasible++
			} else {
				rr.failUS = append(rr.failUS, rec.micros(s))
			}
		}
		switch {
		case q.err != nil:
			rr.err = fmt.Errorf("marketplace %d: %w", m, q.err)
		case q.next != len(q.calls):
			rr.err = fmt.Errorf("marketplace %d: replay made %d trust reads, the traced run %d", m, q.next, len(q.calls))
		case safe != lg.modeSafe || noTrade != lg.noTrade:
			rr.err = fmt.Errorf("marketplace %d: replay planned %d safe / %d no-trade, the traced run %d / %d",
				m, safe, noTrade, lg.modeSafe, lg.noTrade)
		}
		if rr.err != nil {
			return rr
		}
	}
	return rr
}
