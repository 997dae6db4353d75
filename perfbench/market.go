package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/eval"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/gossip"
)

// session-contested: a stream of fresh 10-agent trust-aware marketplaces
// whose stake (2 units) is too small for most 8-item bundles to schedule
// safely, so most sessions fall through to the combined-band exact search.
const (
	contestedHonest      = 8
	contestedOpportunist = 2
	contestedStake       = 2 * goods.Unit
	contestedSessions    = 64 // sessions per marketplace
	contestedSetupReps   = 21
	contestedSetupBatch  = 200 // marketplaces built per set-up sample
	replayMarketplaces   = 400 // traced marketplaces whose planning is replayed
)

// cell-posterior-gossip: one sharded cell per unit, gossiping per-agent
// Beta posteriors over a full mesh every 2 sessions; stake 100 units makes
// every 24-item bundle schedulable in the safe band.
const (
	cellHonest      = 800
	cellOpportunist = 200
	cellStake       = 100 * goods.Unit
	cellItems       = 24
	cellShards      = 8
	cellPeriod      = 2
	cellConcurrency = 16
	cellSessions    = 2048 // sessions per cell
	cellSetupReps   = 21
	cellSetupBatch  = 8 // cells built per set-up sample
)

// scaled shrinks a size for the smoke test, never below lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(float64(n)*scale))
}

// population builds the agents and shuffles their order with the workload
// seed (pairing draws by index, so the order is part of the input).
func population(cfg agent.PopConfig, seed int64) ([]*agent.Agent, error) {
	agents, err := agent.NewPopulation(cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedmix.Derive(seed, 1)))
	rng.Shuffle(len(agents), func(i, j int) { agents[i], agents[j] = agents[j], agents[i] })
	return agents, nil
}

// unitSeed is the seed of the m-th marketplace or cell of a run.
func unitSeed(seed int64, m int) int64 { return seedmix.Derive(seed, uint64(m)+16) }

// conservationError checks that every attempted session has exactly one
// outcome and that the marketplace ran the sessions it was given.
func conservationError(r market.Result, want int) error {
	if r.Sessions != want {
		return fmt.Errorf("ran %d sessions, configured %d", r.Sessions, want)
	}
	if sum := r.Completed + r.Defected + r.Aborted + r.NoTrade; sum != r.Sessions {
		return fmt.Errorf("outcomes do not conserve: %d completed + %d defected + %d aborted + %d no-trade = %d != %d sessions",
			r.Completed, r.Defected, r.Aborted, r.NoTrade, sum, r.Sessions)
	}
	return nil
}

// fingerprint hashes every field of a Result, floats by their exact
// shortest representation, so equal fingerprints mean bit-identical results.
func fingerprint(r market.Result) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", r)))
}

// identityError compares the traced run's per-unit fingerprints with the
// untraced run's over the units both ran.
func identityError(untraced, traced [][32]byte) error {
	n := min(len(untraced), len(traced))
	if n == 0 {
		return fmt.Errorf("no unit ran in both the untraced and the traced run")
	}
	for i := 0; i < n; i++ {
		if untraced[i] != traced[i] {
			return fmt.Errorf("unit %d: traced market.Result differs from the untraced one", i)
		}
	}
	return nil
}

// add books one marketplace or cell.
func (t *tally) add(r market.Result) {
	t.units++
	t.ops += int64(r.Sessions)
	t.noTrade += int64(r.NoTrade)
	t.modeSafe += int64(r.ModeSafe)
	t.messages += int64(r.NetStats.Sent)
}

// setMarketLayers reports the per-layer metrics every market workload
// shares, from its untraced tally and its traced run.
func setMarketLayers(res *result, u *tally, traced *tally, tw twin, spans []span, root uint8) {
	s := float64(u.ops)
	res.set("core.safe_share", float64(u.modeSafe)/s)
	res.set("core.trust_path_share", float64(u.ops-u.modeSafe)/s)
	res.set("market.no_trade_share", float64(u.noTrade)/s)
	res.set("market.alloc_kb_per_session", float64(u.allocBytes)/1024/s)
	res.set("market.gc_cycles", float64(u.gcCycles))
	res.set("netsim.messages_per_session", float64(u.messages)/s)
	self := selfTimes(spans)
	res.set("market.self_us_per_session", float64(selfSum(spans, self, root))/1e3/float64(traced.ops))
	res.set("trace.overhead_ratio", tw.ratio())
	res.set("trace.spans", float64(len(spans)))
	res.set("host.steal_share", u.steal)
	res.set("host.speed", median(u.speeds))
	res.set("run.latency_p99_us", median(u.p99s))
}

// setMarketEndToEnd reports the end-to-end metrics of a market workload.
func setMarketEndToEnd(res *result, u *tally, setup float64) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("setup_s", setup)
	res.set("peak_rss_mb", rss)
	res.set("throughput_per_cpu_s", u.throughput())
	res.set("latency_p50_us", median(u.p50s))
	res.set("latency_p90_us", median(u.p90s))
	return nil
}

// newMarketplace opens the sharded complaint store and the engine of one
// contested marketplace; wrap, when set, decorates each agent's estimator.
func newMarketplace(agents []*agent.Agent, pop []trust.PeerID, seed int64, sessions int,
	wrap func(trust.Estimator) trust.Estimator) (*market.Engine, complaints.Store, error) {
	store, err := complaints.Open("sharded", complaints.BackendConfig{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	assessor := complaints.NewAssessor(store, pop)
	eng, err := market.NewEngine(market.Config{
		Seed:        seed,
		Sessions:    sessions,
		Agents:      agents,
		Concurrency: 1,
		EstimatorOf: func(id trust.PeerID) trust.Estimator {
			var e trust.Estimator = &complaints.Estimator{Assessor: assessor, Observer: id}
			if wrap != nil {
				e = wrap(e)
			}
			return e
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return eng, store, nil
}

func runSessionContested(opts options, res *result) error {
	popCfg := agent.PopConfig{Honest: contestedHonest, Opportunist: contestedOpportunist, Stake: contestedStake}
	agents, err := population(popCfg, opts.seed)
	if err != nil {
		return err
	}
	pop := agent.IDs(agents)
	sessions := scaled(contestedSessions, opts.scale, 4)
	dur := time.Duration(opts.seconds * float64(time.Second))

	var u tally
	err = measure(dur, &u, func(m int, probe *speedProbe) error {
		start := cpuNow(threadCPU)
		eng, _, err := newMarketplace(agents, pop, unitSeed(opts.seed, m), sessions, nil)
		if err != nil {
			return err
		}
		r, err := eng.Run()
		if err != nil {
			return err
		}
		el := cpuNow(threadCPU) - start
		speed := probe.pass()
		u.latencyUS = append(u.latencyUS, float64(el.Nanoseconds())*speed/1e3)
		if err := conservationError(r, sessions); err != nil {
			res.fail("session-contested marketplace %d: %v", m, err)
		}
		u.add(r)
		u.events += eng.EventsExecuted()
		if opts.trace {
			u.prints = append(u.prints, fingerprint(r))
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.Attempted = u.ops
	fmt.Fprintf(os.Stderr, "session-contested: %d marketplaces, %d sessions in %.2fs, %.2f CPU s (%.0f sessions/CPU s at reference speed, host speed %.3f), %d safe\n",
		u.units, u.ops, u.seconds, u.cpuSeconds, u.throughput(), median(u.speeds), u.modeSafe)

	if !opts.trace {
		setup, err := timeSetup(contestedSetupReps, contestedSetupBatch, func() (func(), error) {
			a, err := agent.NewPopulation(popCfg, rand.New(rand.NewSource(opts.seed)))
			if err != nil {
				return nil, err
			}
			_, _, err = newMarketplace(a, agent.IDs(a), opts.seed, sessions, nil)
			return nil, err
		})
		if err != nil {
			return err
		}
		return setMarketEndToEnd(res, &u, setup)
	}

	// Traced run: the same marketplaces, each run untraced and then with
	// each agent's estimator wrapped, back to back, for the overhead ratio.
	// What the replay and complaints.filed need is kept during the timed
	// loop and read after it, so the two runs differ only by the decorators.
	rec := newRecorder()
	tr := &trustTracer{rec: rec, parent: -1}
	var t tally
	var tw twin
	var logs []replayLog
	var stores []complaints.Store
	err = measure(dur, &t, func(m int, probe *speedProbe) error {
		seed := unitSeed(opts.seed, m)
		plain, err := timeRef(probe, func() error {
			eng, _, err := newMarketplace(agents, pop, seed, sessions, nil)
			if err == nil {
				_, err = eng.Run()
			}
			return err
		})
		if err != nil {
			return err
		}
		var r market.Result
		var store complaints.Store
		traced, err := timeRef(probe, func() error {
			eng, s, err := newMarketplace(agents, pop, seed, sessions, tr.wrap)
			if err != nil {
				return err
			}
			store = s
			tr.unit, tr.calls = int64(m), nil
			tr.parent = rec.begin(spanMarketRun, -1, int64(m), -1)
			r, err = eng.Run()
			rec.end(tr.parent)
			tr.parent = -1
			return err
		})
		if err != nil {
			return err
		}
		tw.plain += plain
		tw.traced += traced
		t.add(r)
		t.prints = append(t.prints, fingerprint(r))
		stores = append(stores, store)
		if m < replayMarketplaces {
			logs = append(logs, replayLog{seed: seed, calls: tr.calls, modeSafe: r.ModeSafe, noTrade: r.NoTrade})
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := identityError(u.prints, t.prints); err != nil {
		res.fail("session-contested: %v", err)
	}
	filed := 0
	for _, store := range stores {
		tallies, err := complaints.CountsAll(store, pop)
		if err != nil {
			return err
		}
		for _, ty := range tallies {
			filed += ty.Filed
		}
	}
	rp := replayPlans(rec, agents, sessions, logs)

	spans := rec.spans
	setMarketLayers(res, &u, &t, tw, spans, spanMarketRun)
	res.set("netsim.events_per_session", float64(u.events)/float64(u.ops))
	est, recd := durations(spans, spanEstimate), durations(spans, spanRecord)
	res.set("trust.estimate_calls", float64(len(est)))
	res.set("trust.estimate_ns_p50", quantile(est, 0.50))
	res.set("trust.estimate_ns_p99", quantile(est, 0.99))
	res.set("trust.record_calls", float64(len(recd)))
	res.set("trust.record_ns_p50", quantile(recd, 0.50))
	res.set("complaints.filed", float64(filed))
	if rp.err != nil {
		// The replay mirrors the engine's session generation and the
		// planner's combined-band call; when either changes, the planner
		// metrics would time something the program no longer does.
		res.fail("session-contested: planner replay does not reproduce the traced run: %v", rp.err)
	}
	res.set("core.plan_us_p50", quantile(rp.planUS, 0.50))
	res.set("core.plan_us_p99", quantile(rp.planUS, 0.99))
	if rp.combined > 0 {
		res.set("exchange.combined_feasible_ratio", float64(rp.feasible)/float64(rp.combined))
	}
	res.set("exchange.combined_fail_us_p50", quantile(rp.failUS, 0.50))
	res.zeroLayers()
	fmt.Fprintf(os.Stderr, "session-contested traced: overhead ratio %.3f, %d spans, replayed %d marketplaces\n",
		tw.ratio(), len(spans), len(logs))
	return writeSpans(spanFile(opts, "session-contested"), rec.spans)
}

// cellConfig is one cell of the posterior-gossip workload.
func cellConfig(agents []*agent.Agent, seed int64, sessions int) market.Config {
	gen := goods.DefaultGenConfig()
	gen.Items = cellItems
	return market.Config{
		Seed:        seed,
		Sessions:    sessions,
		Concurrency: cellConcurrency,
		Agents:      agents,
		Gen:         gen,
		Evidence:    trust.EvidencePosterior,
		Gossip:      gossip.Config{Period: cellPeriod, Topology: gossip.TopologyMesh},
	}
}

// runCell runs one cell through eval.RunCellObserved and, at each exchange
// after the first, a speed probe pass to scale the gossip round that the
// exchange closes: all shards' windows plus the exchange, timed on the
// thread CPU clock (the cell runs on measure's goroutine). round, when set,
// receives each such round in µs at reference speed. With rec set, each
// exchange and each probe pass is recorded as a child span of parent, the
// span of cell number unit.
func runCell(cfg market.Config, probe *speedProbe, rec *recorder, parent int32, unit int64, round func(us float64)) (market.Result, gossip.Stats, error) {
	var last time.Duration
	return eval.RunCellObserved(cfg, cellShards, 1, func(d time.Duration) {
		var sp int32
		if rec != nil {
			end := rec.now()
			rec.add(span{Name: spanExchange, Start: end - d.Nanoseconds(), End: end, Parent: parent, Unit: unit, Session: -1})
			sp = rec.begin(spanProbe, parent, unit, -1)
		}
		now := cpuNow(threadCPU)
		if last > 0 {
			el := now - last
			speed := probe.pass()
			if round != nil {
				round(float64(el.Nanoseconds()) * speed / 1e3)
			}
		}
		if rec != nil {
			rec.end(sp)
		}
		last = cpuNow(threadCPU)
	})
}

// buildCell constructs what eval.RunCell builds before its first window:
// the exchange fabric and one engine per shard, each on its derived seed.
func buildCell(cfg market.Config, shards int) error {
	fabric, err := gossip.NewFabric(cfg.Gossip, eval.DeriveSeed(cfg.Seed, shards), shards)
	if err != nil {
		return err
	}
	for k := 0; k < shards; k++ {
		sub := cfg
		sub.Seed = eval.DeriveSeed(cfg.Seed, k)
		sub.Sessions = cfg.Sessions / shards
		if k < cfg.Sessions%shards {
			sub.Sessions++
		}
		sub.GossipNode = fabric.Node(k)
		if _, err := market.NewEngine(sub); err != nil {
			return err
		}
	}
	return nil
}

func runCellGossip(opts options, res *result) error {
	popCfg := agent.PopConfig{
		Honest:      scaled(cellHonest, opts.scale, 16),
		Opportunist: scaled(cellOpportunist, opts.scale, 4),
		Stake:       cellStake,
	}
	agents, err := population(popCfg, opts.seed)
	if err != nil {
		return err
	}
	sessions := scaled(cellSessions, opts.scale, 4*cellShards)
	dur := time.Duration(opts.seconds * float64(time.Second))

	var u tally
	var g gossip.Stats
	err = measure(dur, &u, func(c int, probe *speedProbe) error {
		r, st, err := runCell(cellConfig(agents, unitSeed(opts.seed, c), sessions), probe, nil, -1, -1,
			func(us float64) { u.latencyUS = append(u.latencyUS, us) })
		if err != nil {
			return err
		}
		if err := conservationError(r, sessions); err != nil {
			res.fail("cell-posterior-gossip cell %d: %v", c, err)
		}
		u.add(r)
		g.Rounds += st.Rounds
		g.ComplaintsDelivered += st.ComplaintsDelivered
		g.BytesDelivered += st.BytesDelivered
		g.ApplyNs += st.ApplyNs
		if opts.trace {
			u.prints = append(u.prints, fingerprint(r))
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.Attempted = u.ops
	fmt.Fprintf(os.Stderr, "cell-posterior-gossip: %d cells, %d sessions in %.2fs, %.2f CPU s (%.0f sessions/CPU s at reference speed, host speed %.3f), %d safe, %d rounds\n",
		u.units, u.ops, u.seconds, u.cpuSeconds, u.throughput(), median(u.speeds), u.modeSafe, g.Rounds)

	if !opts.trace {
		setup, err := timeSetup(cellSetupReps, cellSetupBatch, func() (func(), error) {
			a, err := agent.NewPopulation(popCfg, rand.New(rand.NewSource(opts.seed)))
			if err != nil {
				return nil, err
			}
			return nil, buildCell(cellConfig(a, opts.seed, sessions), cellShards)
		})
		if err != nil {
			return err
		}
		return setMarketEndToEnd(res, &u, setup)
	}

	// Traced run: each cell run untraced and then traced, back to back, for
	// the overhead ratio.
	rec := newRecorder()
	var t tally
	var tw twin
	err = measure(dur, &t, func(c int, probe *speedProbe) error {
		cfg := cellConfig(agents, unitSeed(opts.seed, c), sessions)
		plain, err := timeRef(probe, func() error {
			_, _, err := runCell(cfg, probe, nil, -1, -1, nil)
			return err
		})
		if err != nil {
			return err
		}
		var r market.Result
		traced, err := timeRef(probe, func() error {
			parent := rec.begin(spanRunCell, -1, int64(c), -1)
			var err error
			r, _, err = runCell(cfg, probe, rec, parent, int64(c), nil)
			rec.end(parent)
			return err
		})
		if err != nil {
			return err
		}
		tw.plain += plain
		tw.traced += traced
		t.add(r)
		t.prints = append(t.prints, fingerprint(r))
		return nil
	})
	if err != nil {
		return err
	}
	if err := identityError(u.prints, t.prints); err != nil {
		res.fail("cell-posterior-gossip: %v", err)
	}
	spans := rec.spans
	setMarketLayers(res, &u, &t, tw, spans, spanRunCell)
	ex := durations(spans, spanExchange)
	var exSum float64
	for _, d := range ex {
		exSum += d
	}
	// The probe runs inside each cell's span, as a child span of its own.
	var cellSum float64
	for _, d := range durations(spans, spanRunCell) {
		cellSum += d
	}
	for _, d := range durations(spans, spanProbe) {
		cellSum -= d
	}
	res.set("gossip.rounds", float64(g.Rounds))
	res.set("gossip.exchange_us_p50", quantile(ex, 0.50)/1e3)
	res.set("gossip.exchange_us_p99", quantile(ex, 0.99)/1e3)
	res.set("gossip.exchange_share", exSum/cellSum)
	res.set("gossip.bytes_per_session", float64(g.BytesDelivered)/float64(u.ops))
	if g.ComplaintsDelivered > 0 {
		res.set("gossip.apply_ns_per_item", float64(g.ApplyNs)/float64(g.ComplaintsDelivered))
	}
	res.set("gossip.items_delivered", float64(g.ComplaintsDelivered))
	res.zeroLayers()
	fmt.Fprintf(os.Stderr, "cell-posterior-gossip traced: overhead ratio %.3f, %d spans\n", tw.ratio(), len(spans))
	return writeSpans(spanFile(opts, "cell-posterior-gossip"), spans)
}
