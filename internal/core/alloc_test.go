package core

import (
	"errors"
	"math/rand"
	"testing"

	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// contestedTerms draws the first default 8-item bundle on which a stake of
// 2 units misses the safe band but the exposure band at trust 0.8 succeeds —
// the contested marketplace session the trust path exists for.
func contestedTerms(t *testing.T, sup, con Participant) exchange.Terms {
	t.Helper()
	stakes := exchange.Stakes{Supplier: sup.Stake, Consumer: con.Stake}
	for seed := int64(0); seed < 100; seed++ {
		bundle := goods.MustGenerate(goods.DefaultGenConfig(), rand.New(rand.NewSource(seed)))
		terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
		if _, err := exchange.ScheduleSafe(terms, stakes, exchange.Options{}); !errors.Is(err, exchange.ErrNoSafeSequence) {
			continue
		}
		if res, err := (Planner{}).PlanExchange(sup, con, terms); err == nil && res.Mode == ModeTrustAware {
			return terms
		}
	}
	t.Fatal("no contested bundle among 100 seeds")
	return exchange.Terms{}
}

// TestPlanTrustPathAllocs locks in the allocation budget of a trust-path
// plan: the safe portfolio fails, then the exposure band schedules on its
// first candidate. The failures the portfolio discards must not format
// messages, and no combined-band search may run — the combined-first
// planner spent 105 allocations per call here, the planner now 6 (one
// small error value per rejected safe order, the safe proof, the returned
// plan's steps).
func TestPlanTrustPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is only meaningful unraced")
	}
	truth := map[trust.PeerID]float64{"s": 0.8, "c": 0.8}
	sup := participant("s", truth, 2*goods.Unit)
	con := participant("c", truth, 2*goods.Unit)
	terms := contestedTerms(t, sup, con)

	const maxAllocs = 10
	if got := testing.AllocsPerRun(100, func() {
		if _, err := (Planner{}).PlanExchange(sup, con, terms); err != nil {
			t.Error(err)
		}
	}); got > maxAllocs {
		t.Errorf("trust-path PlanExchange: %.1f allocs/op, budget %d", got, maxAllocs)
	}
}
