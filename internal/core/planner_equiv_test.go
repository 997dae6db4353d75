package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"trustcoop/internal/decision"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// referencePlanExchange is the planner as it was before the combined band
// became SkipSafe-only: on the trust path it always tries the combined band
// first and falls back to the pure exposure band. It is kept here as the
// oracle for the containment argument in scheduleTrustAware.
func referencePlanExchange(pl Planner, supplier, consumer Participant, terms exchange.Terms) (PlanResult, error) {
	if err := terms.Validate(); err != nil {
		return PlanResult{}, err
	}
	if pl.RequireBeneficial && (terms.SupplierGain() < 0 || terms.ConsumerGain() < 0) {
		return PlanResult{}, fmt.Errorf("%w: terms not mutually beneficial (supplier %v, consumer %v)",
			ErrNoAgreement, terms.SupplierGain(), terms.ConsumerGain())
	}
	stakes := exchange.Stakes{Supplier: supplier.Stake, Consumer: consumer.Stake}
	if !pl.SkipSafe {
		if plan, err := exchange.ScheduleSafe(terms, stakes, pl.Options); err == nil {
			return PlanResult{Plan: plan, Mode: ModeSafe}, nil
		} else if !errors.Is(err, exchange.ErrNoSafeSequence) {
			return PlanResult{}, err
		}
	}
	pInSupplier := estimate(consumer.Estimator, supplier.ID)
	pInConsumer := estimate(supplier.Estimator, consumer.ID)
	caps := exchange.ExposureCaps{
		Supplier: supplier.Policy.ExposureLimit(pInConsumer, terms.SupplierGain()),
		Consumer: consumer.Policy.ExposureLimit(pInSupplier, terms.ConsumerGain()),
	}
	plan, err := exchange.Schedule(terms, exchange.CombinedBands(stakes, caps), pl.Options)
	if err != nil {
		if !errors.Is(err, exchange.ErrNoFeasibleSequence) && !errors.Is(err, exchange.ErrBudgetExhausted) {
			return PlanResult{}, err
		}
		plan, err = exchange.ScheduleTrustAware(terms, caps, pl.Options)
	}
	if err != nil {
		if errors.Is(err, exchange.ErrNoFeasibleSequence) || errors.Is(err, exchange.ErrBudgetExhausted) {
			return PlanResult{}, fmt.Errorf("%w: caps Ls=%v Lc=%v (trust %0.2f/%0.2f): %v",
				ErrNoAgreement, caps.Supplier, caps.Consumer, pInConsumer, pInSupplier, err)
		}
		return PlanResult{}, err
	}
	return PlanResult{
		Plan:                 plan,
		Mode:                 ModeTrustAware,
		TrustInSupplier:      pInSupplier,
		TrustInConsumer:      pInConsumer,
		Caps:                 caps,
		ExpectedConsumerGain: decision.ExpectedGain(pInSupplier, terms.ConsumerGain(), plan.Report.MaxConsumerExposure),
		ExpectedSupplierGain: decision.ExpectedGain(pInConsumer, terms.SupplierGain(), plan.Report.MaxSupplierExposure),
	}, nil
}

// equivCase is one seeded planner input of the equivalence sweep.
type equivCase struct {
	name     string
	sup, con Participant
	terms    exchange.Terms
}

// equivCases sweeps seeded goods.Generate bundles over cost distributions,
// negative-surplus fractions, a zero-cost tail, stakes and trust levels.
func equivCases(t *testing.T) []equivCase {
	t.Helper()
	trustLevels := [][2]float64{{0.05, 0.05}, {0.5, 0.9}, {0.8, 0.8}, {0.95, 0.3}}
	priceAt := []float64{0.2, 0.5, 0.8}
	var cases []equivCase
	for _, dist := range []goods.Distribution{goods.Uniform, goods.Pareto} {
		for _, neg := range []float64{0, 0.25, 0.5} {
			for _, zeroLast := range []bool{false, true} {
				gen := goods.DefaultGenConfig()
				gen.Dist, gen.NegFraction, gen.ZeroCostLast = dist, neg, zeroLast
				for _, stake := range []goods.Money{0, 2 * goods.Unit, 20 * goods.Unit} {
					for ti, tl := range trustLevels {
						truth := map[trust.PeerID]float64{"s": tl[0], "c": tl[1]}
						for seed := int64(0); seed < 3; seed++ {
							rng := rand.New(rand.NewSource(seed*101 + int64(ti)))
							bundle, err := goods.Generate(gen, rng)
							if err != nil {
								t.Fatal(err)
							}
							cases = append(cases, equivCase{
								name: fmt.Sprintf("%v/neg=%g/zeroLast=%v/stake=%v/trust=%v/seed=%d",
									dist, neg, zeroLast, stake, tl, seed),
								sup:   participant("s", truth, stake),
								con:   participant("c", truth, stake),
								terms: exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(priceAt[seed])},
							})
						}
					}
				}
			}
		}
	}
	return cases
}

// equivPlanners plan each case under both payment policies, a payment
// quantum, a search budget small enough that the safe search on
// negative-surplus bundles runs out, and with the safe attempt skipped.
var equivPlanners = []Planner{
	{},
	{Options: exchange.Options{Policy: exchange.PayEager}},
	{Options: exchange.Options{Quantum: goods.Unit}},
	{Options: exchange.Options{SearchBudget: 16}},
	{SkipSafe: true},
}

// TestPlannerMatchesCombinedFirstReference pins the containment argument:
// once the safe band is proven infeasible, the combined band is too, so
// skipping it returns exactly what trying it first returned — the same
// PlanResult and the same error text. With SkipSafe nothing has proven the
// combined band infeasible, so the planner must still try it first and
// return its plans.
func TestPlannerMatchesCombinedFirstReference(t *testing.T) {
	outcomes := map[string]int{}
	for _, pl := range equivPlanners {
		for _, c := range equivCases(t) {
			want, wantErr := referencePlanExchange(pl, c.sup, c.con, c.terms)
			got, gotErr := pl.PlanExchange(c.sup, c.con, c.terms)
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s %+v: err = %v, reference %v", c.name, pl, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %+v: plan differs from the combined-first reference\ngot  %+v\nwant %+v", c.name, pl, got, want)
			}
			switch {
			case errors.Is(gotErr, ErrNoAgreement):
				outcomes["no agreement"]++
			case gotErr != nil:
				outcomes["other error"]++
			case pl.SkipSafe && got.Plan.Bands.String() == "combined":
				outcomes["skip-safe combined"]++
			default:
				outcomes[got.Mode.String()]++
			}
		}
	}
	// The sweep must reach every branch, or it pins nothing.
	for _, o := range []string{"safe", "trust-aware", "no agreement", "other error", "skip-safe combined"} {
		if outcomes[o] == 0 {
			t.Errorf("no case ended %q (outcomes %v)", o, outcomes)
		}
	}
}
