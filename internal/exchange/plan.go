package exchange

import (
	"fmt"

	"trustcoop/internal/goods"
)

// PaymentPolicy selects how eagerly the consumer pays between deliveries.
type PaymentPolicy int

// Payment policies. PayLazy pays the minimum that makes the next delivery
// admissible (minimising consumer exposure); PayEager pays up to the band's
// upper edge (minimising supplier exposure). Both produce valid schedules for
// exactly the same delivery orders.
const (
	PayLazy PaymentPolicy = iota + 1
	PayEager
)

// String implements fmt.Stringer.
func (p PaymentPolicy) String() string {
	switch p {
	case PayLazy:
		return "lazy"
	case PayEager:
		return "eager"
	default:
		return fmt.Sprintf("PaymentPolicy(%d)", int(p))
	}
}

// Options tunes schedule construction. The zero value selects lazy
// continuous payments and the default search budget.
type Options struct {
	// Policy selects the payment policy; zero means PayLazy.
	Policy PaymentPolicy
	// Quantum, when positive, rounds intermediate payments up to multiples
	// of this amount where the band permits (the final payment settles the
	// exact remainder).
	Quantum goods.Money
	// SearchBudget caps the number of subset states the exact fallback
	// search may visit; zero means DefaultSearchBudget.
	SearchBudget int
}

// DefaultSearchBudget bounds the exact search's state visits per call.
const DefaultSearchBudget = 1 << 18

func (o Options) policy() PaymentPolicy {
	if o.Policy == 0 {
		return PayLazy
	}
	return o.Policy
}

func (o Options) budget() int {
	if o.SearchBudget <= 0 {
		return DefaultSearchBudget
	}
	return o.SearchBudget
}

// Plan is a concrete, validated exchange schedule.
type Plan struct {
	Terms  Terms
	Bands  Bands
	Steps  Sequence
	Report Report
}

// PlanForOrder builds the payment interleaving for a fixed delivery order
// and validates it against the bands. The order must be a permutation of the
// bundle items. It returns ErrNoFeasibleSequence (wrapped) when the order
// admits no valid payment plan — note that a different order may still be
// feasible; use Schedule to search over orders.
func PlanForOrder(t Terms, b Bands, order []goods.Item, opt Options) (Plan, error) {
	if err := t.Validate(); err != nil {
		return Plan{}, err
	}
	if err := b.Validate(); err != nil {
		return Plan{}, err
	}
	sc := getScratch()
	defer putScratch(sc)
	return planForOrderCtx(newBandCtx(t, b), t, b, order, opt, sc)
}

// planForOrderCtx is PlanForOrder after input validation, with the band
// context (cached bundle totals) and scratch buffers supplied by the caller
// so Schedule pays for neither more than once across its candidate orders.
func planForOrderCtx(ctx bandCtx, t Terms, b Bands, order []goods.Item, opt Options, sc *schedScratch) (Plan, error) {
	if len(order) != t.Bundle.Len() {
		return Plan{}, fmt.Errorf("exchange: order has %d items, bundle has %d", len(order), t.Bundle.Len())
	}
	scratch, err := paymentsForOrder(ctx, t.Price, order, opt, sc.seq[:0])
	sc.seq = scratch[:0] // keep any capacity growth for the next attempt
	if err != nil {
		return Plan{}, err
	}
	// The constructed plan escapes; give it an exactly-sized private slice.
	seq := make(Sequence, len(scratch))
	copy(seq, scratch)
	rep, err := validateSeq(ctx, t, seq, sc.wantSet(t.Bundle))
	if err != nil {
		return Plan{}, fmt.Errorf("exchange: internal: constructed plan failed validation: %w", err)
	}
	return Plan{Terms: t, Bands: b, Steps: seq, Report: rep}, nil
}

// paymentsForOrder interleaves payments with the given delivery order,
// appending into seq (pass a zero-length buffer to reuse its capacity).
//
// Invariants maintained (see DESIGN.md): the band's upper edge is
// non-decreasing in the delivered set, so once m ≤ hi holds it holds forever;
// the lower edge only binds at delivery instants, where a payment first
// raises m to the edge. A delivery of x from delivered-set D is therefore
// admissible iff lo(D∪{x}) ≤ hi(D), and an order is feasible iff every step
// satisfies that inequality plus the boundary conditions at start and end.
func paymentsForOrder(ctx bandCtx, price goods.Money, order []goods.Item, opt Options, seq Sequence) (Sequence, error) {
	var m, cd, wd goods.Money
	lo0, hi0 := ctx.rangeAt(0, 0)
	if m < lo0 || m > hi0 {
		return seq, &bandError{failure: failInitial, a: lo0, b: hi0}
	}
	if need := len(seq) + 2*len(order) + 1; cap(seq) < need {
		grown := make(Sequence, len(seq), need)
		copy(grown, seq)
		seq = grown
	}
	for _, it := range order {
		_, hiHere := ctx.rangeAt(cd, wd)
		loNext, _ := ctx.rangeAt(cd+it.Cost, wd+it.Worth)
		if loNext > hiHere {
			return seq, &bandError{failure: failStep, item: it.ID, a: loNext, b: hiHere}
		}
		target := paymentTarget(m, loNext, hiHere, price, opt)
		if target > m {
			seq = append(seq, Step{Kind: StepPay, Amount: target - m})
			m = target
		}
		seq = append(seq, Step{Kind: StepDeliver, Item: it})
		cd += it.Cost
		wd += it.Worth
	}
	if m > price {
		return seq, &bandError{failure: failOverpaid, a: m, b: price}
	}
	if m < price {
		loEnd, hiEnd := ctx.rangeAt(cd, wd)
		if price < loEnd || price > hiEnd {
			return seq, &bandError{failure: failSettlement, a: price, b: loEnd, c: hiEnd}
		}
		seq = append(seq, Step{Kind: StepPay, Amount: price - m})
	}
	return seq, nil
}

// bandFailure names the check of paymentsForOrder that rejected an order.
type bandFailure uint8

const (
	failInitial    bandFailure = iota // the empty state lies outside the band
	failStep                          // a delivery needs more than the band allows
	failOverpaid                      // cumulative payments exceed the price
	failSettlement                    // the final settlement lies outside the band
)

// bandError is paymentsForOrder's rejection of a delivery order. Schedule
// discards most of them while it moves on to the next candidate order, so
// the message is rendered only when asked for. It unwraps to
// ErrNoFeasibleSequence.
type bandError struct {
	failure bandFailure
	item    string      // failStep: the item whose delivery failed
	a, b, c goods.Money // the amounts the message reports, in its order
}

func (e *bandError) Error() string {
	switch e.failure {
	case failInitial:
		return fmt.Sprintf("%v: initial state outside band [%v, %v]", ErrNoFeasibleSequence, e.a, e.b)
	case failStep:
		return fmt.Sprintf("%v: delivering %q needs m ≥ %v but band tops out at %v", ErrNoFeasibleSequence, e.item, e.a, e.b)
	case failOverpaid:
		return fmt.Sprintf("%v: cumulative payments %v exceed price %v", ErrNoFeasibleSequence, e.a, e.b)
	default: // failSettlement
		return fmt.Sprintf("%v: final settlement %v outside band [%v, %v]", ErrNoFeasibleSequence, e.a, e.b, e.c)
	}
}

func (e *bandError) Unwrap() error { return ErrNoFeasibleSequence }

// paymentTarget computes the cumulative payment to reach before the next
// delivery, according to the payment policy and quantum.
func paymentTarget(m, need, hi, price goods.Money, opt Options) goods.Money {
	cap := goods.MinMoney(hi, price)
	var target goods.Money
	switch opt.policy() {
	case PayEager:
		target = cap
	default: // PayLazy
		target = goods.MaxMoney(m, need)
		if q := opt.Quantum; q > 0 && target > m {
			// Round the increment up to a quantum multiple where the band
			// permits; otherwise keep the exact (unaligned) minimum.
			inc := target - m
			rounded := ((inc + q - 1) / q) * q
			if m+rounded <= cap {
				target = m + rounded
			}
		}
	}
	if target < need {
		target = need
	}
	return target
}
