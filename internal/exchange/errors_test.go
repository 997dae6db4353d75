package exchange

import (
	"errors"
	"fmt"
	"testing"

	"trustcoop/internal/goods"
)

// TestErrorTextsUnchanged pins the messages of the scheduler's lazily
// rendered errors to the fmt.Errorf formats they replaced (cmd/safex prints
// them), and their sentinels to errors.Is.
func TestErrorTextsUnchanged(t *testing.T) {
	const u = goods.Unit
	item := func(id string, cost, worth goods.Money) goods.Item {
		return goods.Item{ID: id, Cost: cost * u, Worth: worth * u}
	}
	// a(4,10), b(6,12): the worked example, in whole units.
	a, b := item("a", 4, 10), item("b", 6, 12)
	ab := goods.Bundle{Items: []goods.Item{a, b}}
	planFor := func(terms Terms, bands Bands, order ...goods.Item) error {
		_, err := PlanForOrder(terms, bands, order, Options{})
		return err
	}
	_, greedyErr := Schedule(Terms{Bundle: ab, Price: 15 * u}, SafeBands(Stakes{}), Options{})
	_, safeErr := ScheduleSafe(Terms{Bundle: ab, Price: 15 * u}, Stakes{Supplier: 1 * u, Consumer: 2 * u}, Options{})

	cases := []struct {
		name     string
		err      error
		want     error // the old fmt.Errorf, on hand-computed values
		sentinel error
	}{
		{
			// Price 8 < Vs(G) = 10: Pmax(∅) = 8 − 10 < 0.
			name:     "initial state",
			err:      planFor(Terms{Bundle: ab, Price: 8 * u}, SafeBands(Stakes{}), b, a),
			want:     fmt.Errorf("%w: initial state outside band [%v, %v]", ErrNoFeasibleSequence, -14*u, -2*u),
			sentinel: ErrNoFeasibleSequence,
		},
		{
			// After b: Pmax({b}) = 15 − 4 = 11 < Pmin(G) = 15.
			name:     "delivery step",
			err:      planFor(Terms{Bundle: ab, Price: 15 * u}, SafeBands(Stakes{}), b, a),
			want:     fmt.Errorf("%w: delivering %q needs m ≥ %v but band tops out at %v", ErrNoFeasibleSequence, "a", 15*u, 11*u),
			sentinel: ErrNoFeasibleSequence,
		},
		{
			// Ls = 0: delivering c needs m ≥ Vs(c) = 10 > price 5.
			name: "overpayment",
			err: planFor(Terms{Bundle: goods.Bundle{Items: []goods.Item{item("c", 10, 10)}}, Price: 5 * u},
				TrustAwareBands(ExposureCaps{Consumer: 100 * u}), item("c", 10, 10)),
			want:     fmt.Errorf("%w: cumulative payments %v exceed price %v", ErrNoFeasibleSequence, 10*u, 5*u),
			sentinel: ErrNoFeasibleSequence,
		},
		{
			// Lc = 0: the final band tops out at Vc(G) = 1 < price 10.
			name: "final settlement",
			err: planFor(Terms{Bundle: goods.Bundle{Items: []goods.Item{item("d", 0, 1)}}, Price: 10 * u},
				TrustAwareBands(ExposureCaps{}), item("d", 0, 1)),
			want:     fmt.Errorf("%w: final settlement %v outside band [%v, %v]", ErrNoFeasibleSequence, 10*u, 0*u, 1*u),
			sentinel: ErrNoFeasibleSequence,
		},
		{
			name:     "greedy proof",
			err:      greedyErr,
			want:     fmt.Errorf("%w: proven by optimal greedy order (all item surpluses ≥ 0)", ErrNoFeasibleSequence),
			sentinel: ErrNoFeasibleSequence,
		},
		{
			// Stakes 1 + 2 fall short of the minimal stake 4.
			name:     "no safe sequence",
			err:      safeErr,
			want:     fmt.Errorf("%w (stakes δs=%v δc=%v)", ErrNoSafeSequence, 1*u, 2*u),
			sentinel: ErrNoSafeSequence,
		},
	}
	for _, c := range cases {
		if c.err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if got, want := c.err.Error(), c.want.Error(); got != want {
			t.Errorf("%s: Error() = %q, want %q", c.name, got, want)
		}
		if !errors.Is(c.err, c.sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) = false", c.name, c.err, c.sentinel)
		}
	}
	// Like the wrap it replaced, the safe proof wraps only its own sentinel.
	if errors.Is(safeErr, ErrNoFeasibleSequence) {
		t.Errorf("ScheduleSafe's error also matches ErrNoFeasibleSequence: %v", safeErr)
	}
}
