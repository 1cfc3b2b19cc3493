package experiments

import (
	"testing"

	"recross/internal/arch"
)

// TestFig9BindingTerms pins which term of a batch's Cycles binds across
// Fig. 9's vector lengths at the paper's scale (the measured first batch):
// ReCross is drain-bound at every point, while TRiM-B's bank-level
// collection runs into its bus floor from veclen 128 up, so its Cycles
// there is the analytic floor and not the simulated drain.
func TestFig9BindingTerms(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ReCross and TRiM-B at five paper-scale points")
	}
	for _, v := range []int{16, 32, 64, 128, 256} {
		cfg := Paper()
		cfg.VecLen = v
		h := kaggle(cfg)
		st, err := h.Measure(h.Build("recross", nil), h.Build("trim-b", nil))
		if err != nil {
			t.Fatal(err)
		}
		rc, tb := st[0], st[1]
		if rc.Bound != arch.DrainTerm {
			t.Errorf("veclen %d: recross bound by %q (drain %d, bus floor %d), want drain", v, rc.Bound, rc.Drain, rc.BusFloor)
		}
		if v >= 128 && tb.Bound != arch.FloorTerm {
			t.Errorf("veclen %d: trim-b bound by %q (drain %d, bus floor %d), want the bus floor", v, tb.Bound, tb.Drain, tb.BusFloor)
		}
	}
}
