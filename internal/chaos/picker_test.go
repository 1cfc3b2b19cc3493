package chaos

import (
	"math/rand"
	"testing"
)

// TestPickerContract pins the selector every fault wrapper shares: the
// RNG advances once per op whether or not the injector is enabled (so
// flipping the switch never shifts the later fault sequence), scripted
// rules win even while disabled, and rates are cumulative in order.
func TestPickerContract(t *testing.T) {
	rates := []Rate{{Panic, 0.2}, {Wedge, 0.3}}
	want := func(u float64) (Kind, bool) {
		switch {
		case u < 0.2:
			return Panic, true
		case u < 0.2+0.3:
			return Wedge, true
		}
		return 0, false
	}
	ref := rand.New(rand.NewSource(9))
	inj := NewInjector()
	p := NewPicker(rand.New(rand.NewSource(9)), inj, map[int64]Kind{7: Corrupt}, rates...)
	for op := int64(1); op <= 200; op++ {
		inj.SetEnabled(op < 50 || op >= 100)
		u := ref.Float64()
		k, ok := p.Pick()
		wk, wok := want(u)
		switch {
		case op == 7:
			wk, wok = Corrupt, true
		case !inj.Enabled():
			wk, wok = 0, false
		}
		if k != wk || ok != wok {
			t.Fatalf("op %d: got (%v,%v), want (%v,%v)", op, k, ok, wk, wok)
		}
	}
	if p.Ops() != 200 {
		t.Fatalf("Ops = %d, want 200", p.Ops())
	}
	// No rates configured: rules still fire, and the RNG is never drawn.
	idle := rand.New(rand.NewSource(3))
	q := NewPicker(idle, inj, map[int64]Kind{2: Latency}, Rate{Panic, 0})
	q.Pick()
	if k, ok := q.Pick(); !ok || k != Latency {
		t.Fatalf("scripted rule without rates: got (%v,%v)", k, ok)
	}
	if idle.Int63() != rand.New(rand.NewSource(3)).Int63() {
		t.Fatal("rate-less picker advanced the RNG")
	}
}
