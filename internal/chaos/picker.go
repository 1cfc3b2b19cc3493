package chaos

import "math/rand"

// Rate is one row of a Picker's cumulative rate table: inject Kind with
// probability P per operation.
type Rate struct {
	Kind Kind
	P    float64
}

// Picker is the one seeded fault selector behind every wrapper in every
// tier (replica batches, device page reads and writes, cluster node
// calls, binary-wire frame writes). Per operation it advances the RNG
// exactly once (when any rate is configured), lets an exact-op scripted
// rule win, honours the injector's enabled switch, and otherwise walks
// the cumulative rate table in declaration order — so a fault sequence
// depends only on (seed, operation sequence), never on when the switch
// flips. A Picker is not safe for concurrent use; wrappers whose seam is
// concurrent guard it with their own mutex (two Pickers may share one RNG
// under that mutex, as the cold device's read and write sides do).
type Picker struct {
	rng   *rand.Rand
	inj   *Injector
	rates []Rate
	rules map[int64]Kind // 1-based op number -> scripted fault
	any   bool           // some rate is nonzero
	ops   int64
}

// NewPicker builds a picker drawing from rng. rules may be nil; rates are
// checked in the order given (at most one fault per operation).
func NewPicker(rng *rand.Rand, inj *Injector, rules map[int64]Kind, rates ...Rate) *Picker {
	p := &Picker{rng: rng, inj: inj, rates: rates, rules: rules}
	for _, r := range rates {
		p.any = p.any || r.P != 0
	}
	return p
}

// Ops reports how many operations the picker has decided.
func (p *Picker) Ops() int64 { return p.ops }

// Pick decides the next operation's fault, if any.
func (p *Picker) Pick() (Kind, bool) {
	p.ops++
	var u float64
	if p.any {
		u = p.rng.Float64()
	}
	if k, ok := p.rules[p.ops]; ok {
		return k, true
	}
	if !p.any || !p.inj.Enabled() {
		return 0, false
	}
	var acc float64
	for _, r := range p.rates {
		if acc += r.P; u < acc {
			return r.Kind, true
		}
	}
	return 0, false
}
