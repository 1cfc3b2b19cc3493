// Package chaos is the fault-injection harness for the serving layer: a
// FaultySystem wraps any arch.System and injects failures the way real
// replica fleets produce them — added latency (a slow device), goroutine
// panics (a crashed replica), wedged batches that never return (a hung
// device or deadlocked driver), and corrupted result payloads (bit flips,
// protocol bugs). Injection is deterministic: every wrapped system draws
// from its own seeded RNG, and a Schedule can script exact failures
// ("replica 2 panics on batch 5") so chaos tests are reproducible and
// never flaky.
//
// The serving layer under test must survive all of it; see
// internal/serve's replica workers and TestChaos* for the contract.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/arch"
	"recross/internal/trace"
)

// Kind enumerates the injectable fault kinds.
type Kind int

const (
	// Latency stalls the batch for Config.Stall before running it
	// normally — a slow replica, not a broken one.
	Latency Kind = iota
	// Panic panics the calling goroutine mid-batch, the way a bug in a
	// timing model would.
	Panic
	// Wedge blocks the batch forever (until Injector.ReleaseWedges): a
	// hung device. The caller's only recourse is a timeout.
	Wedge
	// Corrupt runs the batch but returns corrupted RunStats (negative
	// cycle count) — a damaged result payload the pool must detect and
	// discard rather than serve.
	Corrupt

	// Storage-tier kinds, injected by FaultyColdStore at the coldstore
	// Device seam rather than per replica batch.

	// ReadErr fails a device page read with an I/O error (a media read
	// error; the store retries, then trips its breaker).
	ReadErr
	// Stall sleeps a device page read for the configured stall — a
	// latency outlier the per-read deadline must bound.
	Stall
	// CorruptPage flips bits in a page read's payload — silent media
	// corruption the checksum must catch and repair.
	CorruptPage
	// TornWrite persists only a prefix of a page write and reports
	// success — a torn write the next verified read must detect.
	TornWrite

	// Cluster-tier kinds, injected by FaultyNode at the cluster.Node
	// seam rather than per replica batch or device page.

	// NodeKill fails every call fast (ErrNodeKilled) until Revive — a
	// crashed or drained node.
	NodeKill
	// NodePartition blocks calls until the caller's context expires —
	// a network partition: the node is fine, packets never arrive.
	NodePartition
	// NodeSlow stalls a call for the configured stall before
	// forwarding it — a node on a congested link.
	NodeSlow

	// Connection-tier kinds, injected by the cluster tier's FaultyConn
	// wrapper at the net.Conn seam under the binary wire protocol —
	// faults a per-call wrapper cannot express because they damage the
	// shared transport, not one request.

	// ConnTorn writes a prefix of a frame and severs the connection —
	// a peer dying mid-write; the reader sees a truncated frame.
	ConnTorn
	// ConnReset severs the connection before the write — an abrupt
	// RST; every in-flight request on that conn fails at once.
	ConnReset
	// ConnStall delays a write by 1ms — a congested or half-broken
	// link backing up the writer loop.
	ConnStall

	numKinds
)

func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Panic:
		return "panic"
	case Wedge:
		return "wedge"
	case Corrupt:
		return "corrupt"
	case ReadErr:
		return "read-err"
	case Stall:
		return "stall"
	case CorruptPage:
		return "corrupt-page"
	case TornWrite:
		return "torn-write"
	case NodeKill:
		return "node-kill"
	case NodePartition:
		return "node-partition"
	case NodeSlow:
		return "node-slow"
	case ConnTorn:
		return "conn-torn"
	case ConnReset:
		return "conn-reset"
	case ConnStall:
		return "conn-stall"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Rates are per-batch injection probabilities in [0,1], checked in the
// order Panic, Wedge, Corrupt, Latency (at most one fault per batch).
type Rates struct {
	Latency, Panic, Wedge, Corrupt float64
}

// Rule scripts one exact fault: replica Replica (as passed to Wrap)
// injects Kind on its Batch'th Run call (1-based). Scheduled rules fire
// regardless of Rates and of the injector's enabled switch being flipped
// later — they are the deterministic backbone of a chaos test.
type Rule struct {
	Replica int
	Batch   int64
	Kind    Kind
}

// Config configures a fault injection campaign.
type Config struct {
	// Rates are the per-batch fault probabilities.
	Rates Rates
	// Stall is the injected latency duration (default 500µs).
	Stall time.Duration
	// Schedule scripts exact per-replica faults on top of Rates.
	Schedule []Rule
	// Seed seeds replica i's RNG with Seed+i (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Stall == 0 {
		c.Stall = 500 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Injector is the shared control plane of a fault campaign: an on/off
// switch for the probabilistic faults, per-kind injection counters, and
// the release valve for wedged batches. One Injector is shared by every
// FaultySystem of a fleet so a test (or soak run) can stop injection and
// watch the server heal.
type Injector struct {
	enabled atomic.Bool
	counts  [numKinds]atomic.Int64

	releaseOnce sync.Once
	release     chan struct{}
}

// NewInjector returns an enabled injector.
func NewInjector() *Injector {
	inj := &Injector{release: make(chan struct{})}
	inj.enabled.Store(true)
	return inj
}

// SetEnabled flips probabilistic injection on or off. Scheduled rules
// are unaffected: they fire exactly when scripted.
func (inj *Injector) SetEnabled(on bool) { inj.enabled.Store(on) }

// Enabled reports the switch.
func (inj *Injector) Enabled() bool { return inj.enabled.Load() }

// ReleaseWedges unblocks every wedged batch, past and future (wedges
// injected after the release return immediately). Call it at test
// teardown so abandoned goroutines exit instead of leaking.
func (inj *Injector) ReleaseWedges() {
	inj.releaseOnce.Do(func() { close(inj.release) })
}

// Count reports how many faults of kind k have been injected.
func (inj *Injector) Count(k Kind) int64 {
	if k < 0 || k >= numKinds {
		return 0
	}
	return inj.counts[k].Load()
}

// Total reports all injected faults.
func (inj *Injector) Total() int64 {
	var t int64
	for i := range inj.counts {
		t += inj.counts[i].Load()
	}
	return t
}

// ErrWedgeReleased is returned by a wedged Run after ReleaseWedges.
var ErrWedgeReleased = fmt.Errorf("chaos: wedged batch released")

// FaultySystem wraps an arch.System with fault injection. Like any
// System it is single-goroutine; a fleet of wrapped replicas shares one
// Injector but each has its own RNG and schedule slice, so a run is
// deterministic per (seed, replica, batch sequence).
type FaultySystem struct {
	inner   arch.System
	cfg     Config
	replica int
	inj     *Injector
	picker  *Picker // op = Run call number
}

// Wrap builds a FaultySystem for replica id. Schedule rules whose
// Replica differs from id are ignored, so one Config describes a whole
// fleet. inj may be shared across replicas; if nil a fresh one is made.
func Wrap(inner arch.System, cfg Config, id int, inj *Injector) *FaultySystem {
	cfg = cfg.withDefaults()
	if inj == nil {
		inj = NewInjector()
	}
	rules := make(map[int64]Kind)
	for _, r := range cfg.Schedule {
		if r.Replica == id {
			rules[r.Batch] = r.Kind
		}
	}
	r := cfg.Rates
	return &FaultySystem{
		inner:   inner,
		cfg:     cfg,
		replica: id,
		inj:     inj,
		picker: NewPicker(rand.New(rand.NewSource(cfg.Seed+int64(id))), inj, rules,
			Rate{Panic, r.Panic}, Rate{Wedge, r.Wedge}, Rate{Corrupt, r.Corrupt}, Rate{Latency, r.Latency}),
	}
}

// Name identifies the wrapper and its inner architecture.
func (s *FaultySystem) Name() string { return "chaos(" + s.inner.Name() + ")" }

// Inner returns the wrapped system.
func (s *FaultySystem) Inner() arch.System { return s.inner }

// Run executes the batch, possibly injecting one fault first.
func (s *FaultySystem) Run(b trace.Batch) (*arch.RunStats, error) {
	k, inject := s.picker.Pick()
	if !inject {
		return s.inner.Run(b)
	}
	s.inj.counts[k].Add(1)
	switch k {
	case Panic:
		panic(fmt.Sprintf("chaos: injected panic (replica %d, batch %d)", s.replica, s.picker.Ops()))
	case Wedge:
		<-s.inj.release
		return nil, ErrWedgeReleased
	case Corrupt:
		st, err := s.inner.Run(b)
		if err == nil && st != nil {
			st.Cycles = -st.Cycles - 1 // impossible latency: detectably corrupt
		}
		return st, err
	case Latency:
		time.Sleep(s.cfg.Stall)
	}
	return s.inner.Run(b)
}
