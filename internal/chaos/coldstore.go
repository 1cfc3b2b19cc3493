package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"recross/internal/coldstore"
)

// ErrDeviceFailed is returned by every I/O of a sticky-failed device
// (FailDevice) until RestoreDevice.
var ErrDeviceFailed = fmt.Errorf("chaos: cold device failed")

// errInjectedRead is the injected transient read error.
var errInjectedRead = fmt.Errorf("chaos: injected device read error")

// ColdRates are per-operation injection probabilities in [0,1] for the
// storage-tier faults, checked in the order ReadErr, Stall, CorruptPage on
// reads and TornWrite on writes (at most one fault per operation).
type ColdRates struct {
	ReadErr, Stall, CorruptPage, TornWrite float64
}

// ColdRule scripts one exact storage fault: the Op'th read (for read
// kinds) or write (TornWrite) injects Kind, 1-based. Like serve-layer
// Rules, scheduled faults fire regardless of rates and of the injector's
// enabled switch.
type ColdRule struct {
	Op   int64
	Kind Kind
}

// ColdConfig configures a FaultyColdStore.
type ColdConfig struct {
	// Rates are the per-operation fault probabilities.
	Rates ColdRates
	// Stall is the injected device stall (default 2ms). Stalls are
	// bounded sleeps, never unbounded wedges, so a store Close (which
	// drains in-flight device I/O before unmapping) always terminates.
	Stall time.Duration
	// Schedule scripts exact faults on top of Rates.
	Schedule []ColdRule
	// Seed seeds the device RNG (default 1).
	Seed int64
}

func (c ColdConfig) withDefaults() ColdConfig {
	if c.Stall == 0 {
		c.Stall = 2 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// FaultyColdStore wraps a coldstore.Device with deterministic fault
// injection: transient read errors, latency stalls, corrupt page payloads,
// torn writes, and sticky whole-device failure (FailDevice/RestoreDevice).
// It shares the fleet Injector's counters and enabled switch, so one
// campaign spans compute and storage faults. Unlike FaultySystem (single
// goroutine by the System contract), the store's read path is concurrent,
// so the RNG and operation counters are mutex-guarded; a run is
// deterministic per (seed, operation sequence) when the store is driven
// from one goroutine, and per-kind counts remain exact under concurrency.
//
// Install via coldstore.Config.WrapDevice:
//
//	cfg.WrapDevice = func(d coldstore.Device) coldstore.Device {
//		return chaos.WrapColdDevice(d, coldCfg, inj)
//	}
type FaultyColdStore struct {
	inner coldstore.Device
	cfg   ColdConfig
	inj   *Injector

	failed atomic.Bool

	mu     sync.Mutex // guards both pickers (they share one RNG)
	reads  *Picker    // op = device read number
	writes *Picker    // op = device write number
}

// WrapColdDevice builds the fault-injecting device wrapper. inj may be
// shared with a FaultySystem fleet; if nil a fresh one is made.
func WrapColdDevice(inner coldstore.Device, cfg ColdConfig, inj *Injector) *FaultyColdStore {
	cfg = cfg.withDefaults()
	if inj == nil {
		inj = NewInjector()
	}
	readRules, writeRules := map[int64]Kind{}, map[int64]Kind{}
	for _, r := range cfg.Schedule {
		switch r.Kind {
		case ReadErr, Stall, CorruptPage:
			readRules[r.Op] = r.Kind
		case TornWrite:
			writeRules[r.Op] = r.Kind
		}
	}
	rng, r := rand.New(rand.NewSource(cfg.Seed)), cfg.Rates
	return &FaultyColdStore{
		inner: inner,
		cfg:   cfg,
		inj:   inj,
		reads: NewPicker(rng, inj, readRules,
			Rate{ReadErr, r.ReadErr}, Rate{Stall, r.Stall}, Rate{CorruptPage, r.CorruptPage}),
		writes: NewPicker(rng, inj, writeRules, Rate{TornWrite, r.TornWrite}),
	}
}

// FailDevice makes every subsequent I/O fail until RestoreDevice — a
// sticky whole-device outage (controller death, pulled cable). The store's
// breaker should open; after RestoreDevice its scrubber probes should
// close it again.
func (d *FaultyColdStore) FailDevice() { d.failed.Store(true) }

// RestoreDevice ends a FailDevice outage.
func (d *FaultyColdStore) RestoreDevice() { d.failed.Store(false) }

// Failed reports whether the device is in a sticky outage.
func (d *FaultyColdStore) Failed() bool { return d.failed.Load() }

// pick decides one device op's fault under the shared lock.
func (d *FaultyColdStore) pick(p *Picker) (Kind, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return p.Pick()
}

// ReadPage reads a page through the fault filter.
func (d *FaultyColdStore) ReadPage(page int64, dst []byte) error {
	if d.failed.Load() {
		d.inj.counts[ReadErr].Add(1)
		return ErrDeviceFailed
	}
	k, inject := d.pick(d.reads)
	if !inject {
		return d.inner.ReadPage(page, dst)
	}
	d.inj.counts[k].Add(1)
	switch k {
	case ReadErr:
		return errInjectedRead
	case Stall:
		time.Sleep(d.cfg.Stall)
		return d.inner.ReadPage(page, dst)
	case CorruptPage:
		err := d.inner.ReadPage(page, dst)
		if err == nil && len(dst) > 0 {
			// Deterministic damage: flip bits at a page-dependent offset.
			i := int(page) % len(dst)
			dst[i] ^= 0xff
			dst[len(dst)/2] ^= 0x55
		}
		return err
	}
	return d.inner.ReadPage(page, dst)
}

// WritePage writes a page through the fault filter.
func (d *FaultyColdStore) WritePage(page int64, src []byte) error {
	if d.failed.Load() {
		d.inj.counts[ReadErr].Add(1)
		return ErrDeviceFailed
	}
	k, inject := d.pick(d.writes)
	if !inject {
		return d.inner.WritePage(page, src)
	}
	d.inj.counts[k].Add(1)
	// TornWrite: persist only the first half and report success — the
	// silent partial persist checksummed reads exist to catch.
	if err := d.inner.WritePage(page, src[:len(src)/2]); err != nil {
		return err
	}
	return nil
}
