package memctrl

import (
	"fmt"

	"recross/internal/dram"
	"recross/internal/sim"
)

// This file is the fast arbiter behind Controller.Drain. It reproduces the
// Reference scheduler's command stream bit-for-bit while replacing the
// O(banks) per-command scan with:
//
//   - Lazy min-heaps of per-bank candidate entries ordered by (earliest
//     issue time, packed tie key) — exactly the reference scan's
//     comparison order: reads and their activations, write activations,
//     and write columns. Keys are lower bounds: timing state only
//     advances, so an untouched bank's earliest issue time never
//     decreases. A popped entry is accepted immediately when the dram
//     timing epochs of its scopes are unchanged and time has not passed it
//     (the key is then provably exact); otherwise one Earliest* query
//     re-keys it and the heap re-orders.
//   - The write floor: every WR waits on dram.Channel.WRFloor (command
//     bus, channel DQ), and each WR moves it. While draining, write columns
//     bounded by the floor F move into a ready heap ordered by tie key
//     alone, each with effective key (F, tie key) — still a lower bound.
//     A ready winner gets one query: it issues if that returns F and goes
//     back to the write heap at its exact time otherwise. A WR therefore
//     costs O(1) re-keys instead of one per pending write.
//   - Re-keying without re-choosing: a column that does not finish its
//     request moves no open row and no queue position, so the bank's choice
//     stands and only its heap keys are recomputed. Activations, admissions
//     and completions re-choose.
//   - Doubly-linked per-bank queues with pooled nodes, dense per-op slices
//     and reused heaps: a steady-state Drain allocates only the returned
//     OpLatency.
//
// Per-command cost: O(log banks) amortized (one heap pop + push, a
// constant number of Earliest* queries) versus the reference's
// O(banks) Earliest* queries.

// An entry's tie key packs, most significant first, the priority class
// (2 bits), the request's arrival relative to the drain's earliest arrival
// (41 bits), the flat bank (20 bits) and the kind (1 bit: 0 primary, 1
// SALP lookahead ACT), so one unsigned compare breaks ties exactly as the
// reference scan does: class, then arrival, then bank scan order, then
// primary before lookahead. validate rejects drains whose arrival span or
// bank count does not fit.
const (
	keyBankShift  = 1
	keyArrShift   = keyBankShift + 20
	keyClassShift = keyArrShift + 41

	maxBanks       = 1 << (keyArrShift - keyBankShift)
	maxArrivalSpan = 1 << (keyClassShift - keyArrShift)
)

// fnode is the in-flight form of a Request: a node of its bank's
// doubly-linked queue, pooled on the Controller.
type fnode struct {
	req      *Request
	idx      int   // index in the input slice
	op       int32 // dense op index (see fastDrain's prologue)
	nextCol  int   // next column to issue (0-based offset from Loc.Col)
	acted    bool
	admitted sim.Cycle // when the request got its controller queue slot
	key      uint64    // the arrival and bank fields of its tie key

	prev, next *fnode
}

// fastBank is one bank's pending queue plus its cached scheduling choice
// (the same choice Reference.choose computes). stamp versions the bank's
// heap entries: an entry carries the stamp it was pushed under and is
// discarded when that no longer matches. A bank therefore has at most one
// live entry per kind, so the dram epoch stamp each live key was computed
// under is kept here, in ep[kind].
type fastBank struct {
	head, tail *fnode
	n          int
	fb         int32
	stamp      uint32
	dirty      bool // queued for fresh heap entries
	rechoose   bool // the cached choice must be recomputed first
	salp       bool

	cand      *fnode // primary candidate
	candRD    bool
	candClass uint64
	cand2     *fnode // SALP idle-subarray lookahead ACT, nil if none
	ep        [2]dram.EpochStamp
}

// opState is one embedding op's bookkeeping, indexed densely in order of
// first appearance.
type opState struct {
	tag        int32
	left       int32 // incomplete requests (op window only)
	start, end sim.Cycle
}

// entry is a heap candidate: a lower bound on the earliest issue time of
// one bank's cached choice, and its packed tie key.
type entry struct {
	time  sim.Cycle
	key   uint64
	stamp uint32
}

func entryLess(a, b *entry) bool {
	return a.time < b.time || (a.time == b.time && a.key < b.key)
}

// entryHeap is a plain binary min-heap of entries (no container/heap to
// keep pushes and pops allocation- and interface-free).
type entryHeap struct{ es []entry }

func (h *entryHeap) top() *entry {
	if len(h.es) == 0 {
		return nil
	}
	return &h.es[0]
}

func (h *entryHeap) push(e entry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(&h.es[i], &h.es[p]) {
			break
		}
		h.es[i], h.es[p] = h.es[p], h.es[i]
		i = p
	}
}

func (h *entryHeap) pop() {
	n := len(h.es) - 1
	h.es[0] = h.es[n]
	h.es = h.es[:n]
	if n > 0 {
		h.siftDown(0)
	}
}

// fixTop restores heap order after the root entry was re-keyed in place.
func (h *entryHeap) fixTop() { h.siftDown(0) }

func (h *entryHeap) siftDown(i int) {
	n := len(h.es)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && entryLess(&h.es[r], &h.es[l]) {
			m = r
		}
		if !entryLess(&h.es[m], &h.es[i]) {
			return
		}
		h.es[i], h.es[m] = h.es[m], h.es[i]
		i = m
	}
}

// fastState is the per-drain loop state, grouped so the helper methods
// stay allocation-free.
type fastState struct {
	reqs      []Request
	res       Result
	limit     int
	inflight  int
	pendWR    int
	next      int // next unadmitted request
	remaining int
	wm        int   // dense index of the lowest incomplete op (op window)
	watermark int32 // its tag
	arrBase   sim.Cycle
	now       sim.Cycle
	hi, lo    int
	draining  bool
}

// fastDrain is the fast-arbiter implementation of Controller.Drain.
func (c *Controller) fastDrain(reqs []Request) (Result, error) {
	if cap(c.done) < len(reqs) {
		c.done = make([]sim.Cycle, len(reqs))
	}
	res := Result{Done: c.done[:len(reqs)]}
	clear(res.Done)
	if len(reqs) == 0 {
		return res, nil
	}
	if err := c.validate(reqs); err != nil {
		return res, err
	}

	// Prologue: the one map lookup per request. Everything the arbitration
	// loop reads per op is a dense slice from here on.
	if c.opIdx == nil {
		c.opIdx = make(map[int32]int32)
	}
	clear(c.opIdx)
	c.ops = c.ops[:0]
	if cap(c.reqOp) < len(reqs) {
		c.reqOp = make([]int32, len(reqs))
	}
	c.reqOp = c.reqOp[:len(reqs)]
	base := reqs[0].Arrival
	for i := range reqs {
		r := &reqs[i]
		if c.OpWindowLimit > 0 && i > 0 && r.Op < reqs[i-1].Op {
			return res, fmt.Errorf("memctrl: requests not in op order with an op window")
		}
		k, ok := c.opIdx[r.Op]
		if !ok {
			k = int32(len(c.ops))
			c.opIdx[r.Op] = k
			c.ops = append(c.ops, opState{tag: r.Op, start: r.Arrival})
		}
		o := &c.ops[k]
		o.start = min(o.start, r.Arrival)
		o.left++
		c.reqOp[i] = k
		base = min(base, r.Arrival)
	}

	nb := c.ch.Geo.TotalBanks()
	if cap(c.fbanks) < nb {
		c.fbanks = make([]fastBank, nb)
	}
	c.fbanks = c.fbanks[:nb]
	for i := range c.fbanks {
		bq := &c.fbanks[i]
		for nd := bq.head; nd != nil; { // reclaim nodes of an aborted drain
			nx := nd.next
			c.freeNode(nd)
			nd = nx
		}
		stamp := bq.stamp
		*bq = fastBank{fb: int32(i), stamp: stamp + 1, salp: c.ch.IsSALP(i)}
	}
	c.rheap.es = c.rheap.es[:0]
	c.wheap.es = c.wheap.es[:0]
	c.wact.es = c.wact.es[:0]
	c.ready.es = c.ready.es[:0]
	c.dirty = c.dirty[:0]

	limit := c.InflightLimit
	if limit <= 0 {
		limit = DefaultInflight
	}
	st := fastState{reqs: reqs, res: res, limit: limit, remaining: len(reqs),
		watermark: reqs[0].Op, arrBase: base}
	for st.next < len(reqs) && st.next < limit && c.opEligible(&st, st.next) {
		c.fastAdmit(&st, st.next, 0)
		st.inflight++
		if reqs[st.next].Write {
			st.pendWR++
		}
		st.next++
	}

	st.hi = c.WriteHighWatermark
	if st.hi <= 0 {
		st.hi = 16
	}
	st.lo = c.WriteLowWatermark
	if st.lo <= 0 {
		st.lo = 2
	}

	for st.remaining > 0 {
		if st.pendWR >= st.hi {
			st.draining = true
		} else if st.pendWR <= st.lo {
			st.draining = false
		}
		c.flushDirty(st.now)
		bq, nd, isRD, earliest, ok := c.popBest(st.now, st.draining)
		if !ok {
			return st.res, fmt.Errorf("memctrl: no candidate with %d requests remaining", st.remaining)
		}
		loc := nd.req.Loc
		loc.Col += nd.nextCol
		st.now = max(st.now, earliest)
		if !isRD {
			c.ch.IssueACT(loc, earliest)
			nd.acted = true
			c.markDirty(bq, true)
			continue
		}
		var done sim.Cycle
		if nd.req.Write {
			_, done = c.ch.IssueWR(loc, earliest)
		} else {
			_, done = c.ch.IssueRD(loc, nd.req.Consumer, earliest)
		}
		if nd.nextCol++; nd.nextCol < nd.req.Cols {
			c.markDirty(bq, false) // re-key: the bank's choice stands
			continue
		}
		c.fastComplete(&st, bq, nd, done)
	}
	st.res.OpLatency = make([]sim.Cycle, len(c.ops))
	for k := range c.ops {
		st.res.OpLatency[k] = c.ops[k].end - c.ops[k].start
	}
	return st.res, nil
}

// opEligible mirrors the reference op-window admission gate.
func (c *Controller) opEligible(st *fastState, i int) bool {
	return c.OpWindowLimit <= 0 ||
		int(st.reqs[i].Op-st.watermark) < c.OpWindowLimit
}

// fastAdmit places request i at the tail of its bank queue, no earlier
// than `at` (the time its controller queue slot freed).
func (c *Controller) fastAdmit(st *fastState, i int, at sim.Cycle) {
	r := &st.reqs[i]
	fb := c.ch.Geo.FlatBank(r.Loc)
	nd := c.newNode()
	nd.req, nd.idx, nd.op, nd.admitted = r, i, c.reqOp[i], at
	nd.key = uint64(r.Arrival-st.arrBase)<<keyArrShift | uint64(fb)<<keyBankShift
	bq := &c.fbanks[fb]
	nd.prev = bq.tail
	if bq.tail != nil {
		bq.tail.next = nd
	} else {
		bq.head = nd
	}
	bq.tail = nd
	bq.n++
	c.markDirty(bq, true)
}

// fastComplete records a finished request, frees its node and queue slot,
// advances the op-window watermark, and admits the next eligible requests.
func (c *Controller) fastComplete(st *fastState, bq *fastBank, nd *fnode, done sim.Cycle) {
	res := &st.res
	res.Done[nd.idx] = done
	res.Finish = max(res.Finish, done)
	o := &c.ops[nd.op]
	o.end = max(o.end, done)
	if nd.acted {
		res.RowMisses++
	} else {
		res.RowHits++
	}
	if nd.req.Write {
		st.pendWR--
	}
	c.unlink(bq, nd)
	c.freeNode(nd)
	st.remaining--
	st.inflight--
	if c.OpWindowLimit > 0 {
		// Ops are in tag order under a window, so the dense walk stops at
		// the same op as the reference's walk over tag values.
		o.left--
		for st.wm < len(c.ops) && c.ops[st.wm].left == 0 {
			st.wm++
		}
		if st.wm < len(c.ops) {
			st.watermark = c.ops[st.wm].tag
		}
	}
	// Queue slots free when data is delivered; admit the next requests
	// (in arrival order) that fit both the slot budget and the op window.
	for st.inflight < st.limit && st.next < len(st.reqs) && c.opEligible(st, st.next) {
		c.fastAdmit(st, st.next, done)
		if st.reqs[st.next].Write {
			st.pendWR++
		}
		st.next++
		st.inflight++
	}
	c.markDirty(bq, true)
}

// markDirty queues the bank for fresh heap entries before the next
// arbitration, re-choosing its candidates first when rechoose is set.
func (c *Controller) markDirty(bq *fastBank, rechoose bool) {
	bq.rechoose = bq.rechoose || rechoose
	if !bq.dirty {
		bq.dirty = true
		c.dirty = append(c.dirty, bq.fb)
	}
}

// flushDirty pushes fresh heap entries for every dirty bank (re-choosing
// where needed); the stamp bump retires the bank's stale entries in place.
func (c *Controller) flushDirty(now sim.Cycle) {
	for _, fb := range c.dirty {
		bq := &c.fbanks[fb]
		bq.dirty = false
		bq.stamp++
		if bq.rechoose {
			bq.rechoose = false
			if bq.n == 0 {
				bq.cand, bq.cand2 = nil, nil
				continue
			}
			c.fastChoose(bq)
		}
		c.pushEntry(bq, 0, now)
		if bq.cand2 != nil {
			c.pushEntry(bq, 1, now)
		}
	}
	c.dirty = c.dirty[:0]
}

// fastChoose mirrors Reference.choose on the linked queue: the oldest
// row-hit within the window if any, otherwise the queue head's activation;
// for SALP banks additionally the oldest windowed idle-subarray lookahead
// activation (never the head).
func (c *Controller) fastChoose(bq *fastBank) {
	bq.cand2 = nil
	limit := min(bq.n, c.window)
	var hit *fnode
	pos := 0
	for nd := bq.head; nd != nil && pos < limit; nd, pos = nd.next, pos+1 {
		loc := nd.req.Loc
		loc.Col += nd.nextCol
		if c.ch.RowOpen(loc) {
			if hit == nil {
				hit = nd
			}
			continue
		}
		if bq.cand2 == nil && pos > 0 && !nd.acted && bq.salp {
			if _, open := c.ch.OpenRowAt(loc); !open {
				bq.cand2 = nd // idle-subarray lookahead activation
			}
		}
	}
	if hit != nil {
		bq.cand, bq.candRD, bq.candClass = hit, true, 0
		return
	}
	head := bq.head
	loc := head.req.Loc
	loc.Col += head.nextCol
	class := uint64(1)
	if _, open := c.ch.OpenRowAt(loc); open {
		class = 2 // needs a (local) precharge first
	}
	if c.policy == FRFCFS {
		// Plain FR-FCFS does not distinguish idle activations from
		// conflicts (paper §4.1).
		class = 1
	}
	bq.cand, bq.candRD, bq.candClass = head, false, class
}

// candTime computes the exact earliest issue time of a candidate at `now`
// — the same query the reference eval makes.
func (c *Controller) candTime(nd *fnode, isRD bool, now sim.Cycle) sim.Cycle {
	loc := nd.req.Loc
	loc.Col += nd.nextCol
	at := max(now, nd.req.Arrival, nd.admitted)
	switch {
	case isRD && nd.req.Write:
		return c.ch.EarliestWR(loc, at)
	case isRD:
		return c.ch.EarliestRD(loc, nd.req.Consumer, at)
	default:
		return c.ch.EarliestACT(loc, at)
	}
}

// candOf returns the bank's candidate of one kind, whether it is a column
// command and its priority class (a lookahead is always an idle-subarray
// activation).
func (bq *fastBank) candOf(kind uint64) (nd *fnode, isRD bool, class uint64) {
	if kind == 0 {
		return bq.cand, bq.candRD, bq.candClass
	}
	return bq.cand2, false, 1
}

// pushEntry inserts the bank's candidate of one kind into its heap: the
// read heap, or (invisible unless draining) the write or write-ACT heap.
func (c *Controller) pushEntry(bq *fastBank, kind uint64, now sim.Cycle) {
	nd, isRD, class := bq.candOf(kind)
	bq.ep[kind] = c.ch.EpochOf(nd.req.Loc)
	e := entry{time: c.candTime(nd, isRD, now), key: class<<keyClassShift | nd.key | kind, stamp: bq.stamp}
	switch {
	case !nd.req.Write:
		c.rheap.push(e)
	case isRD:
		c.wheap.push(e)
	default:
		c.wact.push(e)
	}
}

// promote moves every live write-column entry whose bound is at most the
// write floor into the ready heap, where all share the floor as their time
// (stored as 0, so the heap orders them by tie key alone).
func (c *Controller) promote(floor sim.Cycle) {
	for e := c.wheap.top(); e != nil && e.time <= floor; e = c.wheap.top() {
		if e.stamp == c.fbanks[e.key>>keyBankShift&(maxBanks-1)].stamp {
			c.ready.push(entry{key: e.key, stamp: e.stamp})
		}
		c.wheap.pop()
	}
}

// popBest returns the command that can issue first across all banks —
// the same answer as the reference scan. Stale-stamp entries are
// discarded; an entry whose timing epochs are unchanged (and whose bound
// time has not been overtaken by `now`) is exact and wins immediately;
// otherwise one Earliest* query re-keys it and the heaps re-order. Ready
// writes compete at the write floor (see the file comment). When no read
// command exists at all, writes compete for this pick only (the
// deferred-write fallback).
func (c *Controller) popBest(now sim.Cycle, draining bool) (bq *fastBank, nd *fnode, isRD bool, t sim.Cycle, ok bool) {
	floor := c.ch.WRFloor(now)
	for {
		h, best := &c.rheap, c.rheap.top()
		if draining {
			c.promote(floor)
			if wt := c.wact.top(); wt != nil && (best == nil || entryLess(wt, best)) {
				h, best = &c.wact, wt
			}
			// Ready writes sit at the floor, below every write left in
			// the write heap.
			if rt := c.ready.top(); rt != nil {
				if best == nil || floor < best.time || floor == best.time && rt.key < best.key {
					h, best = &c.ready, rt
				}
			} else if wt := c.wheap.top(); wt != nil && (best == nil || entryLess(wt, best)) {
				h, best = &c.wheap, wt
			}
		}
		if best == nil {
			if !draining && len(c.wheap.es)+len(c.wact.es)+len(c.ready.es) > 0 {
				// No read can issue: let the writes through after all.
				draining = true
				continue
			}
			return nil, nil, false, 0, false
		}
		e := &h.es[0]
		bank := &c.fbanks[e.key>>keyBankShift&(maxBanks-1)]
		if e.stamp != bank.stamp {
			h.pop()
			continue
		}
		kind := e.key & 1
		cnd, rd, _ := bank.candOf(kind)
		if h == &c.ready {
			tt, re := c.candTime(cnd, rd, now), *e
			h.pop()
			if tt <= floor {
				return bank, cnd, rd, tt, true
			}
			c.rekeys++
			re.time = tt
			bank.ep[kind] = c.ch.EpochOf(cnd.req.Loc)
			c.wheap.push(re)
			continue
		}
		// Cheap staleness re-check: unchanged epochs + unovertaken bound
		// => the key is provably exact (Earliest* is monotone in both
		// its time argument and the channel state).
		if e.time >= now && c.ch.EpochOf(cnd.req.Loc) == bank.ep[kind] {
			tt := e.time
			h.pop()
			return bank, cnd, rd, tt, true
		}
		tt := c.candTime(cnd, rd, now)
		if tt > e.time {
			c.rekeys++
			e.time = tt
			bank.ep[kind] = c.ch.EpochOf(cnd.req.Loc)
			h.fixTop()
			continue
		}
		h.pop()
		return bank, cnd, rd, tt, true
	}
}

func (c *Controller) unlink(bq *fastBank, nd *fnode) {
	if nd.prev != nil {
		nd.prev.next = nd.next
	} else {
		bq.head = nd.next
	}
	if nd.next != nil {
		nd.next.prev = nd.prev
	} else {
		bq.tail = nd.prev
	}
	bq.n--
}

// newNode takes a pooled node (allocating a fresh chunk only when the pool
// is dry); freeNode returns one. The pool lives on the Controller under
// the single-goroutine contract.
func (c *Controller) newNode() *fnode {
	if c.free == nil {
		chunk := make([]fnode, 64)
		for i := range chunk {
			chunk[i].next = c.free
			c.free = &chunk[i]
		}
	}
	nd := c.free
	c.free = nd.next
	*nd = fnode{}
	return nd
}

func (c *Controller) freeNode(nd *fnode) {
	*nd = fnode{next: c.free}
	c.free = nd
}
