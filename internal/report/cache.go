package report

import (
	"container/list"
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mcu"
	"repro/internal/obs"
)

// Keyed characterization cache. The suite sweep is the most expensive
// computation in the repo and its result is deterministic in its
// inputs, so every consumer — the table writers, ento.Sweep, the CLIs,
// and every entobenchd HTTP client — shares one cache keyed by a
// content digest of the query (SweepKey: kernel set × board models ×
// harness config × backend salt), reached through Query. Identical
// queries coalesce: the first caller leads the run, concurrent
// identical callers subscribe to the same in-flight entry
// (singleflight) and share its progress stream, and later identical
// callers are served the completed result without re-sweeping.
//
// The cache is one mutex, one map and one LRU order. It is bounded
// exactly: at most SetSweepCacheCapacity completed entries are
// retained, and the least-recently-hit one is evicted first, so a
// long-running entobenchd holds a predictable amount of result memory
// however many distinct queries it has answered. Every critical
// section is a map lookup or a list splice; the sweeps themselves run
// outside the lock.
//
// Cancellation is reference-counted per entry: every caller joined to a
// run holds a subscription, a caller whose context ends merely drops
// its subscription, and only when the last subscriber is gone does the
// entry cancel the underlying sweep (which then lands partial and is
// discarded). A disconnected client therefore cancels only its own
// cells — never a run other clients are still waiting on.
//
// Only complete, healthy sweeps are retained. A partial run — contained
// kernel failures, a watchdog timeout, cancellation — is returned to
// the callers that waited on it but never cached, so the cache can only
// ever serve the full dataset and the next identical query re-sweeps.
//
// A retained entry also owns its encoded v1 JSON export. The export is
// deterministic in the records, so it is rendered at most once per
// entry, lazily, by the first caller that asks for bytes
// (Result.JSON); the leader, coalesced joiners and later hits all get
// that one immutable slice, and a warm entobenchd request is a key
// derivation, a map lookup and a Write. Callers that never ask for
// bytes (the CLIs, the table writers) never pay for them.

// Cache observability counters (docs/observability.md): how often a
// query was answered from a completed entry, how often a sweep actually
// ran, how often identical in-flight queries coalesced, and how many
// completed entries the capacity bound dropped.
var (
	ctrCacheHit       = obs.NewCounter(obs.CounterSweepCacheHit)
	ctrCacheMiss      = obs.NewCounter(obs.CounterSweepCacheMiss)
	ctrCacheCoalesced = obs.NewCounter(obs.CounterSweepCacheCoalesced)
	ctrCacheEvicted   = obs.NewCounter(obs.CounterSweepCacheEvicted)
)

// DefaultSweepCacheCapacity is the default bound on retained completed
// sweeps. Each entry holds one Characterization (records plus cells)
// and, once served, its encoded v1 JSON export (~117 KiB for the full
// default query), so at the default even 64 full-query entries hold
// only about 7.3 MiB of report bytes on top of their records.
const DefaultSweepCacheCapacity = 64

// sweepEntry is one keyed query: in flight until ready is closed, then
// a completed result. Result fields are written by the leading
// goroutine before it retains the entry and closes ready, and read only
// after observing either (a hit sees elem under the cache lock), so
// they need no lock of their own. body is the entry's encoded export,
// written once under encOnce; like the records it is shared by every
// caller and must be treated as read-only.
type sweepEntry struct {
	ready chan struct{}
	elem  *list.Element // LRU position once retained, nil while in flight; guarded by sweepCache.mu
	c     Characterization
	err   error
	keep  bool // complete and healthy: its encoded export may be shared

	encOnce sync.Once
	body    []byte
	encErr  error

	mu      sync.Mutex
	subs    map[int]func(done, skipped, total int)
	nextSub int
	done    bool
	cancel  context.CancelFunc // cancels the run when the last subscriber leaves
}

// subscribe registers a waiter (its progress hook may be nil) and
// returns its id, or -1 when the entry already completed.
func (e *sweepEntry) subscribe(progress func(done, skipped, total int)) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done {
		return -1
	}
	id := e.nextSub
	e.nextSub++
	e.subs[id] = progress
	return id
}

// unsubscribe drops a waiter; when the last one leaves a still-running
// entry, the underlying sweep is canceled. Reports whether this call
// was the one that canceled the run.
func (e *sweepEntry) unsubscribe(id int) bool {
	if id < 0 {
		return false
	}
	e.mu.Lock()
	delete(e.subs, id)
	last := len(e.subs) == 0 && !e.done
	e.mu.Unlock()
	if last {
		e.cancel()
	}
	return last
}

// broadcast fans one progress update out to every subscribed waiter.
// It is the entry's SweepOptions.Progress hook, so it is called
// concurrently from pool workers; subscriber hooks must be
// goroutine-safe, exactly as SweepOptions.Progress demands.
func (e *sweepEntry) broadcast(done, skipped, total int) {
	e.mu.Lock()
	hooks := make([]func(int, int, int), 0, len(e.subs))
	for _, h := range e.subs {
		if h != nil {
			hooks = append(hooks, h)
		}
	}
	e.mu.Unlock()
	for _, h := range hooks {
		h(done, skipped, total)
	}
}

// sweepCache is the process-wide cache. lru lists the retained
// (completed, healthy) keys most-recently-hit first; in-flight entries
// live in the map but not in lru.
type sweepCache struct {
	mu       sync.Mutex
	entries  map[string]*sweepEntry
	lru      list.List
	capacity int
}

var globalSweepCache = &sweepCache{
	entries:  make(map[string]*sweepEntry),
	capacity: DefaultSweepCacheCapacity,
}

// trimLocked evicts least-recently-hit entries until at most capacity
// remain retained.
func (c *sweepCache) trimLocked() {
	for c.lru.Len() > c.capacity {
		delete(c.entries, c.lru.Remove(c.lru.Back()).(string))
		ctrCacheEvicted.Inc()
	}
}

// Result is one answered query: the characterization plus access to
// its encoded v1 JSON export. Callers must treat both the records and
// the bytes as read-only — they are shared with every other caller of
// the same cache entry.
type Result struct {
	Characterization
	entry *sweepEntry // the retained entry whose bytes are shared; nil for partial or failed runs
}

// JSON returns the v1 JSON export, byte-identical to WriteJSON. For a
// complete, healthy run it is encoded at most once per cache entry and
// the same slice is returned to every caller; partial or failed runs
// are never retained, so they encode per call through the same
// encoder.
func (r Result) JSON() ([]byte, error) {
	e := r.entry
	if e == nil {
		return encodeJSON(r.Characterization)
	}
	e.encOnce.Do(func() { e.body, e.encErr = encodeJSON(e.c) })
	return e.body, e.encErr
}

// result wraps a completed entry's outcome for one caller.
func (e *sweepEntry) result() Result {
	r := Result{Characterization: e.c}
	if e.keep {
		r.entry = e
	}
	return r
}

// do serves q from the cache: a completed entry is returned
// immediately (hit), an in-flight identical query is joined
// (coalesced), and a missing key starts a run led by a cache-owned
// goroutine (miss). opts.Context bounds only this caller's wait —
// abandoning it drops one subscription, and the run itself is canceled
// only when no subscriber remains.
func (c *sweepCache) do(q Query, opts core.SweepOptions) (Result, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	key := q.key
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil { // completed, retained: a pure cache hit
			ctrCacheHit.Inc()
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.result(), e.err
		}
		// Identical query in flight: coalesce onto it.
		ctrCacheCoalesced.Inc()
		id := e.subscribe(opts.Progress)
		c.mu.Unlock()
		return waitEntry(ctx, e, id)
	}
	ctrCacheMiss.Inc()
	runCtx, cancel := context.WithCancel(context.Background())
	e := &sweepEntry{
		ready:  make(chan struct{}),
		subs:   make(map[int]func(int, int, int)),
		cancel: cancel,
	}
	id := e.subscribe(opts.Progress) // before the leader starts: the run must not outlive zero subscribers
	c.entries[key] = e
	c.mu.Unlock()
	go c.lead(q, e, runCtx, opts)
	return waitEntry(ctx, e, id)
}

// lead executes the sweep for a fresh entry and publishes the result:
// healthy complete runs are retained (evicting over capacity), partial
// or failed runs are dropped from the map so the next identical query
// re-sweeps. The caller's own cancellation context is ignored here —
// the run obeys runCtx, which ends when the last subscriber leaves.
func (c *sweepCache) lead(q Query, e *sweepEntry, runCtx context.Context, opts core.SweepOptions) {
	opts.Context = runCtx
	opts.Progress = e.broadcast
	recs, err := core.CharacterizeSuiteOpts(q.specs, q.archs, opts)
	e.mu.Lock()
	e.done = true
	e.mu.Unlock()
	e.c, e.err = Characterization{Records: recs}, err
	e.keep = err == nil && !e.c.Partial()
	c.mu.Lock()
	if c.entries[q.key] == e { // not invalidated mid-run
		if e.keep {
			e.elem = c.lru.PushFront(q.key)
			c.trimLocked()
		} else {
			delete(c.entries, q.key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	e.cancel() // release the context; the run has already returned
}

// waitEntry blocks until the entry completes or the caller's context
// ends, whichever is first. A caller whose departure cancels the run
// (it was the last subscriber) collects the canceled run's partial
// result instead of discarding it: the sweep returns promptly once its
// context ends, carrying every cell completed before the cutoff, which
// is what lets a deadline_ms request still render a partial report.
func waitEntry(ctx context.Context, e *sweepEntry, id int) (Result, error) {
	select {
	case <-e.ready:
		e.unsubscribe(id)
		return e.result(), e.err
	case <-ctx.Done():
		if e.unsubscribe(id) {
			// Bounded: a healthy sweep returns within one job's tail of
			// cancellation, but a kernel hung with no watchdog armed never
			// returns — fall back to the bare context error rather than
			// wedging this caller alongside the stuck worker.
			select {
			case <-e.ready:
				return e.result(), e.err
			case <-time.After(cancelCollectGrace):
			}
		}
		return Result{}, ctx.Err()
	}
}

// cancelCollectGrace bounds how long a departing last subscriber waits
// for its canceled run to land a partial result in waitEntry.
const cancelCollectGrace = 2 * time.Second

// invalidate empties the cache, dropping every retained entry's
// encoded bytes with it. In-flight entries are detached — the callers
// waiting on them still get their results, but the results are not
// retained.
func (c *sweepCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[string]*sweepEntry)
	c.lru.Init()
	c.mu.Unlock()
}

// SetSweepCacheCapacity bounds how many completed sweeps the keyed
// cache retains (minimum one). Lowering it evicts least-recently-hit
// entries at once; it never interrupts in-flight runs. entobenchd
// exposes this as -cachecap.
func SetSweepCacheCapacity(n int) {
	c := globalSweepCache
	c.mu.Lock()
	c.capacity = max(n, 1)
	c.trimLocked()
	c.mu.Unlock()
}

// Query is one characterization query — kernel set, board selection
// and measurement backend — with its cache key (SweepKey) derived once,
// at construction. entobenchd builds one per request and hands the
// same value to the admission presence check and the cached run.
type Query struct {
	specs   []core.Spec
	archs   []mcu.Arch
	backend harness.Backend
	key     string
}

// NewQuery builds a query and derives its key. The backend is part of
// the query identity: a trace-backed sweep and the classic sweep of the
// same grid must never share an entry. The classic path (nil or
// canonical simulator) contributes nothing, preserving every pre-seam
// key.
func NewQuery(specs []core.Spec, archs []mcu.Arch, backend harness.Backend) Query {
	return Query{
		specs:   specs,
		archs:   archs,
		backend: backend,
		key:     SweepKey(specs, archs, harness.DefaultConfig(), harness.BackendSalt(backend)),
	}
}

// Key returns the query's sweep-cache key.
func (q Query) Key() string { return q.key }

// Present reports whether the keyed cache already holds an entry —
// completed or in flight — for the query. The server's admission
// controller uses it to let warm and coalescible requests through for
// free: only queries that would start a fresh sweep consume admission
// capacity.
func (q Query) Present() bool {
	c := globalSweepCache
	c.mu.Lock()
	_, ok := c.entries[q.key]
	c.mu.Unlock()
	return ok
}

// Run returns the query's characterization through the keyed cache:
// served from a completed entry when an identical query already ran,
// coalesced onto an identical in-flight run, or computed fresh. The
// query's backend replaces opts.Backend; the other options shape only
// a cache-filling run (the worker count never changes the result). A
// caller's Progress hook is honored for in-flight runs it leads or
// joins, and not invoked on a pure cache hit.
func (q Query) Run(opts core.SweepOptions) (Result, error) {
	opts.Backend = q.backend
	return globalSweepCache.do(q, opts)
}

// RunSweepQuery is NewQuery(specs, archs, opts.Backend).Run(opts)
// returning only the records, and RunCharacterizationOpts is it over the
// full suite and the Table IV set. Both are kept for perfbench; new
// callers use Query (or ento.Sweep) directly. Callers must treat the
// shared records as read-only.
func RunSweepQuery(specs []core.Spec, archs []mcu.Arch, opts core.SweepOptions) (Characterization, error) {
	r, err := NewQuery(specs, archs, opts.Backend).Run(opts)
	return r.Characterization, err
}

// RunCharacterizationOpts: see RunSweepQuery.
func RunCharacterizationOpts(opts core.SweepOptions) (Characterization, error) {
	return RunSweepQuery(core.Suite(), mcu.TableIVSet(), opts)
}

// SweepQueryPresent is NewQuery(specs, archs, be).Present(), kept for
// perfbench's warm-path probes.
func SweepQueryPresent(specs []core.Spec, archs []mcu.Arch, be harness.Backend) bool {
	return NewQuery(specs, archs, be).Present()
}

// InvalidateCharacterization empties the keyed sweep cache so the next
// identical query recomputes — the explicit invalidation hook for
// tests and for callers that mutate the modeled cost parameters.
// Queries already in flight complete for their waiters but are not
// retained.
func InvalidateCharacterization() {
	globalSweepCache.invalidate()
}
