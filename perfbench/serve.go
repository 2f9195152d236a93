package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"time"

	"genedit"
	"genedit/internal/task"
)

// question is one distinct request of a workload's stream.
type question struct {
	db, text, evidence string
}

func questionsOf(cases []*task.Case) []question {
	qs := make([]question, len(cases))
	for i, c := range cases {
		qs[i] = question{db: c.DB, text: c.Question, evidence: c.Evidence}
	}
	return qs
}

// answer is what the service returned for one question.
type answer struct {
	sql string
	ok  bool
}

// answerKey identifies a served answer: a question at one knowledge version
// of its database (always 0 on workloads without edits).
type answerKey struct {
	q       int32
	version int
}

// miss is one response that ran the pipeline (not served from the
// generation cache), in the order the client saw it.
type miss struct {
	key answerKey
	answer
}

// stream draws a client's question indices. It is a pure function of the
// workload seed.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	n    int
}

// newStream returns a uniform stream over n questions, or a Zipf-skewed one
// (exponent s > 1) when zipfS is set.
func newStream(seed uint64, n int, zipfS float64) *stream {
	st := &stream{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), n: n}
	if zipfS > 1 {
		// The popularity order is part of the workload, not of the seed:
		// every seed asks the same hot questions in a different sequence,
		// so runs differ by sampling only.
		st.perm = rand.New(rand.NewPCG(suiteSeed, 0x5eed)).Perm(n)
		st.zipf = rand.NewZipf(st.rng, zipfS, 1, uint64(n-1))
	}
	return st
}

func (s *stream) next() int {
	if s.zipf != nil {
		return s.perm[s.zipf.Uint64()]
	}
	return s.rng.IntN(s.n)
}

// client is one closed-loop caller's record of the timed phase.
type client struct {
	lat       latencies
	cachedLat time.Duration
	cached    int64
	uncached  time.Duration
	errs      int64
	// failedSQL counts uncached responses whose final SQL failed: the
	// modeled LLM failures, which are outcomes, not errors.
	failedSQL int64
	misses    []miss
	// answers holds the first answer seen per key; later answers for the
	// same key must match it.
	answers map[answerKey]answer
	// mismatches are keys whose answers disagreed.
	mismatches []string
}

// timedPhase is the timed phase's start and deadline.
type timedPhase struct {
	start, deadline time.Time
}

func newTimedPhase(d time.Duration) timedPhase {
	now := time.Now()
	return timedPhase{start: now, deadline: now.Add(d)}
}

func (c *client) record(key answerKey, resp *genedit.Response, d time.Duration) {
	c.lat = append(c.lat, d)
	a := answer{sql: resp.SQL, ok: resp.OK}
	if resp.Cached {
		c.cached++
		c.cachedLat += d
	} else {
		c.uncached += d
		c.misses = append(c.misses, miss{key: key, answer: a})
		if !resp.OK {
			c.failedSQL++
		}
	}
	if first, ok := c.answers[key]; !ok {
		c.answers[key] = a
	} else if first != a && len(c.mismatches) < 10 {
		c.mismatches = append(c.mismatches, fmt.Sprintf("question %d at version %d: %q then %q", key.q, key.version, first.sql, a.sql))
	}
}

// versionFunc reports the knowledge version a database is serving; nil
// means the workload never edits knowledge.
type versionFunc func(db string) int

// newClient returns an empty client record.
func newClient() *client { return &client{answers: make(map[answerKey]answer)} }

// call sends the stream's next request and records it. Latency is the
// Generate call alone.
func (c *client) call(ctx context.Context, svc *genedit.Service, qs []question, st *stream, version versionFunc) {
	i := st.next()
	q := qs[i]
	v := 0
	if version != nil {
		v = version(q.db)
	}
	start := time.Now()
	resp, err := svc.Generate(ctx, genedit.Request{Database: q.db, Question: q.text, Evidence: q.evidence})
	d := time.Since(start)
	if err != nil {
		c.errs++
		return
	}
	// Approvals run on the same goroutine as reads, so the version read
	// before the call is the one that served it.
	c.record(answerKey{q: int32(i), version: v}, resp, d)
}

// closedLoop runs one client: it sends its next request as soon as the
// previous one returns, until the deadline.
func closedLoop(ctx context.Context, svc *genedit.Service, qs []question, st *stream, tp timedPhase) *client {
	c := newClient()
	for time.Now().Before(tp.deadline) {
		c.call(ctx, svc, qs, st, nil)
	}
	return c
}

// runtimeSample is a snapshot of the Go runtime counters a timed phase is
// measured against.
type runtimeSample struct {
	at       time.Time
	mallocs  uint64
	numGC    uint32
	pauseNs  uint64
	gcCPU    float64
	totalCPU float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{
		at:       time.Now(),
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		pauseNs:  ms.PauseTotalNs,
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
	}
}

// phase is the runtime cost of a timed phase.
type phase struct {
	elapsed  time.Duration
	allocs   uint64
	gcCycles uint32
	gcPause  time.Duration
	gcCPU    float64
}

func since(start runtimeSample) phase {
	end := sampleRuntime()
	return phase{
		elapsed:  end.at.Sub(start.at),
		allocs:   end.mallocs - start.mallocs,
		gcCycles: end.numGC - start.numGC,
		gcPause:  time.Duration(end.pauseNs - start.pauseNs),
		gcCPU:    ratio(end.gcCPU-start.gcCPU, end.totalCPU-start.totalCPU),
	}
}

// liveHeapMB forces full collections and returns the live heap. It
// collects twice: sync.Pool contents survive the first collection in the
// pools' victim caches, and how much those hold depends on the moment the
// timed phase stopped.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// reportServing records the end-to-end metrics of a serving phase and its
// outcome counts, and returns the client's misses. busy is the time the
// client was sending requests, over which rps is taken. keep is retained
// until the heap has been measured.
func reportServing(rep *report, size sizes, c *client, ph phase, busy time.Duration, keep any) []miss {
	for _, m := range c.mismatches {
		rep.check(false, "inconsistent answers: %s", m)
	}
	errs, failedSQL, cached, misses := c.errs, c.failedSQL, c.cached, c.misses
	calls := int64(len(c.lat)) + errs
	sum := summarize(c.lat)
	c.lat = nil
	rep.ops(calls, errs)
	n := sum.n()
	rep.check(n > 0, "no Generate call completed")
	rep.check(!size.requireP99 || sum.supported(99), "p99 needs at least 10 samples beyond it, have %d samples", n)
	rep.endToEnd("rps", float64(n)/busy.Seconds(), "1/s", n)
	rep.endToEnd("p50_ms", sum.ms(50), "ms", n)
	rep.endToEnd("p99_ms", sum.ms(99), "ms", n)
	if p, ok := sum.tail(); ok {
		rep.info("tail: highest percentile with >=10 samples beyond it is p%g = %.4f ms (n=%d)", p, sum.ms(p), n)
	}
	rep.endToEnd("allocs_per_op", ratio(float64(ph.allocs), float64(calls)), "count", int(calls))
	sum = summary{}
	rep.endToEnd("heap_mb", liveHeapMB(), "MB", 1)
	runtime.KeepAlive(keep)
	rep.info("outcomes: %d Generate calls: %d served, %d errors returned (error_ratio %.6f), %d modeled failed-SQL records (%.4f of uncached)",
		calls, n, errs, ratio(float64(errs), float64(calls)), failedSQL, ratio(float64(failedSQL), float64(len(misses))))
	rep.layer("gencache.hit_us", ratio(float64(c.cachedLat.Microseconds()), float64(cached)), "us", int(cached))
	rep.layer("gencache.miss_ms", ratio(float64(c.uncached)/1e6, float64(int64(n)-cached)), "ms", n-int(cached))
	rep.layer("runtime.gc_cycles", float64(ph.gcCycles), "count", 1)
	rep.layer("runtime.gc_pause_ms", float64(ph.gcPause)/1e6, "ms", int(ph.gcCycles))
	rep.layer("runtime.gc_cpu_ratio", ph.gcCPU, "ratio", 1)
	return misses
}

// reportCache records the generation-cache layer and returns the share of
// requests served without a pipeline run (hits and coalesced), and the
// number of distinct questions in the stream per cache entry.
func reportCache(rep *report, svc *genedit.Service, distinct int) (served, distinctPerCapacity float64) {
	st := svc.GenerationCacheStats()
	total := st.Hits + st.Misses + st.Coalesced
	rep.layer("gencache.hit_ratio", ratio(float64(st.Hits), float64(total)), "ratio", int(total))
	rep.layer("gencache.coalesced", float64(st.Coalesced), "count", int(total))
	served = ratio(float64(st.Hits+st.Coalesced), float64(total))
	distinctPerCapacity = ratio(float64(distinct), float64(st.Capacity))
	rep.info("gencache: %d hits / %d misses / %d coalesced; %d distinct questions against capacity %d",
		st.Hits, st.Misses, st.Coalesced, distinct, st.Capacity)
	return served, distinctPerCapacity
}
