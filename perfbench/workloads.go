package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"genedit"
	"genedit/internal/embed"
	"genedit/internal/eval"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
	"genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/simllm"
	"genedit/internal/workload"
)

// The suite and model seeds are the ones every committed exhibit uses, so
// paper-tables can be checked against BENCH_0.json. --seed drives the
// request streams, the SME's case choices and the evaluation order.
const (
	suiteSeed = 1
	modelSeed = 42
)

// sizes are the workload dimensions. The benchmark runs fullSize; the
// smoke test runs tinySize.
type sizes struct {
	// Set-up runs at least setupReps times and until setupTime has passed,
	// so even a cheap set-up gives a steady median.
	setupReps int
	setupTime time.Duration
	// cacheSize is the generation-cache capacity (the daemon default).
	cacheSize int
	// longTailDBFactor clones every domain into this many databases.
	longTailDBFactor int
	// liveKnowledgeFactor multiplies each database's query-log knowledge,
	// pushing its retrieval indexes onto the ANN path.
	liveKnowledgeFactor int
	// minEdits is the fewest approved edits a live-edits run accepts, so
	// its edit p90 has ten samples beyond it.
	minEdits int
	// maxReplays bounds the cache misses a traced run replays.
	maxReplays int
	// requireP99 fails a run whose p99 has fewer than ten samples beyond
	// it; the smoke test's runs are too short to meet it.
	requireP99 bool
}

var fullSize = sizes{
	setupReps:           3,
	setupTime:           time.Second,
	cacheSize:           1024,
	longTailDBFactor:    40,
	liveKnowledgeFactor: 10,
	minEdits:            100,
	maxReplays:          1500,
	requireP99:          true,
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(options, *report) error{
	"recurring":    runRecurring,
	"long-tail":    runLongTail,
	"live-edits":   runLiveEdits,
	"paper-tables": runPaperTables,
}

// recurringZipf is the popularity skew of recurring questions.
const recurringZipf = 1.2

// runRecurring serves the standard suite's questions with Zipf-skewed
// repeats: nearly every request is answered by the generation cache.
func runRecurring(opt options, rep *report) error {
	return runServing(opt, rep, func() *workload.Suite { return workload.NewSuite(suiteSeed) }, recurringZipf,
		func(served, distinctPerCap, annShare float64) {
			rep.property("gencache_served_share", served, served > 0.99, "> 0.99")
			rep.property("distinct_per_cache_capacity", distinctPerCap, distinctPerCap < 1, "< 1")
		})
}

// runLongTail serves 5,760 distinct questions uniformly, 5.6x the cache
// capacity: almost every request runs the whole operator chain, with
// retrieval on the plain-scan path.
func runLongTail(opt options, rep *report) error {
	sc := workload.ScaleConfig{DBFactor: opt.size.longTailDBFactor, KnowledgeFactor: 1}
	return runServing(opt, rep, func() *workload.Suite { return workload.NewScaledSuite(suiteSeed, sc) }, 0,
		func(served, distinctPerCap, annShare float64) {
			rep.property("gencache_served_share", served, served < 0.5, "< 0.5")
			rep.property("distinct_per_cache_capacity", distinctPerCap, distinctPerCap > 1, "> 1")
			rep.property("embed.ann_share", annShare, annShare == 0, "== 0")
		})
}

// newService builds a service at the daemon defaults: generation cache on,
// admission and miner off, ANN retrieval on at its default threshold.
func newService(suite *workload.Suite, size sizes, reg *metrics.Registry, opts ...genedit.Option) *genedit.Service {
	opts = append([]genedit.Option{
		genedit.WithModelSeed(modelSeed),
		genedit.WithGenerationCache(size.cacheSize),
		genedit.WithMetrics(reg),
	}, opts...)
	return genedit.NewService(suite, opts...)
}

// timedSetup runs build at least size.setupReps times and until
// size.setupTime has passed, records the median as setup_s and returns the
// last build; earlier builds are handed to release.
func timedSetup[T any](rep *report, size sizes, build func() (T, error), release func(T)) (T, error) {
	var (
		out   T
		times []float64
		total time.Duration
	)
	for i := 0; i < size.setupReps || total < size.setupTime; i++ {
		if i > 0 {
			release(out)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return out, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		out = v
	}
	rep.endToEnd("setup_s", median(times), "s", len(times))
	return out, nil
}

// runServing is the closed-loop read workload shared by recurring and
// long-tail; properties checks the workload's defining shares. It runs one
// client. On a 2-vCPU machine two clients kept both vCPUs busy, so their
// throughput followed how much of the shared host a run was given, and on
// recurring the hit path's few microseconds were dominated by contention
// on the cache; one client leaves a vCPU to the garbage collector.
func runServing(opt options, rep *report, newSuite func() *workload.Suite, zipfS float64,
	properties func(served, distinctPerCap, annShare float64)) error {
	ctx := context.Background()
	type world struct {
		suite *workload.Suite
		svc   *genedit.Service
	}
	w, err := timedSetup(rep, opt.size, func() (world, error) {
		suite := newSuite()
		svc := newService(suite, opt.size, metrics.NewRegistry())
		return world{suite, svc}, svc.Prewarm(ctx)
	}, func(world) {})
	if err != nil {
		return err
	}
	qs := questionsOf(w.suite.Cases)
	runtime.GC()
	start := sampleRuntime()
	tp := newTimedPhase(opt.duration)
	c := closedLoop(ctx, w.svc, qs, newStream(opt.seed, len(qs), zipfS), tp)
	ph := since(start)
	misses := reportServing(rep, opt.size, c, ph, ph.elapsed, w.svc)
	answers := c.answers
	served, distinctPerCap := reportCache(rep, w.svc, len(qs))
	properties(served, distinctPerCap, annShare(rep, sumRetrieval(embed.SearchStats{}, w.svc.RetrievalStats())))

	w.svc = nil
	if err := checkReference(ctx, rep, w.suite, qs, answers, w.suite.BuildKnowledge); err != nil {
		return err
	}
	if opt.trace {
		return traceReplay(ctx, rep, opt, w.suite, missItems(qs, misses, nil), w.suite.BuildKnowledge)
	}
	return nil
}

// sumRetrieval adds the example- and instruction-index search counters of
// every engine to out.
func sumRetrieval(out embed.SearchStats, stats map[string]pipeline.RetrievalStats) embed.SearchStats {
	for _, rs := range stats {
		for _, st := range []embed.SearchStats{rs.Examples, rs.Instructions} {
			out.Searches += st.Searches
			out.ANNSearches += st.ANNSearches
			out.CandidatesScanned += st.CandidatesScanned
			out.FullSweeps += st.FullSweeps
		}
	}
	return out
}

// annShare returns the share of searches that took the partitioned (ANN)
// path.
func annShare(rep *report, st embed.SearchStats) float64 {
	rep.info("retrieval: %d searches, %d on the ANN path, %.1f candidates per search",
		st.Searches, st.ANNSearches, ratio(float64(st.CandidatesScanned), float64(st.Searches)))
	return ratio(float64(st.ANNSearches), float64(st.Searches))
}

// referenceModel is the simulated model every service engine runs.
func referenceModel(suite *workload.Suite) *simllm.Model {
	return simllm.New(simllm.GenEditProfile(), suite.Registry, modelSeed)
}

// buildEngines builds one benchmark-owned engine per database, in
// parallel, with the service's default configuration.
func buildEngines(ctx context.Context, suite *workload.Suite, dbs []string, ksetFor func(string) (*knowledge.Set, error),
	model llm.Model) (map[string]*pipeline.Engine, error) {
	engines := make([]*pipeline.Engine, len(dbs))
	errs := make([]error, len(dbs))
	eval.ForEach(ctx, runtime.GOMAXPROCS(0), len(dbs), func(i int) {
		kset, err := ksetFor(dbs[i])
		if err != nil {
			errs[i] = err
			return
		}
		engines[i] = pipeline.New(model, kset, suite.Databases[dbs[i]], pipeline.DefaultConfig())
	})
	out := make(map[string]*pipeline.Engine, len(dbs))
	for i, db := range dbs {
		if errs[i] != nil {
			return nil, fmt.Errorf("building engine for %s: %w", db, errs[i])
		}
		out[db] = engines[i]
	}
	return out, nil
}

// checkReference regenerates every served answer on a benchmark-built
// engine with no cache and checks the SQL and OK flag match.
func checkReference(ctx context.Context, rep *report, suite *workload.Suite, qs []question, answers map[answerKey]answer,
	ksetFor func(string) (*knowledge.Set, error)) error {
	keys := make([]answerKey, 0, len(answers))
	dbSet := make(map[string]bool)
	for k := range answers {
		keys = append(keys, k)
		dbSet[qs[k.q].db] = true
	}
	slices.SortFunc(keys, func(a, b answerKey) int { return int(a.q) - int(b.q) })
	dbs := make([]string, 0, len(dbSet))
	for db := range dbSet {
		dbs = append(dbs, db)
	}
	slices.Sort(dbs)
	engines, err := buildEngines(ctx, suite, dbs, ksetFor, referenceModel(suite))
	if err != nil {
		return err
	}
	var (
		mu         sync.Mutex
		mismatches int
		genErrs    []error
	)
	eval.ForEach(ctx, runtime.GOMAXPROCS(0), len(keys), func(i int) {
		k := keys[i]
		q := qs[k.q]
		rec, err := engines[q.db].GenerateContext(ctx, q.text, q.evidence)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			genErrs = append(genErrs, err)
			return
		}
		if got := answers[k]; got.sql != rec.FinalSQL || got.ok != rec.OK {
			mismatches++
			if mismatches <= 5 {
				rep.check(false, "served answer for %s %q differs from the reference engine: %q (ok %v) vs %q (ok %v)",
					q.db, q.text, got.sql, got.ok, rec.FinalSQL, rec.OK)
			}
		}
	})
	if len(genErrs) > 0 {
		return fmt.Errorf("reference generation: %w", genErrs[0])
	}
	rep.check(mismatches == 0, "%d of %d served answers differ from the reference engine", mismatches, len(keys))
	rep.info("reference check: %d distinct served answers regenerated without cache, %d mismatches", len(keys), mismatches)
	return nil
}

// missItems turns cache misses into replay items. final, when set, is the
// knowledge version each database ended on: only misses served at that
// version are checked against their replay.
func missItems(qs []question, misses []miss, final map[string]int) []replayItem {
	items := make([]replayItem, len(misses))
	for i, m := range misses {
		q := qs[m.key.q]
		items[i] = replayItem{q: q, sql: m.sql, ok: m.ok, check: final == nil || final[q.db] == m.key.version, withOK: true}
	}
	return items
}
