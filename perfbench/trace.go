package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"genedit/internal/embed"
	"genedit/internal/knowledge"
	"genedit/internal/llm"
	"genedit/internal/pipeline"
	"genedit/internal/schema"
	"genedit/internal/sqlexec"
	"genedit/internal/sqlparse"
	"genedit/internal/workload"
)

// span is one timed interval of a traced run. Spans of one replayed
// request share req; parent is the id of the enclosing span (0 for a
// request's root).
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent"`
	Req    int       `json:"req"`
	Name   string    `json:"name"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its id.
func (l *spanLog) add(req, parent int, name string, start, end time.Time) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// write stores the spans as JSON lines, times in nanoseconds from the start
// of the run.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		line := struct {
			span
			StartNs int64 `json:"start_ns"`
			EndNs   int64 `json:"end_ns"`
		}{s, s.Start.Sub(l.t0).Nanoseconds(), s.End.Sub(l.t0).Nanoseconds()}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// modelCall is one timed call into the model.
type modelCall struct {
	kind       string
	start, end time.Time
}

// timedModel decorates an llm.Model, recording every call. It forwards
// llm.ClauseEditor so the pipeline takes the same code path as with the
// bare model. Calls are recorded into one buffer: a timedModel serves one
// goroutine.
type timedModel struct {
	inner llm.Model
	calls []modelCall
}

func (m *timedModel) note(kind string, start time.Time) {
	m.calls = append(m.calls, modelCall{kind: kind, start: start, end: time.Now()})
}

func (m *timedModel) Reformulate(q string) (string, error) {
	defer m.note("reformulate", time.Now())
	return m.inner.Reformulate(q)
}

func (m *timedModel) ClassifyIntents(q string, options []llm.IntentOption) ([]string, error) {
	defer m.note("classify", time.Now())
	return m.inner.ClassifyIntents(q, options)
}

func (m *timedModel) LinkSchema(q string, full *schema.Schema, ctx *llm.Context) ([]schema.Element, error) {
	defer m.note("link", time.Now())
	return m.inner.LinkSchema(q, full, ctx)
}

func (m *timedModel) Plan(ctx *llm.Context) (llm.Plan, error) {
	defer m.note("plan", time.Now())
	return m.inner.Plan(ctx)
}

func (m *timedModel) GenerateSQL(ctx *llm.Context, plan llm.Plan) (string, error) {
	defer m.note("generate", time.Now())
	return m.inner.GenerateSQL(ctx, plan)
}

func (m *timedModel) RepairSQL(ctx *llm.Context, plan llm.Plan, priorSQL, execError string) (string, error) {
	defer m.note("repair", time.Now())
	return m.inner.RepairSQL(ctx, plan, priorSQL, execError)
}

// EditClauses forwards llm.ClauseEditor; a model without the capability
// proposes no edits, which sends the pipeline to RepairSQL exactly as the
// bare model would.
func (m *timedModel) EditClauses(ctx *llm.Context, plan llm.Plan, frags []llm.ClauseFragment, execError string) ([]llm.ClauseEdit, error) {
	defer m.note("edit_clauses", time.Now())
	if ed, ok := m.inner.(llm.ClauseEditor); ok {
		return ed.EditClauses(ctx, plan, frags, execError)
	}
	return nil, nil
}

// opOfCall maps each model call to the pipeline operator that makes it.
var opOfCall = map[string]string{
	"reformulate":  "reformulation",
	"classify":     "intent_classification",
	"link":         "schema_linking",
	"plan":         "planning",
	"generate":     "generation_loop",
	"repair":       "generation_loop",
	"edit_clauses": "generation_loop",
}

// selfTimes returns each operator's self time: its duration minus the
// model calls made inside it.
func selfTimes(ops []pipeline.OpTiming, calls []modelCall) map[string]time.Duration {
	out := make(map[string]time.Duration, len(ops))
	for _, op := range ops {
		out[op.Op] += op.Duration
	}
	for _, c := range calls {
		out[opOfCall[c.kind]] -= c.end.Sub(c.start)
	}
	return out
}

// opMetric names the per-layer metric of each pipeline operator.
var opMetric = map[string]string{
	"reformulation":         "pipeline.reformulation_us",
	"intent_classification": "pipeline.intent_us",
	"example_selection":     "pipeline.examples_us",
	"instruction_selection": "pipeline.instructions_us",
	"schema_linking":        "pipeline.schema_link_us",
	"planning":              "pipeline.planning_us",
	"generation_loop":       "pipeline.gen_loop_us",
}

// callMetric names the per-layer metric of each model call kind that has
// one; edit_clauses counts as repair.
var callMetric = map[string]string{
	"link":         "simllm.link_us",
	"plan":         "simllm.plan_us",
	"generate":     "simllm.generate_us",
	"repair":       "simllm.repair_us",
	"edit_clauses": "simllm.repair_us",
}

// replayItem is one request a traced run replays, with the answer the
// untraced run served for it.
type replayItem struct {
	q      question
	sql    string
	ok     bool
	check  bool // sql must match (knowledge unchanged since it was served)
	withOK bool // ok must match too
}

// acc sums a duration and counts its samples.
type acc struct {
	sum time.Duration
	n   int
}

func (a *acc) add(d time.Duration) { a.sum += d; a.n++ }
func (a acc) meanUs() float64      { return ratio(float64(a.sum)/1e3, float64(a.n)) }

// traceReplay replays the untraced run's cache misses through
// benchmark-built engines, each once untraced and once traced, and reports
// the per-layer metrics and the tracing overhead.
func traceReplay(ctx context.Context, rep *report, opt options, suite *workload.Suite, items []replayItem,
	ksetFor func(string) (*knowledge.Set, error)) error {
	if len(items) > opt.size.maxReplays {
		items = items[:opt.size.maxReplays]
	}
	var dbs []string
	for _, it := range items {
		if !slices.Contains(dbs, it.q.db) {
			dbs = append(dbs, it.q.db)
		}
	}
	slices.Sort(dbs)
	plain, err := buildEngines(ctx, suite, dbs, ksetFor, referenceModel(suite))
	if err != nil {
		return err
	}
	tm := &timedModel{inner: referenceModel(suite)}
	traced, err := buildEngines(ctx, suite, dbs, ksetFor, tm)
	if err != nil {
		return err
	}
	execs := make(map[string]*sqlexec.Executor, len(dbs))
	for _, db := range dbs {
		execs[db] = sqlexec.New(suite.Databases[db])
	}

	var (
		untracedLat, tracedLat latencies
		ops                    = make(map[string]*acc)
		calls                  = make(map[string]*acc)
		modelTotal             time.Duration
		nCalls, attempts       int
		firstTry               int
		parse, query           acc
		rows, stmtErrs         int
		mismatches             int
	)
	for _, m := range opMetric {
		ops[m] = &acc{}
	}
	for _, m := range callMetric {
		calls[m] = &acc{}
	}
	for req, it := range items {
		untraced := func() (*pipeline.Record, error) {
			start := time.Now()
			rec, err := plain[it.q.db].GenerateContext(ctx, it.q.text, it.q.evidence)
			untracedLat = append(untracedLat, time.Since(start))
			return rec, err
		}
		// Whichever replay runs second finds the database's rows warm in
		// the CPU caches, so the order alternates.
		var want *pipeline.Record
		if req%2 == 0 {
			if want, err = untraced(); err != nil {
				return fmt.Errorf("untraced replay: %w", err)
			}
		}
		tm.calls = tm.calls[:0]
		var tr pipeline.Trace
		tctx := pipeline.WithTrace(ctx, func(t *pipeline.Trace) { tr = *t })
		start := time.Now()
		rec, err := traced[it.q.db].GenerateContext(tctx, it.q.text, it.q.evidence)
		end := time.Now()
		tracedLat = append(tracedLat, end.Sub(start))
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		if req%2 == 1 {
			if want, err = untraced(); err != nil {
				return fmt.Errorf("untraced replay: %w", err)
			}
		}
		if rec.FinalSQL != want.FinalSQL || rec.OK != want.OK {
			rep.check(false, "traced and untraced replays of %q differ: %q vs %q", it.q.text, rec.FinalSQL, want.FinalSQL)
		}
		if it.check && (rec.FinalSQL != it.sql || (it.withOK && rec.OK != it.ok)) {
			mismatches++
			if mismatches <= 5 {
				rep.check(false, "replayed SQL for %s %q differs from the served SQL: %q vs %q", it.q.db, it.q.text, rec.FinalSQL, it.sql)
			}
		}

		root := rep.spans.add(req, 0, "generate", start, end)
		// pipeline.Trace reports operator durations, not start times, so
		// operator spans are laid end to end from the request's start; model
		// calls carry their own clock readings.
		opSpan := make(map[string]int, len(tr.Ops))
		at := start
		for _, op := range tr.Ops {
			opSpan[op.Op] = rep.spans.add(req, root, op.Op, at, at.Add(op.Duration))
			at = at.Add(op.Duration)
		}
		for _, c := range tm.calls {
			rep.spans.add(req, opSpan[opOfCall[c.kind]], "simllm."+c.kind, c.start, c.end)
			d := c.end.Sub(c.start)
			modelTotal += d
			nCalls++
			if m, ok := callMetric[c.kind]; ok {
				calls[m].add(d)
			}
		}
		for op, d := range selfTimes(tr.Ops, tm.calls) {
			ops[opMetric[op]].add(d)
		}

		attempts += len(rec.Attempts)
		if len(rec.Attempts) > 0 && rec.Attempts[0].Kind == "ok" {
			firstTry++
		}
		// Each attempt's SQL is replayed through a benchmark-owned executor,
		// and its parse is timed on its own.
		for _, att := range rec.Attempts {
			if att.SQL == "" {
				continue
			}
			t0 := time.Now()
			_, _ = sqlparse.Parse(att.SQL) // parse failures are timed like successes; Query reports them
			t1 := time.Now()
			res, qerr := execs[it.q.db].Query(att.SQL)
			t2 := time.Now()
			rep.spans.add(req, opSpan["generation_loop"], "sqlparse.parse", t0, t1)
			rep.spans.add(req, opSpan["generation_loop"], "sqlexec.query", t1, t2)
			parse.add(t1.Sub(t0))
			query.add(t2.Sub(t1))
			if qerr != nil {
				stmtErrs++
			} else {
				rows += len(res.Rows)
			}
		}
	}
	gens := float64(len(items))
	rep.check(mismatches == 0, "%d of %d replayed requests differ from the served SQL", mismatches, len(items))
	rep.info("replay: %d cache misses replayed untraced and traced across %d databases, %d replayed SQL mismatches", len(items), len(dbs), mismatches)
	for _, d := range layerMetrics {
		if a, ok := ops[d.name]; ok {
			rep.layer(d.name, a.meanUs(), "us", a.n)
		}
	}
	rep.layer("pipeline.attempts_per_gen", ratio(float64(attempts), gens), "count", len(items))
	rep.layer("pipeline.first_try_ratio", ratio(float64(firstTry), gens), "ratio", len(items))
	rep.layer("simllm.model_us_per_gen", ratio(float64(modelTotal)/1e3, gens), "us", len(items))
	rep.layer("simllm.calls_per_gen", ratio(float64(nCalls), gens), "count", len(items))
	for _, d := range layerMetrics {
		if a, ok := calls[d.name]; ok {
			rep.layer(d.name, a.meanUs(), "us", a.n)
		}
	}

	stats := make(map[string]pipeline.RetrievalStats, len(traced))
	for db, e := range traced {
		stats[db] = e.RetrievalStats()
	}
	rs := sumRetrieval(embed.SearchStats{}, stats)
	rep.layer("embed.searches_per_gen", ratio(float64(rs.Searches), gens), "count", len(items))
	rep.layer("embed.candidates_per_search", ratio(float64(rs.CandidatesScanned), float64(rs.Searches)), "count", int(rs.Searches))
	rep.layer("embed.ann_share", ratio(float64(rs.ANNSearches), float64(rs.Searches)), "ratio", int(rs.Searches))
	rep.layer("embed.full_sweeps", float64(rs.FullSweeps), "count", int(rs.ANNSearches))

	var hits, missesStmt uint64
	for _, ex := range execs {
		h, m := ex.StatementCacheStats()
		hits += h
		missesStmt += m
	}
	rep.layer("sqlparse.parse_us", parse.meanUs(), "us", parse.n)
	rep.layer("sqlexec.query_us", query.meanUs(), "us", query.n)
	rep.layer("sqlexec.stmts_per_gen", ratio(float64(query.n), gens), "count", len(items))
	rep.layer("sqlexec.rows_per_stmt", ratio(float64(rows), float64(query.n-stmtErrs)), "count", query.n-stmtErrs)
	rep.layer("sqlexec.error_ratio", ratio(float64(stmtErrs), float64(query.n)), "ratio", query.n)
	rep.layer("sqlexec.stmtcache_hit_ratio", ratio(float64(hits), float64(hits+missesStmt)), "ratio", int(hits+missesStmt))

	// Rebuilding an engine's indexes is the work an approval repeats.
	var rebuilds []float64
	for _, db := range dbs[:min(len(dbs), 8)] {
		e := plain[db]
		start := time.Now()
		e.WithKnowledge(e.KnowledgeSet())
		rebuilds = append(rebuilds, float64(time.Since(start))/1e6)
	}
	rep.layer("pipeline.rebuild_ms", median(rebuilds), "ms", len(rebuilds))

	u, t := summarize(untracedLat), summarize(tracedLat)
	rep.info("tracing overhead: replay p50 %.1f us traced vs %.1f us untraced, mean %.1f vs %.1f us (n=%d)",
		float64(t.pct(50))/1e3, float64(u.pct(50))/1e3, float64(t.mean())/1e3, float64(u.mean())/1e3, len(items))
	rep.layer("trace.overhead_us", float64(t.pct(50)-u.pct(50))/1e3, "us", len(items))
	return nil
}
