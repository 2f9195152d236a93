package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"genedit/internal/bench"
	"genedit/internal/eval"
	"genedit/internal/pipeline"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// bench0 holds the Table 1 and Table 2 EX rows of the repository's
// BENCH_0.json (a test keeps the copy identical).
//
//go:embed testdata/bench0_ex.json
var bench0 []byte

// exRow is one system's EX row, as BENCH_0.json records it.
type exRow struct {
	System      string  `json:"system"`
	Simple      float64 `json:"ex_simple"`
	Moderate    float64 `json:"ex_moderate"`
	Challenging float64 `json:"ex_challenging"`
	All         float64 `json:"ex_all"`
}

type exBaseline struct {
	Seed      uint64             `json:"seed"`
	ModelSeed uint64             `json:"model_seed"`
	Tables    map[string][]exRow `json:"tables"`
}

func loadBench0() (exBaseline, error) {
	var b exBaseline
	if err := json.Unmarshal(bench0, &b); err != nil {
		return b, fmt.Errorf("decoding embedded BENCH_0 tables: %w", err)
	}
	return b, nil
}

func exRows(reports []*eval.Report) []exRow {
	out := make([]exRow, len(reports))
	for i, r := range reports {
		out[i] = exRow{System: r.System, Simple: r.EX(task.Simple), Moderate: r.EX(task.Moderate),
			Challenging: r.EX(task.Challenging), All: r.EX("")}
	}
	return out
}

// timedSystem decorates an eval.System, timing every Generate call. It
// forwards eval.ContextSystem so the runner takes the same path.
type timedSystem struct {
	inner eval.System
	mu    sync.Mutex
	lat   latencies
}

func (s *timedSystem) Name() string { return s.inner.Name() }

func (s *timedSystem) Generate(c *task.Case) (string, error) {
	return s.GenerateContext(context.Background(), c)
}

func (s *timedSystem) GenerateContext(ctx context.Context, c *task.Case) (string, error) {
	start := time.Now()
	var (
		sql string
		err error
	)
	if cs, ok := s.inner.(eval.ContextSystem); ok {
		sql, err = cs.GenerateContext(ctx, c)
	} else {
		sql, err = s.inner.Generate(c)
	}
	d := time.Since(start)
	s.mu.Lock()
	s.lat = append(s.lat, d)
	s.mu.Unlock()
	return sql, err
}

// tablesPass is one regeneration of Table 1 and Table 2.
type tablesPass struct {
	table1, table2     []*eval.Report
	t1, t2             time.Duration
	genedit, baselines []latencies
	ablations          []latencies
}

// newRunner returns an evaluation runner with one worker. With the default
// pool of GOMAXPROCS workers every vCPU is busy, and throughput follows how
// much of a shared host the run is given: it doubled between identical runs
// on a 2-vCPU VM. One worker leaves a vCPU to the garbage collector.
func newRunner(suite *workload.Suite) *eval.Runner {
	r := eval.NewRunner(suite.Databases)
	r.SetWorkers(1)
	return r
}

// regenerate builds Table 1 as bench.Table1Context does and Table 2 as
// bench.RunAblationsContext(Table2Ablations()) does, with every system
// wrapped in a timedSystem and evaluated by a one-worker runner.
func regenerate(ctx context.Context, suite *workload.Suite, cases []*task.Case) (*tablesPass, error) {
	p := &tablesPass{}
	run := func(runner *eval.Runner, sys eval.System) (*eval.Report, latencies, error) {
		ts := &timedSystem{inner: sys}
		rep, err := runner.RunContext(ctx, ts, cases)
		return rep, ts.lat, err
	}
	start := time.Now()
	runner := newRunner(suite)
	for _, b := range bench.AllBaselines(suite, modelSeed) {
		rep, lat, err := run(runner, b)
		if err != nil {
			return nil, err
		}
		p.table1 = append(p.table1, rep)
		p.baselines = append(p.baselines, lat)
	}
	ge, err := bench.NewGenEditSystem("GenEdit", suite, pipeline.DefaultConfig(), modelSeed)
	if err != nil {
		return nil, err
	}
	rep, lat, err := run(runner, ge)
	if err != nil {
		return nil, err
	}
	p.table1 = append(p.table1, rep)
	p.genedit = append(p.genedit, lat)
	p.t1 = time.Since(start)

	start = time.Now()
	runner = newRunner(suite)
	for _, ab := range bench.Table2Ablations() {
		sys, err := bench.NewGenEditSystem(ab.Name, suite, ab.Cfg, modelSeed)
		if err != nil {
			return nil, err
		}
		rep, lat, err := run(runner, sys)
		if err != nil {
			return nil, err
		}
		p.table2 = append(p.table2, rep)
		p.ablations = append(p.ablations, lat)
	}
	p.t2 = time.Since(start)
	return p, nil
}

// checkTables compares a pass's EX rows with BENCH_0.json bit for bit.
func checkTables(rep *report, base exBaseline, p *tablesPass) {
	for name, got := range map[string][]exRow{"table1": exRows(p.table1), "table2": exRows(p.table2)} {
		want := base.Tables[name]
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		rep.check(same, "%s EX rows differ from BENCH_0.json: got %+v", name, got)
	}
}

// runPaperTables regenerates Table 1 and Table 2 offline, as often as the
// timed phase allows, evaluating the cases in a seed-dependent order.
func runPaperTables(opt options, rep *report) error {
	ctx := context.Background()
	base, err := loadBench0()
	if err != nil {
		return err
	}
	if base.Seed != suiteSeed || base.ModelSeed != modelSeed {
		return fmt.Errorf("embedded baseline seeds (%d, %d) are not the benchmark's (%d, %d)", base.Seed, base.ModelSeed, suiteSeed, modelSeed)
	}
	suite, err := timedSetup(rep, opt.size, func() (*workload.Suite, error) {
		s := workload.NewSuite(suiteSeed)
		return s, s.ValidateGold()
	}, func(*workload.Suite) {})
	if err != nil {
		return err
	}
	cases := append([]*task.Case(nil), suite.Cases...)
	rand.New(rand.NewPCG(opt.seed, 0x7ab1e5)).Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })

	runtime.GC()
	start := sampleRuntime()
	deadline := time.Now().Add(opt.duration)
	var passes []*tablesPass
	for len(passes) == 0 || time.Now().Before(deadline) {
		p, err := regenerate(ctx, suite, cases)
		if err != nil {
			return err
		}
		passes = append(passes, p)
	}
	ph := since(start)

	var (
		all, gen, base1 []latencies
		t1, t2          []float64
		evals           int64
	)
	for _, p := range passes {
		checkTables(rep, base, p)
		for _, group := range [][]latencies{p.baselines, p.genedit, p.ablations} {
			for _, l := range group {
				all = append(all, l)
				evals += int64(len(l))
			}
		}
		gen = append(gen, p.genedit...)
		base1 = append(base1, p.baselines...)
		t1 = append(t1, float64(p.t1)/1e6)
		t2 = append(t2, float64(p.t2)/1e6)
	}
	rep.ops(evals, 0)
	sum := summarize(all...)
	rep.check(!opt.size.requireP99 || sum.supported(99), "p99 needs at least 10 samples beyond it, have %d samples", sum.n())
	rep.endToEnd("rps", float64(evals)/ph.elapsed.Seconds(), "1/s", int(evals))
	rep.info("cases_per_s %.4f 1/s n=%d (system x case evaluations; each is one Generate call)", float64(evals)/ph.elapsed.Seconds(), evals)
	rep.endToEnd("p50_ms", sum.ms(50), "ms", sum.n())
	rep.endToEnd("p99_ms", sum.ms(99), "ms", sum.n())
	rep.endToEnd("allocs_per_op", ratio(float64(ph.allocs), float64(evals)), "count", int(evals))
	genSum, baseSum := summarize(gen...), summarize(base1...)
	sum = summary{}
	all = nil
	last := passes[len(passes)-1]
	passes = nil
	rep.endToEnd("heap_mb", liveHeapMB(), "MB", 1)
	rep.info("passes: %d regenerations of Table 1 (%d systems) and Table 2 (%d ablations) over %d cases, EX rows checked against BENCH_0.json",
		len(t1), len(last.table1), len(last.table2), len(cases))
	rep.layer("eval.table1_ms", median(t1), "ms", len(t1))
	rep.layer("eval.table2_ms", median(t2), "ms", len(t2))
	rep.layer("eval.genedit_ms_per_case", float64(genSum.mean())/1e6, "ms", genSum.n())
	rep.layer("baselines.ms_per_case", float64(baseSum.mean())/1e6, "ms", baseSum.n())
	rep.layer("runtime.gc_cycles", float64(ph.gcCycles), "count", 1)
	rep.layer("runtime.gc_pause_ms", float64(ph.gcPause)/1e6, "ms", int(ph.gcCycles))
	rep.layer("runtime.gc_cpu_ratio", ph.gcCPU, "ratio", 1)

	if !opt.trace {
		return nil
	}
	// The traced run replays the GenEdit system's cases: on this workload
	// every case runs the pipeline.
	ge := last.table1[len(last.table1)-1]
	items := make([]replayItem, len(ge.Outcomes))
	for i, o := range ge.Outcomes {
		items[i] = replayItem{q: question{db: o.Case.DB, text: o.Case.Question, evidence: o.Case.Evidence}, sql: o.SQL, check: o.Err == ""}
	}
	return traceReplay(ctx, rep, opt, suite, items, suite.BuildKnowledge)
}
