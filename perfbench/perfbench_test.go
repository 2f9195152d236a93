package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"genedit"
	"genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/workload"
)

func TestTailPercentilePicksHighestWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{20, 50, true},
		{19, 0, false},
		{0, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && beyond(p, tc.n) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond it", tc.n, p, beyond(p, tc.n))
		}
	}
}

func TestSummaryReportsCountAndNearestRank(t *testing.T) {
	var a, b latencies
	for i := 1; i <= 1000; i++ {
		if i%2 == 0 {
			a = append(a, time.Duration(i)*time.Microsecond)
		} else {
			b = append(b, time.Duration(i)*time.Microsecond)
		}
	}
	s := summarize(a, b)
	if s.n() != 1000 {
		t.Fatalf("n = %d, want 1000", s.n())
	}
	if got := s.pct(50); got != 500*time.Microsecond {
		t.Errorf("p50 = %v, want 500µs", got)
	}
	if got := s.pct(99); got != 990*time.Microsecond {
		t.Errorf("p99 = %v, want 990µs", got)
	}
	if p, ok := s.tail(); !ok || p != 99 || !s.supported(99) || s.supported(99.9) {
		t.Errorf("tail = p%v (ok %v); want p99 supported and p99.9 not", p, ok)
	}
}

func TestSelfTimesSubtractContainedModelCalls(t *testing.T) {
	at := time.Unix(0, 0)
	call := func(kind string, from, d time.Duration) modelCall {
		return modelCall{kind: kind, start: at.Add(from), end: at.Add(from + d)}
	}
	ops := []pipeline.OpTiming{
		{Op: "reformulation", Duration: 10 * time.Microsecond},
		{Op: "example_selection", Duration: 40 * time.Microsecond},
		{Op: "planning", Duration: 25 * time.Microsecond},
		{Op: "generation_loop", Duration: 100 * time.Microsecond},
	}
	calls := []modelCall{
		call("reformulate", 1*time.Microsecond, 4*time.Microsecond),
		call("plan", 52*time.Microsecond, 20*time.Microsecond),
		call("generate", 80*time.Microsecond, 30*time.Microsecond),
		call("repair", 120*time.Microsecond, 20*time.Microsecond),
		call("edit_clauses", 145*time.Microsecond, 5*time.Microsecond),
	}
	want := map[string]time.Duration{
		"reformulation":     6 * time.Microsecond,
		"example_selection": 40 * time.Microsecond,
		"planning":          5 * time.Microsecond,
		"generation_loop":   45 * time.Microsecond,
	}
	got := selfTimes(ops, calls)
	if len(got) != len(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	for op, d := range want {
		if got[op] != d {
			t.Errorf("self time of %s = %v, want %v", op, got[op], d)
		}
	}
}

func TestStreamsArePureInTheSeed(t *testing.T) {
	draw := func(seed uint64, zipf float64) []int {
		st := newStream(seed, 132, zipf)
		out := make([]int, 2000)
		for i := range out {
			out[i] = st.next()
		}
		return out
	}
	for _, zipf := range []float64{0, recurringZipf} {
		a, b := draw(7, zipf), draw(7, zipf)
		if !slices.Equal(a, b) {
			t.Errorf("zipf %v: the same seed gave different streams", zipf)
		}
		if slices.Equal(a, draw(8, zipf)) {
			t.Errorf("zipf %v: different seeds gave the same stream", zipf)
		}
	}
}

func TestReplayedSQLEqualsServedSQL(t *testing.T) {
	ctx := context.Background()
	suite := workload.NewSuite(suiteSeed)
	svc := newService(suite, fullSize, metrics.NewRegistry())
	var items []replayItem
	for _, c := range suite.Cases[:24] {
		resp, err := svc.Generate(ctx, genedit.Request{Database: c.DB, Question: c.Question, Evidence: c.Evidence})
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, replayItem{q: question{c.DB, c.Question, c.Evidence}, sql: resp.SQL, ok: resp.OK, check: true, withOK: true})
	}
	rep := newReport(io.Discard)
	opt := options{size: fullSize}
	if err := traceReplay(ctx, rep, opt, suite, items, suite.BuildKnowledge); err != nil {
		t.Fatal(err)
	}
	if len(rep.problems) > 0 {
		t.Fatalf("replay problems: %v", rep.problems)
	}
	if rep.layers["pipeline.gen_loop_us"].Value <= 0 || rep.layers["sqlexec.stmts_per_gen"].Value < 1 {
		t.Errorf("replay measured no pipeline or SQL work: %+v", rep.layers)
	}
	if len(rep.spans.spans) == 0 {
		t.Error("replay recorded no spans")
	}
}

// tinySize keeps every workload's defining property at a fraction of the
// benchmark's cost.
var tinySize = sizes{
	setupReps:           1,
	cacheSize:           256,
	longTailDBFactor:    4,
	liveKnowledgeFactor: 10,
	minEdits:            1,
	maxReplays:          20,
}

func TestSmokeAllWorkloadsUntracedAndTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	t.Setenv("TMPDIR", t.TempDir())
	// recurring's 132 first-time misses must stay under 1% of its calls,
	// also when the race detector slows the hit path.
	durations := map[string]time.Duration{"recurring": 5 * time.Second}
	for _, name := range []string{"recurring", "long-tail", "live-edits", "paper-tables"} {
		d := durations[name]
		if d == 0 {
			d = 2 * time.Second
		}
		for _, traced := range []bool{false, true} {
			opt := options{
				workload: name, seed: 3, duration: d, trace: traced,
				spans: filepath.Join(t.TempDir(), "spans.jsonl"), size: tinySize,
			}
			var out bytes.Buffer
			rep, err := execute(opt, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", name, traced, err, out.String())
			}
			res := rep.result(traced)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct %v attempted %d failed %d\n%s", name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := endToEndMetrics
			if traced {
				want = layerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", name, traced, d.name, m)
				}
			}
			if traced {
				if fi, err := os.Stat(opt.spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no spans written: %v", name, err)
				}
			}
		}
	}
}

func TestBrokenPropertyFailsTheRun(t *testing.T) {
	small := tinySize
	small.cacheSize = 8 // far below the recurring questions: most requests miss
	rep, err := execute(options{workload: "recurring", seed: 1, duration: 200 * time.Millisecond, size: small}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.result(false).Correct {
		t.Fatal("recurring with an 8-entry cache passed its served-share property")
	}
}

func TestEmbeddedTablesMatchBench0(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCH_0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var repo exBaseline
	if err := json.Unmarshal(data, &repo); err != nil {
		t.Fatal(err)
	}
	embedded, err := loadBench0()
	if err != nil {
		t.Fatal(err)
	}
	if repo.Seed != embedded.Seed || repo.ModelSeed != embedded.ModelSeed {
		t.Fatalf("seeds differ: BENCH_0.json (%d, %d), embedded (%d, %d)", repo.Seed, repo.ModelSeed, embedded.Seed, embedded.ModelSeed)
	}
	for _, name := range []string{"table1", "table2"} {
		if !slices.Equal(repo.Tables[name], embedded.Tables[name]) || len(embedded.Tables[name]) == 0 {
			t.Errorf("%s: embedded copy differs from BENCH_0.json", name)
		}
	}
}
