// Command perfbench is the GenEdit benchmark. It drives the public
// genedit.Service and the internal/* entry points in-process and reports, for
// one workload per run, the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run), checking every output it measures.
//
//	go run . --workload long-tail --seed 3 --seconds 10 --trace 0
//
// Workloads: recurring, long-tail, live-edits, paper-tables (see
// workloads.go and README.md). The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is 1
// when any output check or workload-property check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
	// spans is where a traced run writes its spans (JSON lines).
	spans string
	size  sizes
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: the request streams are a pure function of it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	spans := fs.String("spans", "", "traced run: write spans here (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wl]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", workloadNames())
		return 2
	}
	opt := options{
		workload: *wl,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		spans:    *spans,
		size:     fullSize,
	}
	if opt.trace && opt.spans == "" {
		opt.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", opt.workload, opt.seed))
	}
	rep, err := execute(opt, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	res := rep.result(opt.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and returns its report.
func execute(opt options, out io.Writer) (*report, error) {
	rep := newReport(out)
	fmt.Fprintf(out, "workload %s  seed %d  timed phase %s  traced %v\n", opt.workload, opt.seed, opt.duration, opt.trace)
	if err := workloads[opt.workload](opt, rep); err != nil {
		return nil, err
	}
	if opt.trace {
		if err := rep.spans.write(opt.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(rep.spans.spans), opt.spans)
	}
	return rep, nil
}

// report accumulates one run's metrics, outcome counts and check failures,
// printing each as it is recorded.
type report struct {
	out       io.Writer
	e2e       map[string]metric
	layers    map[string]metric
	problems  []string
	attempted int64
	failed    int64
	spans     *spanLog
}

func newReport(out io.Writer) *report {
	return &report{
		out:    out,
		e2e:    make(map[string]metric),
		layers: make(map[string]metric),
		spans:  newSpanLog(),
	}
}

// endToEnd records an end-to-end metric; n is its sample count.
func (r *report) endToEnd(name string, v float64, unit string, n int) {
	r.e2e[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  e2e   %-30s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// layer records a per-layer metric; n is its sample count.
func (r *report) layer(name string, v float64, unit string, n int) {
	r.layers[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.out, "  layer %-30s %14.4f %-6s n=%d\n", name, v, unit, n)
}

// info prints a measured figure that is neither gated nor a layer metric:
// outcome counts, properties, workload-specific latencies.
func (r *report) info(format string, args ...any) {
	fmt.Fprintf(r.out, "  "+format+"\n", args...)
}

// check records a failed output or property check unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.problems = append(r.problems, msg)
		fmt.Fprintf(r.out, "  CHECK FAILED: %s\n", msg)
	}
}

// property prints a workload's defining property as a measured share and
// fails the run when it no longer holds.
func (r *report) property(name string, v float64, holds bool, want string) {
	state := "holds"
	if !holds {
		state = "BROKEN"
	}
	fmt.Fprintf(r.out, "  property %-28s %10.4f  want %s: %s\n", name, v, want, state)
	r.check(holds, "property %s = %.4f, want %s", name, v, want)
}

// ops records primary operations attempted and errors returned.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// result builds the JSON line: the end-to-end metrics in an untraced run,
// every per-layer metric in a traced one (zero where the workload does not
// exercise the layer).
func (r *report) result(traced bool) result {
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	if !traced {
		for _, d := range endToEndMetrics {
			m, ok := r.e2e[d.name]
			if !ok {
				res.Correct = false
				fmt.Fprintf(r.out, "  CHECK FAILED: end-to-end metric %s was not measured\n", d.name)
				m = metric{Unit: d.unit}
			}
			res.Metrics[d.name] = m
		}
		return res
	}
	for _, d := range layerMetrics {
		m, ok := r.layers[d.name]
		if !ok {
			m = metric{Unit: d.unit}
		}
		res.Metrics[d.name] = m
	}
	return res
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every workload's untraced run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"allocs_per_op", "count"},
	{"heap_mb", "MB"},
}

// layerMetrics are reported by every traced run.
var layerMetrics = []metricDef{
	{"gencache.hit_ratio", "ratio"},
	{"gencache.hit_us", "us"},
	{"gencache.miss_ms", "ms"},
	{"gencache.coalesced", "count"},
	{"pipeline.reformulation_us", "us"},
	{"pipeline.intent_us", "us"},
	{"pipeline.examples_us", "us"},
	{"pipeline.instructions_us", "us"},
	{"pipeline.schema_link_us", "us"},
	{"pipeline.planning_us", "us"},
	{"pipeline.gen_loop_us", "us"},
	{"pipeline.attempts_per_gen", "count"},
	{"pipeline.first_try_ratio", "ratio"},
	{"pipeline.rebuild_ms", "ms"},
	{"simllm.model_us_per_gen", "us"},
	{"simllm.calls_per_gen", "count"},
	{"simllm.link_us", "us"},
	{"simllm.plan_us", "us"},
	{"simllm.generate_us", "us"},
	{"simllm.repair_us", "us"},
	{"embed.searches_per_gen", "count"},
	{"embed.candidates_per_search", "count"},
	{"embed.ann_share", "ratio"},
	{"embed.full_sweeps", "count"},
	{"sqlparse.parse_us", "us"},
	{"sqlexec.query_us", "us"},
	{"sqlexec.stmts_per_gen", "count"},
	{"sqlexec.rows_per_stmt", "count"},
	{"sqlexec.error_ratio", "ratio"},
	{"sqlexec.stmtcache_hit_ratio", "ratio"},
	{"feedback.open_ms", "ms"},
	{"feedback.recommend_ms", "ms"},
	{"feedback.gate_ms", "ms"},
	{"feedback.approve_ms", "ms"},
	{"feedback.gate_pass_ratio", "ratio"},
	{"feedback.edit_p50_ms", "ms"},
	{"feedback.edit_p90_ms", "ms"},
	{"knowledge.clone_ms", "ms"},
	{"kstore.commit_ms", "ms"},
	{"kstore.wal_bytes_per_edit", "B"},
	{"kstore.compactions", "count"},
	{"eval.table1_ms", "ms"},
	{"eval.table2_ms", "ms"},
	{"eval.genedit_ms_per_case", "ms"},
	{"baselines.ms_per_case", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"trace.overhead_us", "us"},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}
