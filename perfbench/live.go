package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"genedit"
	"genedit/internal/embed"
	"genedit/internal/feedback"
	"genedit/internal/knowledge"
	"genedit/internal/metrics"
	"genedit/internal/pipeline"
	"genedit/internal/task"
	"genedit/internal/workload"
)

// editLoop is the SME loop's record of the timed phase.
type editLoop struct {
	sessions, approved, rejected, noEdit, errs int64
	// edit is feedback-to-live time per approved edit: from the feedback
	// call until Approve returns with the WAL fsynced and the engine
	// hot-swapped.
	edit                           latencies
	open, recommend, gate, approve acc
	walBytes                       int64
	walSamples                     int
	firstErr                       error
	// retired sums the search counters of engines an approval replaced;
	// an engine's counters go with it.
	retired embed.SearchStats
	// busy is the time spent in rounds, excluding the waits between them.
	busy time.Duration
}

// smeInterval paces the live-edits client: a round starts every
// smeInterval, or as soon as the previous one ends if it overran. Pacing
// fixes how many edits a run merges, so the knowledge a run ends with, and
// the heap holding it, do not depend on how fast the machine was.
const smeInterval = 100 * time.Millisecond

// readsPerEdit is how many reads follow each edit cycle. A fixed count,
// rather than reads racing the SME from another goroutine, makes the share
// of reads that miss after an invalidation a property of the seed, not of
// how the two goroutines were scheduled.
const readsPerEdit = 1000

// runLiveClient runs rounds of one SME cycle, open → feedback → submit (the
// regression gate) → approve, followed by readsPerEdit reads, until the
// deadline. Cycles go round-robin over the databases; the case each one
// targets and the reads are drawn from the seed. One goroutine runs both,
// so the reads that follow an approval see its invalidation and hot-swapped
// engine, and nothing else competes with them for the CPU.
func runLiveClient(ctx context.Context, rep *report, svc *genedit.Service, suite *workload.Suite, storeDir string,
	seed uint64, tp timedPhase, read func()) *editLoop {
	dbs := svc.Databases()
	byDB := make(map[string][]*task.Case)
	for _, c := range suite.Cases {
		byDB[c.DB] = append(byDB[c.DB], c)
	}
	rng := rand.New(rand.NewPCG(seed, 0x53e))
	sme := feedback.NewSimulatedSME(seed)
	l := &editLoop{}
	for round := 0; ; round++ {
		due := tp.start.Add(time.Duration(round) * smeInterval)
		if !due.Before(tp.deadline) {
			break
		}
		time.Sleep(time.Until(due))
		start := time.Now()
		db := dbs[round%len(dbs)]
		cases := byDB[db]
		// The first cases of each database are its regression suite;
		// feedback targets the rest.
		c := cases[2+rng.IntN(len(cases)-2)]
		if err := l.cycle(ctx, rep, svc, sme, db, cases[:2], c, filepath.Join(storeDir, db, "wal.log")); err != nil {
			l.errs++
			if l.firstErr == nil {
				l.firstErr = err
			}
		}
		for range readsPerEdit {
			read()
		}
		l.busy += time.Since(start)
	}
	return l
}

func (l *editLoop) cycle(ctx context.Context, rep *report, svc *genedit.Service, sme *feedback.SimulatedSME, db string,
	golden []*genedit.Case, c *genedit.Case, walPath string) error {
	solver, err := svc.Solver(ctx, db, golden)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
	if err != nil {
		return err
	}
	t1 := time.Now()
	l.open.add(t1.Sub(t0))
	l.sessions++
	rec, err := sess.Feedback(sme.FeedbackFor(c, sess.Record))
	if err != nil {
		return err
	}
	t2 := time.Now()
	l.recommend.add(t2.Sub(t1))
	staged, _ := sme.ReviewEdits(c, rec.Edits)
	if len(staged) == 0 {
		l.noEdit++
		return nil
	}
	sess.Stage(staged...)
	t3 := time.Now()
	res, err := sess.SubmitContext(ctx)
	if err != nil {
		return err
	}
	t4 := time.Now()
	l.gate.add(t4.Sub(t3))
	if !res.Passed {
		l.rejected++
		return nil
	}
	before, err := svc.Knowledge(ctx, db, 0)
	if err != nil {
		return err
	}
	walBefore := fileSize(walPath)
	l.retired = sumRetrieval(l.retired, map[string]pipeline.RetrievalStats{db: svc.RetrievalStats()[db]})
	t5 := time.Now()
	if err := solver.Approve(res.Pending, "sme"); err != nil {
		return err
	}
	t6 := time.Now()
	l.approve.add(t6.Sub(t5))
	l.edit = append(l.edit, t6.Sub(t1))
	l.approved++
	if walAfter := fileSize(walPath); walAfter > walBefore {
		l.walBytes += walAfter - walBefore
		l.walSamples++
	}
	return checkApproval(rep, svc, solver, db, before, res.Pending.FeedbackID)
}

// checkApproval checks that an approval moved the served knowledge forward
// by exactly its own change set: one version per logged event, every new
// event belonging to this approval, and the served version equal to the
// solver's.
func checkApproval(rep *report, svc *genedit.Service, solver *genedit.Solver, db string, before *genedit.KnowledgeInfo, id string) error {
	probe, err := svc.Knowledge(context.Background(), db, 0)
	if err != nil {
		return err
	}
	added := probe.HistoryLen - before.HistoryLen
	after, err := svc.Knowledge(context.Background(), db, added)
	if err != nil {
		return err
	}
	ok := added > 0 && after.Version-before.Version == added &&
		after.Version == solver.Engine().KnowledgeSet().Version()
	for _, ev := range after.History {
		ok = ok && (ev.FeedbackID == id || ev.CheckpointName == "before-"+id)
	}
	rep.check(ok, "approval %s on %s moved knowledge from version %d to %d with %d events not all its own",
		id, db, before.Version, after.Version, added)
	return nil
}

// kstoreCounters are the knowledge stores' commit and compaction totals,
// read from the service's metrics registry.
type kstoreCounters struct {
	commits     uint64
	commitSec   float64
	compactions uint64
}

func storeCounters(reg *metrics.Registry) kstoreCounters {
	snap := reg.Gather()
	out := kstoreCounters{compactions: snap.SumCounter("genedit_kstore_compactions_total")}
	if f := snap.Family("genedit_kstore_wal_append_seconds"); f != nil {
		for _, s := range f.Series {
			if s.Hist != nil {
				out.commits += s.Hist.Count()
				out.commitSec += s.Hist.Sum
			}
		}
	}
	return out
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// runLiveEdits serves the recurring mix between the approved edits an SME
// merges into durable, ANN-indexed knowledge.
func runLiveEdits(opt options, rep *report) error {
	ctx := context.Background()
	sc := workload.ScaleConfig{DBFactor: 1, KnowledgeFactor: opt.size.liveKnowledgeFactor}
	type world struct {
		suite *workload.Suite
		svc   *genedit.Service
		reg   *metrics.Registry
		dir   string
	}
	release := func(w world) {
		if w.svc != nil {
			w.svc.Close()
		}
		os.RemoveAll(w.dir)
	}
	w, err := timedSetup(rep, opt.size, func() (world, error) {
		dir, err := os.MkdirTemp("", "perfbench-kstore-")
		if err != nil {
			return world{}, err
		}
		suite := workload.NewScaledSuite(suiteSeed, sc)
		reg := metrics.NewRegistry()
		svc := newService(suite, opt.size, reg, genedit.WithStorePath(dir))
		w := world{suite, svc, reg, dir}
		if err := svc.Prewarm(ctx); err != nil {
			release(w)
			return world{}, err
		}
		return w, nil
	}, release)
	if err != nil {
		return err
	}
	defer release(w)

	qs := questionsOf(w.suite.Cases)
	version := func(db string) int {
		e, err := w.svc.Engine(ctx, db)
		if err != nil {
			return -1
		}
		return e.KnowledgeSet().Version()
	}
	runtime.GC()
	storeBefore := storeCounters(w.reg)
	start := sampleRuntime()
	tp := newTimedPhase(opt.duration)
	reader, reads := newClient(), newStream(opt.seed, len(qs), recurringZipf)
	l := runLiveClient(ctx, rep, w.svc, w.suite, w.dir, opt.seed, tp, func() { reader.call(ctx, w.svc, qs, reads, version) })
	ph := since(start)

	misses := reportServing(rep, opt.size, reader, ph, l.busy, w.svc)
	answers := reader.answers
	served, distinctPerCap := reportCache(rep, w.svc, len(qs))
	rep.info("read gencache-served share %.4f, distinct questions per cache capacity %.4f", served, distinctPerCap)
	ann := annShare(rep, sumRetrieval(l.retired, w.svc.RetrievalStats()))
	rep.property("embed.ann_share", ann, ann > 0, "> 0")

	rep.ops(l.sessions, l.errs)
	rep.check(l.errs == 0, "%d edit cycles returned errors, first: %v", l.errs, l.firstErr)
	rep.info("edit outcomes: %d sessions: %d approved, %d gate-rejected, %d without an accepted edit, %d errors",
		l.sessions, l.approved, l.rejected, l.noEdit, l.errs)
	es := summarize(l.edit)
	rep.check(es.n() >= opt.size.minEdits, "%d approved edits, need at least %d", es.n(), opt.size.minEdits)
	rep.info("edit_p50_ms %.4f ms n=%d", es.ms(50), es.n())
	if es.supported(90) {
		rep.info("edit_p90_ms %.4f ms n=%d", es.ms(90), es.n())
	}
	rep.layer("feedback.edit_p50_ms", es.ms(50), "ms", es.n())
	rep.layer("feedback.edit_p90_ms", es.ms(90), "ms", es.n())
	rep.layer("feedback.open_ms", l.open.meanUs()/1e3, "ms", l.open.n)
	rep.layer("feedback.recommend_ms", l.recommend.meanUs()/1e3, "ms", l.recommend.n)
	rep.layer("feedback.gate_ms", l.gate.meanUs()/1e3, "ms", l.gate.n)
	rep.layer("feedback.approve_ms", l.approve.meanUs()/1e3, "ms", l.approve.n)
	rep.layer("feedback.gate_pass_ratio", ratio(float64(l.approved), float64(l.approved+l.rejected)), "ratio", int(l.approved+l.rejected))
	rep.layer("kstore.wal_bytes_per_edit", ratio(float64(l.walBytes), float64(l.walSamples)), "B", l.walSamples)
	st := storeCounters(w.reg)
	commitN := st.commits - storeBefore.commits
	rep.layer("kstore.commit_ms", ratio((st.commitSec-storeBefore.commitSec)*1e3, float64(commitN)), "ms", int(commitN))
	rep.layer("kstore.compactions", float64(st.compactions-storeBefore.compactions), "count", 1)

	// Durability: a fresh service on the same store directory must recover
	// every live version. Its recovered knowledge is then the reference
	// the served answers are checked against.
	final := make(map[string]int)
	live := make(map[string]*genedit.KnowledgeInfo)
	var clones []float64
	for _, db := range w.svc.Databases() {
		info, err := w.svc.Knowledge(ctx, db, 0)
		if err != nil {
			return err
		}
		final[db] = info.Version
		live[db] = info
		e, err := w.svc.Engine(ctx, db)
		if err != nil {
			return err
		}
		start := time.Now()
		e.KnowledgeSet().CloneFull()
		clones = append(clones, float64(time.Since(start))/1e6)
	}
	rep.layer("knowledge.clone_ms", median(clones), "ms", len(clones))
	if err := w.svc.Close(); err != nil {
		return fmt.Errorf("closing service: %w", err)
	}
	reopened := newService(w.suite, opt.size, metrics.NewRegistry(), genedit.WithStorePath(w.dir))
	defer reopened.Close()
	recovered := make(map[string]*knowledge.Set)
	for db, want := range live {
		got, err := reopened.Knowledge(ctx, db, 0)
		if err != nil {
			return err
		}
		rep.check(got.Version == want.Version && got.HistoryLen == want.HistoryLen && got.Examples == want.Examples &&
			got.Instructions == want.Instructions,
			"%s after restart: version %d, %d events, %d examples; live had %d, %d, %d",
			db, got.Version, got.HistoryLen, got.Examples, want.Version, want.HistoryLen, want.Examples)
		e, err := reopened.Engine(ctx, db)
		if err != nil {
			return err
		}
		recovered[db] = e.KnowledgeSet()
	}
	rep.info("restart: %d databases reopened from the store at their live versions", len(recovered))

	ksetFor := func(db string) (*knowledge.Set, error) { return recovered[db], nil }
	finalAnswers := make(map[answerKey]answer)
	for k, a := range answers {
		if final[qs[k.q].db] == k.version {
			finalAnswers[k] = a
		}
	}
	if err := checkReference(ctx, rep, w.suite, qs, finalAnswers, ksetFor); err != nil {
		return err
	}
	if opt.trace {
		return traceReplay(ctx, rep, opt, w.suite, missItems(qs, misses, final), ksetFor)
	}
	return nil
}
