package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	janus "repro"
	"repro/internal/adt"
	"repro/internal/bench"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// sampledLogs bounds the committed logs the traced run copies for the
// offline oplog.Stream and Replay timings.
const sampledLogs = 64

// libSub is one library sub-workload, trained and ready to run.
type libSub struct {
	w      *workloads.Workload
	tasks  []janus.Task
	runner *janus.Runner
	oracle *janus.State
	// orderDependent marks the loops whose unordered commits realize a
	// different, still correct, serial order than the sequential baseline
	// (Weka's painting, JGraphT-1's coloring): their outputs are checked
	// in one extra run with ordered commits, as internal/workloads' tests
	// do, and their measured runs by commit count only.
	orderDependent bool
}

// subRun accumulates one sub-workload's measured or traced runs.
type subRun struct {
	runMs            []float64 // one per Run call
	commits, retries int64
	mallocs, bytes   uint64
	stm              stm.Stats
	det              conflict.Stats
	histLen, detects int64 // traced: Σ len(committed) and calls of DetectPrepared
}

func (s *subRun) seconds() float64 {
	sum := 0.0
	for _, ms := range s.runMs {
		sum += ms
	}
	return sum / 1e3
}

func (s *subRun) addStats(run stm.Stats, det conflict.Stats) {
	s.commits += run.Commits
	s.retries += run.Retries
	s.stm.ValidationsSkipped += run.ValidationsSkipped
	s.stm.Escalations += run.Escalations
	s.stm.BackoffWaits += run.BackoffWaits
	s.stm.MaxHist = max(s.stm.MaxHist, run.MaxHist)
	s.det.Detections += det.Detections
	s.det.Conflicts += det.Conflicts
	s.det.PairQueries += det.PairQueries
	s.det.Fallbacks += det.Fallbacks
}

// merge folds another sub-workload's counters into s.
func (s *subRun) merge(o *subRun) {
	run := o.stm
	run.Commits, run.Retries = o.commits, o.retries
	s.addStats(run, o.det)
	s.histLen += o.histLen
	s.detects += o.detects
}

func librarySubs(o options) []*workloads.Workload {
	if o.Workload == wlHeavyTxn {
		return []*workloads.Workload{workloads.Heavy(1024, 1.0)}
	}
	return workloads.All()
}

// setupLibrary is the recipe every example uses: janus.New with the zero
// Config plus Threads and Relax, five training runs, Freeze. Inputs come
// from the seed; 2×seed keeps it even, which selects the large Table 6
// production input for every seed.
func setupLibrary(o options) (subs []*libSub, trainSeconds float64) {
	size := workloads.Production
	if o.Quick {
		size = workloads.Small
	}
	for _, w := range librarySubs(o) {
		start := time.Now()
		r := janus.New(janus.Config{Threads: threads, Relax: w.Relaxations})
		for _, payload := range w.TrainingPayloads() {
			if err := r.Train(w.NewState(), payload); err != nil {
				panic(fmt.Sprintf("training %s: %v", w.Name, err)) // fixed inputs: a bug, not an input fault
			}
		}
		r.Freeze()
		trainSeconds += time.Since(start).Seconds()
		subs = append(subs, &libSub{w: w, tasks: w.Tasks(size, 2*o.Seed), runner: r,
			orderDependent: w.Name == "weka" || w.Name == "jgrapht1"})
	}
	return subs, trainSeconds
}

func runLibrary(o options, res *result) (*tracer, error) {
	var subs []*libSub
	var setups, trains []float64
	for moreSetup(o, setups) {
		start := time.Now()
		var train float64
		subs, train = setupLibrary(o)
		setups = append(setups, time.Since(start).Seconds())
		trains = append(trains, train)
	}
	res.set("setup_s", fastest(setups))
	res.set("train.train_s", fastest(trains))
	res.Samples["setup_s"] = len(setups)

	// The sequential oracle, timed: it is also the baseline of
	// stm.speedup_vs_seq.
	var seqRates []float64
	for _, s := range subs {
		start := time.Now()
		oracle, err := janus.Sequential(s.w.NewState(), s.tasks)
		if err != nil {
			return nil, fmt.Errorf("%s: sequential oracle: %w", s.w.Name, err)
		}
		seqRates = append(seqRates, float64(len(s.tasks))/time.Since(start).Seconds())
		s.oracle = oracle
	}

	var lt *libTracer
	if o.Trace {
		var err error
		if lt, err = newLibTracer(subs); err != nil {
			return nil, err
		}
	}
	// paper-mix's loops take 3 ms to 2 s a run. Equal slices would leave
	// the slow ones two runs each, too few for a steady figure; so every
	// loop runs once, and the rest of the time is shared in proportion to
	// the square root of that first run's time.
	begin := time.Now()
	measured := make([]*subRun, len(subs))
	roots := make([]float64, len(subs))
	rootSum := 0.0
	for i, s := range subs {
		measured[i] = &subRun{}
		measureSub(s, measured[i], 0, res, lt.runner(i, res))
		roots[i] = math.Sqrt(mean(measured[i].runMs))
		rootSum += roots[i]
	}
	rest := time.Duration(o.Seconds*float64(time.Second)) - time.Since(begin)
	for i, s := range subs {
		measureSub(s, measured[i], time.Duration(float64(rest)*ratio(roots[i], rootSum)), res, lt.runner(i, res))
	}
	libraryEndToEnd(o, res, subs, measured)
	res.set("stm.seq_txn_per_s", geomean(seqRates))
	res.set("stm.speedup_vs_seq", ratio(res.raw["txn_per_s"], geomean(seqRates)))
	libraryCounters(res, subs, measured)

	for _, s := range subs {
		if s.orderDependent {
			checkOrdered(s, res)
		}
	}
	if o.Workload == wlPaperMix {
		if err := simulate(res, subs); err != nil {
			return nil, err
		}
	}
	if lt == nil {
		return nil, nil
	}
	lt.finish(res, measured)
	return lt.tr, nil
}

// measureSub repeats Run (the loops are unordered, so Run it is) through
// the public API for one time slice, at least once, checking each run and
// adding the good ones to sr. In a traced run every measured run is
// followed by a traced one, so that the two see the same heap and the
// same machine; only the measured runs count here.
func measureSub(s *libSub, sr *subRun, slice time.Duration, res *result, traced func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	for start, first := time.Now(), true; first || time.Since(start) < slice; first = false {
		initial := s.w.NewState()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		final, rs, err := s.runner.Run(initial, s.tasks)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		res.Attempted++
		if checkRun(s, res, final, rs.Run, err) {
			sr.runMs = append(sr.runMs, float64(d)/1e6)
			sr.mallocs += m1.Mallocs - m0.Mallocs
			sr.bytes += m1.TotalAlloc - m0.TotalAlloc
			sr.addStats(rs.Run, rs.Detector)
		}
		if traced != nil {
			traced()
		}
	}
}

// checkRun verifies one parallel run: no error, every task committed,
// and every non-relaxed location equal to the sequential oracle's.
func checkRun(s *libSub, res *result, final *janus.State, run stm.Stats, err error) bool {
	switch {
	case err != nil:
		res.fail(1, "%s: run failed: %v", s.w.Name, err)
	case run.Commits != int64(len(s.tasks)):
		res.fail(1, "%s: %d commits for %d tasks", s.w.Name, run.Commits, len(s.tasks))
	case !s.orderDependent && !outputsMatch(s, res, final):
		res.fail(1, "%s: output differs from the sequential oracle", s.w.Name)
	default:
		return true
	}
	return false
}

func outputsMatch(s *libSub, res *result, got *janus.State) bool {
	ok := true
	for _, loc := range s.oracle.Locs() {
		if s.w.Relaxations.Any(loc) {
			continue
		}
		want, _ := s.oracle.Get(loc)
		have, present := got.Get(loc)
		if !present || !want.EqualValue(have) {
			if ok {
				res.Notes = append(res.Notes, fmt.Sprintf("%s: %s = %v, sequential %v", s.w.Name, loc, have, want))
			}
			ok = false
		}
	}
	return ok
}

// checkOrdered is the output check of an order-dependent loop: one run
// with commits pinned to task order must equal the oracle.
func checkOrdered(s *libSub, res *result) {
	final, rs, err := s.runner.RunInOrder(s.w.NewState(), s.tasks)
	res.Attempted++
	switch {
	case err != nil:
		res.fail(1, "%s: ordered check run failed: %v", s.w.Name, err)
	case rs.Run.Commits != int64(len(s.tasks)):
		res.fail(1, "%s: ordered check run: %d commits for %d tasks", s.w.Name, rs.Run.Commits, len(s.tasks))
	case !outputsMatch(s, res, final):
		res.fail(1, "%s: ordered output differs from the sequential oracle", s.w.Name)
	}
}

// libraryEndToEnd aggregates the sub-workloads by geometric mean, so a
// loop that takes a second per run cannot drown one that takes 3 ms.
func libraryEndToEnd(o options, res *result, subs []*libSub, runs []*subRun) {
	var rate, steady, p50, allocs, kb []float64
	samples := 0
	for i, sr := range runs {
		r := ratio(float64(sr.commits), sr.seconds())
		rate = append(rate, r)
		steady = append(steady, fastest(sr.runMs))
		p50 = append(p50, median(sr.runMs))
		allocs = append(allocs, ratio(float64(sr.mallocs), float64(sr.commits)))
		kb = append(kb, ratio(float64(sr.bytes)/1024, float64(sr.commits)))
		samples += len(sr.runMs)
		res.Samples["runs."+subs[i].w.Name] = len(sr.runMs)
		if o.Workload == wlPaperMix {
			res.set("stm.txn_per_s."+subs[i].w.Name, r)
		}
	}
	res.set("txn_per_s", geomean(rate))
	res.set("batch_steady_ms", geomean(steady))
	res.set("batch_p50_ms", geomean(p50))
	res.set("allocs_per_txn", geomean(allocs))
	res.set("alloc_kb_per_txn", geomean(kb))
	res.set("bench.samples", float64(samples))
}

// libraryCounters are the per-layer counts the untraced runs give for
// free: RunStats and CacheStats, summed over the sub-workloads.
func libraryCounters(res *result, subs []*libSub, runs []*subRun) {
	var all subRun
	var lookups, hits, uniq, uniqMiss, entries, locs, tuples float64
	for i, sr := range runs {
		all.merge(sr)
		cs := subs[i].runner.CacheStats()
		lookups += float64(cs.Lookups)
		hits += float64(cs.Hits)
		uniq += float64(cs.UniqueQueries)
		uniqMiss += float64(cs.UniqueMisses)
		entries += float64(cs.Entries)
		l, t := stateSize(subs[i].oracle)
		locs += l
		tuples += t
	}
	commits := float64(all.commits)
	res.set("stm.retries_per_txn", ratio(float64(all.retries), commits))
	res.set("stm.validations_skipped_per_txn", ratio(float64(all.stm.ValidationsSkipped), commits))
	res.set("stm.max_hist", float64(all.stm.MaxHist))
	res.set("stm.escalations", float64(all.stm.Escalations))
	res.set("stm.backoff_waits", float64(all.stm.BackoffWaits))
	res.set("conflict.detects_per_txn", ratio(float64(all.det.Detections), commits))
	res.set("conflict.pair_queries_per_detect", ratio(float64(all.det.PairQueries), float64(all.det.Detections)))
	res.set("conflict.fallback_share", ratio(float64(all.det.Fallbacks), float64(all.det.PairQueries)))
	res.set("conflict.conflict_share", ratio(float64(all.det.Conflicts), float64(all.det.Detections)))
	res.set("cache.lookups_per_txn", ratio(lookups, commits))
	res.set("cache.hit_share", ratio(hits, lookups))
	res.set("cache.unique_miss_share", ratio(uniqMiss, uniq))
	res.set("cache.entries", entries)
	res.set("state.locs", locs)
	res.set("state.rel_tuples", tuples)
}

// stateSize counts a state's locations and the tuples of its relations.
func stateSize(st *janus.State) (locs, tuples float64) {
	for _, l := range st.Locs() {
		if v, ok := st.Get(l); ok {
			if rel, isRel := v.(state.Rel); isRel {
				tuples += float64(rel.R.Len())
			}
		}
	}
	return float64(st.Len()), tuples
}

// simulate is the precision guard: on 2 cores wall-clock retries are
// near zero, so a detector made faster by being less precise would pass
// the timed metrics. The virtual-time machine at 8 threads is
// deterministic and shows it.
func simulate(res *result, subs []*libSub) error {
	var speedups, retries []float64
	for _, s := range subs {
		m, err := bench.Measure(s.w, bench.Seq, 8, bench.Opts{})
		if err != nil {
			return fmt.Errorf("%s: simulated run: %w", s.w.Name, err)
		}
		speedups = append(speedups, m.Speedup)
		retries = append(retries, m.RetryRatio)
		res.set("vtime.speedup_8t."+s.w.Name, m.Speedup)
		res.set("vtime.retries_per_txn_8t."+s.w.Name, m.RetryRatio)
	}
	res.set("sim_speedup_8t", geomean(speedups))
	res.set("sim_retries_per_txn_8t", mean(retries))
	return nil
}

// --- The traced run: the same recipe one level down. ---

// timedDetector embeds the trained detector and times DetectPrepared,
// the runtime's only call into it.
type timedDetector struct {
	conflict.Detector
	run *tracedRun
}

func (d *timedDetector) DetectPrepared(ctx obs.Ctx, snapshot *state.State, txn *conflict.Prepared, committed []*conflict.Prepared) conflict.Verdict {
	start := d.run.tr.now()
	v := d.Detector.DetectPrepared(ctx, snapshot, txn, committed)
	d.run.tr.add("conflict.detect", start, d.run.tr.now(), d.run.root, d.run.req)
	d.run.histLen.Add(int64(len(committed)))
	d.run.detects.Add(1)
	return v
}

// tracedRun is the state the wrappers of one traced stm.Run share. It
// is the run's pass-through stm.Governor (summing commit waits) and its
// stm.CommitSink (copying the first committed logs).
type tracedRun struct {
	tr               *tracer
	root             int32
	req              int64
	histLen, detects atomic.Int64
	// sample receives copies of the committed logs; nil stops sampling.
	sample *[]oplog.Log
}

func (r *tracedRun) SerialOnly() bool             { return false }
func (r *tracedRun) ObserveCommit()               {}
func (r *tracedRun) ObserveBackoff(time.Duration) {}
func (r *tracedRun) ObserveEscalation()           {}
func (r *tracedRun) ObserveCommitWait(d time.Duration) {
	end := r.tr.now()
	r.tr.add("stm.commit_wait", end-int64(d), end, r.root, r.req)
}

// ObserveCommitted copies the log: the runtime owns the slice and the
// events after the call returns. Calls arrive in commit order, so the
// first sampledLogs of a run replay exactly over its initial state.
func (r *tracedRun) ObserveCommitted(_ int, _ int64, log oplog.Log) {
	if r.sample == nil || len(*r.sample) >= sampledLogs {
		return
	}
	cp := make(oplog.Log, len(log))
	for i, e := range log {
		ev := *e
		cp[i] = &ev
	}
	*r.sample = append(*r.sample, cp)
}

// libTracer runs the traced library runs: per sub-workload a core.Engine
// trained as the root API trains its own, and stm.Run with the zero
// stm.Config fields the root API would pass, each layer boundary wrapped
// in a span.
type libTracer struct {
	tr      *tracer
	subs    []*libSub
	engines []*core.Engine
	runs    []*subRun
	samples [][]oplog.Log
	req     int64
}

func newLibTracer(subs []*libSub) (*libTracer, error) {
	lt := &libTracer{tr: newTracer(), subs: subs, runs: make([]*subRun, len(subs)), samples: make([][]oplog.Log, len(subs))}
	for i, s := range subs {
		engine := core.NewEngine(core.Options{Relax: s.w.Relaxations})
		for _, payload := range s.w.TrainingPayloads() {
			if err := engine.Train(s.w.NewState(), payload); err != nil {
				return nil, fmt.Errorf("%s: training the traced engine: %w", s.w.Name, err)
			}
		}
		engine.Freeze()
		lt.engines = append(lt.engines, engine)
		lt.runs[i] = &subRun{}
	}
	return lt, nil
}

// runner returns the function that makes one traced run of sub-workload
// i, nil on a nil libTracer (tracing off).
func (lt *libTracer) runner(i int, res *result) func() {
	if lt == nil {
		return nil
	}
	return func() { lt.run(i, res) }
}

func (lt *libTracer) run(i int, res *result) {
	s, tr, sr := lt.subs[i], lt.tr, lt.runs[i]
	lt.req++
	run := &tracedRun{tr: tr, req: lt.req}
	if lt.samples[i] == nil {
		run.sample = &lt.samples[i] // the first run's first commits
	}
	det := lt.engines[i].Detector()
	wrapped := make([]adt.Task, len(s.tasks))
	for j, task := range s.tasks {
		wrapped[j] = func(ex adt.Executor) error {
			t0 := tr.now()
			err := task(ex)
			tr.add("adt.body", t0, tr.now(), run.root, run.req)
			return err
		}
	}
	initial := s.w.NewState()
	run.root = tr.open("stm.run", -1, run.req)
	final, stats, err := stm.Run(stm.Config{
		Threads:  threads,
		Ordered:  s.w.Ordered,
		Detector: &timedDetector{Detector: det, run: run},
		Governor: run,
		Record:   run,
	}, initial, wrapped)
	tr.close(run.root)
	res.Attempted++
	if !checkRun(s, res, final, stats, err) {
		return
	}
	sp := tr.spans[run.root]
	sr.runMs = append(sr.runMs, float64(sp.End-sp.Start)/1e6)
	sr.addStats(stats, det.Stats())
	sr.histLen += run.histLen.Load()
	sr.detects += run.detects.Load()
}

// finish turns the spans into the per-layer shares and timings.
func (lt *libTracer) finish(res *result, untraced []*subRun) {
	tr := lt.tr
	var all subRun
	var overhead []float64
	for i, sr := range lt.runs {
		overhead = append(overhead, 1-ratio(ratio(float64(sr.commits), sr.seconds()),
			ratio(float64(untraced[i].commits), untraced[i].seconds())))
		all.merge(sr)
	}
	worker := tr.total("stm.run") * threads
	res.set("adt.body_share", ratio(tr.total("adt.body"), worker))
	res.set("conflict.detect_share", ratio(tr.total("conflict.detect"), worker))
	res.set("stm.commit_wait_share", ratio(tr.total("stm.commit_wait"), worker))
	res.set("stm.run_self_share", ratio(tr.selfSeconds("stm.run", threads), worker))
	res.set("adt.body_us_p50", median(tr.micros("adt.body")))
	detect := tr.micros("conflict.detect")
	res.set("conflict.detect_us_p50", median(detect))
	res.set("conflict.detect_us_p99", percentile(detect, 0.99))
	res.set("conflict.history_len_mean", ratio(float64(all.histLen), float64(all.detects)))
	res.set("bench.trace_overhead_share", mean(overhead))
	res.set("bench.runs", float64(tr.count("stm.run")))
	res.Samples["spans"] = len(tr.spans)

	offlineOplog(res, tr, lt.subs, lt.samples)
	for _, s := range lt.subs {
		for i := 0; i < 5; i++ {
			tr.timed("state.clone", -1, -1, func() { _ = s.oracle.Clone() })
		}
	}
	res.set("state.clone_us", median(tr.micros("state.clone")))
}

// offlineOplog times, on the sampled committed logs, what the runtime
// does to each log inside spans the wrappers cannot reach: the streaming
// decomposition with a full cursor drain per location, and the commit's
// replay. The sampled logs of a sub-workload are the first commits of
// one run, in commit order, so they replay over its initial state.
func offlineOplog(res *result, tr *tracer, subs []*libSub, logs [][]oplog.Log) {
	var ops, locs, n float64
	var dec oplog.Decomposer
	var m0, m1 runtime.MemStats
	var mallocs uint64
	for i, sample := range logs {
		st := subs[i].w.NewState()
		for _, log := range sample {
			runtime.ReadMemStats(&m0)
			start := tr.now()
			infos := dec.Stream(log)
			for _, info := range infos {
				it := dec.Iter(info.P)
				for _, more := it.Next(); more; _, more = it.Next() {
				}
			}
			tr.add("oplog.stream", start, tr.now(), -1, -1)
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			ops += float64(len(log))
			locs += float64(len(infos))
			n++
			start = tr.now()
			err := log.Replay(st)
			tr.add("oplog.replay", start, tr.now(), -1, -1)
			if err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("%s: replaying a sampled log: %v", subs[i].w.Name, err))
			}
		}
	}
	dec.Release()
	res.set("oplog.ops_per_txn", ratio(ops, n))
	res.set("oplog.locs_per_txn", ratio(locs, n))
	res.set("oplog.stream_us", median(tr.micros("oplog.stream")))
	res.set("oplog.stream_allocs", ratio(float64(mallocs), n))
	res.set("oplog.replay_us", median(tr.micros("oplog.replay")))
	res.Samples["oplog.logs"] = int(n)
}
