package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/rec"
	"repro/internal/spec"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// RunReport is one profiled production run in machine-readable form:
// the full protocol accounting (stm.Stats with the abort-reason
// breakdown), conflict-detector accounting, commutativity-cache
// accounting, and wall-clock timing. This is the JSON shape BENCH_*.json
// trajectory entries use, so perf PRs leave a comparable regression
// trail.
type RunReport struct {
	Workload     string         `json:"workload"`
	Detector     string         `json:"detector"`
	Threads      int            `json:"threads"`
	Size         string         `json:"size"`
	Tasks        int            `json:"tasks"`
	CacheShards  int            `json:"cache_shards"`
	CacheFrozen  bool           `json:"cache_frozen"`
	SequentialNs int64          `json:"sequential_ns"`
	ElapsedNs    int64          `json:"elapsed_ns"`
	Speedup      float64        `json:"speedup"`
	Run          stm.Stats      `json:"run"`
	Conflict     conflict.Stats `json:"conflict"`
	Cache        spec.Stats     `json:"cache"`
	// BackoffBaseNs echoes the backoff base the run used (omitted when
	// disabled).
	BackoffBaseNs int64 `json:"backoff_base_ns,omitempty"`
	// OpsPerTxn / TxnSkew echo the heavy-workload shape knobs (omitted
	// for the paper workloads, which ignore them).
	OpsPerTxn int     `json:"ops_per_txn,omitempty"`
	TxnSkew   float64 `json:"txn_skew,omitempty"`
	// ChaosSeed and Chaos report fault injection: the seed the injector
	// ran with and the faults it actually delivered. Omitted when the run
	// was not chaos-enabled.
	ChaosSeed int64        `json:"chaos_seed,omitempty"`
	Chaos     *chaos.Stats `json:"chaos,omitempty"`
	// Error is the run's failure, when it failed: the report then carries
	// whatever partial accounting was gathered, and consumers must treat
	// the run as unsuccessful (`janus bench` exits nonzero).
	Error string `json:"error,omitempty"`
	// Trace summarizes the attached tracer (event counts, latency
	// histograms) when one was supplied.
	Trace map[string]any `json:"trace,omitempty"`
	// RecordPath / Record report op-trace capture (Opts.RecordPath):
	// where the artifact went and the recorder's counters.
	RecordPath string     `json:"record_path,omitempty"`
	Record     *rec.Stats `json:"record,omitempty"`
	// Replay carries `janus replay`'s verification verdict when the report
	// describes a replayed trace instead of a live workload run.
	Replay *ReplayInfo `json:"replay,omitempty"`
}

// ReplayInfo is the replay-verification block of a `janus replay` report.
type ReplayInfo struct {
	// Trace is the replayed artifact's path.
	Trace string `json:"trace"`
	// Commits is the number of transactions the trace retained.
	Commits int64 `json:"commits"`
	// DigestKind says whether the trace carries a digest: "final" (the
	// recorder was closed with one) or "none".
	DigestKind string `json:"digest_kind"`
	// RecordedDigest / SequentialDigest / ParallelDigest are hex
	// final-state fingerprints: from the trace footer, from commit-order
	// sequential replay, and from the parallel stm re-execution
	// (empty when that stage was skipped).
	RecordedDigest   string `json:"recorded_digest,omitempty"`
	SequentialDigest string `json:"sequential_digest"`
	ParallelDigest   string `json:"parallel_digest,omitempty"`
	// Match reports that every computed digest agreed with the recorded
	// one (vacuously true for stages that didn't run).
	Match bool `json:"match"`
	// RelaxedReads counts the reads the per-op check (-verify-ops) left
	// unchecked because the recorded workload tolerates read-after-write
	// conflicts on their location.
	RelaxedReads int `json:"relaxed_reads,omitempty"`
}

// ProfileRun trains the hindsight engine for w (unless the write-set
// baseline is selected), executes one wall-clock production run with the
// given tracer attached, and returns the full accounting. tracer may be
// nil for untraced JSON reports. On failure the returned report carries
// the error and any partial stats alongside the non-nil error, so callers
// can emit a machine-readable failure record instead of dropping the run.
func ProfileRun(w *workloads.Workload, det Detection, threads int, o Opts, tracer *obs.Trace) (RunReport, error) {
	o = o.defaults()
	tasks := w.Tasks(o.Size, prodSeed)
	rep := RunReport{
		Workload:      w.Name,
		Detector:      det.String(),
		Threads:       threads,
		Size:          o.Size.String(),
		Tasks:         len(tasks),
		BackoffBaseNs: int64(o.BackoffBase),
		ChaosSeed:     o.ChaosSeed,
	}
	if w.Name == workloads.HeavyName {
		rep.OpsPerTxn = o.OpsPerTxn
		rep.TxnSkew = o.TxnSkew
	}
	fail := func(err error) (RunReport, error) {
		rep.Error = err.Error()
		return rep, err
	}

	engine, err := o.trainEngine(w, false)
	if err != nil {
		return fail(fmt.Errorf("bench: training %s: %w", w.Name, err))
	}
	engine.Cache().ResetStats()

	seqStart := time.Now()
	if _, err := stm.RunSequential(w.NewState(), tasks); err != nil {
		return fail(fmt.Errorf("bench: sequential %s: %w", w.Name, err))
	}
	rep.SequentialNs = int64(time.Since(seqStart))

	d := o.detectorFor(engine, det)
	var inj *chaos.Injector
	var hooks *stm.Hooks
	if o.ChaosSeed != 0 {
		// The miss storm (a contiguous burst of forced misses early in the
		// run) sends 500 pair queries in a row down the per-pair write-set
		// fallback (§5.3): the run must stay correct with the cache
		// answering nothing.
		inj = chaos.New(chaos.Config{
			Seed:      o.ChaosSeed,
			AbortProb: 0.25, AbortMaxPerTask: 3,
			DelayProb: 0.2, MaxDelay: 200 * time.Microsecond,
			MissProb:   0.25,
			StormStart: 1, StormLen: 500,
		})
		hooks = inj.Hooks()
		if seq, ok := d.(*conflict.Sequence); ok {
			seq.ForceMiss = inj.ForceMiss
		}
	}
	var tr obs.Tracer
	if tracer != nil {
		tr = tracer
	}
	var recorder *rec.Recorder
	var sink stm.CommitSink
	if o.RecordPath != "" {
		recorder = rec.New(rec.Meta{
			Workload: w.Name,
			Detector: det.String(),
			Ordered:  w.Ordered,
			Threads:  threads,
			Tasks:    len(tasks),
			Seed:     prodSeed,
		}, w.NewState(), rec.Options{})
		sink = recorder
	}
	start := time.Now()
	rt := stm.New(stm.Config{
		Threads:  threads,
		Ordered:  w.Ordered,
		Detector: d,
		Tracer:   tr,
		Backoff:  stm.Backoff{Base: o.BackoffBase},
		Hooks:    hooks,
		Record:   sink,
	}, w.NewState())
	stats, err := rt.Run(context.Background(), tasks)
	rep.ElapsedNs = int64(time.Since(start))
	rep.Run = stats
	switch dd := d.(type) {
	case *conflict.WriteSet:
		rep.Conflict = dd.Stats()
	case *conflict.Sequence:
		rep.Conflict = dd.Stats()
	}
	rep.Cache = engine.Cache().Stats()
	rep.CacheShards = rep.Cache.Shards
	rep.CacheFrozen = engine.Cache().Frozen()
	if inj != nil {
		cs := inj.Stats()
		rep.Chaos = &cs
	}
	if tracer != nil {
		rep.Trace = tracer.Vars()
	}
	if recorder != nil {
		// Seal the capture with the digest of what the run committed: a
		// failed run keeps its commits, so its trace replays to it too.
		recorder.Close(rec.Digest(rt.State()))
		rep.RecordPath = o.RecordPath
		if werr := recorder.WriteFile(o.RecordPath); werr != nil {
			return fail(fmt.Errorf("bench: recording %s: %w", w.Name, werr))
		}
		rs := recorder.Stats()
		rep.Record = &rs
	}
	if err != nil {
		return fail(fmt.Errorf("bench: %s/%s/%d: %w", w.Name, det, threads, err))
	}
	if rep.ElapsedNs > 0 {
		rep.Speedup = float64(rep.SequentialNs) / float64(rep.ElapsedNs)
	}
	return rep, nil
}

// WriteJSON renders reports as indented JSON (an array, one element per
// profiled run).
func WriteJSON(out io.Writer, reports []RunReport) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
