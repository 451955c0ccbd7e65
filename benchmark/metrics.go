package main

import (
	"fmt"
	"io"
	"strings"
)

// Workload names are fixed: later issues cite them.
const (
	wlPaperMix = "paper-mix"
	wlHeavyTxn = "heavy-txn"
	wlServeMem = "serve-mem"
	wlServeDur = "serve-durable"
	wlRecovery = "restart-recovery"
)

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{wlPaperMix, "The paper's five loops at production size: short transactions over 5 to 20067 locations; runtime overhead, privatization and relational ADTs do the work, detection is a few percent."},
	{wlHeavyTxn, "128 tasks of 1024 logged ops over 65 counters: past the streaming threshold, so oplog.Stream and DetectPrepared dominate; state is tiny, so privatization changes predict no move."},
	{wlServeMem, "One in-memory tenant with a 1024-key map, two closed-loop clients on one gate: every O(state) cost on the ack path and gate waiting show; no WAL."},
	{wlServeDur, "Two durable tenants with 32-key state at fsync always: wal.Append+fsync and the fixed per-request cost dominate, snapshots give the tail; O(state) fixes predict no move."},
	{wlRecovery, "RecoverTenants on a copy of a two-tenant journal (snapshot plus 256-record suffix each): the wal read path, DecodeState and sequential replay, so a write-path gain bought with recovery time shows."},
}

// The five sub-workloads of paper-mix, in the paper's order.
var paperSubs = []string{"jfilesync", "jgrapht1", "jgrapht2", "pmd", "weka"}

// metricDef names one metric. Bound and Slack apply to end-to-end
// metrics only: -compare reports a regression when the new median is
// worse than the old by more than Bound×old + Slack. The driver applies
// Bound alone, to the gates.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Slack  float64
	// On lists the workloads that measure the metric; nil means all.
	// Elsewhere it reads 0: the layer is not exercised.
	On []string
	// Gate marks the end-to-end metrics every workload measures; they are
	// BENCHMARK.json's end_to_end list. The rest of the thirteen apply to
	// some workloads only and ride in its per_layer list.
	Gate bool
	Note string
}

var (
	onLibrary = []string{wlPaperMix, wlHeavyTxn}
	onServe   = []string{wlServeMem, wlServeDur}
	onDurable = []string{wlServeDur, wlRecovery}
	onState   = []string{wlServeMem, wlServeDur, wlRecovery}
)

// endToEnd are the metrics a user of the system sees, measured with
// tracing off: the issue's thirteen and batch_steady_ms, the latency
// the driver gates. A txn is one committed (or, in recovery, replayed)
// task; a batch is the unit a caller hands over and waits for: one Run
// call, one HTTP submit, one RecoverTenants.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.2, Gate: true, Note: "set-up, the fastest of the repeats: train and freeze, or start the server and preload, or build the recovery fixture"},
	{Name: "batch_steady_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gate: true, Note: "the steadiest estimate of one batch's latency: sequential batches (library, recovery) the fastest of the run, concurrent closed loops (serve) the mean (paper-mix: geometric mean of the five)"},
	{Name: "txn_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Note: "committed transactions per second at 2 threads over the whole run (paper-mix: geometric mean of the five)"},
	{Name: "allocs_per_txn", Unit: "count", Better: "lower", Bound: 0.05, Gate: true, Note: "mallocs of the whole process per committed transaction"},
	{Name: "alloc_kb_per_txn", Unit: "KiB", Better: "lower", Bound: 0.25, Note: "KiB allocated per committed transaction"},
	{Name: "sim_speedup_8t", Unit: "x", Better: "higher", Bound: 0.005, On: []string{wlPaperMix}, Note: "simulated speedup over sequential at 8 threads, bench.Measure, geometric mean; deterministic"},
	{Name: "sim_retries_per_txn_8t", Unit: "count", Better: "lower", Bound: 0.005, On: []string{wlPaperMix}, Note: "simulated retries per transaction at 8 threads, mean; deterministic"},
	{Name: "batch_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: onServe, Note: "acknowledged batches per second"},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Note: "median latency of one batch, caller side"},
	{Name: "batch_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onServe, Note: "99th percentile of the same; bench.samples says how many samples lie beyond it"},
	{Name: "allocs_per_batch", Unit: "count", Better: "lower", Bound: 0.05, On: onServe, Note: "mallocs of the whole process per acknowledged batch"},
	{Name: "alloc_kb_per_batch", Unit: "KiB", Better: "lower", Bound: 0.25, On: onServe, Note: "KiB allocated per acknowledged batch"},
	{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.25, On: []string{wlRecovery}, Note: "median of one full RecoverTenants"},
	{Name: "failed_share", Unit: "share", Better: "lower", Slack: 0.001, Note: "failed or refused batches over attempted: run errors, non-200 replies, failed recoveries, output mismatches"},
}

// perLayer are the metrics of single layers; layer names are the repo's
// packages. They have no bound.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, on []string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, On: on})
		}
	}
	for _, sub := range paperSubs {
		add("1/s", "higher", []string{wlPaperMix}, "stm.txn_per_s."+sub)
	}
	add("1/s", "higher", onLibrary, "stm.seq_txn_per_s")
	add("x", "higher", onLibrary, "stm.speedup_vs_seq")
	add("count", "lower", onLibrary, "stm.retries_per_txn")
	add("share", "lower", onLibrary, "stm.run_self_share", "stm.commit_wait_share")
	add("count", "higher", onLibrary, "stm.validations_skipped_per_txn")
	add("count", "lower", onLibrary, "stm.max_hist", "stm.escalations", "stm.backoff_waits")

	add("share", "lower", onLibrary, "adt.body_share")
	add("us", "lower", onLibrary, "adt.body_us_p50")
	add("us", "lower", onState, "relation.put_us", "relation.get_us")
	add("us", "lower", nil, "state.clone_us")
	add("count", "lower", nil, "state.locs", "state.rel_tuples")

	add("share", "lower", onLibrary, "conflict.detect_share")
	add("us", "lower", onLibrary, "conflict.detect_us_p50", "conflict.detect_us_p99")
	add("count", "lower", onLibrary, "conflict.detects_per_txn", "conflict.pair_queries_per_detect", "conflict.history_len_mean")
	add("share", "lower", onLibrary, "conflict.fallback_share", "conflict.conflict_share")

	add("count", "lower", onLibrary, "oplog.ops_per_txn", "oplog.locs_per_txn")
	add("us", "lower", onLibrary, "oplog.stream_us")
	add("count", "lower", onLibrary, "oplog.stream_allocs")
	add("us", "lower", onLibrary, "oplog.replay_us")

	add("count", "lower", onLibrary, "cache.lookups_per_txn")
	add("share", "higher", onLibrary, "cache.hit_share")
	add("share", "lower", onLibrary, "cache.unique_miss_share")
	add("count", "lower", onLibrary, "cache.entries")

	add("s", "lower", onLibrary, "train.train_s")

	for _, sub := range paperSubs {
		add("x", "higher", []string{wlPaperMix}, "vtime.speedup_8t."+sub)
	}
	for _, sub := range paperSubs {
		add("count", "lower", []string{wlPaperMix}, "vtime.retries_per_txn_8t."+sub)
	}

	add("bytes", "lower", onServe, "serve.request_bytes")
	add("us", "lower", onState, "serve.decode_us", "serve.apply_seq_us")
	add("ms", "lower", onServe, "serve.run_ms")
	add("count", "lower", onServe, "serve.commits_per_batch", "serve.retries_per_batch")
	add("share", "lower", onServe, "serve.shed_share")
	add("x", "lower", onServe, "serve.p50_last_over_first")
	add("ms", "lower", onServe, "serve.unattributed_ms", "serve.healthz_ms", "serve.statez_ms")

	add("us", "lower", onState, "rec.digest_us", "rec.encode_state_us", "rec.decode_state_us")
	add("bytes", "lower", onState, "rec.state_bytes")

	add("us", "lower", []string{wlServeDur}, "wal.append_us_p50", "wal.append_us_p99", "wal.append_nosync_us")
	add("count", "lower", []string{wlServeDur}, "wal.syncs_per_append")
	add("bytes", "lower", []string{wlServeDur}, "wal.disk_bytes_per_batch")
	add("x", "lower", []string{wlServeDur}, "wal.bytes_per_user_byte")
	add("ms", "lower", onDurable, "wal.snapshot_ms")
	add("count", "higher", onDurable, "wal.snapshots")
	add("ms", "lower", []string{wlRecovery}, "wal.recover_ms")
	add("count", "lower", []string{wlRecovery}, "recover.records_replayed")
	add("us", "lower", []string{wlRecovery}, "recover.us_per_record")

	add("count", "lower", onServe, "health.demotions", "health.tripped")

	add("share", "lower", nil, "bench.trace_overhead_share")
	add("count", "higher", nil, "bench.samples", "bench.runs")
	return out
}

func (m metricDef) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// gateMetrics is BENCHMARK.json's end_to_end list; layerMetrics its
// per_layer list: the workload-specific end-to-end metrics, then the
// layers.
func gateMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if m.Gate {
			out = append(out, m)
		}
	}
	return out
}

func layerMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEnd {
		if !m.Gate {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// printList writes every workload and metric name with unit and
// direction (-list).
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadDefs {
		fmt.Fprintf(w, "  %-17s %s\n", wl.Name, wl.Why)
	}
	row := func(m metricDef) {
		on := "all"
		if m.On != nil {
			on = strings.Join(m.On, ",")
		}
		bound := ""
		if m.Bound > 0 || m.Slack > 0 {
			bound = fmt.Sprintf("bound %g%%", m.Bound*100)
			if m.Slack > 0 {
				bound += fmt.Sprintf(" + %g", m.Slack)
			}
		}
		fmt.Fprintf(w, "  %-34s %-6s %-7s %-12s %s\n", m.Name, m.Unit, m.Better, bound, on)
		if m.Note != "" {
			fmt.Fprintf(w, "  %-34s %s\n", "", m.Note)
		}
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, m := range endToEnd {
		row(m)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, m := range perLayer {
		row(m)
	}
}
