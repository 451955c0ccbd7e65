// Package loadgen is the janus-serve load-generator client: concurrent clients per tenant submit
// deterministic batches over HTTP, honor the typed shed replies
// (Retry-After backoff, duplicate-as-applied, deadline retry), and then
// verify the service's exactly-once contract — every accepted batch
// appears in the tenant journal exactly once and the committed state
// digest equals a sequential-oracle replay of the journal. This is the
// client half of the CI serving smoke test; the shell half SIGTERMs the
// daemon and asserts a clean drain.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/rec"
	"repro/internal/serve"
)

// Opts parameterize a load-generation run against janus-serve.
type Opts struct {
	// URL is the base address of a running janus-serve, e.g.
	// "http://127.0.0.1:8085".
	URL string
	// Tenants, Clients, and Batches shape the run: Tenants independent
	// namespaces, Clients concurrent clients per tenant, Batches batches
	// per client. Zero means 2/4/8.
	Tenants int
	Clients int
	Batches int
	// Attempts bounds the per-batch retry loop (sheds and lost replies
	// are retried; a batch that exhausts the budget counts as given up,
	// which is allowed — it must then NOT appear in the journal).
	// Zero means 60.
	Attempts int
	// Timeout is the per-request HTTP timeout; zero means 30s.
	Timeout time.Duration
	// SeqBase offsets every client's batch sequence numbers. A run
	// against a restarted durable daemon sets SeqBase to the previous
	// run's Batches so its fresh IDs cannot collide with pre-crash ones.
	SeqBase int
	// Resume, with SeqBase > 0, first resubmits every pre-crash batch ID
	// (seq in [0, SeqBase)) and requires the service to resolve each
	// exactly once: 409 carrying the original verdict (journal position
	// and digest) when the batch survived the crash, or a fresh 200 when
	// its record never reached the journal. This is the client half of
	// the crash-restart smoke — it proves acked work is never silently
	// lost or re-applied across a kill.
	Resume bool
}

func (o Opts) withDefaults() Opts {
	if o.Tenants <= 0 {
		o.Tenants = 2
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Batches <= 0 {
		o.Batches = 8
	}
	if o.Attempts <= 0 {
		o.Attempts = 60
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// TenantResult is one tenant's verification outcome.
type TenantResult struct {
	Tenant   string `json:"tenant"`
	Applied  int64  `json:"applied"`
	Accepted int    `json:"accepted"`
	Digest   string `json:"digest"`
	Oracle   string `json:"oracle_digest"`
	OK       bool   `json:"ok"`
}

// Report summarizes a load-generation run.
type Report struct {
	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	Sheds     int64 `json:"sheds"`
	Deadlines int64 `json:"deadline_misses"`
	GaveUp    int64 `json:"gave_up"`
	// Resubmitted and Recovered describe the Resume phase: pre-crash IDs
	// replayed, and how many came back 409 with their original verdict
	// (the rest applied fresh — their pre-crash submission never
	// journaled).
	Resubmitted int64          `json:"resubmitted,omitempty"`
	Recovered   int64          `json:"recovered,omitempty"`
	Tenants     []TenantResult `json:"tenants"`
	OK          bool           `json:"ok"`
}

// batchFor builds the deterministic batch for (tenant, client, seq):
// a mixed-ADT workload over the default schema whose sequential replay is
// the verification oracle. Content is a pure function of the indices, so
// the oracle needs no channel back from the submitting goroutines.
func batchFor(tenant string, cl, seq int) *serve.Batch {
	id := fmt.Sprintf("%s-c%d-b%d", tenant, cl, seq)
	b := &serve.Batch{ID: id}
	for task := 0; task < 4; task++ {
		var ops []serve.OpSpec
		switch task % 4 {
		case 0:
			ops = []serve.OpSpec{
				{Op: "add", Loc: "c0", Delta: int64(cl*100 + seq)},
				{Op: "push", Loc: "stk", Delta: int64(seq)},
			}
		case 1:
			ops = []serve.OpSpec{
				{Op: "put", Loc: "kv", Key: fmt.Sprintf("k-%d-%d", cl, seq), Val: id},
				{Op: "add", Loc: "c1", Delta: 1},
			}
		case 2:
			ops = []serve.OpSpec{
				{Op: "load", Loc: "c0"},
				{Op: "sub", Loc: "c2", Delta: int64(seq)},
			}
		default:
			ops = []serve.OpSpec{
				{Op: "get", Loc: "kv", Key: fmt.Sprintf("k-%d-%d", cl, seq)},
				{Op: "add", Loc: "c3", Delta: 2},
			}
		}
		b.Tasks = append(b.Tasks, serve.TaskSpec{Ops: ops})
	}
	return b
}

// Run drives a running janus-serve and verifies the exactly-once and
// digest invariants. It returns a report plus an error when the run could
// not complete (transport-level failure); invariant violations are
// reported via report.OK=false with details on out.
func Run(out io.Writer, opts Opts) (Report, error) {
	opts = opts.withDefaults()
	client := &http.Client{Timeout: opts.Timeout}
	var rep Report

	tenants := make([]string, opts.Tenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
	}
	// accepted[tenant] is the set of batch IDs a client saw accepted
	// (200, or 409 on a retry after a lost reply).
	accepted := make(map[string]map[string]bool, len(tenants))
	for _, tn := range tenants {
		accepted[tn] = make(map[string]bool)
	}

	// Resume phase: before generating fresh load, replay every pre-crash
	// batch ID and pin down its fate. Each must land exactly once.
	if opts.Resume && opts.SeqBase > 0 {
		for _, tn := range tenants {
			for cl := 0; cl < opts.Clients; cl++ {
				for seq := 0; seq < opts.SeqBase; seq++ {
					b := batchFor(tn, cl, seq)
					status, er, err := resubmit(client, opts, tn, b)
					if err != nil {
						return rep, err
					}
					rep.Resubmitted++
					switch status {
					case http.StatusOK:
						// Never journaled pre-crash; applied fresh now.
					case http.StatusConflict:
						if er.Applied <= 0 || er.Digest == "" {
							return rep, fmt.Errorf("loadgen: resume %s: 409 without original verdict (applied=%d digest=%q)",
								b.ID, er.Applied, er.Digest)
						}
						rep.Recovered++
					}
					accepted[tn][b.ID] = true
				}
			}
		}
		fmt.Fprintf(out, "loadgen: resume resolved %d pre-crash batches (%d survived the crash, %d applied fresh)\n",
			rep.Resubmitted, rep.Recovered, rep.Resubmitted-rep.Recovered)
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for _, tn := range tenants {
		for cl := 0; cl < opts.Clients; cl++ {
			wg.Add(1)
			go func(tenant string, cl int) {
				defer wg.Done()
				for seq := opts.SeqBase; seq < opts.SeqBase+opts.Batches; seq++ {
					b := batchFor(tenant, cl, seq)
					mu.Lock()
					rep.Submitted++
					mu.Unlock()
					ok, err := submitWithRetry(client, opts, tenant, b, &rep, &mu)
					if err != nil {
						fail(err)
						return
					}
					mu.Lock()
					if ok {
						rep.Accepted++
						accepted[tenant][b.ID] = true
					} else {
						rep.GaveUp++
					}
					mu.Unlock()
				}
			}(tn, cl)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return rep, firstErr
	}

	// Verification: journal uniqueness, accepted ⊆ journal, and the
	// sequential-oracle digest per tenant.
	rep.OK = true
	for _, tn := range tenants {
		tr, err := verifyTenant(client, opts.URL, tn, accepted[tn])
		if err != nil {
			return rep, err
		}
		rep.Tenants = append(rep.Tenants, tr)
		if !tr.OK {
			rep.OK = false
			fmt.Fprintf(out, "loadgen: tenant %s FAILED: applied=%d digest=%s oracle=%s\n",
				tn, tr.Applied, tr.Digest, tr.Oracle)
		}
	}
	return rep, nil
}

// submitWithRetry pushes one batch until accepted or the attempt budget
// runs out, honoring the typed shed protocol.
func submitWithRetry(client *http.Client, opts Opts, tenant string, b *serve.Batch, rep *Report, mu *sync.Mutex) (bool, error) {
	for attempt := 0; attempt < opts.Attempts; attempt++ {
		body, err := json.Marshal(b)
		if err != nil {
			return false, err
		}
		resp, err := client.Post(opts.URL+"/submit?tenant="+tenant, "application/json", bytes.NewReader(body))
		if err != nil {
			// Transport hiccup: the outcome is unknown; the retry resolves
			// it (a duplicate reply means it was applied).
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var er serve.ErrorReply
		if resp.StatusCode != http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&er)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusConflict:
			return true, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if er.Code == "" {
				return false, fmt.Errorf("loadgen: untyped %d shed for %s", resp.StatusCode, b.ID)
			}
			mu.Lock()
			rep.Sheds++
			mu.Unlock()
			wait := time.Duration(er.RetryAfterMS) * time.Millisecond
			if wait <= 0 || wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			time.Sleep(wait)
		case http.StatusGatewayTimeout:
			mu.Lock()
			rep.Deadlines++
			mu.Unlock()
			b.DeadlineMS = 0 // drop any tight deadline and retry sanely
		case serve.StatusCanceled:
			time.Sleep(5 * time.Millisecond)
		default:
			return false, fmt.Errorf("loadgen: unexpected status %d (%s: %s) for %s",
				resp.StatusCode, er.Code, er.Error, b.ID)
		}
	}
	return false, nil
}

// resubmit pushes one pre-crash batch until it resolves to a definitive
// 200 or 409, retrying sheds and transport hiccups. Anything else —
// including exhausting the budget — is an error: a restarted service
// must be able to answer for every previously-submitted ID.
func resubmit(client *http.Client, opts Opts, tenant string, b *serve.Batch) (int, serve.ErrorReply, error) {
	var er serve.ErrorReply
	for attempt := 0; attempt < opts.Attempts; attempt++ {
		body, err := json.Marshal(b)
		if err != nil {
			return 0, er, err
		}
		resp, err := client.Post(opts.URL+"/submit?tenant="+tenant, "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		er = serve.ErrorReply{}
		if resp.StatusCode != http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&er)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusConflict:
			return resp.StatusCode, er, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable,
			http.StatusGatewayTimeout, serve.StatusCanceled:
			wait := time.Duration(er.RetryAfterMS) * time.Millisecond
			if wait <= 0 || wait > 100*time.Millisecond {
				wait = 100 * time.Millisecond
			}
			time.Sleep(wait)
		default:
			return resp.StatusCode, er, fmt.Errorf("loadgen: resume %s: unexpected status %d (%s: %s)",
				b.ID, resp.StatusCode, er.Code, er.Error)
		}
	}
	return 0, er, fmt.Errorf("loadgen: resume %s: no definitive reply in %d attempts", b.ID, opts.Attempts)
}

// verifyTenant checks one tenant's journal and state digest against the
// deterministic batch oracle.
func verifyTenant(client *http.Client, base, tenant string, accepted map[string]bool) (TenantResult, error) {
	tr := TenantResult{Tenant: tenant}
	var j serve.JournalReply
	if err := getInto(client, base+"/journalz?tenant="+tenant, &j); err != nil {
		return tr, err
	}
	var st serve.StateReply
	if err := getInto(client, base+"/statez?tenant="+tenant, &st); err != nil {
		return tr, err
	}
	tr.Applied = st.Applied
	tr.Accepted = len(accepted)
	tr.Digest = st.Digest

	seen := make(map[string]bool, len(j.IDs))
	for _, id := range j.IDs {
		if seen[id] {
			return tr, fmt.Errorf("loadgen: tenant %s applied %s twice", tenant, id)
		}
		seen[id] = true
	}
	for id := range accepted {
		if !seen[id] {
			return tr, fmt.Errorf("loadgen: tenant %s lost accepted batch %s", tenant, id)
		}
	}
	if int64(len(j.IDs)) != j.Applied || j.Applied != st.Applied {
		return tr, fmt.Errorf("loadgen: tenant %s journal %d vs applied %d vs statez %d",
			tenant, len(j.IDs), j.Applied, st.Applied)
	}

	// Replay the journal order through the sequential oracle. Batch IDs
	// encode (client, seq), so content is reconstructible.
	sch := serve.DefaultSchema()
	oracle := serve.InitialState(sch)
	for _, id := range j.IDs {
		var cl, seq int
		if _, err := fmt.Sscanf(id, tenant+"-c%d-b%d", &cl, &seq); err != nil {
			return tr, fmt.Errorf("loadgen: tenant %s journal has foreign batch %s", tenant, id)
		}
		var err error
		oracle, err = serve.ApplySequential(oracle, sch, batchFor(tenant, cl, seq))
		if err != nil {
			return tr, fmt.Errorf("loadgen: oracle replay of %s: %v", id, err)
		}
	}
	tr.Oracle = rec.FormatDigest(rec.Digest(oracle))
	tr.OK = tr.Digest == tr.Oracle
	return tr, nil
}

func getInto(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadgen: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// WriteJSON emits the report as indented JSON.
func WriteJSON(out io.Writer, rep Report) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
