package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"

	"repro/internal/cluster"
	"repro/internal/ingest"
)

// nClients is the closed-loop client count: one per core of the
// two-core host the benchmark was sized on.
const nClients = 2

// operation is one request (or request pair) of a workload; it returns
// an error when the request fails or its response is wrong.
type operation func(ctx context.Context, hc *http.Client, base string) error

// workload builds a workload's server-side state on a fresh cluster and
// returns each client's deterministic operation sequence over it.
type workload interface {
	setup(ctx context.Context, cl *localCluster, hc *http.Client) (streams []func() operation, err error)
}

var workloadNames = []string{"session_eval", "ingest_replay", "dml_pcall"}

// Benchprog sets per workload, and the scale each is rendered at.
var (
	sessionProgs = []string{"slang", "plagen", "lyra", "editor", "pearl"}
	dmlProgs     = []string{"editor", "plagen", "lyra"} // the programs whose drivers spawn futures
	ingestProgs  = []string{"editor", "lyra"}
)

const (
	progScale   = 1
	ingestScale = 2
	nShortCalls = 12 // distinct short calls per program
	nSimSeeds   = 4  // distinct simulation seeds an ingest run draws from
	driverEvery = 16 // a session op is the full driver with probability 1/driverEvery
)

// seedRand derives an independent generator for one purpose from the
// run seed, so adding a draw for one purpose does not shift the others.
func seedRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose*7_919 + 1))
}

// Generator purposes.
const (
	randPrograms = iota
	randIDs
	randSimSeeds
	randClient // + client index
)

// post sends a JSON body and decodes a JSON reply into out, requiring
// the given status.
func post(ctx context.Context, hc *http.Client, url, contentType string, body []byte, status int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != status {
		return fmt.Errorf("POST %s: status %d, want %d: %.200s", req.URL.Path, resp.StatusCode, status, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("POST %s: %w", req.URL.Path, err)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// evalOp evaluates expr in a session and checks the value.
func evalOp(id, expr, want string) operation {
	body := mustJSON(map[string]string{"expr": expr})
	return func(ctx context.Context, hc *http.Client, base string) error {
		var got evalReply
		if err := post(ctx, hc, base+"/v1/sessions/"+id+"/eval", "application/json", body, http.StatusOK, &got); err != nil {
			return err
		}
		return checkEval(id, got, want)
	}
}

// createSession makes a session with a caller-chosen ID and loads p.
func createSession(ctx context.Context, hc *http.Client, base, id, backend string, p *program) error {
	req := mustJSON(map[string]string{"id": id, "backend": backend})
	if err := post(ctx, hc, base+"/v1/sessions", "application/json", req, http.StatusCreated, nil); err != nil {
		return err
	}
	return evalOp(id, p.load(), p.loadWant)(ctx, hc, base)
}

// placeID draws a session ID from rng for the given stem and returns
// the first variant the gateway's rendezvous hash puts on the worker of
// the given rank among the sorted peers. Placement by rank, not by
// address, keeps it identical across runs although worker ports vary.
func placeID(rng *rand.Rand, stem string, peers []string, rank int) string {
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	target := sorted[rank%len(sorted)]
	base := fmt.Sprintf("%s-%08x", stem, rng.Uint32())
	for k := 0; ; k++ {
		id := fmt.Sprintf("%s-%d", base, k)
		if cluster.Rendezvous(peers, id) == target {
			return id
		}
	}
}

// sessionEval is the session_eval workload: vm-backend sessions, one
// per client and benchprog, each taking mostly short calls and now and
// then its full driver.
type sessionEval struct {
	seed  int64
	progs []*program
}

func newSessionEval(seed int64) (*sessionEval, error) {
	w := &sessionEval{seed: seed}
	rng := seedRand(seed, randPrograms)
	for _, name := range sessionProgs {
		p, err := newProgram(name, progScale, nShortCalls, rng)
		if err != nil {
			return nil, err
		}
		w.progs = append(w.progs, p)
	}
	return w, nil
}

// sessionIDs names client c's sessions; sessions alternate between the
// workers so each program has one session on each.
func (w *sessionEval) sessionIDs(peers []string) [][]string {
	rng := seedRand(w.seed, randIDs)
	ids := make([][]string, nClients)
	for c := range ids {
		for i, p := range w.progs {
			ids[c] = append(ids[c], placeID(rng, fmt.Sprintf("c%d-%s", c, p.name), peers, c+i))
		}
	}
	return ids
}

func (w *sessionEval) setup(ctx context.Context, cl *localCluster, hc *http.Client) ([]func() operation, error) {
	ids := w.sessionIDs(cl.peers)
	for c := range ids {
		for i, p := range w.progs {
			if err := createSession(ctx, hc, cl.gatewayURL(), ids[c][i], "vm", p); err != nil {
				return nil, err
			}
		}
	}
	streams := make([]func() operation, nClients)
	for c := range streams {
		// Operations are built once, so the load clients spend no CPU
		// encoding requests.
		drivers := make([]operation, len(w.progs))
		shorts := make([][]operation, len(w.progs))
		for i, p := range w.progs {
			drivers[i] = evalOp(ids[c][i], p.driver, p.driverWant)
			for j, e := range p.short {
				shorts[i] = append(shorts[i], evalOp(ids[c][i], e, p.shortWant[j]))
			}
		}
		rng := seedRand(w.seed, randClient+int64(c))
		streams[c] = func() operation {
			i := rng.Intn(len(w.progs))
			if rng.Intn(driverEvery) == 0 {
				return drivers[i]
			}
			return shorts[i][rng.Intn(len(shorts[i]))]
		}
	}
	return streams, nil
}

// dmlPcall is the dml_pcall workload: gateway-resident dml sessions,
// one per client and spawning benchprog, each evaluating its driver.
type dmlPcall struct {
	seed  int64
	progs []*program
}

func newDMLPcall(seed int64) (*dmlPcall, error) {
	w := &dmlPcall{seed: seed}
	rng := seedRand(seed, randPrograms)
	for _, name := range dmlProgs {
		p, err := newProgram(name, progScale, 1, rng)
		if err != nil {
			return nil, err
		}
		w.progs = append(w.progs, p)
	}
	return w, nil
}

func (w *dmlPcall) setup(ctx context.Context, cl *localCluster, hc *http.Client) ([]func() operation, error) {
	rng := seedRand(w.seed, randIDs)
	streams := make([]func() operation, nClients)
	for c := range streams {
		ops := make([]operation, len(w.progs))
		for i, p := range w.progs {
			id := fmt.Sprintf("d%d-%s-%08x", c, p.name, rng.Uint32())
			if err := createSession(ctx, hc, cl.gatewayURL(), id, "dml", p); err != nil {
				return nil, err
			}
			ops[i] = evalOp(id, p.driver, p.driverWant)
		}
		crng := seedRand(w.seed, randClient+int64(c))
		streams[c] = func() operation { return ops[crng.Intn(len(ops))] }
	}
	return streams, nil
}

// ingestReplay is the ingest_replay workload: each client is a tenant
// that pushes a trace and runs it over two shards, alternating traces.
type ingestReplay struct {
	seed     int64
	traces   []*ingestTrace
	simSeeds []int64
}

func newIngestReplay(ctx context.Context, seed int64) (*ingestReplay, error) {
	w := &ingestReplay{seed: seed}
	rng := seedRand(seed, randSimSeeds)
	for i := 0; i < nSimSeeds; i++ {
		w.simSeeds = append(w.simSeeds, rng.Int63n(1<<31))
	}
	for _, name := range ingestProgs {
		it, err := newIngestTrace(ctx, name, ingestScale, w.simSeeds)
		if err != nil {
			return nil, err
		}
		w.traces = append(w.traces, it)
	}
	return w, nil
}

// ingestOp pushes it as tenant and runs it under the given sim seed.
func ingestOp(tenant string, it *ingestTrace, simSeed int64) operation {
	run := mustJSON(map[string]any{"point": map[string]int64{"seed": simSeed}, "shards": ingestShards})
	return func(ctx context.Context, hc *http.Client, base string) error {
		url := base + "/v1/ingest/" + tenant
		if err := post(ctx, hc, url, "application/x-smtb", it.smtb, http.StatusAccepted, nil); err != nil {
			return err
		}
		var got struct {
			Plan  []ingest.Shard  `json:"plan"`
			Stats json.RawMessage `json:"stats"`
		}
		if err := post(ctx, hc, url+"/run", "application/json", run, http.StatusOK, &got); err != nil {
			return err
		}
		if err := it.checkPlan(got.Plan); err != nil {
			return err
		}
		return it.checkStats(simSeed, got.Stats)
	}
}

func (w *ingestReplay) setup(ctx context.Context, cl *localCluster, hc *http.Client) ([]func() operation, error) {
	rng := seedRand(w.seed, randIDs)
	streams := make([]func() operation, nClients)
	for c := range streams {
		tenant := fmt.Sprintf("t%d-%08x", c, rng.Uint32())
		ops := make([][]operation, len(w.traces)) // per trace, per sim seed
		for k, it := range w.traces {
			for _, s := range w.simSeeds {
				ops[k] = append(ops[k], ingestOp(tenant, it, s))
			}
		}
		crng := seedRand(w.seed, randClient+int64(c))
		n := c // clients start on different traces
		streams[c] = func() operation {
			k := n % len(ops)
			n++
			return ops[k][crng.Intn(len(ops[k]))]
		}
	}
	return streams, nil
}

// newWorkload builds the named workload's inputs and references.
func newWorkload(ctx context.Context, name string, seed int64) (workload, error) {
	switch name {
	case "session_eval":
		return newSessionEval(seed)
	case "dml_pcall":
		return newDMLPcall(seed)
	case "ingest_replay":
		return newIngestReplay(ctx, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
