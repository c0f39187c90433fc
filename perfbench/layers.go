package main

// The traced run's per-layer probes. Each probe enters the same request
// at successive layer boundaries, outermost first, by calling that
// layer's public Go function, and times every entry; a layer's self
// time is the median at its boundary minus the medians of the layers
// it calls. Nothing inside smalld is instrumented.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/cluster/wire"
	"repro/internal/core"
	"repro/internal/dml"
	"repro/internal/ingest"
	"repro/internal/lisp"
	"repro/internal/server"
	"repro/internal/sexpr"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vm"
)

// sessionStepLimit matches smalld's default per-eval budget.
const sessionStepLimit = 5_000_000

// timed runs f and returns its wall time in microseconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// checker counts probe-side correctness checks.
type checker struct {
	attempted, failed int
	firstErr          error
}

func (c *checker) check(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// rpcClients dials each worker's RPC port, keyed by address.
func rpcClients(cl *localCluster) map[string]*client.Client {
	m := map[string]*client.Client{}
	for _, addr := range cl.peers {
		m[addr] = client.New(addr)
	}
	return m
}

// sessionProbe measures the session-eval path on short calls.
type sessionProbe struct {
	w        *sessionEval
	hc       *http.Client
	base     string
	ids      []string         // per program, on the live cluster
	rpc      []*client.Client // per program, the worker owning ids[i]
	srv      *server.Server   // in-process server with the same sessions
	vms      []*vm.Session
	defForms [][]sexpr.Value

	gw, smcr, handler, run, parse, compile []float64
	runs, allocs                           uint64
}

func newSessionProbe(ctx context.Context, w *sessionEval, cl *localCluster, rpc map[string]*client.Client) (*sessionProbe, error) {
	p := &sessionProbe{w: w, hc: newClient(), base: cl.gatewayURL(), srv: server.New(server.Config{})}
	rng := seedRand(w.seed, randIDs+100)
	for i, prog := range w.progs {
		id := placeID(rng, "probe-"+prog.name, cl.peers, i)
		if err := createSession(ctx, p.hc, p.base, id, "vm", prog); err != nil {
			p.close()
			return nil, err
		}
		p.ids = append(p.ids, id)
		p.rpc = append(p.rpc, rpc[cluster.Rendezvous(cl.peers, id)])

		rec := httptest.NewRecorder()
		p.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions",
			bytes.NewReader(mustJSON(map[string]string{"id": id, "backend": "vm"}))))
		if rec.Code != http.StatusCreated {
			p.close()
			return nil, fmt.Errorf("in-process session create: %d %s", rec.Code, rec.Body)
		}
		if err := p.serve(id, prog.load(), prog.loadWant); err != nil {
			p.close()
			return nil, err
		}

		s := vm.NewSession(vm.WithMachine(core.NewMachine(core.Config{})),
			vm.WithOutput(io.Discard), vm.WithStepLimit(sessionStepLimit))
		if _, err := s.Run(prog.load()); err != nil {
			p.close()
			return nil, fmt.Errorf("in-process vm load of %s: %w", prog.name, err)
		}
		p.vms = append(p.vms, s)
		defs, err := sexpr.ParseAll(prog.defs)
		if err != nil {
			p.close()
			return nil, err
		}
		p.defForms = append(p.defForms, defs)
	}
	return p, nil
}

func (p *sessionProbe) close() { p.srv.Shutdown() }

// serve evaluates through the in-process server's handler.
func (p *sessionProbe) serve(id, expr, want string) error {
	rec := httptest.NewRecorder()
	p.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/"+id+"/eval",
		bytes.NewReader(mustJSON(map[string]string{"expr": expr}))))
	return checkReply("in-process "+id, rec.Code, rec.Body.Bytes(), want)
}

// checkReply checks an eval response given as status and body.
func checkReply(what string, code int, body []byte, want string) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", what, code, body)
	}
	var got evalReply
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return checkEval(what, got, want)
}

// round enters every short call of every program once at each layer.
func (p *sessionProbe) round(ctx context.Context, ck *checker) {
	hdr := []wire.Header{{Key: "Content-Type", Value: "application/json"}}
	for i, prog := range p.w.progs {
		id := p.ids[i]
		for j, expr := range prog.short {
			want := prog.shortWant[j]
			body := mustJSON(map[string]string{"expr": expr})
			p.gw = append(p.gw, timed(func() {
				ck.check(evalOp(id, expr, want)(ctx, p.hc, p.base))
			}))
			var f *wire.Frame
			var err error
			p.smcr = append(p.smcr, timed(func() {
				f, err = p.rpc[i].Do(ctx, http.MethodPost, "/v1/sessions/"+id+"/eval", hdr, body)
			}))
			if err == nil {
				err = checkReply("rpc "+id, f.Status, f.Body, want)
			}
			ck.check(err)
			p.handler = append(p.handler, timed(func() { ck.check(p.serve(id, expr, want)) }))
			var forms []sexpr.Value
			p.parse = append(p.parse, timed(func() { forms, err = sexpr.ParseAll(expr) }))
			ck.check(err)
			all := append(append([]sexpr.Value(nil), p.defForms[i]...), forms...)
			p.compile = append(p.compile, timed(func() { _, err = vm.CompileForms(all) }))
			ck.check(err)
		}
	}
	// Session.Run on its own, bracketed by one allocation count.
	before := mallocs()
	for i, prog := range p.w.progs {
		for j, expr := range prog.short {
			var v sexpr.Value
			var err error
			p.vms[i].ResetSteps()
			p.run = append(p.run, timed(func() { v, err = p.vms[i].Run(expr) }))
			if err == nil && lisp.Format(v) != prog.shortWant[j] {
				err = fmt.Errorf("in-process vm %s: %s, want %s", expr, lisp.Format(v), prog.shortWant[j])
			}
			ck.check(err)
			p.runs++
		}
	}
	p.allocs += mallocs() - before
}

func (p *sessionProbe) metrics(out map[string]float64) {
	gw, smcr, h, run := median(p.gw), median(p.smcr), median(p.handler), median(p.run)
	parse, comp := median(p.parse), median(p.compile)
	out["cluster.gateway_self_us"] = selfTime(gw, smcr)
	out["cluster.smcr_self_us"] = selfTime(smcr, h)
	out["server.handler_self_us"] = selfTime(h, run)
	out["sexpr.parse_us"] = parse
	out["vm.compile_us"] = comp
	out["vm.run_us"] = selfTime(run, parse, comp)
	out["vm.allocs_per_op"] = float64(p.allocs) / float64(p.runs)
}

// ingestProbe measures the ingest path per trace; its metrics average
// the per-trace medians, as the workload alternates the traces.
type ingestProbe struct {
	w      *ingestReplay
	rpc    []*client.Client
	seed   int64
	params []byte

	decode, pre, preAllocs, push, plan, simRun, replay, hop [][]float64 // per trace
}

func newIngestProbe(w *ingestReplay, cl *localCluster, rpc map[string]*client.Client) *ingestProbe {
	n := len(w.traces)
	p := &ingestProbe{
		w: w, seed: w.simSeeds[0],
		params: mustJSON(map[string]int64{"seed": w.simSeeds[0]}),
		decode: make([][]float64, n), pre: make([][]float64, n), preAllocs: make([][]float64, n),
		push: make([][]float64, n), plan: make([][]float64, n), simRun: make([][]float64, n),
		replay: make([][]float64, n), hop: make([][]float64, n),
	}
	for _, addr := range cl.peers {
		p.rpc = append(p.rpc, rpc[addr])
	}
	return p
}

// planReps repeats the planner per sample: one call takes well under a
// microsecond.
const planReps = 1000

func (p *ingestProbe) round(ctx context.Context, ck *checker) {
	sp := sim.Params{Seed: p.seed}
	for k, it := range p.w.traces {
		var tr *trace.Trace
		var err error
		p.decode[k] = append(p.decode[k], timed(func() { tr, _, err = trace.ReadAuto(bytes.NewReader(it.smtb)) }))
		if ck.check(err); err != nil {
			continue
		}
		before := mallocs()
		p.pre[k] = append(p.pre[k], timed(func() { trace.Preprocess(tr) }))
		p.preAllocs[k] = append(p.preAllocs[k], float64(mallocs()-before))

		stg := ingest.NewStaging(ingest.Limits{})
		var seg ingest.Segment
		p.push[k] = append(p.push[k], timed(func() { seg, err = stg.Push("probe", bytes.NewReader(it.smtb)) }))
		if ck.check(err); err != nil {
			continue
		}
		segs := []ingest.Segment{seg}
		var plan []ingest.Shard
		p.plan[k] = append(p.plan[k], timed(func() {
			for r := 0; r < planReps; r++ {
				plan = ingest.PlanSegments(segs, ingestShards)
			}
		})/planReps)
		ck.check(it.checkPlan(plan))

		// Each shard replayed alone, then through Replay and through a
		// worker's shard verb.
		var simSum float64
		var shardWant []sim.ShardStats
		for _, sh := range plan {
			view, err := trace.SubStream(seg.Stream, sh.Lo, sh.Hi)
			if ck.check(err); err != nil {
				return
			}
			var res *sim.Result
			simSum += timed(func() { res, err = sim.RunCtx(ctx, view, sp) })
			if ck.check(err); err != nil {
				return
			}
			shardWant = append(shardWant, sim.ShardOf(res))
		}
		p.simRun[k] = append(p.simRun[k], simSum)

		// Replay's own cost: its runner hands back the shard results just
		// computed, so no simulation time has to be subtracted.
		runner := ingest.RunnerFunc(func(ctx context.Context, req *ingest.ShardRequest) (*sim.ShardStats, error) {
			st := shardWant[req.Index]
			return &st, nil
		})
		var merged *sim.ShardStats
		p.replay[k] = append(p.replay[k], timed(func() { merged, err = ingest.Replay(ctx, runner, segs, plan, p.params) }))
		if err == nil {
			err = it.checkStats(p.seed, mustJSON(merged))
		}
		ck.check(err)

		enc, ix, err := seg.Encoded()
		if err == nil && ix == nil {
			err = fmt.Errorf("%s: staged segment has no index", it.name)
		}
		if ck.check(err); err != nil {
			continue
		}
		var hopSum float64
		for i, sh := range plan {
			payload, err := trace.AppendSlicePayload(nil, enc, ix, sh.Lo/trace.BlockEvents,
				(sh.Hi+trace.BlockEvents-1)/trace.BlockEvents)
			if ck.check(err); err != nil {
				return
			}
			var f *wire.Frame
			hopSum += timed(func() { f, err = p.rpc[i%len(p.rpc)].ShardJob(ctx, p.params, payload, i, len(plan)) })
			if err == nil {
				err = checkShardReply(f, &shardWant[i])
			}
			ck.check(err)
		}
		p.hop[k] = append(p.hop[k], hopSum)
	}
}

// checkShardReply compares a worker's shard-job answer with the same
// shard replayed in process.
func checkShardReply(f *wire.Frame, want *sim.ShardStats) error {
	if f.Status != http.StatusOK {
		return fmt.Errorf("shard job: status %d: %.200s", f.Status, f.Body)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, f.Body); err != nil {
		return fmt.Errorf("shard job: %w", err)
	}
	if w := mustJSON(want); !bytes.Equal(buf.Bytes(), w) {
		return fmt.Errorf("shard job: stats %s, want %s", buf.Bytes(), w)
	}
	return nil
}

// perOp averages the medians of sample sets, one set per trace or
// program: the workloads spread their operations evenly over them.
func perOp(samples [][]float64) float64 {
	total := 0.0
	for _, s := range samples {
		total += median(s)
	}
	return total / float64(len(samples))
}

func (p *ingestProbe) metrics(out map[string]float64) {
	decode, pre, simRun := perOp(p.decode), perOp(p.pre), perOp(p.simRun)
	out["trace.decode_us"] = decode
	out["trace.preprocess_us"] = pre
	out["trace.preprocess_allocs"] = perOp(p.preAllocs)
	out["ingest.push_self_us"] = selfTime(perOp(p.push), decode, pre)
	out["ingest.plan_us"] = perOp(p.plan)
	out["sim.replay_us"] = simRun
	out["ingest.replay_self_us"] = perOp(p.replay)
	out["cluster.shard_hop_us"] = selfTime(perOp(p.hop), simRun)
	events := 0
	for _, it := range p.w.traces {
		events += it.events
	}
	out["sim.events_per_op"] = float64(events) / float64(len(p.w.traces))
}

// dmlProbe measures the dml path: the single-node interpreter on the
// same drivers, a trivial future's round trip, and the coordinator's
// message counts over real workers.
type dmlProbe struct {
	w      *dmlPcall
	interp []*lisp.Interp
	rpc    []*client.Client
	token  string

	eval [][]float64 // per program
	rtt  []float64
}

// rttProg is the program token and definitions of the round-trip
// probe's trivial future.
const (
	rttToken = "perfbench-rtt"
	rttDefs  = "(def perfbench-one (lambda () 1))"
	rttExpr  = "(+ 1 2)"
)

func newDMLProbe(w *dmlPcall, cl *localCluster, rpc map[string]*client.Client) (*dmlProbe, error) {
	p := &dmlProbe{w: w, eval: make([][]float64, len(w.progs))}
	for _, prog := range w.progs {
		in := lisp.New(lisp.WithOutput(io.Discard), lisp.WithStepLimit(refStepLimit))
		if _, err := in.Run(prog.load()); err != nil {
			return nil, fmt.Errorf("lisp load of %s: %w", prog.name, err)
		}
		p.interp = append(p.interp, in)
	}
	for _, addr := range cl.peers {
		p.rpc = append(p.rpc, rpc[addr])
	}
	return p, nil
}

func (p *dmlProbe) round(ctx context.Context, ck *checker, first bool) {
	for i, prog := range p.w.progs {
		var v sexpr.Value
		var err error
		p.interp[i].ResetSteps()
		p.eval[i] = append(p.eval[i], timed(func() { v, err = p.interp[i].Run(prog.driver) }))
		if err == nil && lisp.Format(v) != prog.driverWant {
			err = fmt.Errorf("lisp %s: %.100s, want %.100s", prog.name, lisp.Format(v), prog.driverWant)
		}
		ck.check(err)
	}
	for _, c := range p.rpc {
		var flags uint64
		defs := ""
		if first {
			flags, defs = wire.SpawnInstall, rttDefs
		}
		var err error
		var id int64
		p.rtt = append(p.rtt, timed(func() { id, err = spawnTouch(ctx, c, flags, defs) }))
		if ck.check(err); err != nil {
			continue
		}
		// Return the future's whole weight so the worker frees it.
		f, err := c.WeightDec(ctx, []wire.DecEntry{{ObjID: id, Weight: dml.InitialWeight}})
		if err == nil && f.Status != http.StatusOK {
			err = fmt.Errorf("weight dec: status %d", f.Status)
		}
		ck.check(err)
	}
}

// spawnTouch spawns the trivial future at a worker and touches it.
func spawnTouch(ctx context.Context, c *client.Client, flags uint64, defs string) (int64, error) {
	f, err := c.FutureSpawn(ctx, flags, rttToken, defs, rttExpr, "")
	if err != nil {
		return 0, err
	}
	if f.Status != http.StatusOK {
		return 0, fmt.Errorf("future spawn: status %d: %.200s", f.Status, f.Body)
	}
	var sp dml.SpawnReply
	if err := json.Unmarshal(f.Body, &sp); err != nil {
		return 0, err
	}
	f, err = c.FutureTouch(ctx, sp.ObjID)
	if err != nil {
		return 0, err
	}
	var tr dml.TouchReply
	if f.Status != http.StatusOK {
		return 0, fmt.Errorf("future touch: status %d: %.200s", f.Status, f.Body)
	}
	if err := json.Unmarshal(f.Body, &tr); err != nil {
		return 0, err
	}
	if tr.Error != "" || tr.Value != "3" {
		return 0, fmt.Errorf("future touch: value %q error %q, want 3", tr.Value, tr.Error)
	}
	return sp.ObjID, nil
}

// dmlCountOps is the length of the operation sequence the message
// counts are taken over.
const dmlCountOps = 24

// counts evaluates client 0's first dmlCountOps operations through an
// in-process coordinator whose links are the cluster's workers, and
// reads the coordinator's message counters.
func (p *dmlProbe) counts(ctx context.Context, cl *localCluster, ck *checker, out map[string]float64) {
	var links []dml.Link
	for _, addr := range cl.peers {
		links = append(links, cluster.NewStaticLink(addr, 10*time.Second))
	}
	sp := dml.NewSpawner(links...)
	evs := make([]*dml.Evaluator, len(p.w.progs))
	defer func() {
		for _, ev := range evs {
			if ev != nil {
				ev.Close()
			}
		}
		sp.Close()
		for _, l := range links {
			l.(*cluster.StaticLink).Close()
		}
	}()
	for i, prog := range p.w.progs {
		evs[i] = dml.NewEvaluator(sp, io.Discard, lisp.WithStepLimit(sessionStepLimit))
		v, err := evs[i].Run(ctx, prog.load(), true)
		if err == nil && lisp.Format(v) != prog.loadWant {
			err = fmt.Errorf("dml load of %s: wrong value", prog.name)
		}
		ck.check(err)
	}
	sp.Flush()
	before := sp.Stats()
	rng := seedRand(p.w.seed, randClient)
	for n := 0; n < dmlCountOps; n++ {
		i := rng.Intn(len(p.w.progs))
		v, err := evs[i].Run(ctx, p.w.progs[i].driver, true)
		if err == nil && lisp.Format(v) != p.w.progs[i].driverWant {
			err = fmt.Errorf("dml %s: wrong value", p.w.progs[i].name)
		}
		ck.check(err)
	}
	sp.Flush()
	after := sp.Stats()
	ops := float64(dmlCountOps)
	frames := after.Combining.Frames - before.Combining.Frames
	out["dml.spawns_per_op"] = float64(after.Spawns-before.Spawns) / ops
	out["dml.touches_per_op"] = float64(after.Touches-before.Touches) / ops
	out["dml.dec_frames_per_op"] = float64(frames) / ops
	out["dml.combining_ratio"] = float64(after.Combining.Enqueued-before.Combining.Enqueued) / float64(max(frames, 1))
	out["dml.weight_inc_messages"] = float64(after.WeightIncMessages - before.WeightIncMessages)
}

func (p *dmlProbe) metrics(out map[string]float64) {
	out["lisp.eval_us"] = perOp(p.eval)
	out["dml.future_rtt_us"] = median(p.rtt)
}
