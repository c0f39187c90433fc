// Command perfbench is the repository's end-to-end benchmark. It starts
// smalld as separate processes on loopback — one gateway and two
// workers — and drives one of three workloads against the gateway from
// a closed-loop load generator with two clients, checking every
// response against a reference computed in process by an independent
// engine.
//
//	perfbench -smalld path/to/smalld -workload session_eval -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// prints the per-layer metrics instead, measured by entering requests
// at each layer boundary in process and by /metrics deltas. The last
// line of standard output is one JSON object; earlier lines are a
// readable report. perfbench/run.sh builds smalld and this command from
// the source tree and runs it; README.md in this directory documents
// the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/parsweep"
)

const (
	nWorkers     = 2
	setupReps    = 9               // clusters set up per run; setup_s is their median
	warmup       = 2 * time.Second // load before timing starts
	minProbeRuns = 3
	nWindows     = 10 // equal windows of the timed phase for throughput and CPU
)

// tracedOps is the fixed operation count per client in a traced run's
// load phase, so counts read off /metrics repeat exactly for a seed.
var tracedOps = map[string]int{"session_eval": 320, "ingest_replay": 16, "dml_pcall": 48}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	smalld   string
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.smalld, "smalld", "", "path to the smalld binary under test")
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed all inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 measures per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if cfg.smalld == "" || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -smalld, -seconds >= 1 and -trace 0|1")
		return 2
	}
	// Layer probes run in this process; one sweep worker keeps a
	// sharded replay serial so its self time is not hidden by overlap.
	parsweep.SetWorkers(1)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag)
	var res *result
	var err error
	if cfg.trace {
		res, err = runTraced(ctx, cfg)
	} else {
		res, err = runEndToEnd(ctx, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setUp starts a cluster and builds the workload on it setupReps times,
// keeping the last; it returns the median set-up time in seconds.
func setUp(ctx context.Context, cfg config, w workload) (*localCluster, []func() operation, float64, error) {
	hc := newClient()
	var times []float64
	for i := 1; ; i++ {
		t0 := time.Now()
		cl, err := startCluster(ctx, cfg.smalld, nWorkers)
		if err != nil {
			return nil, nil, 0, err
		}
		streams, err := w.setup(ctx, cl, hc)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			cl.stop()
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		if i == setupReps {
			return cl, streams, median(times), nil
		}
		cl.stop()
	}
}

// loadReport prints a load phase's latency summary and checks its tail.
func loadReport(what string, lr loadResult) (sorted []float64, err error) {
	sorted = micros(lr.latencies)
	sort.Float64s(sorted)
	n := len(sorted)
	fmt.Printf("  %s: %d attempted, %d failed, %d completed in %.3fs\n", what, lr.attempted, lr.failed, n, lr.elapsed.Seconds())
	if lr.firstErr != nil {
		fmt.Printf("  %s: first failure: %v\n", what, lr.firstErr)
	}
	if n == 0 {
		return nil, errors.New(what + ": no operation completed")
	}
	if p, ok := highestTail(n, []float64{50, 90, 99, 99.9}); ok {
		fmt.Printf("  %s: p50 %.3f ms, p90 %.3f ms; highest percentile with >= %d samples beyond: p%g\n",
			what, percentile(sorted, 50)/1e3, percentile(sorted, 90)/1e3, minTail, p)
	}
	return sorted, nil
}

func runEndToEnd(ctx context.Context, cfg config) (*result, error) {
	w, err := newWorkload(ctx, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	cl, streams, setupS, err := setUp(ctx, cfg, w)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	clients := make([]*http.Client, nClients)
	for i := range clients {
		clients[i] = newClient()
	}
	base := cl.gatewayURL()
	warm := runLoad(ctx, base, clients, streams, time.Now().Add(warmup), 0)

	// Throughput and CPU per operation are medians over equal windows of
	// the timed phase, so a burst of interference from outside the
	// benchmark moves one window, not the whole figure.
	win := time.Duration(cfg.seconds) * time.Second / nWindows
	t0 := time.Now()
	ticks := make(chan []int64, 1)
	go func() {
		var ts []int64
		for k := 0; k <= nWindows; k++ {
			select {
			case <-ctx.Done():
			case <-time.After(time.Until(t0.Add(time.Duration(k) * win))):
			}
			t, err := cl.cpuTicks()
			if err != nil {
				break
			}
			ts = append(ts, t)
		}
		ticks <- ts
	}()
	lr := runLoad(ctx, base, clients, streams, t0.Add(time.Duration(cfg.seconds)*time.Second), 0)
	cpu := <-ticks
	if len(cpu) != nWindows+1 {
		return nil, errors.New("reading server CPU time from /proc failed")
	}
	rss, err := cl.peakRSSKiB()
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	loadReport("warm-up", warm)
	lat, err := loadReport("measured", lr)
	if err != nil {
		return nil, err
	}
	if b := beyond(len(lat), 90); b < minTail {
		return nil, fmt.Errorf("only %d samples beyond p90; run longer", b)
	}
	attempted, failed := warm.attempted+lr.attempted, warm.failed+lr.failed
	fmt.Printf("  failed_frac %.6f (%d of %d operations, warm-up included)\n",
		float64(failed)/float64(attempted), failed, attempted)
	counts, rates := windowRates(lr.finished, t0, win, nWindows)
	cpuPerOp := make([]float64, nWindows)
	for k, n := range counts {
		cpuPerOp[k] = float64(cpu[k+1]-cpu[k]) * 1e3 / userHZ / float64(max(n, 1))
	}
	fmt.Printf("  operations per window of %v: %v\n", win, counts)
	values := map[string]float64{
		"ops_per_s":            median(rates),
		"latency_p50_ms":       percentile(lat, 50) / 1e3,
		"latency_p90_ms":       percentile(lat, 90) / 1e3,
		"server_cpu_ms_per_op": median(cpuPerOp),
		"server_rss_mb":        float64(rss) / 1024,
		"setup_s":              setupS,
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for name, v := range values {
		res.Metrics[name] = metric{v, endToEndUnits[name]}
	}
	return res, nil
}

// endToEndUnits gives each end-to-end metric its unit.
var endToEndUnits = map[string]string{
	"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
	"server_cpu_ms_per_op": "ms", "server_rss_mb": "MB", "setup_s": "s",
}

// perLayerUnits gives each per-layer metric its unit.
var perLayerUnits = map[string]string{
	// Session path.
	"cluster.gateway_self_us": "us",
	"cluster.smcr_self_us":    "us",
	"server.handler_self_us":  "us",
	"sexpr.parse_us":          "us",
	"vm.compile_us":           "us",
	"vm.run_us":               "us",
	"vm.allocs_per_op":        "count",
	"core.lpt_hits_per_op":    "count",
	"core.lpt_misses_per_op":  "count",
	"core.refops_per_op":      "count",
	// Ingest path.
	"trace.decode_us":         "us",
	"trace.preprocess_us":     "us",
	"trace.preprocess_allocs": "count",
	"ingest.push_self_us":     "us",
	"ingest.plan_us":          "us",
	"sim.replay_us":           "us",
	"ingest.replay_self_us":   "us",
	"cluster.shard_hop_us":    "us",
	"sim.events_per_op":       "count",
	// dml path.
	"lisp.eval_us":            "us",
	"dml.future_rtt_us":       "us",
	"dml.spawns_per_op":       "count",
	"dml.touches_per_op":      "count",
	"dml.dec_frames_per_op":   "count",
	"dml.combining_ratio":     "ratio",
	"dml.weight_inc_messages": "count",
	// Every workload, from /metrics.
	"cluster.worker_rpc_us_per_op": "us",
	"server.handler_us_per_op":     "us",
	"cluster.worker_share_max":     "ratio",
	"cluster.retries":              "count",
	"cluster.failovers":            "count",
	"server.rejected_429":          "count",
}

func runTraced(ctx context.Context, cfg config) (*result, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	if _, ok := tracedOps[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	// Every traced run probes every path, so it reports every per-layer
	// metric; the /metrics deltas come from this run's workload.
	se, err := newSessionEval(cfg.seed)
	if err != nil {
		return nil, err
	}
	ir, err := newIngestReplay(ctx, cfg.seed)
	if err != nil {
		return nil, err
	}
	dp, err := newDMLPcall(cfg.seed)
	if err != nil {
		return nil, err
	}
	w := map[string]workload{"session_eval": se, "ingest_replay": ir, "dml_pcall": dp}[cfg.workload]

	cl, err := startCluster(ctx, cfg.smalld, nWorkers)
	if err != nil {
		return nil, err
	}
	defer cl.stop()
	hc := newClient()
	streams, err := w.setup(ctx, cl, hc)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	clients := make([]*http.Client, nClients)
	for i := range clients {
		clients[i] = newClient()
	}
	before := scrapeAll(ctx, hc, cl)
	lr := runLoad(ctx, cl.gatewayURL(), clients, streams, time.Time{}, tracedOps[cfg.workload])
	after := scrapeAll(ctx, hc, cl)
	if _, err := loadReport("traced load", lr); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	absent := metricsDeltas(before, after, float64(lr.attempted-lr.failed), out)
	if len(absent) > 0 {
		fmt.Printf("  absent /metrics series, not reported: %v\n", absent)
	}

	var ck checker
	rpc := rpcClients(cl)
	defer func() {
		for _, c := range rpc {
			c.Close()
		}
	}()
	sp, err := newSessionProbe(ctx, se, cl, rpc)
	if err != nil {
		return nil, err
	}
	defer sp.close()
	ip := newIngestProbe(ir, cl, rpc)
	dpr, err := newDMLProbe(dp, cl, rpc)
	if err != nil {
		return nil, err
	}
	dpr.counts(ctx, cl, &ck, out)
	for n := 0; n < minProbeRuns || time.Now().Before(deadline); n++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sp.round(ctx, &ck)
		ip.round(ctx, &ck)
		dpr.round(ctx, &ck, n == 0)
	}
	sp.metrics(out)
	ip.metrics(out)
	dpr.metrics(out)
	if ck.firstErr != nil {
		fmt.Printf("  first probe failure: %v\n", ck.firstErr)
	}

	res := &result{
		Attempted: lr.attempted + ck.attempted,
		Failed:    lr.failed + ck.failed,
		Metrics:   map[string]metric{},
	}
	res.Correct = res.Failed == 0
	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metric{v, perLayerUnits[name]}
	}
	fmt.Printf("  traced run took %.1fs\n", time.Since(start).Seconds())
	return res, nil
}
