package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/benchprogs"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/sexpr"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {10, 1}, {1, 1}, {0.001, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99.9); got != 7 {
		t.Errorf("p99.9 of one sample = %g, want 7", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestTailRule(t *testing.T) {
	// 100 samples: the p90 sample is the 90th, so ten lie beyond it.
	if got := beyond(100, 90); got != 10 {
		t.Errorf("beyond(100, 90) = %d, want 10", got)
	}
	if got := beyond(99, 90); got != 9 {
		t.Errorf("beyond(99, 90) = %d, want 9", got)
	}
	ladder := []float64{50, 90, 99, 99.9}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		got, ok := highestTail(c.n, ladder)
		if got != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(400, 250); got != 150 {
		t.Errorf("selfTime(400, 250) = %g, want 150", got)
	}
	if got := selfTime(40, 4, 34); got != 2 {
		t.Errorf("selfTime(40, 4, 34) = %g, want 2", got)
	}
	// A layer measured faster than its callee reports the negative
	// difference as measured, not a clamped zero.
	if got := selfTime(10, 12); got != -2 {
		t.Errorf("selfTime(10, 12) = %g, want -2", got)
	}
	if got := perOp([][]float64{{1, 2, 3}, {10, 30, 20}}); got != 11 {
		t.Errorf("perOp = %g, want 11 (mean of medians 2 and 20)", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	stat := "4242 (smalld (x) y) S 1 4242 4242 0 -1 4194560 1520 0 0 0 173 42 0 0 20 0 9 0 123 1000 200"
	got, err := parseStatCPU(stat)
	if err != nil || got != 215 {
		t.Fatalf("parseStatCPU = %d, %v; want 215", got, err)
	}
	for _, bad := range []string{"", "4242 smalld S 1", "4242 (smalld) S 1 2 3", "1 (a) S 1 1 1 0 -1 0 0 0 0 0 x 1"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tsmalld\nVmPeak:\t 1300000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil || got != 51234 {
		t.Fatalf("parseVmHWM = %d, %v; want 51234", got, err)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM(bad); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded", bad)
		}
	}
}

func TestPromDeltasTolerateMissingSeries(t *testing.T) {
	gw0 := parseProm("smallcluster_worker_healthy{worker=\"a\"} 1\n")
	gw1 := parseProm("# TYPE smallcluster_retries_total counter\nsmallcluster_retries_total 3\nsmallcluster_worker_healthy{worker=\"a\"} 1\n" +
		"smallcluster_request_seconds_sum{worker=\"a\"} 0.5\n")
	w0 := parseProm(`smalld_queue_depth 0
smalld_requests_total{route="/v1/sessions:eval",code="200"} 10
smalld_requests_total{route="/metrics",code="200"} 4
smalld_lpt_hits_total 100
`)
	w1 := parseProm(`smalld_queue_depth 0
smalld_requests_total{route="/v1/sessions:eval",code="200"} 40
smalld_requests_total{route="/v1/sessions:eval",code="429"} 2
smalld_requests_total{route="/metrics",code="200"} 9
smalld_lpt_hits_total 400
`)
	// The second worker's exposition was renamed: no sentinel at all.
	renamed := parseProm("smalld_v2_requests_total 5\n")

	out := map[string]float64{}
	absent := metricsDeltas([]promSample{gw0, w0, w0}, []promSample{gw1, w1, w1}, 10, out)
	if len(absent) != 0 {
		t.Fatalf("absent = %v, want none", absent)
	}
	for name, want := range map[string]float64{
		"core.lpt_hits_per_op":         60,  // (300+300)/10
		"cluster.retries":              3,   // created during the phase
		"cluster.failovers":            0,   // never created, sentinel present
		"cluster.worker_rpc_us_per_op": 5e4, // 0.5s/10 ops
		"cluster.worker_share_max":     0.5, // 32 vs 32, /metrics excluded
		"server.rejected_429":          4,   // 2 per worker
		"core.refops_per_op":           0,   // never created
		"server.handler_us_per_op":     0,   // no histogram series
		"core.lpt_misses_per_op":       0,   // never created
	} {
		if out[name] != want {
			t.Errorf("%s = %g, want %g", name, out[name], want)
		}
	}

	out = map[string]float64{}
	absent = metricsDeltas([]promSample{gw0, w0, renamed}, []promSample{nil, w1, renamed}, 10, out)
	if len(absent) != 9 || len(out) != 0 {
		t.Errorf("with a failed gateway scrape and a renamed worker: absent %v, reported %v", absent, out)
	}
}

func TestSplitFormsRoundTrip(t *testing.T) {
	for _, b := range benchprogs.All() {
		src := b.Gen(1)
		forms, err := splitForms(src)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		parsed, err := sexpr.ParseAll(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(forms) != len(parsed) {
			t.Errorf("%s: split %d forms, parser sees %d", b.Name, len(forms), len(parsed))
		}
		for i, f := range forms {
			one, err := sexpr.ParseAll(f)
			if err != nil || len(one) != 1 || sexpr.String(one[0]) != sexpr.String(parsed[i]) {
				t.Errorf("%s: form %d %.40q does not parse to the original", b.Name, i, f)
			}
		}
	}
	if _, err := splitForms("(a (b)"); err == nil {
		t.Error("unbalanced source split without error")
	}
}

func TestShortCallsFollowSeed(t *testing.T) {
	a, err := newSessionEval(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSessionEval(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newSessionEval(8)
	if err != nil {
		t.Fatal(err)
	}
	same, differ := true, false
	for i := range a.progs {
		if strings.Join(a.progs[i].short, ";") != strings.Join(b.progs[i].short, ";") {
			same = false
		}
		if strings.Join(a.progs[i].short, ";") != strings.Join(c.progs[i].short, ";") {
			differ = true
		}
		if len(a.progs[i].short) != nShortCalls {
			t.Errorf("%s: %d short calls", a.progs[i].name, len(a.progs[i].short))
		}
	}
	if !same || !differ {
		t.Errorf("short calls: same seed equal %v, other seed differs %v", same, differ)
	}
}

func TestCheckersCountWrongValues(t *testing.T) {
	if err := checkEval("s", evalReply{Value: "42"}, "42"); err != nil {
		t.Errorf("right value rejected: %v", err)
	}
	if err := checkEval("s", evalReply{Value: "43"}, "42"); err == nil {
		t.Error("wrong value accepted")
	}
	if err := checkEval("s", evalReply{Value: "42", Error: "budget"}, "42"); err == nil {
		t.Error("eval error accepted")
	}
	if err := checkReply("s", 500, []byte(`{"value":"42"}`), "42"); err == nil {
		t.Error("status 500 accepted")
	}

	it, err := newIngestTrace(context.Background(), "editor", 1, []int64{5})
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.MarshalIndent(json.RawMessage(it.want[5]), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := it.checkStats(5, good); err != nil {
		t.Errorf("reference stats in another layout rejected: %v", err)
	}
	var stats map[string]any
	if err := json.Unmarshal(it.want[5], &stats); err != nil {
		t.Fatal(err)
	}
	stats["events"] = stats["events"].(float64) + 1
	if err := it.checkStats(5, mustJSON(stats)); err == nil {
		t.Error("stats with one extra event accepted")
	}
	if err := it.checkPlan(it.plan); err != nil {
		t.Errorf("reference plan rejected: %v", err)
	}
	bad := append([]ingest.Shard(nil), it.plan...)
	bad[0].Hi++
	if err := it.checkPlan(bad); err == nil {
		t.Error("shifted plan accepted")
	}

	// A wrong answer counts as a failed operation in a load phase and
	// in a probe.
	n := 0
	next := func() operation {
		return func(context.Context, *http.Client, string) error {
			n++
			return checkEval("s", evalReply{Value: fmt.Sprint(n % 2)}, "1")
		}
	}
	lr := runLoad(context.Background(), "", []*http.Client{nil}, []func() operation{next}, time.Time{}, 4)
	if lr.attempted != 4 || lr.failed != 2 || len(lr.latencies) != 2 || lr.firstErr == nil {
		t.Errorf("load phase counted %d attempted, %d failed, %d timed", lr.attempted, lr.failed, len(lr.latencies))
	}
	var ck checker
	ck.check(nil)
	ck.check(checkEval("s", evalReply{Value: "1"}, "2"))
	if ck.attempted != 2 || ck.failed != 1 || ck.firstErr == nil {
		t.Errorf("checker = %+v, want 2 attempted, 1 failed", ck)
	}
}

func TestPlaceIDHitsRank(t *testing.T) {
	peers := []string{"127.0.0.1:4001", "127.0.0.1:3999"}
	rng := rand.New(rand.NewSource(1))
	for rank := 0; rank < 4; rank++ {
		id := placeID(rng, "c0-editor", peers, rank)
		want := []string{"127.0.0.1:3999", "127.0.0.1:4001"}[rank%2]
		if got := cluster.Rendezvous(peers, id); got != want {
			t.Errorf("rank %d: %s lands on %s, want %s", rank, id, got, want)
		}
	}
}

func TestProgramSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, b := range benchprogs.All() {
		p, err := newProgram(b.Name, 1, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		src, err := sexpr.ParseAll(b.Gen(1))
		if err != nil {
			t.Fatal(err)
		}
		all, err := sexpr.ParseAll(p.load())
		if err != nil || len(all) != len(src) {
			t.Errorf("%s: load has %d forms, source %d (%v)", b.Name, len(all), len(src), err)
		}
		if p.defs == "" || p.driver == "" {
			t.Errorf("%s: empty definitions or driver", b.Name)
		}
		driver, _ := splitForms(p.driver)
		for _, f := range driver {
			if strings.HasPrefix(f, "(def ") || isDataForm(f) {
				t.Errorf("%s: driver holds %.40q", b.Name, f)
			}
		}
		data, _ := splitForms(p.data)
		for _, f := range data {
			if !isDataForm(f) {
				t.Errorf("%s: data holds %.40q", b.Name, f)
			}
		}
	}
}

func TestWindowRates(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Window 0 holds ops at 0, 100, ..., 900 ms: 9 gaps over 0.9 s.
	// Window 1 holds two ops 500 ms apart; window 2 one op; one op
	// before t0 and one past the last window are dropped.
	var fin []time.Time
	for ms := 0; ms < 1000; ms += 100 {
		fin = append(fin, at(ms))
	}
	fin = append(fin, at(1200), at(1700), at(2100), at(-5), at(3500))
	counts, rates := windowRates(fin, t0, time.Second, 3)
	if want := []int{10, 2, 1}; fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("counts = %v, want %v", counts, want)
	}
	if want := []float64{10, 2, 0}; math.Abs(rates[0]-want[0]) > 1e-9 || math.Abs(rates[1]-want[1]) > 1e-9 || rates[2] != 0 {
		t.Errorf("rates = %v, want %v", rates, want)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units this
// command prints in step with the declaration in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("%d per-layer metrics declared, %d measured", len(b.PerLayer), len(perLayerUnits))
	}
	for _, d := range b.PerLayer {
		if u, ok := perLayerUnits[d.Name]; !ok || u != d.Unit {
			t.Errorf("per-layer %s: declared unit %q, measured unit %q (present %v)", d.Name, d.Unit, u, ok)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics declared, %d measured", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, d := range b.EndToEnd {
		if u, ok := endToEndUnits[d.Name]; !ok || u != d.Unit {
			t.Errorf("end-to-end %s: declared unit %q, measured unit %q (present %v)", d.Name, d.Unit, u, ok)
		}
	}
}
