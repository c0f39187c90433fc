package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a Prometheus text exposition: series
// (name plus its label block, as printed) to value.
type promSample map[string]float64

// parseProm reads the text exposition format. Comment lines and lines
// that do not end in a number are skipped: the benchmark only sums
// series it knows, and tolerates everything else.
func parseProm(text string) promSample {
	s := promSample{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s
}

// sum adds every series of the named family whose label block passes
// keep (nil keeps all). ok is false when the family has no series at
// all, so a renamed series reads as absent rather than as zero.
func (s promSample) sum(name string, keep func(labels string) bool) (total float64, ok bool) {
	for series, v := range s {
		fam, labels, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		ok = true
		if keep == nil || keep(labels) {
			total += v
		}
	}
	return total, ok
}

// scrape fetches and parses one /metrics page.
func scrape(ctx context.Context, hc *http.Client, addr string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", addr, resp.Status)
	}
	return parseProm(string(body)), nil
}

// Families every smalld exports from start-up. A family of counters the
// servers create on first increment reads as zero while its server's
// sentinel is present, and as absent once the sentinel is gone too
// (the exposition was renamed, not idle).
const (
	gatewaySentinel = "smallcluster_worker_healthy"
	workerSentinel  = "smalld_queue_depth"
)

// counterDelta is the change of a summed counter family on one server
// between two scrapes (nil when the scrape failed); ok is false when
// the series is absent.
func counterDelta(before, after promSample, family, sentinel string, keep func(string) bool) (float64, bool) {
	if before == nil || after == nil {
		return 0, false
	}
	a, ok := after.sum(family, keep)
	if !ok {
		_, alive := after.sum(sentinel, nil)
		return 0, alive
	}
	b, _ := before.sum(family, keep) // absent before: created during the phase
	return a - b, true
}

// scrapeAll scrapes every server, gateway first; a failed scrape is nil
// and makes the metrics it feeds absent.
func scrapeAll(ctx context.Context, hc *http.Client, cl *localCluster) []promSample {
	var out []promSample
	for _, p := range cl.procs() {
		s, err := scrape(ctx, hc, p.httpAddr)
		if err != nil {
			fmt.Printf("  scrape %s: %v\n", p.httpAddr, err)
		}
		out = append(out, s)
	}
	return out
}

// metricsDeltas derives the /metrics-based per-layer metrics of a load
// phase that completed ops operations into out, and returns the names
// of those whose series were absent.
func metricsDeltas(before, after []promSample, ops float64, out map[string]float64) (absent []string) {
	set := func(name string, v float64, ok bool) {
		if ok {
			out[name] = v
		} else {
			absent = append(absent, name)
		}
	}
	gateway := func(family string) (float64, bool) {
		return counterDelta(before[0], after[0], family, gatewaySentinel, nil)
	}
	// perWorker returns each worker's delta; ok only if every worker has
	// the series.
	perWorker := func(family string, keep func(string) bool) ([]float64, bool) {
		var ds []float64
		for i := 1; i < len(after); i++ {
			d, ok := counterDelta(before[i], after[i], family, workerSentinel, keep)
			if !ok {
				return nil, false
			}
			ds = append(ds, d)
		}
		return ds, true
	}
	workers := func(family string, keep func(string) bool) (float64, bool) {
		ds, ok := perWorker(family, keep)
		total := 0.0
		for _, d := range ds {
			total += d
		}
		return total, ok
	}
	served := func(labels string) bool { return !strings.Contains(labels, `route="/metrics"`) }
	rejected := func(labels string) bool { return strings.Contains(labels, `code="429"`) }

	v, ok := workers("smalld_lpt_hits_total", nil)
	set("core.lpt_hits_per_op", v/ops, ok)
	v, ok = workers("smalld_lpt_misses_total", nil)
	set("core.lpt_misses_per_op", v/ops, ok)
	v, ok = workers("smalld_lpt_refops_total", nil)
	set("core.refops_per_op", v/ops, ok)
	v, ok = gateway("smallcluster_request_seconds_sum")
	set("cluster.worker_rpc_us_per_op", v*1e6/ops, ok)
	v, ok = workers("smalld_request_seconds_sum", served)
	set("server.handler_us_per_op", v*1e6/ops, ok)
	ds, ok := perWorker("smalld_requests_total", served)
	set("cluster.worker_share_max", shareMax(ds), ok)
	v, ok = gateway("smallcluster_retries_total")
	set("cluster.retries", v, ok)
	v, ok = gateway("smallcluster_worker_down_total")
	set("cluster.failovers", v, ok)
	v, ok = workers("smalld_requests_total", rejected)
	set("server.rejected_429", v, ok)
	return absent
}

// shareMax is the largest entry's share of the total (0 when all are
// zero).
func shareMax(xs []float64) float64 {
	total, top := 0.0, 0.0
	for _, x := range xs {
		total += x
		top = max(top, x)
	}
	if total == 0 {
		return 0
	}
	return top / total
}
