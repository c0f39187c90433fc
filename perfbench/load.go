package main

import (
	"context"
	"net/http"
	"sync"
	"time"
)

// loadResult is what a closed-loop phase observed.
type loadResult struct {
	latencies []time.Duration // completed operations, in no particular order
	finished  []time.Time     // when each completed operation answered, same order
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

// newClient gives one load client its own transport holding a single
// keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// runLoad drives each stream with its own client in a closed loop:
// every client sends its next operation when the previous one has
// answered. A phase ends at until (when non-zero) or after perClient
// operations per client (when positive), whichever comes first.
func runLoad(ctx context.Context, base string, clients []*http.Client, streams []func() operation, until time.Time, perClient int) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c := range streams {
		wg.Add(1)
		go func(hc *http.Client, next func() operation) {
			defer wg.Done()
			var lat []time.Duration
			var fin []time.Time
			attempted, failed := 0, 0
			var firstErr error
			for n := 0; ctx.Err() == nil; n++ {
				if (perClient > 0 && n >= perClient) || (!until.IsZero() && !time.Now().Before(until)) {
					break
				}
				op := next()
				t0 := time.Now()
				err := op(ctx, hc, base)
				t1 := time.Now()
				d := t1.Sub(t0)
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, d)
				fin = append(fin, t1)
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.finished = append(res.finished, fin...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(clients[c], streams[c])
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// windowRates splits the time from t0 into n equal windows of length
// w and returns, per window, how many operations finished in it and
// their rate: one less than that count over the time between the first
// and the last of them, which unlike a count over the window length is
// not quantized to whole operations.
func windowRates(finished []time.Time, t0 time.Time, w time.Duration, n int) (counts []int, rates []float64) {
	counts = make([]int, n)
	first, last := make([]time.Time, n), make([]time.Time, n)
	for _, t := range finished {
		k := int(t.Sub(t0) / w)
		if t.Before(t0) || k >= n {
			continue
		}
		if counts[k] == 0 || t.Before(first[k]) {
			first[k] = t
		}
		if counts[k] == 0 || t.After(last[k]) {
			last[k] = t
		}
		counts[k]++
	}
	rates = make([]float64, n)
	for k := range rates {
		if span := last[k].Sub(first[k]); counts[k] > 1 && span > 0 {
			rates[k] = float64(counts[k]-1) / span.Seconds()
		}
	}
	return counts, rates
}
