package main

import (
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// scrapeEndpoints are cycled in order, one request per tick.
var scrapeEndpoints = []string{"metrics", "incidents", "alerts"}

const (
	// scrapeRate is the open-loop request rate: the three fleet views each
	// fetched once per 500 ms frame, the refresh of michican-fleet's -top
	// dashboard. No HTTP client in the repository polls at a set rate, so
	// taking -top's cadence for one over HTTP is an assumption.
	scrapeRate    = 6.0
	scrapeTimeout = 2 * time.Second
)

// scraper is the open-loop HTTP generator. A dispatcher sends request k at
// start + k/rate whether or not earlier ones finished; a pool of nproc
// clients (one connection each) serves the queue, and every latency is
// timed from the request's due instant.
type scraper struct {
	client *http.Client
	jobs   chan scrapeJob
	quit   chan struct{}
	wg     sync.WaitGroup
	tr     *tracer

	mu      sync.Mutex
	lat     map[string][]float64
	all     []float64
	bytes   int64
	ok      int64
	failed  int64
	lateMax time.Duration
}

type scrapeJob struct {
	url string
	ep  string
	due time.Time
}

// scrapeStats summarizes a scraper's run.
type scrapeStats struct {
	attempted, failed int64
	p50Ms             float64
	tailMs, tailPct   float64
	tailSamples       int
	p50ByEndpoint     map[string]float64
	meanBytes         float64
	genLateMs         float64
}

func startScraper(base string, rate float64, tr *tracer) *scraper {
	workers := runtime.NumCPU()
	s := &scraper{
		// Sized for a full second of requests so a stalled pool shows as
		// latency from the due instant, not as a blocked dispatcher.
		jobs: make(chan scrapeJob, int(rate)+1),
		quit: make(chan struct{}),
		tr:   tr,
		lat:  make(map[string][]float64),
	}
	s.client = &http.Client{Timeout: scrapeTimeout, Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.jobs {
				s.do(j)
			}
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.jobs)
		period := time.Duration(float64(time.Second) / rate)
		start := time.Now()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			select {
			case <-s.quit:
				return
			case <-time.After(time.Until(due)):
			}
			// lateMax belongs to the dispatcher until stop has waited for it.
			if late := time.Since(due); late > s.lateMax {
				s.lateMax = late
			}
			ep := scrapeEndpoints[k%len(scrapeEndpoints)]
			s.jobs <- scrapeJob{url: base + "/fleet/" + ep, ep: ep, due: due}
		}
	}()
	return s
}

func (s *scraper) do(j scrapeJob) {
	start := time.Now()
	resp, err := s.client.Get(j.url)
	var n int64
	if err == nil {
		n, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = io.ErrUnexpectedEOF
		}
	}
	end := time.Now()
	if s.tr != nil {
		s.tr.scrape(start, end)
	}
	// A failed or timed-out request keeps its latency too (a timeout's is
	// at least scrapeTimeout), so a stalled control plane shows in the tail
	// instead of dropping out of it.
	ms := float64(end.Sub(j.due).Microseconds()) / 1e3
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat[j.ep] = append(s.lat[j.ep], ms)
	s.all = append(s.all, ms)
	if err != nil {
		s.failed++
		return
	}
	s.ok++
	s.bytes += n
}

// stop ends the dispatcher, waits for in-flight requests and summarizes.
func (s *scraper) stop() scrapeStats {
	close(s.quit)
	s.wg.Wait()
	s.client.CloseIdleConnections()
	st := scrapeStats{attempted: s.ok + s.failed, failed: s.failed, p50ByEndpoint: map[string]float64{},
		genLateMs: float64(s.lateMax.Microseconds()) / 1e3}
	st.p50Ms = percentile(s.all, 50)
	st.tailPct, st.tailSamples = tailPercentile(len(s.all))
	st.tailMs = percentile(s.all, st.tailPct)
	for ep, l := range s.lat {
		st.p50ByEndpoint[ep] = percentile(l, 50)
	}
	if s.ok > 0 {
		st.meanBytes = float64(s.bytes) / float64(s.ok)
	}
	return st
}

// tailPercentile picks the highest of the usual tail percentiles that
// still has at least ten samples beyond it.
func tailPercentile(n int) (float64, int) {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 75} {
		if math.Floor(float64(n)*(100-p)/100) >= 10 {
			return p, n
		}
	}
	return 50, n
}

// percentile is the nearest-rank percentile.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := append([]float64(nil), xs...)
	sort.Float64s(v)
	i := int(math.Ceil(p/100*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}
