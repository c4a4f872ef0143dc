package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tracedCounts runs a workload's traced pass over a short horizon and
// derives its per-layer metrics (the timing ones are meaningless here).
func tracedCounts(t *testing.T, wl string, seed int64, horizon int64) metricSet {
	t.Helper()
	var p tracedPass
	var err error
	if wl == wlFleet {
		p, err = traceFleet(seed, horizon)
	} else {
		specs, serr := workloadSpecs(wl, seed)
		if serr != nil {
			t.Fatal(serr)
		}
		p, err = traceSingle(t.TempDir(), specs[0], horizon)
	}
	if err != nil {
		t.Fatal(err)
	}
	vals := metricSet{}
	layerMetrics(wl, p, make([]armResult, armStore+1), window{}, vals, map[string]string{})
	return vals
}

// testHorizon keeps each traced pass around a second or less.
var testHorizon = map[string]int64{wlBenign: 4 << 20, wlDuel: 1 << 20, wlFleet: 22 << 20}

func TestDeterministicCountersRepeatAndFollowTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced pass three times")
	}
	for _, wl := range workloadNames {
		a := tracedCounts(t, wl, 1, testHorizon[wl])
		b := tracedCounts(t, wl, 1, testHorizon[wl])
		c := tracedCounts(t, wl, 2, testHorizon[wl])
		moved := false
		for _, d := range metricDefs() {
			if !d.Det || !d.appliesTo(wl) {
				continue
			}
			va, ok := a[d.Name]
			if !ok {
				t.Errorf("%s: deterministic metric %s not reported", wl, d.Name)
				continue
			}
			if b[d.Name] != va {
				t.Errorf("%s: %s = %v then %v for one seed", wl, d.Name, va, b[d.Name])
			}
			if c[d.Name] != va {
				moved = true
			}
		}
		if !moved {
			t.Errorf("%s: no deterministic metric changed between seeds 1 and 2", wl)
		}
	}
}

// A tier that carries no bits is reported as an explicit zero: today a
// wired hub makes the hyper tier decline on benign-harmonic.
func TestZeroTierIsReported(t *testing.T) {
	vals := tracedCounts(t, wlBenign, 1, 1<<20)
	v, ok := vals["bus.tier_share.hyper"]
	if !ok {
		t.Fatal("bus.tier_share.hyper missing")
	}
	if v != 0 {
		t.Logf("hyper tier now carries %.3g of the bits", v)
	}
	line, err := lineMetrics(vals, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := line["bus.tier_share.hyper"]; !ok {
		t.Fatal("bus.tier_share.hyper missing from the result line")
	}
}

func TestGatePassesOnSingleVehicleWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("replays prefixes under exact stepping")
	}
	for _, wl := range []string{wlBenign, wlDuel} {
		specs, err := workloadSpecs(wl, 3)
		if err != nil {
			t.Fatal(err)
		}
		o, err := runGate(t.TempDir(), wl, specs)
		if err != nil {
			t.Fatal(err)
		}
		if o.attempted < 4 || o.failed != 0 {
			t.Errorf("%s: gate %d of %d failed: %v", wl, o.failed, o.attempted, o.failures)
		}
	}
}

func TestFleetPopulationFollowsTheMix(t *testing.T) {
	specs, err := workloadSpecs(wlFleet, 7)
	if err != nil {
		t.Fatal(err)
	}
	got := map[fleetClass]int{}
	for i, s := range specs {
		if s.Index != i || !s.Watch {
			t.Fatalf("vehicle %d: index %d watch %v", i, s.Index, s.Watch)
		}
		got[fleetClass{s.Attack, s.Load}]++
	}
	for c, n := range fleetQuota {
		if got[c] != n {
			t.Errorf("class %v: %d vehicles, want %d", c, got[c], n)
		}
	}
}

// The committed BENCHMARK.json is the manifest the code declares.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeManifest(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with the manifest command:\n%s", got.String())
	}
}

func TestCompareRefusesDifferentFingerprints(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rf resultFile) string {
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m := map[string]metricValue{"sim_mbit_per_s": {Value: 10, Unit: "Mbit/s"}}
	a := write("a.json", resultFile{Fingerprint: fingerprint{Workload: wlDuel, Seed: 1, Harmonic: true}, Metrics: m})
	b := write("b.json", resultFile{Fingerprint: fingerprint{Workload: wlDuel, Seed: 1, Harmonic: false}, Metrics: m})
	var out bytes.Buffer
	if err := compare(&out, a, a); err != nil {
		t.Fatalf("identical fingerprints refused: %v", err)
	}
	if err := compare(&out, a, b); err == nil || !strings.Contains(err.Error(), "fingerprints differ") {
		t.Fatalf("differing fingerprints compared: %v", err)
	}
}

// A failed scrape keeps its latency, so a stalling control plane shows in
// the tail instead of dropping out of it.
func TestFailedScrapesKeepTheirLatency(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	s := startScraper(srv.URL, 50, nil)
	time.Sleep(300 * time.Millisecond)
	st := s.stop()
	if st.attempted == 0 || st.failed != st.attempted {
		t.Fatalf("%d of %d scrapes failed, want all", st.failed, st.attempted)
	}
	if st.p50Ms < 20 || st.tailMs < st.p50Ms {
		t.Errorf("p50 %.3g ms, tail %.3g ms: failed scrapes' latency missing", st.p50Ms, st.tailMs)
	}
}

// The host reference allocates nothing and computes the same checksum on
// every pass, so its time depends on the host alone.
func TestHostRefIsFixedWork(t *testing.T) {
	h := newHostRef()
	want := h.pass()
	allocs := testing.AllocsPerRun(3, func() {
		if got := h.pass(); got != want {
			t.Fatalf("checksum %x then %x", want, got)
		}
	})
	if allocs != 0 {
		t.Errorf("a pass allocates %v times", allocs)
	}
	var p *hostProbe
	p.slot()
	if cpu, wall := p.factors(); cpu != 1 || wall != 1 {
		t.Errorf("factors %v, %v without passes, want 1", cpu, wall)
	}
}

// The gate counts one operation per compared entry, and one for two empty
// logs; an entry missing from either side fails.
func TestCheckEachCountsEntries(t *testing.T) {
	var o ops
	checkEach(&o, "log", []int{1, 2, 3}, []int{1, 5})
	if o.attempted != 3 || o.failed != 2 || len(o.failures) != 1 {
		t.Errorf("got %d of %d failed (%v), want 2 of 3", o.failed, o.attempted, o.failures)
	}
	var e ops
	checkEach(&e, "log", []int(nil), nil)
	if e.attempted != 1 || e.failed != 0 {
		t.Errorf("empty logs: %d of %d failed, want 0 of 1", e.failed, e.attempted)
	}
}
