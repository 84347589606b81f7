package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"memqlat/internal/dist"
)

func TestMetricGrammar(t *testing.T) {
	var ms metricSet
	for _, name := range []string{"peak_ops", "p99_us.low", "client.get_us.p50", "9x", "a-b_c.d"} {
		if err := ms.add(name, 1, "us", 0); err != nil {
			t.Errorf("add(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", ".lead", "sp ace", "µs", "x/y", strings.Repeat("a", 65)} {
		if err := ms.add(name, 1, "us", 0); err == nil {
			t.Errorf("add(%q) accepted a malformed name", name)
		}
	}
	if err := ms.add("no_unit", 1, "", 0); err == nil {
		t.Error("add accepted a metric without a unit")
	}
	if err := ms.add("peak_ops", 1, "requests/s", 0); err == nil {
		t.Error("add accepted a duplicate name")
	}
}

// TestBenchmarkFileMatchesHarness checks that BENCHMARK.json names only
// well-formed metrics with units, and that its per-layer list is exactly
// what the traced run reports.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var doc struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms metricSet
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if err := ms.add(m.Name, 1, m.Unit, 0); err != nil {
			t.Error(err)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if doc.PerLayer[i].Name != m.name || doc.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %s %s, traced run reports %s %s", i, doc.PerLayer[i].Name, doc.PerLayer[i].Unit, m.name, m.unit)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	q, ok := quantileOf(seq(1000), 0.99)
	if !ok || q.Value != 990 || q.Beyond != 10 || q.Samples != 1000 {
		t.Errorf("p99 of 1000 = %+v ok=%v, want 990 with 10 beyond", q, ok)
	}
	if q, ok := quantileOf(seq(999), 0.99); ok {
		t.Errorf("p99 of 999 samples reported (%+v), only %d lie beyond it", q, q.Beyond)
	}
	for _, c := range []struct {
		n     int
		level float64
	}{{100000, 0.9999}, {10000, 0.999}, {9999, 0.99}, {1000, 0.99}, {999, 0.95}, {100, 0.9}} {
		level, q, ok := highestTail(seq(c.n))
		if !ok || level != c.level || q.Samples != c.n || q.Beyond < minBeyond {
			t.Errorf("highestTail(%d) = p%g %+v ok=%v, want p%g", c.n, level*100, q, ok, c.level*100)
		}
	}
	if _, _, ok := highestTail(seq(99)); ok {
		t.Error("highestTail reported a percentile of 99 samples")
	}
}

func TestWindowedQuantileIgnoresOneStall(t *testing.T) {
	lat := make([]float64, 8000)
	for i := range lat {
		lat[i] = 100e-6
	}
	for i := 1000; i < 1200; i++ { // a stall inside the second window
		lat[i] = 50e-3
	}
	q, _, ok := windowedQuantile(lat, 0.99)
	if !ok || q.Value != 100e-6 || q.Samples != 8000 {
		t.Errorf("windowed p99 = %+v ok=%v, want 100µs over 8000 samples", q, ok)
	}
	if pooled, _ := quantileOf(sortedCopy(lat), 0.99); pooled.Value != 50e-3 {
		t.Errorf("pooled p99 = %g, the stall should set it", pooled.Value)
	}
	if _, _, ok := windowedQuantile(lat[:999], 0.99); ok {
		t.Error("windowed p99 of 999 samples reported")
	}
}

func TestBacklogGrowing(t *testing.T) {
	flat := make([]int32, 1000)
	for i := range flat {
		flat[i] = int32(i % 7) // bursts, no trend
	}
	if backlogGrowing(flat, 4) {
		t.Error("bursty but stable backlog reported as growing")
	}
	ramp := make([]int32, 1000)
	for i := range ramp {
		ramp[i] = int32(i / 10)
	}
	if !backlogGrowing(ramp, 4) {
		t.Error("linearly growing backlog not detected")
	}
	if backlogGrowing([]int32{0, 0, 100}, 4) {
		t.Error("three samples are too few to call a trend")
	}
	// Overload for 600 takes, then the schedule ends and the backlog
	// drains: the drain must not hide the growth.
	drained := append([]int32(nil), ramp[:600]...)
	for i := 0; i < 400; i++ {
		drained = append(drained, afterSchedule)
	}
	if !backlogGrowing(drained, 4) {
		t.Error("growth followed by the end-of-schedule drain not detected")
	}
}

// TestFailedRequestsCountAgainstTheLimit closes a server in the middle
// of an open-loop rung: the failures must be counted and the rung must
// miss its latency limit.
func TestFailedRequestsCountAgainstTheLimit(t *testing.T) {
	spec := &kvSpec{name: "t", servers: 2, keys: 500, zipfS: 1, multiget: 1, valueSize: 100,
		xi: 0.15, q: 0.1, ladder: []float64{2000}, limit: 50 * time.Millisecond}
	keys, vals, err := spec.keyspace(1)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := dist.NewZipf(spec.keys, spec.zipfS)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bringUp(spec, 1, keys, vals, spec.requests(dist.SubRand(1, 2), zipf, keys, 100), false)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	at, err := arrivals(dist.SubRand(1, 3), 2000, time.Second, spec.xi, spec.q)
	if err != nil {
		t.Fatal(err)
	}
	reqs := spec.requests(dist.SubRand(1, 4), zipf, keys, len(at))
	stop := time.AfterFunc(300*time.Millisecond, func() { st.servers[0].Close() })
	defer stop.Stop()
	rs := runOpen(reqs, at, 2, drain, st.do, nil)
	if rs.failed == 0 || rs.firstErr == nil {
		t.Fatalf("closing a server failed no requests (issued %d)", rs.issued)
	}
	infs := 0
	for _, l := range rs.lat {
		if math.IsInf(l, 1) {
			infs++
		}
	}
	if infs < rs.failed {
		t.Errorf("%d failed requests but only %d latencies count as missing the limit", rs.failed, infs)
	}
	slo, notes, err := ladderReport(spec, []*openStats{rs})
	if err != nil {
		t.Fatal(err)
	}
	if slo != 0 {
		t.Errorf("rung with %d of %d failed met the limit: %v", rs.failed, rs.issued, notes)
	}
}

func TestRequestsAreCheckedAndDeterministic(t *testing.T) {
	spec := kvWorkloads["kv_multiget_rw"]
	keys, vals, err := spec.keyspace(7)
	if err != nil {
		t.Fatal(err)
	}
	keys2, vals2, _ := spec.keyspace(7)
	for i := range keys {
		if keys[i] != keys2[i] || string(vals[i]) != string(vals2[i]) {
			t.Fatalf("keyspace differs between two builds with one seed at key %d", i)
		}
	}
	a, _ := arrivals(dist.SubRand(7, 10), 3000, time.Second, 0.15, 0.1)
	b, _ := arrivals(dist.SubRand(7, 10), 3000, time.Second, 0.15, 0.1)
	if len(a) != len(b) || len(a) < 2500 || len(a) > 3500 {
		t.Fatalf("arrivals: %d and %d due times for 3000/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrivals differ or go backwards at %d", i)
		}
	}
}

func TestSelfTimesSubtractMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "gen.request", Parent: -1, Start: 0, End: 100},
		{Name: "client.get", Parent: 0, Start: 10, End: 30},
		{Name: "client.get", Parent: 0, Start: 20, End: 50},
		{Name: "core.estimate", Parent: -1, Start: 0, End: 7},
		{Name: "client.set", Parent: 0, Start: 60, End: -1}, // never closed
	}
	got := selfTimes(spans)
	if got["gen"] != 60 || got["client"] != 50 || got["core"] != 7 {
		t.Errorf("self times = %v, want gen 60, client 50, core 7", got)
	}
}

func writeRun(t *testing.T, dir, name, cpu string, value float64) {
	t.Helper()
	writeRunEnv(t, dir, name, environment{CPU: cpu, NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", Commit: "c", Workload: "kv_get", Seconds: 30}, value)
}

func writeRunEnv(t *testing.T, dir, name string, e environment, value float64) {
	t.Helper()
	env, _ := json.Marshal(e)
	res, _ := json.Marshal(result{Correct: true, Attempted: 10, Metrics: map[string]resultValue{"latency_ms": {value, "ms"}}})
	body := envPrefix + string(env) + "\nmetric ...\n" + string(res) + "\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRefusesMixedCPUs(t *testing.T) {
	dir := t.TempDir()
	writeRun(t, dir, "base1.out", "cpu A", 10)
	writeRun(t, dir, "base2.out", "cpu A", 10.2)
	writeRun(t, dir, "head1.out", "cpu B", 10.1)
	bounds := map[string]benchMetric{"latency_ms": {Name: "latency_ms", Better: "lower", Bound: 0.1}}
	base, _ := loadRuns(filepath.Join(dir, "base*.out"))
	head, _ := loadRuns(filepath.Join(dir, "head*.out"))
	var sb strings.Builder
	if _, err := compareRuns(&sb, base, head, bounds, false); !errors.Is(err, errCPUMismatch) {
		t.Fatalf("compare across CPU models: err = %v, want %v", err, errCPUMismatch)
	}
	if worse, err := compareRuns(&sb, base, head, bounds, true); err != nil || worse {
		t.Fatalf("allowed compare: worse=%v err=%v", worse, err)
	}
	writeRun(t, dir, "slow1.out", "cpu A", 12)
	slow, _ := loadRuns(filepath.Join(dir, "slow*.out"))
	if worse, err := compareRuns(&sb, base, slow, bounds, false); err != nil || !worse {
		t.Fatalf("20%% slower head: worse=%v err=%v\n%s", worse, err, sb.String())
	}
}

func TestCompareRefusesMixedRuns(t *testing.T) {
	dir := t.TempDir()
	base := environment{CPU: "cpu A", NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go", Commit: "c", Workload: "kv_get", Seconds: 30}
	writeRunEnv(t, dir, "base1.out", base, 10)
	bounds := map[string]benchMetric{"latency_ms": {Name: "latency_ms", Better: "lower", Bound: 0.1}}
	baseRuns, _ := loadRuns(filepath.Join(dir, "base*.out"))
	for name, change := range map[string]func(*environment){
		"workload": func(e *environment) { e.Workload = "kv_multiget_rw" },
		"seconds":  func(e *environment) { e.Seconds = 10 },
		"trace":    func(e *environment) { e.Trace = 1 },
		"nproc":    func(e *environment) { e.NumCPU = 4 },
	} {
		e := base
		change(&e)
		writeRunEnv(t, dir, name+".out", e, 10)
		head, _ := loadRuns(filepath.Join(dir, name+".out"))
		var sb strings.Builder
		// Another CPU model may be allowed; another workload may not.
		if _, err := compareRuns(&sb, baseRuns, head, bounds, true); !errors.Is(err, errRunMismatch) {
			t.Errorf("compare across %s: err = %v, want %v", name, err, errRunMismatch)
		}
	}
	e := base
	e.Seed, e.Commit = 9, "d"
	writeRunEnv(t, dir, "other-seed.out", e, 10)
	head, _ := loadRuns(filepath.Join(dir, "other-seed.out"))
	var sb strings.Builder
	if _, err := compareRuns(&sb, baseRuns, head, bounds, false); err != nil {
		t.Errorf("runs differing only in seed and commit: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(seq(10))
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestWrongRepliesFail corrupts one stored value and checks that a get
// and a multiget through the proxy fail, and that a multiget missing a
// key fails when no backend fills it.
func TestWrongRepliesFail(t *testing.T) {
	for _, spec := range []*kvSpec{
		{name: "g", servers: 2, keys: 200, zipfS: 1, multiget: 1, valueSize: 100},
		{name: "f", servers: 2, keys: 200, zipfS: 1, multiget: 5, proxied: true, fill: true, valueSize: 100, lognormal: true},
		{name: "p", servers: 2, keys: 200, zipfS: 1, multiget: 5, proxied: true, valueSize: 100},
	} {
		keys, vals, err := spec.keyspace(1)
		if err != nil {
			t.Fatal(err)
		}
		st, err := bringUp(spec, 1, keys, vals, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		r := &request{key: 3}
		if spec.multiget > 1 {
			r = &request{keys: []int32{1, 3}, names: []string{keys[1], keys[3]}}
		}
		if err := st.do(r, spanRef{}); err != nil {
			t.Errorf("%s: intact reply failed: %v", spec.name, err)
		}
		for _, srv := range st.servers {
			if _, err := srv.Cache().Get(keys[3]); err == nil {
				if err := srv.Cache().Set(keys[3], []byte("corrupt"), 0, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.do(r, spanRef{}); !errors.Is(err, errWrongValue) {
			t.Errorf("%s: corrupted value: err = %v, want %v", spec.name, err, errWrongValue)
		}
		if spec.multiget > 1 && !spec.fill {
			for _, srv := range st.servers {
				_ = srv.Cache().Delete(keys[1]) // absent on all but its owner
			}
			missing := &request{keys: []int32{1}, names: []string{keys[1]}}
			if err := st.do(missing, spanRef{}); err == nil {
				t.Errorf("%s: a multiget missing an asked key passed", spec.name)
			}
		}
		st.close()
	}
}

func TestSLORateCrossesTheLimitAboveHighestPassingRung(t *testing.T) {
	rung := func(latency float64, rate float64) *openStats {
		st := &openStats{lat: make([]float64, 2000), backlog: make([]int32, 2000), issued: 2000, elapsed: time.Duration(2000 / rate * float64(time.Second))}
		for i := range st.lat {
			st.lat[i] = latency
		}
		return st
	}
	spec := &kvSpec{ladder: []float64{1000, 2000, 3000, 4000}, limit: 10 * time.Millisecond}
	// A stall fails the lowest rung; the two above it pass; the top one
	// misses the limit, and the crossing lies between it and 3000/s:
	// log(10/2) / log(500/2) of the way, in log rate.
	slo, notes, err := ladderReport(spec, []*openStats{rung(0.02, 1000), rung(0.001, 2000), rung(0.002, 3000), rung(0.5, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	want := 3000 * math.Pow(4.0/3, math.Log(5)/math.Log(250))
	if math.Abs(slo-want) > 0.01 {
		t.Errorf("slo_rate_ops = %g, want %g\n%v", slo, want, notes)
	}
	// A rung with failed requests has an infinite p99: the crossing is
	// the highest passing rung itself.
	failed := rung(0.001, 4000)
	for i := range failed.lat[:100] {
		failed.lat[i] = math.Inf(1)
		failed.failed++
	}
	if slo, notes, _ := ladderReport(spec, []*openStats{rung(0.001, 1000), rung(0.001, 2000), rung(0.002, 3000), failed}); math.Abs(slo-3000) > 0.01 {
		t.Errorf("slo_rate_ops = %g, want the 3000/s rung's completed rate\n%v", slo, notes)
	}
	// Every rung passes: the top rung's rate, and a note that the
	// ladder no longer reaches past capacity.
	slo, notes, _ = ladderReport(spec, []*openStats{rung(0.001, 1000), rung(0.001, 2000), rung(0.002, 3000), rung(0.002, 4000)})
	if math.Abs(slo-4000) > 0.01 || !strings.Contains(strings.Join(notes, "\n"), "no longer reaches") {
		t.Errorf("all rungs passing: slo_rate_ops = %g\n%v", slo, notes)
	}
}

func TestLadderStopsAfterOverloadedRungs(t *testing.T) {
	rung := func(latency float64, unsent int, growing bool) *openStats {
		st := &openStats{lat: make([]float64, 2000), backlog: make([]int32, 2000), unsent: unsent}
		for i := range st.lat {
			st.lat[i] = latency
			if growing {
				st.backlog[i] = int32(i)
			}
		}
		return st
	}
	calm := rung(0.001, 0, false)
	growing := rung(0.5, 0, true)
	burst := rung(0.005, 0, true) // backlog looked like it grew; p99 met the limit
	abandoned := rung(0.5, 3, false)
	spec := &kvSpec{ladder: []float64{100, 200, 300}, limit: 10 * time.Millisecond}
	for _, c := range []struct {
		rungs []*openStats
		stop  bool
	}{
		{[]*openStats{calm}, false},
		{[]*openStats{calm, growing}, false},
		{[]*openStats{growing, calm}, false},
		{[]*openStats{burst, growing}, false},
		{[]*openStats{calm, growing, abandoned}, true},
	} {
		if got := pastKnee(spec, c.rungs, 2); got != c.stop {
			t.Errorf("pastKnee over %d rungs = %v, want %v", len(c.rungs), got, c.stop)
		}
	}
	if l := geometricLadder(1000, 3); l[0] != 1000 || math.Abs(l[2]-1000*ladderStep*ladderStep) > 1e-9 {
		t.Errorf("geometricLadder(1000, 3) = %v", l)
	}
}
