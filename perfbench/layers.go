package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"memqlat/internal/cache"
	"memqlat/internal/dist"
	"memqlat/internal/protocol"
	"memqlat/internal/stats"
	"memqlat/internal/telemetry"
)

// layerMetric is one per-layer metric of the traced run. Every workload
// reports all of them; one whose layer is not on the workload's path
// reads 0 and gets a note saying why.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"gen.lag_p99_us", "us"}, {"gen.backlog_max", "count"},
	{"client.get_us.p50", "us"}, {"client.get_us.p99", "us"},
	{"client.multiget_us.p50", "us"}, {"client.multiget_us.p99", "us"},
	{"client.set_us.p50", "us"}, {"client.dials", "count"}, {"client.discards", "count"},
	{"proxy.hop_us.p50", "us"}, {"proxy.hop_us.p99", "us"}, {"proxy.upstream_depth_max", "count"},
	{"server.commands", "count"}, {"server.cmd_us.p50", "us"}, {"server.cmd_us.p99", "us"},
	{"server.lock_wait_us", "us"}, {"server.fills", "count"}, {"server.fill_errs", "count"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"}, {"cache.get_ns", "ns"}, {"cache.set_ns", "ns"},
	{"protocol.parse_ns", "ns"}, {"protocol.write_ns", "ns"},
	{"backend.get_us.p50", "us"}, {"backend.get_us.p99", "us"}, {"backend.lookups", "count"},
	{"core.estimate_ms", "ms"}, {"core.plan_ms", "ms"}, {"core.cliff_ms", "ms"},
	{"queueing.delta_ms", "ms"}, {"queueing.quantile_ms", "ms"},
	{"dist.laplace_us", "us"},
	{"sim.run_s", "s"}, {"sim.requests", "count"},
	{"go.gc_cpu_frac", "ratio"}, {"go.alloc_bytes_per_req", "bytes"}, {"go.heap_peak_mb", "MiB"},
	{"bench.trace_overhead", "ratio"},
	{"gen.self_s", "s"}, {"client.self_s", "s"}, {"cache.self_s", "s"}, {"protocol.self_s", "s"},
	{"core.self_s", "s"}, {"queueing.self_s", "s"}, {"dist.self_s", "s"}, {"sim.self_s", "s"},
}

// layerValues collects the traced run's measurements by name.
type layerValues struct {
	vals    map[string]float64
	samples map[string]int
	skipped map[string]string
}

func newLayerValues() *layerValues {
	return &layerValues{vals: map[string]float64{}, samples: map[string]int{}, skipped: map[string]string{}}
}

func (l *layerValues) set(name string, v float64) { l.vals[name] = v }

func (l *layerValues) skip(name, why string) {
	if _, ok := l.vals[name]; !ok {
		l.skipped[name] = why
	}
}

// quantiles sets name.pNN in µs for each level from samples in seconds,
// each only when enough samples lie beyond it.
func (l *layerValues) quantiles(name string, secs []float64, levels ...float64) {
	sorted := sortedCopy(secs)
	for _, lv := range levels {
		key := fmt.Sprintf("%s.p%.0f", name, lv*100)
		q, ok := quantileOf(sorted, lv)
		if !ok {
			l.skip(key, fmt.Sprintf("%d samples, fewer than %d beyond p%.0f", len(sorted), minBeyond, lv*100))
			continue
		}
		l.vals[key] = q.Value * 1e6
		l.samples[key] = q.Samples
	}
}

// tracedRun is the per-layer run. On a kv workload it measures a closed
// loop untraced, traced and untraced again (the difference is the
// tracing overhead), a traced open loop at the high rate, the layers' own
// counters, and replays of the workload's keys through a private cache
// and the protocol codec; then, on every workload, the traced model leg.
func tracedRun(ctx context.Context, spec *kvSpec, seed uint64, budget time.Duration) (*outcome, *tracer, error) {
	out := &outcome{}
	tr := newTracer()
	lv := newLayerValues()
	if spec != nil {
		if err := traceKV(spec, seed, budget, tr, lv, out); err != nil {
			return nil, nil, err
		}
	} else {
		for _, m := range layerMetrics {
			switch layerOf(m.name) {
			case "gen", "client", "proxy", "server", "cache", "protocol", "backend", "bench":
				lv.skip(m.name, "model_plan opens no sockets")
			}
		}
	}
	mr, err := runModel(ctx, seed, timedPasses, timedSims, tr)
	if err != nil {
		return nil, nil, err
	}
	out.add(mr.checks)
	lv.set("core.estimate_ms", meanDur(mr.estimates)*1e3)
	lv.set("core.plan_ms", mr.maxRate.Seconds()*1e3)
	lv.set("core.cliff_ms", medianDur(mr.cliffs)*1e3)
	lv.set("queueing.delta_ms", medianDur(mr.deltas)*1e3)
	lv.set("queueing.quantile_ms", medianDur(mr.quantiles)*1e3)
	lv.set("dist.laplace_us", medianDur(mr.laplaces)*1e6)
	lv.set("sim.run_s", medianDur(mr.sims))
	lv.set("sim.requests", simRequests)

	self := selfTimes(tr.spans)
	for _, m := range layerMetrics {
		if layer, ok := strings.CutSuffix(m.name, ".self_s"); ok {
			lv.set(m.name, self[layer].Seconds())
		}
	}
	for _, m := range layerMetrics {
		v, ok := lv.vals[m.name]
		if !ok {
			why := lv.skipped[m.name]
			if why == "" {
				why = "not measured"
			}
			out.notes = append(out.notes, fmt.Sprintf("%s reads 0: %s", m.name, why))
		}
		out.ms.mustAdd(m.name, v, m.unit, lv.samples[m.name])
	}
	return out, tr, nil
}

func traceKV(spec *kvSpec, seed uint64, budget time.Duration, tr *tracer, lv *layerValues, out *outcome) error {
	keys, vals, err := spec.keyspace(seed)
	if err != nil {
		return err
	}
	zipf, err := dist.NewZipf(spec.keys, spec.zipfS)
	if err != nil {
		return err
	}
	warm := spec.requests(dist.SubRand(seed, 2), zipf, keys, warmRequests)
	st, err := bringUp(spec, seed, keys, vals, warm, true)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	out.attempted += warmRequests
	workers := runtime.NumCPU()
	closed := spec.requests(dist.SubRand(seed, 3), zipf, keys, closedRequests)
	account := func(issued, failed int, first error) {
		out.attempted += int64(issued)
		out.failed += int64(failed)
		if first != nil {
			out.errs = append(out.errs, first.Error())
		}
	}

	// The traced closed loop runs between two untraced ones, so drift
	// over the run (a cache still settling, a neighbour on the host)
	// does not read as tracing overhead.
	phase := budget / 6
	runtime.GC()
	before := readRuntime()
	plain := runClosed(closed, workers, phase, st.do, nil)
	after := readRuntime()
	account(plain.issued, plain.failed, plain.firstErr)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		lv.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
	if plain.issued > 0 {
		lv.set("go.alloc_bytes_per_req", (after.allocBytes-before.allocBytes)/float64(plain.issued))
	}
	runtime.GC()
	traced := runClosed(closed, workers, phase, st.do, tr)
	account(traced.issued, traced.failed, traced.firstErr)
	runtime.GC()
	plain2 := runClosed(closed, workers, phase, st.do, nil)
	account(plain2.issued, plain2.failed, plain2.firstErr)
	if untraced := (plain.rate() + plain2.rate()) / 2; untraced > 0 {
		lv.set("bench.trace_overhead", 1-traced.rate()/untraced)
	}

	at, err := arrivals(dist.SubRand(seed, uint64(100+spec.high)), spec.ladder[spec.high], budget/2, spec.xi, spec.q)
	if err != nil {
		return err
	}
	reqs := spec.requests(dist.SubRand(seed, uint64(150+spec.high)), zipf, keys, len(at))
	runtime.GC()
	sampler := startSampler(st)
	open := runOpen(reqs, at, workers, drain, st.do, tr)
	depthMax, heapMax := sampler.stop()
	account(open.issued, open.failed, open.firstErr)
	if q, ok := quantileOf(sortedCopy(open.lag), 0.99); ok {
		lv.set("gen.lag_p99_us", q.Value*1e6)
		lv.samples["gen.lag_p99_us"] = q.Samples
	}
	backlogMax := int32(0)
	for _, b := range open.backlog {
		backlogMax = max(backlogMax, b)
	}
	lv.set("gen.backlog_max", float64(backlogMax))
	lv.set("go.heap_peak_mb", heapMax/(1<<20))

	// Client calls, timed by the spans the generator's requests carry.
	byName := map[string][]float64{}
	for _, s := range tr.spans {
		if layerOf(s.Name) == "client" && s.End >= 0 {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e9)
		}
	}
	lv.quantiles("client.get_us", byName["client.get"], 0.5, 0.99)
	lv.quantiles("client.multiget_us", byName["client.multiget"], 0.5, 0.99)
	lv.quantiles("client.set_us", byName["client.set"], 0.5)
	var dials, discards int64
	for i := 0; i < st.cl.NumServers(); i++ {
		ps, err := st.cl.PoolStats(i)
		if err != nil {
			return err
		}
		dials += ps.Dials
		discards += ps.Discards
	}
	lv.set("client.dials", float64(dials))
	lv.set("client.discards", float64(discards))

	if st.px != nil {
		if h := st.hop.Histograms()[telemetry.StageProxyHop]; h != nil {
			lv.quantiles("proxy.hop_us", histSamples(h), 0.5, 0.99)
		}
		lv.set("proxy.upstream_depth_max", float64(depthMax))
	} else {
		for _, n := range []string{"proxy.hop_us.p50", "proxy.hop_us.p99", "proxy.upstream_depth_max"} {
			lv.skip(n, "no proxy on this workload's path")
		}
	}

	var commands int64
	var fills, fillErrs int64
	var hits, misses, evictions int64
	var lockWait float64
	lat := stats.NewHistogram()
	for _, s := range st.servers {
		commands += s.Counters().Commands
		f, e := s.FillCounts()
		fills += f
		fillErrs += e
		cs := s.Cache().Stats()
		hits += cs.Hits
		misses += cs.Misses
		evictions += cs.Evictions
		lockWait += cs.LockWaitSeconds
		h := s.LatencyHistogram()
		if k := s.LatencySampleEvery(); k > 1 {
			h.Scale(int64(k))
		}
		if err := lat.Merge(h); err != nil {
			return err
		}
	}
	lv.set("server.commands", float64(commands))
	lv.set("server.lock_wait_us", lockWait*1e6)
	if lat.Count() > 0 {
		lv.set("server.cmd_us.p50", lat.MustQuantile(0.5)*1e6)
		lv.set("server.cmd_us.p99", lat.MustQuantile(0.99)*1e6)
	}
	lv.set("cache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	lv.set("cache.evictions", float64(evictions))
	if st.db != nil {
		lv.set("server.fills", float64(fills))
		lv.set("server.fill_errs", float64(fillErrs))
		lv.quantiles("backend.get_us", st.filler.lat, 0.5, 0.99)
		lv.set("backend.lookups", float64(st.db.Stats().Lookups))
	} else {
		for _, n := range []string{"server.fills", "server.fill_errs", "backend.get_us.p50", "backend.get_us.p99", "backend.lookups"} {
			lv.skip(n, "no backend on this workload's path")
		}
	}
	for _, n := range []string{"client.get_us.p50", "client.get_us.p99"} {
		if spec.multiget > 1 {
			lv.skip(n, "this workload sends no single-key gets")
		}
	}
	for _, n := range []string{"client.multiget_us.p50", "client.multiget_us.p99"} {
		if spec.multiget <= 1 {
			lv.skip(n, "this workload sends no multigets")
		}
	}
	if spec.setFrac == 0 {
		lv.skip("client.set_us.p50", "this workload sends no sets")
	}

	getNs, setNs, err := replayCache(spec, keys, vals, closed, workers, tr)
	if err != nil {
		return err
	}
	lv.set("cache.get_ns", getNs)
	lv.set("cache.set_ns", setNs)
	parseNs, writeNs, err := replayProtocol(keys, vals, closed, tr)
	if err != nil {
		return err
	}
	lv.set("protocol.parse_ns", parseNs)
	lv.set("protocol.write_ns", writeNs)
	return nil
}

// histSamples expands a histogram into one representative value per
// observation (its bucket's upper bound), so the same percentile rule
// applies to it as to exact samples.
func histSamples(h *stats.Histogram) []float64 {
	var out []float64
	h.EachBucket(func(upper float64, count int64) {
		for i := int64(0); i < count; i++ {
			out = append(out, upper)
		}
	})
	return out
}

type runtimeSample struct{ gcCPU, totalCPU, allocBytes, heapBytes, stackBytes float64 }

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/stacks:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), heapBytes: v(3), stackBytes: v(4)}
}

// sampler polls the proxy's upstream queue depths and the live heap
// every millisecond while the traced open loop runs.
type sampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	depthMax int
	heapMax  float64
}

func startSampler(st *kvStack) *sampler {
	s := &sampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			if st.px != nil {
				total := 0
				for _, d := range st.px.UpstreamQueueDepths() {
					total += d
				}
				s.depthMax = max(s.depthMax, total)
			}
			s.heapMax = max(s.heapMax, readRuntime().heapBytes)
			select {
			case <-s.done:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *sampler) stop() (depthMax int, heapMax float64) {
	close(s.done)
	s.wg.Wait()
	return s.depthMax, s.heapMax
}

// replayOps sizes the replays to about a million operations.
const replayOps = 1 << 20

// replayCache times SetBytes and GetInto on a private cache sized like
// the workload's servers together: every key is set once, then the
// workload's read keys are looked up, each from workers goroutines.
// Results are per call, per goroutine.
func replayCache(spec *kvSpec, keys []string, vals [][]byte, reqs []request, workers int, tr *tracer) (getNs, setNs float64, err error) {
	budget, err := spec.cacheBudget(keys, vals)
	if err != nil {
		return 0, 0, err
	}
	c, err := cache.New(cache.Options{MaxBytes: budget * int64(spec.servers)})
	if err != nil {
		return 0, 0, err
	}
	keyB := make([][]byte, len(keys))
	for i, k := range keys {
		keyB[i] = []byte(k)
	}
	var stream []int32
	for _, r := range reqs {
		switch {
		case r.set:
		case r.keys != nil:
			stream = append(stream, r.keys...)
		default:
			stream = append(stream, r.key)
		}
	}
	parallel := func(name string, f func(w int) error) (time.Duration, error) {
		errs := make([]error, workers)
		d := tr.timed(name, func() {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					errs[w] = f(w)
				}(w)
			}
			wg.Wait()
		})
		return d, errors.Join(errs...)
	}
	d, err := parallel("cache.set_replay", func(w int) error {
		for i := len(keys) - 1 - w; i >= 0; i -= workers {
			if err := c.SetBytes(keyB[i], vals[i], 0, 0); err != nil {
				return fmt.Errorf("replay set %s: %w", keys[i], err)
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	setNs = float64(d.Nanoseconds()) * float64(workers) / float64(len(keys))
	rounds := max(1, replayOps/max(len(stream), 1))
	d, err = parallel("cache.get_replay", func(w int) error {
		dst := make([]byte, 0, spec.maxValue())
		for r := 0; r < rounds; r++ {
			for i := w; i < len(stream); i += workers {
				k := stream[i]
				v, _, _, err := c.GetInto(keyB[k], dst[:0])
				if err == nil && !bytes.Equal(v, vals[k]) {
					return fmt.Errorf("replay get %s: %w", keys[k], errWrongValue)
				}
				if err != nil && !errors.Is(err, cache.ErrNotFound) {
					return fmt.Errorf("replay get %s: %w", keys[k], err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	getNs = float64(d.Nanoseconds()) * float64(workers) / float64(rounds*len(stream))
	return getNs, setNs, nil
}

// replayProtocol times the protocol codec on the workload's own
// requests: their command bytes through a Parser, and a value reply for
// every key they read through a Writer.
func replayProtocol(keys []string, vals [][]byte, reqs []request, tr *tracer) (parseNs, writeNs float64, err error) {
	var wire bytes.Buffer
	for _, r := range reqs {
		switch {
		case r.set:
			fmt.Fprintf(&wire, "set %s 0 0 %d\r\n%s\r\n", keys[r.key], len(vals[r.key]), vals[r.key])
		case r.keys != nil:
			wire.WriteString("get")
			for _, n := range r.names {
				wire.WriteString(" " + n)
			}
			wire.WriteString("\r\n")
		default:
			fmt.Fprintf(&wire, "get %s\r\n", keys[r.key])
		}
	}
	rounds := max(1, replayOps/len(reqs))
	parsed := 0
	d := tr.timed("protocol.parse_replay", func() {
		for i := 0; i < rounds && err == nil; i++ {
			p := protocol.NewParser(bufio.NewReaderSize(bytes.NewReader(wire.Bytes()), 64<<10))
			for {
				_, e := p.Next()
				if errors.Is(e, io.EOF) {
					break
				}
				if e != nil {
					err = fmt.Errorf("replay parse: %w", e)
					break
				}
				parsed++
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	if parsed != rounds*len(reqs) {
		return 0, 0, fmt.Errorf("replay parse: %d commands, want %d", parsed, rounds*len(reqs))
	}
	parseNs = float64(d.Nanoseconds()) / float64(parsed)

	keyB := make([][]byte, len(keys))
	for i, k := range keys {
		keyB[i] = []byte(k)
	}
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	w := protocol.NewWriter(bw)
	written := 0
	d = tr.timed("protocol.write_replay", func() {
		for i := 0; i < rounds && err == nil; i++ {
			for _, r := range reqs {
				if r.set {
					continue
				}
				if r.keys == nil {
					if err = w.ValueBytes(keyB[r.key], 0, 0, vals[r.key], false); err != nil {
						return
					}
					written++
				}
				for _, k := range r.keys {
					if err = w.ValueBytes(keyB[k], 0, 0, vals[k], false); err != nil {
						return
					}
					written++
				}
				if err = w.End(); err != nil {
					return
				}
			}
		}
		if err == nil {
			err = w.Flush()
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("replay write: %w", err)
	}
	writeNs = float64(d.Nanoseconds()) / float64(written)
	return parseNs, writeNs, nil
}
