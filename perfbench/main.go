// Command perfbench is the repository benchmark: it drives the unshaped
// client → proxy → server → backend stack in one process with the paper's
// bursty arrivals, times the Theorem-1 model, checks every output, and
// prints each metric by name and unit. See README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"memqlat/internal/dist"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// outcome is everything one run reports.
type outcome struct {
	ms                metricSet
	notes             []string
	attempted, failed int64
	// invalid, when set, rejects the run for a reason that is not a
	// failed operation (such as a late generator).
	invalid []string
	errs    []string
}

func (o *outcome) add(c checks) {
	o.attempted += c.attempted
	o.failed += c.failed
	o.errs = append(o.errs, c.errs...)
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.invalid) == 0 }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: kv_get, kv_multiget_rw or model_plan")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 30, "seconds the kv phases measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	spanDir := fs.String("spans", ".bench_build", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1 and --trace 0 or 1")
		return 2
	}
	spec, isKV := kvWorkloads[*name]
	if !isKV && *name != modelWorkload {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	var (
		out *outcome
		err error
	)
	switch {
	case *traceFlag == 1:
		var tr *tracer
		out, tr, err = tracedRun(ctx, spec, *seed, budget)
		if err == nil {
			err = writeSpans(tr, *spanDir, *name, *seed, out)
		}
	case isKV:
		out, err = measureKV(ctx, spec, *seed, budget)
	default:
		out, err = measureModel(ctx, *seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", e)
	}
	for _, e := range out.invalid {
		fmt.Fprintf(stderr, "perfbench: run rejected: %s\n", e)
	}
	if err := writeReport(stdout, currentEnvironment(*name, *seconds, *traceFlag, *seed), &out.ms, out.notes, out.correct(), out.attempted, out.failed); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !out.correct() {
		return 1
	}
	return 0
}

// modelWorkload runs only the model leg. It is not one of the workloads
// BENCHMARK.json lists, because it has no kv metrics to report; it
// exists for quick iteration on the model layers.
const modelWorkload = "model_plan"

func workloadNames() []string {
	names := []string{modelWorkload}
	for n := range kvWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// measureKV is the end-to-end run of a kv workload: the model leg's
// checks, then repeated set-up, a closed loop for peak throughput and
// the open-loop rate ladder.
func measureKV(ctx context.Context, spec *kvSpec, seed uint64, budget time.Duration) (*outcome, error) {
	out := &outcome{}
	// Only the model's checks run here; its timings are model_plan's.
	mr, err := runModel(ctx, seed, checkPasses, checkSims, nil)
	if err != nil {
		return nil, err
	}
	out.add(mr.checks)
	out.notes = append(out.notes, fmt.Sprintf("model: %d checks run, %d failed (timings: --workload %s)", mr.checks.attempted, mr.checks.failed, modelWorkload))

	keys, vals, err := spec.keyspace(seed)
	if err != nil {
		return nil, err
	}
	zipf, err := dist.NewZipf(spec.keys, spec.zipfS)
	if err != nil {
		return nil, err
	}
	warm := spec.requests(dist.SubRand(seed, 2), zipf, keys, warmRequests)
	var setups []float64
	var st *kvStack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	var before float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC()
		before = heldBytes()
		start := time.Now()
		if st, err = bringUp(spec, seed, keys, vals, warm, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.attempted += int64(setupRepeats * warmRequests)
	workers := runtime.NumCPU()

	closed := spec.requests(dist.SubRand(seed, 3), zipf, keys, closedRequests)
	runtime.GC()
	cs := runClosed(closed, workers, time.Duration(peakShare*float64(budget)), st.do, nil)
	out.attempted += int64(cs.issued)
	out.failed += int64(cs.failed)
	if cs.firstErr != nil {
		out.errs = append(out.errs, cs.firstErr.Error())
	}
	closed = nil
	runtime.GC()
	held := (heldBytes() - before) / (1 << 20)

	// The ladder is climbed climbs times and slo_rate_ops is the median
	// crossing: a stall of the host spoils one climb, not the result.
	rungDur := time.Duration((1 - peakShare) * float64(budget) / float64(climbs*len(spec.ladder)))
	var crossings, lags []float64
	for c := 0; c < climbs; c++ {
		var rungs []*openStats
		for r, rate := range spec.ladder {
			stream := uint64(100*(c+1) + r)
			at, err := arrivals(dist.SubRand(seed, stream), rate, rungDur, spec.xi, spec.q)
			if err != nil {
				return nil, err
			}
			reqs := spec.requests(dist.SubRand(seed, stream+50), zipf, keys, len(at))
			runtime.GC()
			rs := runOpen(reqs, at, workers, drain, st.do, nil)
			rungs = append(rungs, rs)
			out.attempted += int64(rs.issued)
			out.failed += int64(rs.failed)
			if rs.firstErr != nil {
				out.errs = append(out.errs, rs.firstErr.Error())
			}
			if pastKnee(spec, rungs, overloadStop) {
				break
			}
		}
		crossing, notes, err := ladderReport(spec, rungs)
		if err != nil {
			return nil, err
		}
		crossings = append(crossings, crossing)
		for _, n := range notes {
			out.notes = append(out.notes, fmt.Sprintf("climb %d %s", c, n))
		}
		out.notes = append(out.notes, fmt.Sprintf("climb %d crossing %.6g requests/s", c, crossing))
		// The generator must be punctual on the rungs up to the high
		// rate, whose latencies are reported; above the knee it may fall
		// behind with the system.
		for r := 0; r <= spec.high && r < len(rungs); r++ {
			lags = append(lags, rungs[r].lag...)
		}
	}
	st.close()
	st = nil

	if q, ok := quantileOf(sortedCopy(lags), 0.99); !ok {
		out.invalid = append(out.invalid, fmt.Sprintf("generator lateness: %d samples, too few for a p99", len(lags)))
	} else {
		out.notes = append(out.notes, fmt.Sprintf("generator lateness p99 %.0fµs (n=%d) on the rungs up to the high rate", q.Value*1e6, q.Samples))
		if bound := lagShare * spec.limit.Seconds(); q.Value > bound {
			out.invalid = append(out.invalid, fmt.Sprintf("generator lateness p99 %.0fµs exceeds %.0fµs, half the latency limit", q.Value*1e6, bound*1e6))
		}
	}

	ms := &out.ms
	ms.mustAdd("setup_s", median(setups), "s", len(setups))
	out.notes = append(out.notes, fmt.Sprintf("peak_ops %.6g requests/s (median of %d windows, %d requests)", cs.rate(), windows, cs.issued))
	ms.mustAdd("slo_rate_ops", median(crossings), "requests/s", len(crossings))
	ms.mustAdd("kv_mem_mb", held, "MiB", 0)
	out.notes = append(out.notes, fmt.Sprintf("peak_rss_mb %.4g MiB (the whole process: harness inputs and results too)", peakRSSMiB()))
	return out, nil
}

// heldBytes is the live heap plus goroutine stacks, read after a
// collection.
func heldBytes() float64 {
	s := readRuntime()
	return s.heapBytes + s.stackBytes
}

// overloaded reports whether a rung offered rate requests/s left the
// stack behind: requests were abandoned unsent, or the backlog grew by
// more than the generator's workers and by more than rate·limit
// requests, a wait past the latency limit. Bursts of the arrival law
// grow the backlog for a while on a stable rung; only growth that
// costs the limit counts.
func (s *openStats) overloaded(rate float64, limit time.Duration) bool {
	floor := max(float64(2*runtime.NumCPU()), rate*limit.Seconds())
	return s.unsent > 0 || backlogGrowing(s.backlog, floor)
}

// pastKnee reports whether the last n rungs all overloaded the stack
// and missed the limit, so the rungs above them would measure only
// queueing. Requiring both keeps a burst that merely looked like a
// growing backlog from ending the ladder.
func pastKnee(spec *kvSpec, rungs []*openStats, n int) bool {
	if len(rungs) < n {
		return false
	}
	for r := len(rungs) - n; r < len(rungs); r++ {
		p99, _, ok := windowedQuantile(rungs[r].lat, 0.99)
		if !rungs[r].overloaded(spec.ladder[r], spec.limit) || (ok && p99.Value <= spec.limit.Seconds()) {
			return false
		}
	}
	return true
}

// ladderReport judges each rung that ran against the workload's limit
// and returns slo_rate_ops, the rate at which the p99 reaches the limit.
// Rung h is the highest that met the limit with no overload; a rung
// that failed below it, in a stall of the host, does not count. The
// crossing is interpolated log-log between h's p99 and rung h+1's, so
// the metric moves with capacity in less than a ladder step. An
// overloaded rung's latency grows while it runs, so its last window's
// p99 stands for it.
func ladderReport(spec *kvSpec, rungs []*openStats) (float64, []string, error) {
	var notes []string
	limit := spec.limit.Seconds()
	h := -1
	judged := make([]float64, len(rungs))
	for r, st := range rungs {
		p99, last, ok := windowedQuantile(st.lat, 0.99)
		if !ok {
			return 0, nil, fmt.Errorf("rung %g/s: %d samples, too few for a p99", spec.ladder[r], len(st.lat))
		}
		overloaded := st.overloaded(spec.ladder[r], spec.limit)
		judged[r] = p99.Value
		if overloaded {
			judged[r] = max(p99.Value, last)
		}
		meets := p99.Value <= limit && !overloaded
		sorted := sortedCopy(st.lat)
		p50, _ := quantileOf(sorted, 0.5)
		level, tail, _ := highestTail(sorted)
		notes = append(notes, fmt.Sprintf("rung %2d %6.0f/s%s: completed %.0f/s p50 %.0fµs windowed_p99 %.0fµs last_window_p99 %.0fµs pooled_p%g %.0fµs (n=%d, %d beyond) overloaded=%v unsent=%d meets_%v=%v",
			r, spec.ladder[r], rungLabel(spec, r), st.completedRate(), finite(p50.Value)*1e6, finite(p99.Value)*1e6, finite(last)*1e6,
			level*100, finite(tail.Value)*1e6, tail.Samples, tail.Beyond, overloaded, st.unsent, spec.limit, meets))
		if meets {
			h = r
		}
	}
	if len(rungs) < len(spec.ladder) {
		notes = append(notes, fmt.Sprintf("rungs %d to %d skipped: %d rungs in a row overloaded the stack and missed the limit", len(rungs), len(spec.ladder)-1, overloadStop))
	}
	if h < 0 {
		return 0, notes, nil
	}
	slo := rungs[h].completedRate()
	if h+1 < len(rungs) {
		lo, hi := judged[h], judged[h+1]
		if hi > limit && !math.IsInf(hi, 1) && lo > 0 {
			f := math.Log(limit/lo) / math.Log(hi/lo)
			slo *= math.Pow(spec.ladder[h+1]/spec.ladder[h], f)
		}
	} else if h == len(spec.ladder)-1 {
		notes = append(notes, "the top rung met the limit: the ladder no longer reaches past capacity")
	}
	return slo, notes, nil
}

// rungLabel marks the rungs whose latencies stand for the workload's
// low and high rates.
func rungLabel(spec *kvSpec, r int) string {
	switch r {
	case spec.low:
		return " (low)"
	case spec.high:
		return " (high)"
	}
	return ""
}

// measureModel is the end-to-end run of the model leg alone.
func measureModel(ctx context.Context, seed uint64) (*outcome, error) {
	out := &outcome{}
	mr, err := runModel(ctx, seed, timedPasses, timedSims, nil)
	if err != nil {
		return nil, err
	}
	out.add(mr.checks)
	out.ms.mustAdd("setup_s", mr.setup.Seconds(), "s", 0)
	addModelMetrics(out, mr)
	out.notes = append(out.notes, fmt.Sprintf("peak_rss_mb %.4g MiB", peakRSSMiB()))
	return out, nil
}

// addModelMetrics prints the timed model leg's timings as notes. None
// is gated: see README.md for their spreads.
func addModelMetrics(out *outcome, mr *modelResult) {
	out.notes = append(out.notes,
		fmt.Sprintf("model: plan_s %.4g s (MaxTotalKeyRate and %d cliff rows)", mr.plan.Seconds(), len(mr.cliffs)),
		fmt.Sprintf("model: estimate_ms %.4g ms (mean of %d Estimate calls)", meanDur(mr.estimates)*1e3, len(mr.estimates)),
		fmt.Sprintf("model: sim_req_s %.6g requests/s (%d runs of %d requests)", simRequests/meanDur(mr.sims), len(mr.sims), simRequests))
}

func meanDur(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds() / float64(len(ds))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// writeSpans saves the traced run's spans and notes where.
func writeSpans(tr *tracer, dir, name string, seed uint64, out *outcome) error {
	if tr == nil {
		return errors.New("traced run kept no spans")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	out.notes = append(out.notes, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))
	return nil
}
