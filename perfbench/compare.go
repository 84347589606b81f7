package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// savedRun is one run's saved standard output, parsed.
type savedRun struct {
	path string
	env  environment
	res  result
}

func readSavedRun(path string) (*savedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	run := &savedRun{path: path}
	var last string
	haveEnv := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, envPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &run.env); err != nil {
				return nil, fmt.Errorf("%s: environment line: %w", path, err)
			}
			haveEnv = true
		}
		if line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !haveEnv {
		return nil, fmt.Errorf("%s: no environment line", path)
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", path, err)
	}
	return run, nil
}

// benchMetric is one end_to_end entry of BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]benchMetric, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []benchMetric `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchMetric, len(doc.EndToEnd))
	for _, m := range doc.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		m := float64(n + 1)
		pos := float64(j) * m / 4
		k := int(math.Floor(pos))
		frac := pos - float64(k)
		k = min(max(k, 1), n-1)
		return s[k-1] + (s[k]-s[k-1])*frac
	}
	return at(1), median(s), at(3)
}

// compareMain compares saved runs of a base and a head commit metric by
// metric: medians, quartile spreads, and whether the head is worse than
// the base by more than the metric's bound. It refuses runs measured on
// different CPU models unless told otherwise, and always refuses runs of
// different workloads, lengths or processor counts.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseGlob := fs.String("base", "", "glob of saved base runs (standard output of the benchmark)")
	headGlob := fs.String("head", "", "glob of saved head runs")
	benchPath := fs.String("bounds", "BENCHMARK.json", "BENCHMARK.json holding each end-to-end metric's bound")
	anyCPU := fs.Bool("allow-cpu-mismatch", false, "compare runs measured on different CPU models")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	worse, err := compareFiles(stdout, *baseGlob, *headGlob, *benchPath, *anyCPU)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if worse {
		return 1
	}
	return 0
}

func compareFiles(w io.Writer, baseGlob, headGlob, benchPath string, anyCPU bool) (bool, error) {
	base, err := loadRuns(baseGlob)
	if err != nil {
		return false, err
	}
	head, err := loadRuns(headGlob)
	if err != nil {
		return false, err
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		return false, err
	}
	return compareRuns(w, base, head, bounds, anyCPU)
}

func loadRuns(glob string) ([]*savedRun, error) {
	if glob == "" {
		return nil, errors.New("need -base and -head")
	}
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %q", glob)
	}
	runs := make([]*savedRun, 0, len(paths))
	for _, p := range paths {
		r, err := readSavedRun(p)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

var (
	// errCPUMismatch rejects a comparison across CPU models.
	errCPUMismatch = errors.New("runs were measured on different CPU models")
	// errRunMismatch rejects a comparison across workloads, run
	// lengths, traced and untraced runs, or processor counts: their
	// metrics are different quantities.
	errRunMismatch = errors.New("runs differ in workload, --seconds, --trace or nproc")
)

func compareRuns(w io.Writer, base, head []*savedRun, bounds map[string]benchMetric, anyCPU bool) (worse bool, err error) {
	first := base[0]
	for _, r := range append(append([]*savedRun(nil), base...), head...) {
		if r.env.CPU != first.env.CPU && !anyCPU {
			return false, fmt.Errorf("%w: %q (%s) vs %q (%s); pass -allow-cpu-mismatch to compare anyway",
				errCPUMismatch, first.env.CPU, first.path, r.env.CPU, r.path)
		}
		a, b := first.env, r.env
		if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace || a.NumCPU != b.NumCPU {
			return false, fmt.Errorf("%w: %s is %s --seconds %d --trace %d on %d CPUs, %s is %s --seconds %d --trace %d on %d CPUs",
				errRunMismatch, first.path, a.Workload, a.Seconds, a.Trace, a.NumCPU, r.path, b.Workload, b.Seconds, b.Trace, b.NumCPU)
		}
		if !r.res.Correct {
			return false, fmt.Errorf("%s: run is not correct (%d of %d failed)", r.path, r.res.Failed, r.res.Attempted)
		}
	}
	names := map[string]bool{}
	for _, r := range append(append([]*savedRun(nil), base...), head...) {
		for n := range r.res.Metrics {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "%-24s %14s %8s %14s %8s %9s %6s  %s\n", "metric", "base median", "spread", "head median", "spread", "change", "bound", "verdict")
	values := func(runs []*savedRun, n string) []float64 {
		var xs []float64
		for _, r := range runs {
			if v, ok := r.res.Metrics[n]; ok {
				xs = append(xs, v.Value)
			}
		}
		return xs
	}
	for _, n := range sorted {
		bq1, bmed, bq3 := quartiles(values(base, n))
		hq1, hmed, hq3 := quartiles(values(head, n))
		change := (hmed - bmed) / math.Abs(bmed)
		bm, bounded := bounds[n]
		verdict := "no bound"
		if bounded {
			worseBy := change
			if bm.Better == "higher" {
				worseBy = -change
			}
			baseSpread := (bq3 - bq1) / math.Abs(bmed)
			switch {
			case worseBy > bm.Bound:
				verdict = "WORSE"
				worse = true
			case baseSpread > bm.Bound:
				verdict = "unresolved"
			default:
				verdict = "ok"
			}
		}
		fmt.Fprintf(w, "%-24s %14.6g %7.1f%% %14.6g %7.1f%% %+8.1f%% %6.2f  %s\n", n,
			bmed, 100*(bq3-bq1)/math.Abs(bmed), hmed, 100*(hq3-hq1)/math.Abs(hmed), 100*change, bm.Bound, verdict)
	}
	return worse, nil
}
