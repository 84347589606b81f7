package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
)

// metricName is the grammar every metric name must satisfy.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the grammar of a unit.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported number. Samples is the sample count behind a
// percentile or median (0 for values that are not order statistics); it
// is printed on the human-readable line, not in the JSON result.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// metricSet collects metrics in report order and rejects malformed or
// duplicate names.
type metricSet struct {
	list []metric
	seen map[string]bool
}

func (s *metricSet) add(name string, value float64, unit string, samples int) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q does not match %s", name, metricName)
	}
	if !metricUnit.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q does not match %s", name, unit, metricUnit)
	}
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if s.seen[name] {
		return fmt.Errorf("metric %s reported twice", name)
	}
	s.seen[name] = true
	s.list = append(s.list, metric{Name: name, Value: value, Unit: unit, Samples: samples})
	return nil
}

// mustAdd is add for names and units fixed in this package; a failure
// is a bug in the benchmark itself.
func (s *metricSet) mustAdd(name string, value float64, unit string, samples int) {
	if err := s.add(name, value, unit, samples); err != nil {
		panic(err)
	}
}

// percentile is one order statistic with the evidence behind it.
type percentile struct {
	Value   float64 // seconds; +Inf when a failed request sits at that rank
	Samples int     // all samples the statistic was taken over
	Beyond  int     // samples strictly above its rank
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported.
const minBeyond = 10

// quantileOf returns the nearest-rank p-quantile of sorted samples and
// whether at least minBeyond samples lie beyond it.
func quantileOf(sorted []float64, p float64) (percentile, bool) {
	n := len(sorted)
	if n == 0 {
		return percentile{}, false
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9)) // p·n can land a rounding error above an integer
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	q := percentile{Value: sorted[rank-1], Samples: n, Beyond: n - rank}
	return q, q.Beyond >= minBeyond
}

// tailLevels are the candidate tail percentiles, highest first.
var tailLevels = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// highestTail returns the highest candidate percentile that has at least
// minBeyond samples beyond it, with its level.
func highestTail(sorted []float64) (level float64, q percentile, ok bool) {
	for _, l := range tailLevels {
		if q, ok := quantileOf(sorted, l); ok {
			return l, q, true
		}
	}
	return 0, percentile{}, false
}

// finite maps +Inf (a failed request's latency) to the largest float so
// the JSON result stays encodable; the run is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment identifies where and how a result was measured.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Seed       uint64 `json:"seed"`
}

func currentEnvironment(workload string, seconds, trace int, seed uint64) environment {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return environment{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Workload:   workload,
		Seconds:    seconds,
		Trace:      trace,
		Seed:       seed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// envPrefix tags the environment line of the report, so compare can
// find it in saved output.
const envPrefix = "env "

// writeReport prints the environment, one line per metric with its
// sample count, notes, and finally the JSON result line.
func writeReport(w io.Writer, env environment, ms *metricSet, notes []string, correct bool, attempted, failed int64) error {
	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", envPrefix, envJSON)
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "fail_frac %.6g ratio (failed=%d attempted=%d)\n", frac, failed, attempted)
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range ms.list {
		v := finite(m.Value)
		if m.Samples > 0 {
			fmt.Fprintf(w, "metric %-28s %14.6g %-10s n=%d\n", m.Name, v, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "metric %-28s %14.6g %s\n", m.Name, v, m.Unit)
		}
		res.Metrics[m.Name] = resultValue{Value: v, Unit: m.Unit}
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
