package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"memqlat/internal/core"
	"memqlat/internal/dist"
	"memqlat/internal/plane"
	"memqlat/internal/workload"
)

// gridPoint is one scenario of the model grid: burst degree, concurrent
// probability, utilization of the heaviest server and its load share, on
// the paper's four-server Facebook baseline.
type gridPoint struct{ xi, q, rho, p1 float64 }

// modelRef is a grid point's Theorem-1 outputs as the model computed
// them when the benchmark was defined. Later versions of the model must
// reproduce them to refTol.
type modelRef struct {
	at               gridPoint
	totalLo, totalHi float64
	delta            float64
}

const refTol = 1e-9

// modelGrid reaches ρ = 0.97 on an unbalanced cluster, where δ nears 1
// and the root solve is hardest.
var modelGrid = []modelRef{
	{gridPoint{0.15, 0.1, 0.5, 0.25}, 0.00083605400313460242, 0.0010082655803054063, 0.54218697767129376},
	{gridPoint{0.15, 0.1, 0.97, 0.4}, 0.0022759177996986594, 0.0031460365545014457, 0.97509707581400051},
	{gridPoint{0.15, 0.5, 0.5, 0.25}, 0.00083605400313460242, 0.0011300348420420496, 0.54218697767129376},
	{gridPoint{0.15, 0.5, 0.97, 0.4}, 0.0040966520394575875, 0.0049780225955949192, 0.97509707581400051},
	{gridPoint{0.5, 0.1, 0.5, 0.25}, 0.00083605400313460242, 0.001084505940346597, 0.69497110408251705},
	{gridPoint{0.5, 0.1, 0.97, 0.4}, 0.0087291134874993709, 0.0095991018731752739, 0.99347741626128316},
	{gridPoint{0.5, 0.5, 0.5, 0.25}, 0.00083605400313460242, 0.0012672674901161927, 0.69497110408251705},
	{gridPoint{0.5, 0.5, 0.97, 0.4}, 0.015712404277498863, 0.016593540169207815, 0.99347741626128316},
}

// The planner pass: the largest aggregate key rate whose Theorem-1
// upper bound stays within planBudget on the Facebook baseline, and the
// Table-4 cliff utilization for cliffXis at the baseline q.
const planBudget = 1e-3

var cliffXis = []float64{0.15, 0.5}

// simRequests is the size of the composition-simulator run of the
// Facebook scenario. A timed model leg evaluates the grid timedPasses
// times and runs the simulator timedSims times with one seed; the leg
// kv runs make for its checks alone does each as often as the checks
// need.
const (
	simRequests = 20000
	timedPasses = 3
	timedSims   = 5
	checkPasses = 1
	checkSims   = 2
)

func (g gridPoint) config() (*core.Config, error) {
	c := workload.Facebook()
	c.Xi, c.Q = g.xi, g.q
	ratios, err := core.UnbalancedLoad(c.M(), g.p1)
	if err != nil {
		return nil, err
	}
	c.LoadRatios = ratios
	c.TotalKeyRate = g.rho * c.MuS / g.p1
	return c, c.Validate()
}

// modelResult is what one pass over the model leg measured.
type modelResult struct {
	setup     time.Duration   // building the grid's configurations
	estimates []time.Duration // one Estimate per grid point per pass
	plan      time.Duration   // MaxTotalKeyRate plus every cliff row
	maxRate   time.Duration
	cliffs    []time.Duration
	sims      []time.Duration // wall time of each simulator run
	// per-layer timings, measured in traced runs only
	deltas, quantiles, laplaces []time.Duration
	checks                      checks
}

// checks counts correctness checks and keeps the first failures.
type checks struct {
	attempted, failed int64
	errs              []string
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.errs) < 5 {
			c.errs = append(c.errs, fmt.Sprintf(format, args...))
		}
	}
}

func relClose(a, b float64) bool {
	return math.Abs(a-b) <= refTol*math.Max(math.Abs(a), math.Abs(b))
}

// runModel evaluates Theorem 1 over the grid passes times, makes one
// planner pass and runs the seeded composition simulator sims times.
// With a tracer it also times, once per grid point, the queueing and
// dist calls Estimate is made of.
func runModel(ctx context.Context, seed uint64, passes, sims int, tr *tracer) (*modelResult, error) {
	res := &modelResult{}
	start := time.Now()
	cfgs := make([]*core.Config, len(modelGrid))
	for i, ref := range modelGrid {
		c, err := ref.at.config()
		if err != nil {
			return nil, fmt.Errorf("grid point %v: %w", ref.at, err)
		}
		cfgs[i] = c
	}
	res.setup = time.Since(start)

	// Each timed part starts from a collected heap, so whether a
	// collection of what ran before lands inside it is not left to chance.
	runtime.GC()
	for pass := 0; pass < passes; pass++ {
		for i, c := range cfgs {
			var est *core.Estimate
			var err error
			res.estimates = append(res.estimates, tr.timed("core.estimate", func() { est, err = c.Estimate() }))
			if err != nil {
				return nil, fmt.Errorf("estimate %v: %w", modelGrid[i].at, err)
			}
			ref := modelGrid[i]
			res.checks.check(relClose(est.Total.Lo, ref.totalLo) && relClose(est.Total.Hi, ref.totalHi) && relClose(est.Delta, ref.delta),
				"estimate %v: total [%.17g, %.17g] delta %.17g, want [%.17g, %.17g] delta %.17g",
				ref.at, est.Total.Lo, est.Total.Hi, est.Delta, ref.totalLo, ref.totalHi, ref.delta)
			if tr != nil && pass == 0 {
				if err := res.layerTimings(c, tr); err != nil {
					return nil, err
				}
			}
		}
	}

	base := workload.Facebook()
	var rate float64
	var err error
	runtime.GC()
	res.maxRate = tr.timed("core.max_rate", func() { rate, err = base.MaxTotalKeyRate(planBudget) })
	if err != nil {
		return nil, fmt.Errorf("max total key rate: %w", err)
	}
	res.checks.check(rate > 0 && rate < base.MuS*float64(base.M()), "max total key rate %g outside (0, M·µS)", rate)
	res.plan = res.maxRate
	for _, xi := range cliffXis {
		var u float64
		d := tr.timed("core.cliff", func() { u, err = core.CliffUtilization(xi, base.Q, nil) })
		if err != nil {
			return nil, fmt.Errorf("cliff utilization ξ=%g: %w", xi, err)
		}
		res.checks.check(u > 0 && u < 1, "cliff utilization ξ=%g is %g, outside (0, 1)", xi, u)
		res.cliffs = append(res.cliffs, d)
		res.plan += d
	}

	var first string
	for i := 0; i < sims; i++ {
		s := plane.FromConfig("facebook", workload.Facebook())
		s.Requests = simRequests
		s.Seed = seed
		var r *plane.Result
		runtime.GC()
		d := tr.timed("sim.run", func() { r, err = plane.SimPlane{}.Run(ctx, s) })
		if err != nil {
			return nil, fmt.Errorf("sim run: %w", err)
		}
		res.sims = append(res.sims, d)
		sum := simSummary(r)
		if i == 0 {
			first = sum
			res.checks.check(r.Sample != nil && r.Sample.Count() == simRequests, "sim completed %s, want %d requests", sum, simRequests)
			continue
		}
		res.checks.check(sum == first, "sim run %d with seed %d: %s, first run: %s", i, seed, sum, first)
	}
	return res, nil
}

// layerTimings times, on a grid point's heaviest queue, the calls
// Estimate is made of: the δ root solve, a sojourn quantile, and one
// Laplace transform of its GP inter-arrival law.
func (res *modelResult) layerTimings(c *core.Config, tr *tracer) error {
	bq, err := c.HeaviestQueue()
	if err != nil {
		return err
	}
	res.deltas = append(res.deltas, tr.timed("queueing.delta", func() { _, err = bq.Delta() }))
	if err != nil {
		return fmt.Errorf("delta: %w", err)
	}
	res.quantiles = append(res.quantiles, tr.timed("queueing.quantile", func() { _, err = bq.SojournQuantile(0.99) }))
	if err != nil {
		return fmt.Errorf("sojourn quantile: %w", err)
	}
	gp, err := dist.NewGeneralizedPareto(c.Xi, bq.BatchArrivalRate())
	if err != nil {
		return err
	}
	s := bq.BatchServiceRate()
	res.laplaces = append(res.laplaces, tr.timed("dist.laplace", func() { _ = gp.LaplaceTransform(s) }))
	return nil
}

func simSummary(r *plane.Result) string {
	if r.Sample == nil {
		return fmt.Sprintf("total=%v (no sample)", r.Total)
	}
	return fmt.Sprintf("total=%.17g..%.17g n=%d mean=%.17g p99=%.17g", r.Total.Lo, r.Total.Hi,
		r.Sample.Count(), r.Sample.Mean(), r.Sample.MustQuantile(0.99))
}
