package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

func TestStripedHistogramEmpty(t *testing.T) {
	s := NewStripedHistogram()
	snap := s.Snapshot()
	if snap.Count() != 0 || snap.MustQuantile(0.5) != 0 || snap.Mean() != 0 {
		t.Fatalf("empty snapshot: count=%d p50=%v mean=%v, want zeros",
			snap.Count(), snap.MustQuantile(0.5), snap.Mean())
	}
	if above := 1 - snap.CDF(0); above != 1 {
		t.Fatalf("empty 1-CDF(0) = %v, want 1 (callers guard on Count)", above)
	}
}

// TestStripedHistogramQuantileWithinOnePercent is the accuracy property
// the SLO watchdog's band math depends on: for values spanning seven
// decades, every quantile stays within 1% of the exact sorted-reference
// value at the same rank.
func TestStripedHistogramQuantileWithinOnePercent(t *testing.T) {
	s := NewStripedHistogram()
	rng := rand.New(rand.NewPCG(42, 42))
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		// Log-uniform between 100ns and 10s, like a latency
		// distribution with a heavy tail.
		vals[i] = math.Exp(rng.Float64()*math.Log(1e8)) * 1e-7
		s.Stripe(uint64(i)).Record(vals[i])
	}
	sort.Float64s(vals)
	snap := s.Snapshot()
	if snap.Count() != n {
		t.Fatalf("count=%d, want %d", snap.Count(), n)
	}
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int(math.Ceil(q * n))
		if rank < 1 {
			rank = 1
		}
		exact := vals[rank-1]
		got := snap.MustQuantile(q)
		if relErr := math.Abs(got-exact) / exact; relErr > 0.01 {
			t.Errorf("q=%v: histogram=%v exact=%v relative error %v > 1%%", q, got, exact, relErr)
		}
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if m, em := snap.Mean(), sum/n; math.Abs(m-em)/em > 1e-9 {
		t.Errorf("mean=%v, want exact %v", m, em)
	}
	if snap.Min() != vals[0] || snap.Max() != vals[n-1] {
		t.Errorf("min/max=%v/%v, want %v/%v", snap.Min(), snap.Max(), vals[0], vals[n-1])
	}
}

// TestStripedHistogramEdgeValues: stripes record with Histogram.Record's
// semantics (negative and NaN count as zero), and the exact min/max
// clamp the extreme quantiles.
func TestStripedHistogramEdgeValues(t *testing.T) {
	s := NewStripedHistogram()
	st := s.Stripe(3)
	st.Record(math.NaN())
	st.Record(-1)
	st.Record(0)
	st.Record(5e-10) // below the smallest bucket boundary
	st.Record(2e3)
	snap := s.Snapshot()
	if snap.Count() != 5 {
		t.Fatalf("count=%d, want 5", snap.Count())
	}
	if got := snap.MustQuantile(0.5); !(got >= 0 && got < 1e-9) {
		t.Errorf("p50=%v, want bucket 0's representative below 1ns", got)
	}
	if got := snap.MustQuantile(1); got != 2e3 {
		t.Errorf("p100=%v, want the max 2e3", got)
	}
	one := NewStripedHistogram()
	one.Stripe(0).Record(1e-3)
	osnap := one.Snapshot()
	if p0, p100 := osnap.MustQuantile(0), osnap.MustQuantile(1); p0 != 1e-3 || p100 != 1e-3 {
		t.Errorf("single-value quantiles %v/%v, want exactly 1e-3", p0, p100)
	}
}

// TestStripedHistogramFractionAboveViaCDF pins the burn-rate semantics:
// the fraction of observations above x is 1 − CDF(x), up to bucket
// resolution (observations in x's own bucket count as not above).
func TestStripedHistogramFractionAboveViaCDF(t *testing.T) {
	s := NewStripedHistogram()
	for i := 1; i <= 100; i++ {
		s.Stripe(uint64(i)).Record(float64(i) * 1e-3) // 1ms .. 100ms
	}
	snap := s.Snapshot()
	if got := 1 - snap.CDF(50e-3); math.Abs(got-0.5) > 0.03 {
		t.Errorf("above(50ms)=%v, want ~0.5", got)
	}
	if got := 1 - snap.CDF(1); got != 0 {
		t.Errorf("above(1s)=%v, want 0", got)
	}
	if got := 1 - snap.CDF(0); got != 1 {
		t.Errorf("above(0)=%v, want 1", got)
	}
}

func TestStripedHistogramSnapshotAndDrain(t *testing.T) {
	s := NewStripedHistogram()
	for i := 0; i < 1000; i++ {
		s.Stripe(0).Record(1e-3)
		s.Stripe(uint64(i)).Record(4e-3)
	}
	snap := s.Snapshot()
	if got := snap.Count(); got != 2000 {
		t.Fatalf("merged count=%d, want 2000", got)
	}
	if p25, p99 := snap.MustQuantile(0.25), snap.MustQuantile(0.99); p25 > 1.02e-3 || p99 < 3.9e-3 {
		t.Fatalf("merged p25=%v p99=%v, want ~1ms / ~4ms", p25, p99)
	}
	// Snapshot is a private copy and leaves the stripes untouched.
	snap.Record(1)
	if got := s.Snapshot().Count(); got != 2000 {
		t.Fatalf("count after mutating a snapshot = %d, want 2000", got)
	}

	into := NewHistogram()
	into.Record(99) // Drain resets its destination first
	s.Drain(into)
	if into.Count() != 2000 || into.Max() != 4e-3 {
		t.Fatalf("drained count=%d max=%v, want 2000 / 4ms", into.Count(), into.Max())
	}
	if got := s.Snapshot().Count(); got != 0 {
		t.Fatalf("count after Drain = %d, want 0", got)
	}
	s.Drain(into)
	if into.Count() != 0 || into.MustQuantile(0.99) != 0 {
		t.Fatalf("second Drain: count=%d p99=%v, want an empty window",
			into.Count(), into.MustQuantile(0.99))
	}
}

// TestStripedHistogramConcurrentDrain is the -race gauntlet: many
// goroutines record through their stripes while windows are drained
// and snapshotted concurrently. Every observation must land in exactly
// one drained window.
func TestStripedHistogramConcurrentDrain(t *testing.T) {
	s := NewStripedHistogram()
	const goroutines = 64
	const perG = 2000
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			st := s.Stripe(uint64(g))
			for i := 0; i < perG; i++ {
				st.Record(float64(i+1) * 1e-6)
			}
		}(g)
	}
	var drained int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		win := NewHistogram()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Drain(win)
			drained += win.Count()
			if snap := s.Snapshot(); snap.Count() < 0 {
				t.Error("negative count")
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	<-done
	win := NewHistogram()
	s.Drain(win)
	drained += win.Count()
	if drained != goroutines*perG {
		t.Fatalf("drained %d observations, want %d", drained, goroutines*perG)
	}
}

func TestStripedHistogramRecordZeroAlloc(t *testing.T) {
	s := NewStripedHistogram()
	st := s.Stripe(1)
	st.Record(1) // grow the bucket slice past every value below
	win := NewHistogram()
	allocs := testing.AllocsPerRun(1000, func() {
		st.Record(123e-6)
		st.Record(0.5)
	})
	if allocs != 0 {
		t.Fatalf("stripe Record: %v allocs/op, want 0", allocs)
	}
	s.Drain(win)
	allocs = testing.AllocsPerRun(1000, func() {
		st.Record(123e-6)
		s.Drain(win)
	})
	if allocs != 0 {
		t.Fatalf("Record+Drain: %v allocs/op, want 0", allocs)
	}
}
