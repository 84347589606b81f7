package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"memqlat/internal/dist"
)

// request is one operation the generator issues: a single-key get, a
// multi-key get of keys (named names) or a set of key.
type request struct {
	key   int32
	keys  []int32
	names []string
	set   bool
}

// doFunc issues one request and checks its reply. sp is the request's
// root span (zero when tracing is off) for the call to hang its own
// span under.
type doFunc func(r *request, sp spanRef) error

// arrivals draws due times (ns offsets from the phase start, ascending)
// for an open loop of mean rate requests/s over dur: Generalized Pareto
// batch gaps of shape xi and geometric batches of concurrent probability
// q, the paper's arrival law. Every request of a batch is due at once.
func arrivals(rng *rand.Rand, rate float64, dur time.Duration, xi, q float64) ([]int64, error) {
	batch, err := dist.NewGeometricBatch(q)
	if err != nil {
		return nil, err
	}
	gaps, err := dist.NewGeneralizedPareto(xi, rate*(1-q))
	if err != nil {
		return nil, err
	}
	end := dur.Seconds()
	at := make([]int64, 0, int(rate*end*1.1)+16)
	for t := gaps.Sample(rng); t < end; t += gaps.Sample(rng) {
		ns := int64(t * 1e9)
		for k := batch.SampleInt(rng); k > 0; k-- {
			at = append(at, ns)
		}
	}
	return at, nil
}

// A worker waits for its request's due time in three steps. Until
// sleepSlack before it, it sleeps on a Go timer, which on an idle process
// fires only to the millisecond (the runtime's network poller rounds its
// timeout up). Until spinWindow before it, it sleeps in nanosleep, which
// keeps microseconds but can overshoot when the virtual CPU must be woken.
// The rest it spins on the clock without yielding: a goroutine spinning
// on runtime.Gosched sits in the global run queue, where an idle
// processor finds it before it polls the network, so replies would wait
// for the scheduler's 10ms fallback poll.
const (
	sleepSlack = 2 * time.Millisecond
	spinWindow = 300 * time.Microsecond
)

func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > sleepSlack:
			time.Sleep(d - sleepSlack)
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
		}
	}
}

// openStats is what one open-loop phase measured.
type openStats struct {
	// lat holds, per scheduled request, the seconds from its due time to
	// its completion: +Inf for a failed request or one never sent.
	lat []float64
	// lag holds how late the generator sent requests whose worker was
	// idle before they fell due — the generator's own lateness, as
	// opposed to backlog the system under test caused.
	lag []float64
	// backlog holds, per request, how many requests were due but not
	// yet taken by a worker when it was taken, or afterSchedule once
	// every request had fallen due.
	backlog []int32
	// issued, failed and unsent count requests sent, sent and failed,
	// and abandoned unsent at the drain deadline.
	issued, failed, unsent int
	firstErr               error
	elapsed                time.Duration
}

// completedRate is requests completed per second of the phase.
func (s *openStats) completedRate() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.issued-s.failed) / s.elapsed.Seconds()
}

// runOpen issues reqs[i] at start+at[i] from a fixed pool of workers, so
// at most workers requests are in flight. A request whose worker is busy
// when it falls due waits in the generator, and that wait is part of its
// latency. Requests still unsent drain after the last due time are
// abandoned and count as missing any latency limit.
func runOpen(reqs []request, at []int64, workers int, drain time.Duration, do doFunc, tr *tracer) *openStats {
	n := len(at)
	st := &openStats{lat: make([]float64, n), backlog: make([]int32, n)}
	var (
		next           atomic.Int64
		issued, failed atomic.Int64
		unsent         atomic.Int64
		mu             sync.Mutex
		wg             sync.WaitGroup
	)
	start := time.Now()
	var last int64
	if n > 0 {
		last = at[n-1]
	}
	deadline := start.Add(time.Duration(last) + drain)
	lags := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(at[i]))
				now := time.Now()
				elapsed := int64(now.Sub(start))
				switch dueCount := sort.Search(n, func(j int) bool { return at[j] > elapsed }); {
				case dueCount == n:
					st.backlog[i] = afterSchedule
				case dueCount > i:
					st.backlog[i] = int32(dueCount - i)
				}
				if now.After(deadline) {
					st.lat[i] = math.Inf(1)
					unsent.Add(1)
					continue
				}
				early := now.Before(due)
				if early {
					waitUntil(due)
				}
				sent := time.Now()
				if early {
					lags[w] = append(lags[w], sent.Sub(due).Seconds())
				}
				root := tr.begin("gen.request", due)
				err := do(&reqs[i], root)
				done := time.Now()
				tr.end(root, done)
				issued.Add(1)
				if err != nil {
					failed.Add(1)
					st.lat[i] = math.Inf(1)
					mu.Lock()
					if st.firstErr == nil {
						st.firstErr = err
					}
					mu.Unlock()
					continue
				}
				st.lat[i] = done.Sub(due).Seconds()
			}
		}(w)
	}
	wg.Wait()
	st.elapsed = time.Since(start)
	st.issued, st.failed, st.unsent = int(issued.Load()), int(failed.Load()), int(unsent.Load())
	for _, l := range lags {
		st.lag = append(st.lag, l...)
	}
	return st
}

// closedStats is what one closed-loop phase measured.
type closedStats struct {
	issued, failed int
	// perWindow counts completions in each of windows equal slices of
	// the phase.
	perWindow []int64
	window    time.Duration
	firstErr  error
}

// rate is the median over windows of requests completed per second, so
// a stall of the machine in one window does not move it.
func (s *closedStats) rate() float64 {
	xs := make([]float64, len(s.perWindow))
	for i, c := range s.perWindow {
		xs[i] = float64(c) / s.window.Seconds()
	}
	return median(xs)
}

// runClosed keeps workers requests in flight for dur: each worker sends
// its next request as soon as the previous one completes, cycling
// through reqs.
func runClosed(reqs []request, workers int, dur time.Duration, do doFunc, tr *tracer) *closedStats {
	st := &closedStats{window: dur / windows}
	var (
		next           atomic.Int64
		issued, failed atomic.Int64
		perWindow      [windows]atomic.Int64
		mu             sync.Mutex
		wg             sync.WaitGroup
	)
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sent := time.Now()
				if sent.After(stop) {
					return
				}
				i := next.Add(1) - 1
				root := tr.begin("gen.request", sent)
				err := do(&reqs[int(i)%len(reqs)], root)
				done := time.Now()
				tr.end(root, done)
				issued.Add(1)
				if err != nil {
					failed.Add(1)
					mu.Lock()
					if st.firstErr == nil {
						st.firstErr = err
					}
					mu.Unlock()
					continue
				}
				if k := int(done.Sub(start) / st.window); k < windows {
					perWindow[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	st.issued, st.failed = int(issued.Load()), int(failed.Load())
	for i := range perWindow {
		st.perWindow = append(st.perWindow, perWindow[i].Load())
	}
	return st
}

// windows is how many equal slices a phase is cut into for its robust
// statistics: throughput and tail latency are taken per slice and the
// median over slices is reported, so one stall of a shared machine
// moves one slice, not the result.
const windows = 8

// windowedQuantile cuts lat (in due-time order) into up to windows
// equal runs of requests, as many as still leave minBeyond samples
// beyond the p-quantile of each, and returns the median over the runs of
// each run's p-quantile, and the last run's. It is not reportable when
// even one run of all the samples has too few beyond it.
func windowedQuantile(lat []float64, p float64) (q percentile, last float64, ok bool) {
	n := len(lat)
	need := int(math.Ceil(minBeyond / (1 - p)))
	k := min(windows, n/need)
	if k < 1 {
		return percentile{Samples: n}, 0, false
	}
	vals := make([]float64, k)
	beyond := n
	for w := range vals {
		q, _ := quantileOf(sortedCopy(lat[w*n/k:(w+1)*n/k]), p)
		vals[w] = q.Value
		beyond = min(beyond, q.Beyond)
	}
	return percentile{Value: median(vals), Samples: n, Beyond: beyond}, vals[k-1], true
}

// afterSchedule marks backlog samples taken after the last request fell
// due: from then on the backlog can only drain, so they say nothing
// about whether it grew.
const afterSchedule = -1

// backlogGrowing reports whether the backlog samples of one rung (in
// take order) trend upward while requests still fall due: the mean over
// the last quarter exceeds twice the mean over the first quarter by more
// than floor requests. A stable open loop has bursts but no trend; an
// overloaded one queues without bound.
func backlogGrowing(backlog []int32, floor float64) bool {
	for i, b := range backlog {
		if b == afterSchedule {
			backlog = backlog[:i]
			break
		}
	}
	n := len(backlog)
	if n < 8 {
		return false
	}
	mean := func(xs []int32) float64 {
		s := 0.0
		for _, x := range xs {
			s += float64(x)
		}
		return s / float64(len(xs))
	}
	first, last := mean(backlog[:n/4]), mean(backlog[n-n/4:])
	return last > 2*first+floor
}

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
