package stats

import "sync"

// histogramStripes is the number of lock domains in a StripedHistogram.
// Power of two so Stripe can mask instead of divide.
const histogramStripes = 8

// StripedHistogram is a Histogram that many goroutines record into
// concurrently: observations land in one of a fixed set of lock
// stripes, each a mutex over a grow-on-demand Histogram with the
// default bucketing, and readers merge the stripes. Workers holding
// distinct Stripe handles never serialize on one mutex, so a shared
// latency histogram does not become a cross-worker lock.
//
// The zero value is not usable; construct with NewStripedHistogram.
type StripedHistogram struct {
	stripes [histogramStripes]HistogramStripe
}

// HistogramStripe is one lock domain of a StripedHistogram.
type HistogramStripe struct {
	mu sync.Mutex
	h  Histogram
}

// NewStripedHistogram returns an empty striped histogram with
// NewHistogram's bucketing. Bucket slices grow on first use, so an idle
// stripe costs only its header.
func NewStripedHistogram() *StripedHistogram {
	s := &StripedHistogram{}
	for i := range s.stripes {
		s.stripes[i].h = *NewHistogram()
	}
	return s
}

// Stripe returns the lock stripe for the worker identified by hint.
func (s *StripedHistogram) Stripe(hint uint64) *HistogramStripe {
	return &s.stripes[hint&(histogramStripes-1)]
}

// Record adds one observation with Histogram.Record's semantics. The
// bucket index is computed before the lock is taken, and recording
// allocates only when the stripe's bucket slice first grows past a
// value's bucket.
func (st *HistogramStripe) Record(v float64) {
	v = sanitize(v)
	i := st.h.bucketIndex(v)
	st.mu.Lock()
	st.h.add(i, v)
	st.mu.Unlock()
}

// Snapshot returns the stripes merged into a new Histogram that is
// private to the caller.
func (s *StripedHistogram) Snapshot() *Histogram {
	out := NewHistogram()
	s.merge(out, false)
	return out
}

// Drain resets into (which must have NewHistogram's bucketing), merges
// every stripe into it and empties each stripe under that stripe's own
// lock, so every observation lands in exactly one Drain. Reusing into
// across calls keeps Drain allocation-free once its bucket slice has
// grown.
func (s *StripedHistogram) Drain(into *Histogram) {
	into.Reset()
	s.merge(into, true)
}

func (s *StripedHistogram) merge(into *Histogram, reset bool) {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		// Identical bucketing by construction; Merge cannot fail.
		_ = into.Merge(&st.h)
		if reset {
			st.h.Reset()
		}
		st.mu.Unlock()
	}
}
