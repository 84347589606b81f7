package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"memqlat/internal/backend"
	"memqlat/internal/cache"
	"memqlat/internal/client"
	"memqlat/internal/dist"
	"memqlat/internal/proxy"
	"memqlat/internal/route"
	"memqlat/internal/server"
	"memqlat/internal/telemetry"
)

// kvSpec is one key-value workload: its traffic, the stack it runs on,
// and the fixed offered rates and latency limit its open-loop phases use.
type kvSpec struct {
	name    string
	servers int
	keys    int     // keyspace size
	zipfS   float64 // key popularity skew
	// multiget is the keys per read request; 1 sends single-key gets.
	multiget int
	setFrac  float64
	// proxied routes the client through an in-process proxy.
	proxied bool
	// fill gives the servers read-through from a backend.DB.
	fill bool
	// valueSize is every value's size, or with lognormal the mean of
	// the repository's lognormal value law (loadgen.ValueDistLogNormal
	// at its default shape: σ valueSigma, sizes clamped to
	// [1, 8·valueSize]).
	valueSize int
	lognormal bool
	// missRatio, when set, sizes the servers' RAM to hold the hottest
	// keys that carry 1 − missRatio of the popularity, so the rest are
	// evicted and filled on demand; 0 keeps the cache default
	// (everything fits).
	missRatio float64
	// xi and q are the arrival law: GP(xi) batch gaps, geometric
	// batches of concurrent probability q.
	xi, q float64
	// ladder is the offered rates of the open-loop rungs in requests/s,
	// ascending. ladder[low] and ladder[high] are reported as the low
	// and high rates.
	ladder    []float64
	low, high int
	// limit is the p99 latency limit slo_rate_ops is judged against.
	limit time.Duration
}

// valueSigma is loadgen's default lognormal shape.
const valueSigma = 0.5

// kvStack is one brought-up stack: servers, optional backend and proxy,
// and the client the generator drives.
type kvStack struct {
	keys    []string
	vals    [][]byte
	servers []*server.Server
	db      *backend.DB
	px      *proxy.Proxy
	cl      *client.Client
	// hop receives the proxy's per-command hop observations.
	hop *telemetry.Collector
	// filler is the servers' read-through source: db itself, or a
	// timing wrapper around it in traced runs.
	filler *timedFiller
	wg     sync.WaitGroup
}

// keyspace builds the workload's keys and the value populated for each.
func (s *kvSpec) keyspace(seed uint64) ([]string, [][]byte, error) {
	rng := dist.SubRand(seed, 1)
	var sizes dist.LogNormal
	if s.lognormal {
		var err error
		mean := float64(s.valueSize)
		if sizes, err = dist.NewLogNormal(math.Log(mean)-valueSigma*valueSigma/2, valueSigma); err != nil {
			return nil, nil, err
		}
	}
	keys := make([]string, s.keys)
	vals := make([][]byte, s.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s:%d", s.name, i)
		n := s.valueSize
		if s.lognormal {
			n = min(max(int(sizes.Sample(rng)), 1), s.maxValue())
		}
		v := make([]byte, n)
		for j := range v {
			v[j] = 'A' + byte(rng.IntN(26))
		}
		vals[i] = v
	}
	return keys, vals, nil
}

// maxValue is the largest value the workload stores.
func (s *kvSpec) maxValue() int {
	if s.lognormal {
		return 8 * s.valueSize
	}
	return s.valueSize
}

// requests draws n requests of the workload's mix.
func (s *kvSpec) requests(rng *rand.Rand, zipf *dist.Zipf, keys []string, n int) []request {
	out := make([]request, n)
	for i := range out {
		switch {
		case s.setFrac > 0 && rng.Float64() < s.setFrac:
			out[i] = request{key: int32(zipf.SampleInt(rng)), set: true}
		case s.multiget > 1:
			ks := make([]int32, 0, s.multiget)
			names := make([]string, 0, s.multiget)
			for len(ks) < s.multiget {
				k := int32(zipf.SampleInt(rng))
				if !containsKey(ks, k) {
					ks = append(ks, k)
					names = append(names, keys[k])
				}
			}
			out[i] = request{keys: ks, names: names}
		default:
			out[i] = request{key: int32(zipf.SampleInt(rng))}
		}
	}
	return out
}

func containsKey(ks []int32, k int32) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}

// cacheBudget is each server's cache MaxBytes (0 = the cache default):
// the bytes of the hottest keys that carry 1 − missRatio of zipf's
// popularity, split evenly between the servers.
func (s *kvSpec) cacheBudget(keys []string, vals [][]byte) (int64, error) {
	if s.missRatio == 0 {
		return 0, nil
	}
	zipf, err := dist.NewZipf(len(keys), s.zipfS)
	if err != nil {
		return 0, err
	}
	var total int64
	for i, mass := 0, 0.0; i < len(keys) && mass < 1-s.missRatio; i++ {
		mass += zipf.Prob(i)
		total += cache.ItemCost(len(keys[i]), len(vals[i]))
	}
	return total / int64(s.servers), nil
}

// bringUp starts the stack, populates every key on its owning server and
// warms the client's connection pools with warm requests.
func bringUp(s *kvSpec, seed uint64, keys []string, vals [][]byte, warm []request, traced bool) (*kvStack, error) {
	st := &kvStack{keys: keys, vals: vals}
	quiet := log.New(io.Discard, "", 0)
	if s.fill {
		db, err := backend.New(backend.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		st.db = db
		st.filler = &timedFiller{db: db, timed: traced}
	}
	budget, err := s.cacheBudget(keys, vals)
	if err != nil {
		st.close()
		return nil, err
	}
	addrs := make([]string, s.servers)
	for i := range addrs {
		c, err := cache.New(cache.Options{MaxBytes: budget})
		if err != nil {
			st.close()
			return nil, err
		}
		opts := server.Options{Cache: c, Seed: seed + uint64(i), Logger: quiet}
		if st.filler != nil {
			opts.Filler = st.filler
		}
		srv, err := server.New(opts)
		if err != nil {
			st.close()
			return nil, err
		}
		addr, err := st.serve(srv.Serve)
		if err != nil {
			st.close()
			return nil, err
		}
		st.servers = append(st.servers, srv)
		addrs[i] = addr
	}
	front := addrs
	if s.proxied {
		st.hop = telemetry.NewCollector()
		px, err := proxy.New(proxy.Options{Upstreams: addrs, Recorder: st.hop, Logger: quiet})
		if err != nil {
			st.close()
			return nil, err
		}
		st.px = px
		addr, err := st.serve(px.Serve)
		if err != nil {
			st.close()
			return nil, err
		}
		front = []string{addr}
	}
	cl, err := client.New(client.Options{Servers: front})
	if err != nil {
		st.close()
		return nil, err
	}
	st.cl = cl
	if err := st.populate(); err != nil {
		st.close()
		return nil, err
	}
	for i := range warm {
		if err := st.do(&warm[i], spanRef{}); err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, nil
}

// serve listens on a loopback port and runs serve on it until close.
func (st *kvStack) serve(serve func(net.Listener) error) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = serve(ln) // returns when the server or proxy closes
	}()
	return ln.Addr().String(), nil
}

// populate stores every key on the server the ketama ring assigns it to
// (the client's and the proxy's default selector), coldest key first so
// that under a RAM budget the hottest keys are the ones resident.
func (st *kvStack) populate() error {
	ring, err := route.NewRingSelector(len(st.servers), 0)
	if err != nil {
		return err
	}
	for i := len(st.keys) - 1; i >= 0; i-- {
		c := st.servers[ring.Pick(st.keys[i])].Cache()
		if err := c.Set(st.keys[i], st.vals[i], 0, 0); err != nil {
			return fmt.Errorf("populate %s: %w", st.keys[i], err)
		}
	}
	return nil
}

func (st *kvStack) close() {
	if st.cl != nil {
		st.cl.Close()
	}
	if st.px != nil {
		st.px.Close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	st.wg.Wait()
	if st.db != nil {
		st.db.Close()
	}
}

var errWrongValue = errors.New("wrong value")

// do issues one request and checks the reply: a get returns the key's
// populated value byte for byte; a multiget returns exactly the asked
// keys, each with its populated value or, after an eviction and a
// read-through fill, the backend's record; a set is acknowledged.
func (st *kvStack) do(r *request, sp spanRef) error {
	switch {
	case r.set:
		c := sp.child("client.set")
		err := st.cl.Set(st.keys[r.key], st.vals[r.key], 0, 0)
		c.done()
		if err != nil {
			return fmt.Errorf("set %s: %w", st.keys[r.key], err)
		}
		return nil
	case r.keys != nil:
		c := sp.child("client.multiget")
		items, err := st.cl.MultiGet(r.names)
		c.done()
		if err != nil {
			return fmt.Errorf("multiget: %w", err)
		}
		for i, name := range r.names {
			it, ok := items[name]
			if !ok {
				return fmt.Errorf("multiget: key %s missing", name)
			}
			if !st.valid(r.keys[i], it.Value) {
				return fmt.Errorf("multiget %s: %w", name, errWrongValue)
			}
		}
		if len(items) != len(r.names) { // the names are distinct
			return fmt.Errorf("multiget of %d keys returned %d, some not asked for", len(r.names), len(items))
		}
		return nil
	default:
		c := sp.child("client.get")
		it, err := st.cl.Get(st.keys[r.key])
		c.done()
		if err != nil {
			return fmt.Errorf("get %s: %w", st.keys[r.key], err)
		}
		if !bytes.Equal(it.Value, st.vals[r.key]) {
			return fmt.Errorf("get %s: %w", st.keys[r.key], errWrongValue)
		}
		return nil
	}
}

// valid reports whether v is a value key k may hold: the populated (and
// only ever set) value, or the backend's record when the key was filled.
func (st *kvStack) valid(k int32, v []byte) bool {
	if bytes.Equal(v, st.vals[k]) {
		return true
	}
	return st.db != nil && bytes.Equal(v, st.db.ValueFor(st.keys[k]))
}

// timedFiller is the servers' read-through source. In traced runs it
// times every backend lookup from outside.
type timedFiller struct {
	db    *backend.DB
	timed bool
	mu    sync.Mutex
	lat   []float64
}

func (f *timedFiller) Get(ctx context.Context, key string) ([]byte, error) {
	if !f.timed {
		return f.db.Get(ctx, key)
	}
	start := time.Now()
	v, err := f.db.Get(ctx, key)
	d := time.Since(start).Seconds()
	f.mu.Lock()
	f.lat = append(f.lat, d)
	f.mu.Unlock()
	return v, err
}
