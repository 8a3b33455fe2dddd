package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/fabric"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/ring"
	"lingerlonger/internal/serve"
	"lingerlonger/internal/stats"
)

const (
	replicas    = 3  // llserve replicas in the ring
	clientConns = 2  // client connections: one per CPU of the reference machine
	fillCount   = 48 // distinct requests serve-warm fills during set-up
	// lagLimit bounds the pacer's p99 lateness. A run above it did not
	// offer the load it claims and fails its checks. The p99 is 0.3 to
	// 1.6 ms on a 2-CPU machine; a machine whose other tenants took half
	// of its CPU time reached 21 ms and still offered the full rate.
	lagLimit = 50 * time.Millisecond
	// sampleEvery picks about one cold request in this many for the
	// comparison against a single-replica reference server.
	sampleEvery = 211
)

var clusterPolicies = []string{"LL", "LF", "IE", "PM"}

// request is one HTTP request of a serve workload.
type request struct {
	endpoint string
	body     []byte
}

func (r request) path() string { return "/v1/simulate/" + r.endpoint }

// genRequest returns request i of the seed's stream. The three cached
// endpoints take turns; the parameters and the simulation seed derive
// from (seed, i), so no two requests of a stream are alike. The decide
// endpoint is left out; the package comment says why.
func genRequest(seed int64, i int) request {
	u := exp.DeriveSeed(seed, i)
	rng := stats.NewRNG(u)
	var r request
	var v any
	switch i % 3 {
	case 0:
		r.endpoint = serve.EndpointNode
		v = &serve.NodeRequest{Utilization: 0.05 * float64(rng.Intn(19)), Duration: 200, Seed: u}
	case 1:
		r.endpoint = serve.EndpointCluster
		v = &serve.ClusterRequest{Policy: clusterPolicies[rng.Intn(len(clusterPolicies))], Nodes: 8, NumJobs: 8,
			JobCPU: 60, TraceMachines: 2, TraceDays: 1, Seed: u}
	default:
		r.endpoint = serve.EndpointScenario
		v = &serve.ScenarioRequest{Quick: true,
			Spec: json.RawMessage(fmt.Sprintf(`{"scenarioVersion":1,"name":"quick-node","kind":"node","seed":%d}`, u))}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // unreachable: the request types hold only finite numbers and strings
	}
	r.body = body
	return r
}

// ownerOf returns the index of the replica that owns the request's cache
// key, computed outside the servers on a ring built like theirs.
func (b *serveBench) ownerOf(r request) int {
	q, err := serve.DecodeRequest(r.endpoint, r.body, 1<<20)
	if err != nil {
		panic(fmt.Sprintf("generated request does not decode: %v", err)) // a generator bug
	}
	owner, _ := b.ring.Owner(serve.CacheKey(r.endpoint, q))
	for i, peer := range b.peers {
		if peer == owner {
			return i
		}
	}
	panic("ring owner " + owner + " is not a replica")
}

// job is one request as a pass sends it.
type job struct {
	id     int // index in the workload's request stream
	req    request
	target int  // replica the client sends it to
	owned  bool // the target owns the request's cache key
	fill   int  // serve-warm: index of the fill request it repeats; -1 for cold
}

// replica is one in-process llserve replica.
type replica struct {
	srv  *serve.Server
	ln   *connListener
	url  string
	done chan struct{} // closed when Serve returns
}

// serveBench is the serve-cold or serve-warm workload: a 3-replica ring
// of llserve in this process, driven over loopback HTTP.
type serveBench struct {
	seed    int64
	warm    bool
	rate    float64
	segment time.Duration // open-loop segment of a round
	batch   int

	replicas []*replica
	peers    []string
	client   *http.Client
	ring     *ring.Ring

	next      int       // next index of the request stream
	fill      []request // serve-warm: the requests filled during set-up
	fillBody  [][]byte  // and their response bodies
	fillOwner []int     // and the replicas that own them
	mu        sync.Mutex
	sampled   map[int][]byte // serve-cold: sampled response bodies by request index
	mismatch  atomic.Int64   // serve-warm: responses that differ from their fill body
	// lag is the pacer's tail lateness in the untraced pass, in ms: the
	// pass whose latencies it qualifies, and long enough for a p99.
	lag float64
}

func newServeCold(cfg runConfig) bench {
	return &serveBench{seed: cfg.seed, rate: cfg.size.coldRate, segment: cfg.size.segment, batch: cfg.size.coldBatch}
}

func newServeWarm(cfg runConfig) bench {
	return &serveBench{seed: cfg.seed, warm: true, rate: cfg.size.warmRate, segment: cfg.size.segment, batch: cfg.size.warmBatch}
}

// Booting the ring takes about a millisecond, much of it waiting for idle
// threads to wake, so its median time needs many boots. The warm fill adds
// about 0.1 s of simulation per boot, which is steadier.
func (b *serveBench) setupReps() int {
	if b.warm {
		return 1
	}
	return 5
}

// setup boots the ring, waits until every replica answers readiness and,
// for serve-warm, fills the cache with the fill requests.
func (b *serveBench) setup(rec *obs.Recorder) error {
	lns := make([]*connListener, replicas)
	b.peers = make([]string, replicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return err
		}
		lns[i] = &connListener{Listener: ln}
		b.peers[i] = ln.Addr().String()
	}
	for i, ln := range lns {
		cfg := serve.DefaultConfig()
		cfg.Rec = rec
		cfg.Cluster = &serve.ClusterConfig{Self: b.peers[i], Peers: b.peers, Link: fabric.DefaultLinkConfig()}
		srv, err := serve.New(cfg)
		if err != nil {
			closeListeners(lns[i:])
			return err
		}
		r := &replica{srv: srv, ln: ln, url: "http://" + b.peers[i], done: make(chan struct{})}
		go func() {
			defer close(r.done)
			_ = srv.Serve(ln) // returns once close shuts the server down
		}()
		b.replicas = append(b.replicas, r)
	}
	b.client = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns},
	}
	for _, r := range b.replicas {
		resp, err := b.client.Get(r.url + "/readyz")
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("replica %s not ready: %s", r.url, resp.Status)
		}
	}
	rg, err := ring.New(b.peers, 0)
	if err != nil {
		return err
	}
	b.ring = rg
	if !b.warm {
		return nil
	}
	b.fill, b.fillBody, b.fillOwner = nil, nil, nil
	for i := 0; i < fillCount; i++ {
		req := genRequest(b.seed, i)
		owner := b.ownerOf(req)
		status, body, err := b.send(req, owner)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("fill request %d: status %d: %s", i, status, body)
		}
		b.fill = append(b.fill, req)
		b.fillBody = append(b.fillBody, body)
		b.fillOwner = append(b.fillOwner, owner)
	}
	b.next = fillCount
	return nil
}

func closeListeners(lns []*connListener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// connListener remembers the connections it accepted. A replica's proxy
// client can open a connection to a peer and never send on it; the HTTP
// server's Shutdown waits five seconds for such a connection, so close
// closes every accepted connection first.
type connListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// closeConns closes every accepted connection.
func (l *connListener) closeConns() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

func (b *serveBench) close() {
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	// Nothing is in flight once a pass has ended, so every connection
	// left is idle or unused.
	for _, r := range b.replicas {
		r.ln.closeConns()
	}
	for _, r := range b.replicas {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = r.srv.Shutdown(ctx) // a drain past the deadline still stops the listener
		cancel()
		// Shutdown stops nothing when Serve has not started yet; closing
		// the listener makes a late Serve return at once.
		r.ln.Close()
		<-r.done
	}
	b.replicas = nil
}

// send posts one request to a replica and reads the whole reply.
func (b *serveBench) send(req request, target int) (int, []byte, error) {
	resp, err := b.client.Post(b.replicas[target].url+req.path(), "application/json", bytes.NewReader(req.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// newJob returns the next request of the workload's stream. Every third
// request goes to the replica that owns its cache key and the others to
// one of the two that proxy it there, so exactly two thirds take a proxy
// hop, whatever the ring's layout (which hashes the replicas' ports).
func (b *serveBench) newJob() job {
	j := job{id: b.next, fill: -1}
	var owner int
	if b.warm {
		j.fill = int(uint64(exp.DeriveSeed(b.seed, b.next)) % fillCount)
		j.req, owner = b.fill[j.fill], b.fillOwner[j.fill]
	} else {
		j.req = genRequest(b.seed, b.next)
		owner = b.ownerOf(j.req)
	}
	hop := (b.next / 3) % replicas // decorrelated from the endpoint, which is next % 3
	j.target, j.owned = (owner+hop)%replicas, hop == 0
	b.next++
	return j
}

// do sends one job and checks its reply.
func (b *serveBench) do(p *pass, parent int, j job) bool {
	h := p.tr.begin("serve.request", parent, int64(j.id))
	status, body, err := b.send(j.req, j.target)
	p.tr.end(h)
	if err != nil || status != http.StatusOK {
		return false
	}
	switch {
	case j.fill >= 0:
		if !bytes.Equal(body, b.fillBody[j.fill]) {
			b.mismatch.Add(1)
		}
	case uint64(exp.DeriveSeed(b.seed, j.id))%sampleEvery == 0:
		b.mu.Lock()
		b.sampled[j.id] = body
		b.mu.Unlock()
	}
	return true
}

// round is what one serve round measured, and the CPU time the host gave
// to other virtual machines instead of this one while it ran.
type round struct {
	lat   []float64 // open-loop latency per request, ms
	wall  float64   // closed-loop batch, s
	steal int64     // host steal, clock ticks summed over CPUs
}

// run is a series of rounds, each an open-loop segment at the fixed rate
// followed by one closed-loop batch over clientConns connections. Spread
// over the whole pass, both measurements see the same mix of machine
// states, which on a shared machine drift over seconds. The end-to-end
// metrics come from the quieter half of the rounds (see quieter).
func (b *serveBench) run(p *pass) error {
	b.sampled = map[int][]byte{}
	b.mismatch.Store(0)
	var before map[string]int64
	if p.tr != nil {
		before = p.counters()
	}

	// Only the last round's jobs and timelines are kept, for the traced
	// pass, which is one round: the harness's own memory must not grow
	// with the number of rounds, which follows the machine's speed, or it
	// would show in peak_rss_mb.
	var seg []job
	var ss []sample
	var lateness []float64
	var rounds []round
	stealOK := true
	for n := 0; p.more(n); n++ {
		steal0, err := hostSteal()
		stealOK = stealOK && err == nil
		seg = make([]job, int(b.rate*b.segment.Seconds()))
		for i := range seg {
			seg[i] = b.newJob()
		}
		root := p.tr.begin("serve.open_loop", noSpan, int64(n))
		ss = openLoop(len(seg), b.rate, clientConns, func(i int) bool { return b.do(p, root, seg[i]) })
		p.tr.end(root)
		r := round{lat: make([]float64, 0, len(ss))}
		for _, s := range ss {
			lateness = append(lateness, ms(s.lateness()))
			lat := ms(s.latency())
			if !s.ok {
				p.failed++
				lat = math.Inf(1) // a failed request misses every latency limit
			}
			r.lat = append(r.lat, lat)
		}
		p.attempt += len(ss)

		batch := make([]job, b.batch)
		for i := range batch {
			batch[i] = b.newJob()
		}
		root = p.tr.begin("serve.closed_batch", noSpan, int64(n))
		wall, failed := closedLoop(len(batch), clientConns, func(i int) bool { return b.do(p, root, batch[i]) })
		p.tr.end(root)
		r.wall = wall.Seconds()
		p.attempt += len(batch)
		p.failed += failed
		steal1, err := hostSteal()
		stealOK = stealOK && err == nil
		r.steal = steal1 - steal0
		rounds = append(rounds, r)
		if err := p.sampleSetups(); err != nil {
			return err
		}
	}
	kept := rounds
	if stealOK {
		kept = quieter(rounds)
	}
	var stolen, stolenAll int64
	for _, r := range kept {
		p.items = append(p.items, r.lat...)
		p.walls = append(p.walls, r.wall)
		stolen += r.steal
	}
	for _, r := range rounds {
		stolenAll += r.steal
	}

	ld, err := summarize(lateness)
	if err != nil {
		return fmt.Errorf("open loop lateness: %w", err)
	}
	if ld.tail > ms(lagLimit) {
		p.failf("%s: pacer p%g lateness %.3f ms exceeds %v: the offered rate was not held", b.name(), ld.tailP, ld.tail, lagLimit)
	}
	if p.tr == nil {
		b.lag = ld.tail
	}
	p.notef("%s: %d of %d rounds kept (host steal %d ticks in them, %d in all; readable %t); open loop %d requests at %g req/s; closed loop batches of %d, capacity %.0f req/s",
		b.name(), len(kept), len(rounds), stolen, stolenAll, stealOK, len(lateness), b.rate, b.batch, float64(b.batch)/median(p.walls))

	b.check(p)
	if p.tr != nil {
		b.layerMetrics(p, before, seg, ss)
	}
	return nil
}

// quieter returns the half of the rounds, rounded up, in which the host
// stole the least CPU time from this machine. On a shared 2-CPU virtual
// machine, open-loop latency follows steal: serve-warm rounds with up to
// 5 ticks of steal have a p99 of 1.7 to 2.9 ms, rounds with 10 to 90
// ticks 3 to 16 ms, and steal comes in bursts of seconds, so pooling every
// round makes the tail a measure of the neighbours. The rounds are chosen
// by steal, which the program under test does not cause, never by their
// own latency, so a change that slows some rounds still shows.
func quieter(rounds []round) []round {
	s := slices.Clone(rounds)
	slices.SortStableFunc(s, func(a, b round) int { return cmp.Compare(a.steal, b.steal) })
	return s[:(len(s)+1)/2]
}

func (b *serveBench) name() string {
	if b.warm {
		return "serve-warm"
	}
	return "serve-cold"
}

// check compares replies with a single-replica reference server.
func (b *serveBench) check(p *pass) {
	if p.failed > 0 {
		p.failf("%s: %d of %d requests failed", b.name(), p.failed, p.attempt)
	}
	if n := b.mismatch.Load(); n > 0 {
		p.failf("%s: %d responses differ from their fill response", b.name(), n)
	}
	ref, err := serve.New(serve.DefaultConfig())
	if err != nil {
		p.failf("%s: reference server: %v", b.name(), err)
		return
	}
	defer ref.Shutdown(context.Background())
	compare := func(what string, req request, got []byte) {
		rr := httptest.NewRecorder()
		ref.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, req.path(), bytes.NewReader(req.body)))
		if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), got) {
			p.failf("%s: %s differs from the single-replica reference", b.name(), what)
		}
	}
	if b.warm {
		for i, req := range b.fill {
			compare(fmt.Sprintf("fill request %d", i), req, b.fillBody[i])
		}
		return
	}
	for id, body := range b.sampled {
		compare(fmt.Sprintf("request %d", id), genRequest(b.seed, id), body)
	}
	p.notef("serve-cold: %d sampled responses match the reference", len(b.sampled))
}

// layerMetrics fills the traced pass's per-layer metrics from its one
// round's open-loop jobs and their timelines.
func (b *serveBench) layerMetrics(p *pass, before map[string]int64, jobs []job, samples []sample) {
	m := p.layer
	m["loadgen.lag_p99_ms"] = b.lag
	after := p.counters()
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	hits, misses := delta(obs.ServeCacheHits), delta(obs.ServeCacheMisses)
	m["serve.cache_lookups"] = hits + misses
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	switch {
	case b.warm && misses > 0:
		p.failf("serve-warm: %g cache misses after the fill", misses)
	case !b.warm && hits > 0:
		p.failf("serve-cold: %g cache hits on distinct requests", hits)
	}
	m["serve.dedup_waits"] = delta(obs.ServeDedupWaits)
	m["serve.shed"] = delta(obs.ServeShed)
	m["ring.proxy_share"] = delta(obs.ServeProxySent) / float64(p.attempt)

	var owned, proxied []float64
	var keys []string
	var bodies []request
	seen := map[string]bool{}
	for i, j := range jobs {
		service := ms(samples[i].end - samples[i].start)
		if j.owned {
			owned = append(owned, service)
		} else {
			proxied = append(proxied, service)
		}
		if k := string(j.req.body); !seen[k] && len(bodies) < 2048 {
			seen[k] = true
			bodies = append(bodies, j.req)
		}
	}
	m["serve.owner_p50_ms"] = p50(p, "owner latency", owned)
	m["serve.proxied_p50_ms"] = p50(p, "proxied latency", proxied)
	m["serve.proxy_hop_ms"] = m["serve.proxied_p50_ms"] - m["serve.owner_p50_ms"]

	decoded := make([]any, len(bodies))
	const calls = 20000
	h := p.tr.begin("serve.DecodeRequest", noSpan, -1)
	t0 := time.Now()
	for n := 0; n < calls; n++ {
		r := bodies[n%len(bodies)]
		decoded[n%len(bodies)], _ = serve.DecodeRequest(r.endpoint, r.body, 1<<20)
	}
	m["serve.decode_us"] = float64(time.Since(t0).Nanoseconds()) / calls / 1e3
	p.tr.end(h)
	for i, r := range bodies {
		keys = append(keys, serve.CacheKey(r.endpoint, decoded[i]))
	}
	h = p.tr.begin("serve.CacheKey", noSpan, -1)
	t0 = time.Now()
	for n := 0; n < calls; n++ {
		i := n % len(bodies)
		_ = serve.CacheKey(bodies[i].endpoint, decoded[i])
	}
	m["serve.cachekey_us"] = float64(time.Since(t0).Nanoseconds()) / calls / 1e3
	p.tr.end(h)
	const ownerCalls = 1 << 18
	h = p.tr.begin("ring.Owner", noSpan, -1)
	t0 = time.Now()
	for n := 0; n < ownerCalls; n++ {
		_, _ = b.ring.Owner(keys[n%len(keys)])
	}
	m["ring.owner_ns"] = float64(time.Since(t0).Nanoseconds()) / ownerCalls
	p.tr.end(h)
}
