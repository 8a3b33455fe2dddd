package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lingerlonger/internal/fabric"
	"lingerlonger/internal/obs"
)

// testLink is a LinkConfig tuned for unit tests: fast probes, no backoff
// sleeps, and a failure detector that declares death after two misses.
func testLink() fabric.LinkConfig {
	l := fabric.DefaultLinkConfig()
	l.DialTimeout = time.Second
	l.CallTimeout = 5 * time.Second
	l.RetryAttempts = 2
	l.RetryBase = 0
	l.HealthInterval = 20 * time.Millisecond
	l.SuspectAfter = 1
	l.DeadAfter = 2
	return l
}

// replica is one clustered test server with its registry and listener.
type replica struct {
	srv  *Server
	reg  *obs.Registry
	addr string
	ln   net.Listener
}

// url returns the replica's base URL.
func (r *replica) url() string { return "http://" + r.addr }

// kill shuts the replica down (drains in-flight requests, stops the
// prober, closes the port) so peers see connection-refused from now on.
func (r *replica) kill(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown %s: %v", r.addr, err)
	}
}

// startReplica builds a clustered server advertising self among peers
// and serves it on ln.
func startReplica(t *testing.T, ln net.Listener, self string, peers []string) *replica {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.Rec = obs.New(reg, nil)
	cfg.Cluster = &ClusterConfig{Self: self, Peers: peers, VNodes: 32, Link: testLink()}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	r := &replica{srv: s, reg: reg, addr: self, ln: ln}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return r
}

// startCluster boots n replicas that all know the full peer list.
func startCluster(t *testing.T, n int) []*replica {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range lns {
		reps[i] = startReplica(t, lns[i], peers[i], peers)
	}
	return reps
}

// testRequests is a deterministic mixed request set that spreads across
// the ring: several cluster and node variants.
func testRequests() []struct {
	path string
	req  any
} {
	var out []struct {
		path string
		req  any
	}
	for i := 0; i < 6; i++ {
		out = append(out, struct {
			path string
			req  any
		}{"/v1/simulate/cluster", fastCluster(i)})
		out = append(out, struct {
			path string
			req  any
		}{"/v1/simulate/node", &NodeRequest{Utilization: 0.05 * float64(i+1), Duration: 50, Seed: int64(i + 1)}})
	}
	return out
}

// referenceBytes computes every test request on a fresh single-replica
// server — the bytes any cluster member must reproduce exactly.
func referenceBytes(t *testing.T) map[string][]byte {
	t.Helper()
	_, ts, _ := newTestServer(t, nil)
	ref := make(map[string][]byte)
	for _, tr := range testRequests() {
		resp, body := post(t, ts.URL+tr.path, tr.req)
		if resp.StatusCode != 200 {
			t.Fatalf("reference %s: %d %s", tr.path, resp.StatusCode, body)
		}
		data, _ := json.Marshal(tr.req)
		ref[tr.path+string(data)] = body
	}
	return ref
}

// TestClusterByteIdentity is the acceptance bar: every request posted to
// every replica of a 3-node cluster returns exactly the bytes a single
// replica computes, and at least some of those answers were proxied.
func TestClusterByteIdentity(t *testing.T) {
	ref := referenceBytes(t)
	reps := startCluster(t, 3)
	for _, r := range reps {
		for _, tr := range testRequests() {
			resp, body := post(t, r.url()+tr.path, tr.req)
			if resp.StatusCode != 200 {
				t.Fatalf("replica %s %s: %d %s", r.addr, tr.path, resp.StatusCode, body)
			}
			data, _ := json.Marshal(tr.req)
			if want := ref[tr.path+string(data)]; !bytes.Equal(body, want) {
				t.Errorf("replica %s returned different bytes for %s %s:\n got %s\nwant %s",
					r.addr, tr.path, data, body, want)
			}
		}
	}
	var sent, served int64
	for _, r := range reps {
		sent += r.reg.Counter(obs.ServeProxySent).Value()
		served += r.reg.Counter(obs.ServeProxyServed).Value()
	}
	if sent == 0 || served == 0 {
		t.Errorf("no proxying happened (sent=%d served=%d) — every key landed on its poster?", sent, served)
	}
	// With 12 distinct keys posted to 3 replicas, each key is owned by
	// exactly one replica: the other two proxy it. Expect sent == served.
	if sent != served {
		t.Errorf("proxy sent %d != served %d: a hop was lost or chained", sent, served)
	}
}

// proxyPost sends a request with hand-rolled proxy headers, as a peer
// replica would.
func proxyPost(t *testing.T, url, path string, req any, digest string, epoch uint64) (*http.Response, []byte) {
	t.Helper()
	data, _ := json.Marshal(req)
	hr, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(HeaderProxy, "1")
	hr.Header.Set(HeaderRingDigest, digest)
	hr.Header.Set(HeaderRingEpoch, fmt.Sprint(epoch))
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body
}

// TestProxyProtocolRejections pins the ring protocol edge cases: digest
// mismatch and stale epoch answer 421 and never serve bytes; a newer
// epoch is adopted (visible in /ringz and the response header).
func TestProxyProtocolRejections(t *testing.T) {
	reps := startCluster(t, 2)
	r := reps[0]
	var ringz ringzBody
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(r.url() + "/ringz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}()
	if resp.StatusCode != 200 {
		t.Fatalf("ringz: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ringz); err != nil {
		t.Fatalf("ringz decode: %v", err)
	}
	if ringz.Self != r.addr || ringz.Epoch != 0 || ringz.Live != 2 {
		t.Fatalf("fresh ringz: %+v", ringz)
	}

	req := fastCluster(1)

	// Digest mismatch: a replica from a differently-configured cluster.
	resp, body = proxyPost(t, r.url(), "/v1/simulate/cluster", req, "deadbeef", 0)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("digest mismatch: %d %s, want 421", resp.StatusCode, body)
	}

	// A newer epoch is adopted...
	resp, _ = proxyPost(t, r.url(), "/v1/simulate/cluster", req, ringz.Digest, 5)
	if resp.StatusCode != 200 {
		t.Fatalf("proxied request with newer epoch: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderRingEpoch); got != "5" {
		t.Errorf("response epoch header = %q, want 5 (adopted)", got)
	}

	// ...after which the old epoch is stale and rejected.
	resp, body = proxyPost(t, r.url(), "/v1/simulate/cluster", req, ringz.Digest, 0)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("stale epoch: %d %s, want 421", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderRingEpoch); got != "5" {
		t.Errorf("421 epoch header = %q, want 5 (so the sender can catch up)", got)
	}
	if rejects := r.reg.Counter(obs.ServeProxyRejects).Value(); rejects != 2 {
		t.Errorf("rejects counter = %d, want 2", rejects)
	}
}

// ownerOf returns the replica that r's ring assigns the request to, as
// r routes it when the request arrives on path.
func ownerOf(t *testing.T, r *replica, path string, req any) string {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	endpoint := strings.TrimPrefix(path, "/v1/simulate/")
	q, err := DecodeRequest(endpoint, data, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	owner, _, _ := r.srv.cluster.route(CacheKey(endpoint, q))
	if owner == "" {
		owner = r.addr
	}
	return owner
}

// waitCounter polls a counter until it reaches at least want.
func waitCounter(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter(name).Value() >= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("counter %s never reached %d (at %d)", name, want, reg.Counter(name).Value())
}

// TestClusterFailoverAndRejoin kills one replica of three, checks that
// the survivors keep answering every request with the reference bytes
// (fallback first, then failover once the detector fires), then restarts
// the replica and checks it rejoins and the whole cluster still answers
// with identical bytes — including the restarted replica, whose epoch
// must catch up rather than serve under its stale view.
func TestClusterFailoverAndRejoin(t *testing.T) {
	ref := referenceBytes(t)
	reps := startCluster(t, 3)
	peers := []string{reps[0].addr, reps[1].addr, reps[2].addr}
	// The failure detector learns of a death only from a failed proxy
	// call, and the prober re-probes only peers already unhealthy. So the
	// victim must own a test request, or the survivors never call it: kill
	// the owner of the first one. The ring hashes the listeners' random
	// ports, so a fixed victim owns none of them in about one run in a
	// hundred.
	first := testRequests()[0]
	owner := ownerOf(t, reps[0], first.path, first.req)
	for i := range reps {
		if reps[i].addr == owner {
			reps[i], reps[2] = reps[2], reps[i]
			break
		}
	}
	victim := reps[2]

	checkAll := func(targets []*replica, phase string) {
		t.Helper()
		for _, r := range targets {
			for _, tr := range testRequests() {
				resp, body := post(t, r.url()+tr.path, tr.req)
				if resp.StatusCode != 200 {
					t.Fatalf("%s: replica %s %s: %d %s", phase, r.addr, tr.path, resp.StatusCode, body)
				}
				data, _ := json.Marshal(tr.req)
				if want := ref[tr.path+string(data)]; !bytes.Equal(body, want) {
					t.Errorf("%s: replica %s differs on %s %s", phase, r.addr, tr.path, data)
				}
			}
		}
	}

	checkAll(reps, "all alive")
	victim.kill(t)

	// Survivors must answer everything correctly from the first moment
	// (proxy failure -> local fallback), and eventually declare the
	// victim dead so its ranges fail over.
	survivors := reps[:2]
	checkAll(survivors, "victim down")
	waitCounter(t, reps[0].reg, obs.RingFailovers, 1)
	waitCounter(t, reps[1].reg, obs.RingFailovers, 1)
	checkAll(survivors, "after failover")
	if e := reps[0].srv.cluster.epoch(); e < 1 {
		t.Errorf("survivor epoch = %d after a death, want >= 1", e)
	}

	// Restart the victim on the same address: fresh process, epoch 0.
	ln, err := net.Listen("tcp", victim.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", victim.addr, err)
	}
	restarted := startReplica(t, ln, victim.addr, peers)
	waitCounter(t, reps[0].reg, obs.RingRejoins, 1)
	waitCounter(t, reps[1].reg, obs.RingRejoins, 1)

	all := []*replica{reps[0], reps[1], restarted}
	checkAll(all, "after rejoin")
	// The restarted replica has exchanged traffic (probes answered,
	// proxied requests served or sent); its epoch must have caught up to
	// the survivors' rather than stayed at its private zero.
	if e, s0 := restarted.srv.cluster.epoch(), reps[0].srv.cluster.epoch(); e < s0 {
		t.Errorf("restarted replica epoch %d < survivor epoch %d: stale view", e, s0)
	}
}

// TestProxiedBytesUnderConcurrentOwnershipChange is the satellite test:
// clients hammer the cluster while a replica dies mid-run, so requests
// are served by every possible path — owner-local, proxied, local
// fallback during the failure window, and failover-owner — and every
// 200 answer must still be byte-identical to the single-replica
// reference.
func TestProxiedBytesUnderConcurrentOwnershipChange(t *testing.T) {
	ref := referenceBytes(t)
	reps := startCluster(t, 3)
	reqs := testRequests()

	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	stopKill := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				target := reps[w%2] // only the two replicas that stay up
				for _, tr := range reqs {
					data, _ := json.Marshal(tr.req)
					resp, err := http.Post(target.url()+tr.path, "application/json", bytes.NewReader(data))
					if err != nil {
						select {
						case errCh <- fmt.Sprintf("post %s: %v", tr.path, err):
						default:
						}
						continue
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						select {
						case errCh <- fmt.Sprintf("%s: status %d: %s", tr.path, resp.StatusCode, body):
						default:
						}
						continue
					}
					if want := ref[tr.path+string(data)]; !bytes.Equal(body, want) {
						select {
						case errCh <- fmt.Sprintf("BYTES DIFFER on %s %s", tr.path, data):
						default:
						}
					}
				}
			}
		}(w)
	}
	go func() {
		// Kill the third replica while the load is running.
		time.Sleep(50 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		reps[2].srv.Shutdown(ctx)
		close(stopKill)
	}()
	wg.Wait()
	<-stopKill
	close(errCh)
	for e := range errCh {
		t.Error(e)
	}
}
