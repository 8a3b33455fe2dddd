package runtime

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"lingerlonger/internal/exp"
)

// echoExecutor returns a canonical JSON record of the spec it ran and
// counts executions, so tests can distinguish a replayed cached reply
// from a re-execution.
func echoExecutor(calls *atomic.Int64) exp.TaskFunc {
	return func(spec exp.PointSpec) ([]byte, error) {
		calls.Add(1)
		return json.Marshal(map[string]any{"task": spec.Task, "index": spec.Index, "seed": spec.Seed})
	}
}

// startWorkAgent serves one agent with the given executor on loopback.
func startWorkAgent(t *testing.T, fn exp.TaskFunc) *AgentServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := NewAgent("w1", quietOwner(t), 64)
	if fn != nil {
		a.SetWorkExecutor(fn)
	}
	srv := NewAgentServer(a, l)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func workSpec(index int) exp.PointSpec {
	return exp.PointSpec{
		Task:   "echo",
		Sweep:  "test",
		Index:  index,
		Seed:   exp.DeriveSeed(7, index),
		Params: []byte(`{}`),
	}
}

func TestWorkRPCRoundTrip(t *testing.T) {
	var calls atomic.Int64
	srv := startWorkAgent(t, echoExecutor(&calls))
	c, err := DialAgent(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Work(workSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string]any{"task": "echo", "index": 3, "seed": exp.DeriveSeed(7, 3)})
	if string(got) != string(want) {
		t.Errorf("Work = %s, want %s", got, want)
	}
	if calls.Load() != 1 {
		t.Errorf("executor ran %d times, want 1", calls.Load())
	}
}

// An agent with no executor must reject work with a non-transient error:
// retrying cannot help, and the fabric must fail fast rather than requeue.
func TestWorkWithoutExecutorFailsFast(t *testing.T) {
	srv := startWorkAgent(t, nil)
	c, err := DialAgent(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Work(workSpec(0))
	if err == nil {
		t.Fatal("Work on an executor-less agent succeeded")
	}
	if !strings.Contains(err.Error(), "serves no work") {
		t.Errorf("error = %v, want a 'serves no work' diagnosis", err)
	}
	if IsTransient(err) {
		t.Errorf("executor-less rejection classified transient: %v", err)
	}
}

// A panicking executor must come back as the point's error, and the
// agent must answer the next request: one bad point over TCP cannot kill
// a lingerd -agent.
func TestWorkExecutorPanicIsTaskError(t *testing.T) {
	var calls atomic.Int64
	echo := echoExecutor(&calls)
	srv := startWorkAgent(t, func(spec exp.PointSpec) ([]byte, error) {
		if spec.Index == 13 {
			panic("bad point")
		}
		return echo(spec)
	})
	c, err := DialAgent(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Work(workSpec(13)); err == nil || !strings.Contains(err.Error(), "bad point") {
		t.Fatalf("Work on a panicking point = %v, want the panic as an error", err)
	} else if IsTransient(err) {
		t.Errorf("executor panic classified transient: %v", err)
	}
	got, err := c.Work(workSpec(3))
	if err != nil {
		t.Fatalf("agent did not survive the panic: %v", err)
	}
	want, _ := json.Marshal(map[string]any{"task": "echo", "index": 3, "seed": exp.DeriveSeed(7, 3)})
	if string(got) != string(want) {
		t.Errorf("Work after the panic = %s, want %s", got, want)
	}
}

// A dropped reply plus retry must replay the cached result rather than
// execute the point a second time — at-most-once holds for reqWork.
func TestWorkAtMostOnceOnDroppedReply(t *testing.T) {
	var calls atomic.Int64
	srv := startWorkAgent(t, echoExecutor(&calls))
	cfg := DefaultTCPClientConfig()
	cfg.Injector = newScriptInjector(func(target string, kind reqKind, n, kn int) FaultAction {
		if kind == reqWork && kn == 0 {
			return FaultDropReply
		}
		return FaultNone
	})
	c, err := DialAgentConfig(srv.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Work(workSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string]any{"task": "echo", "index": 5, "seed": exp.DeriveSeed(7, 5)})
	if string(got) != string(want) {
		t.Errorf("replayed Work = %s, want %s", got, want)
	}
	if calls.Load() != 1 {
		t.Errorf("executor ran %d times through a dropped reply, want 1", calls.Load())
	}
}

// Two clients with distinct ClientIDs share an agent but not a dedup
// stream: their identical sequence numbers must never replay each other's
// cached replies.
func TestWorkPerClientStreamIsolation(t *testing.T) {
	var calls atomic.Int64
	srv := startWorkAgent(t, echoExecutor(&calls))
	dial := func(id string) *TCPClient {
		cfg := DefaultTCPClientConfig()
		cfg.ClientID = id
		c, err := DialAgentConfig(srv.Addr().String(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	a, b := dial("slot-a"), dial("slot-b")
	// Both clients are at the same sequence number after their handshakes;
	// a shared stream would hand client b a replay of client a's point.
	ra, err := a.Work(workSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Work(workSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if string(ra) == string(rb) {
		t.Errorf("clients with distinct IDs got identical bytes: %s", ra)
	}
	if calls.Load() != 2 {
		t.Errorf("executor ran %d times for two distinct points, want 2", calls.Load())
	}
}

// A reconnecting client that reuses its ClientID restarts at sequence 1;
// the fresh handshake must reset the stream so the stale cache cannot
// replay an old point's bytes for a new request.
func TestWorkReconnectResetsStream(t *testing.T) {
	var calls atomic.Int64
	srv := startWorkAgent(t, echoExecutor(&calls))
	dial := func() *TCPClient {
		cfg := DefaultTCPClientConfig()
		cfg.ClientID = "slot-0"
		c, err := DialAgentConfig(srv.Addr().String(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := dial()
	if _, err := c1.Work(workSpec(1)); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2 := dial()
	defer c2.Close()
	got, err := c2.Work(workSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(map[string]any{"task": "echo", "index": 9, "seed": exp.DeriveSeed(7, 9)})
	if string(got) != string(want) {
		t.Errorf("post-reconnect Work = %s, want %s (stale replay)", got, want)
	}
}

// Ping must succeed against a healthy agent and mutate nothing.
func TestPing(t *testing.T) {
	srv := startWorkAgent(t, nil)
	c, err := DialAgent(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping %d: %v", i, err)
		}
	}
}

// Jitter streams must differ across addresses and client IDs (so a fleet
// of retrying clients never thunders in lockstep) while staying a pure
// function of their inputs.
func TestClientJitterSeedStreams(t *testing.T) {
	seen := map[int64]string{}
	for _, addr := range []string{"10.0.0.1:7101", "10.0.0.2:7101"} {
		for _, id := range []string{"", "w0.0", "w0.1"} {
			s := clientJitterSeed(42, addr, id)
			key := fmt.Sprintf("%s/%s", addr, id)
			if prev, dup := seen[s]; dup {
				t.Errorf("seed collision: %s and %s both derive %d", prev, key, s)
			}
			seen[s] = key
			if again := clientJitterSeed(42, addr, id); again != s {
				t.Errorf("seed for %s not deterministic: %d then %d", key, s, again)
			}
		}
	}
}
