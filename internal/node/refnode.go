package node

import (
	"fmt"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/workload"
)

// RefNode is the retained reference implementation of the fine-grain
// strict-priority node model: the pre-rewrite Node kept verbatim as the
// executable specification. Node's batched hot path must produce
// bit-identical Now/LDR/FCSR/ForeignCPU/Preemptions values to RefNode
// for every interleaving of Advance, ServeForeign and ResetMetrics; the
// seeded differential suite in differential_test.go enforces exactly
// that.
//
// The only change from the historical Node is shared with the fast path:
// the burst-end comparison goes through burstDone, whose tolerance scales
// with the clock (see burstEps) instead of the former absolute 1e-12,
// which float64 spacing overtakes beyond t ~ 4500 s.
type RefNode struct {
	cfg    Config
	stream *workload.Windowed

	now     float64
	cur     workload.Burst
	haveCur bool

	switchPaid     bool // foreign switch-in paid within the current idle burst
	foreignRanIdle bool // foreign consumed CPU during the latest idle burst

	// Accounting (only while a foreign job is attached).
	localDemand float64
	localDelay  float64
	idleSeen    float64
	foreignCPU  float64
	preemptions int64
	preemptC    *obs.Counter // pre-resolved handle; nil = observability off
}

// NewRef returns a reference node with the same construction semantics as
// New: the local workload is generated from table at the utilization given
// by src, starting at time 0.
func NewRef(cfg Config, table *workload.Table, src workload.UtilizationSource, rng *stats.RNG) *RefNode {
	if cfg.ContextSwitch < 0 {
		panic(fmt.Sprintf("node: negative context-switch time %g", cfg.ContextSwitch))
	}
	stream := workload.NewWindowed(table, src, 0, rng)
	if cfg.BurstLookahead > 0 {
		stream.SetLookahead(cfg.BurstLookahead)
	}
	return &RefNode{
		cfg:      cfg,
		stream:   stream,
		preemptC: cfg.Rec.Counter(obs.NodePreemptions),
	}
}

// Now returns the node's wall-clock position in seconds.
func (n *RefNode) Now() float64 { return n.now }

// Preemptions returns the number of times a local burst preempted the
// foreign job.
func (n *RefNode) Preemptions() int64 { return n.preemptions }

// LDR returns the local job delay ratio accumulated so far, or 0 when no
// local CPU demand has been observed.
func (n *RefNode) LDR() float64 {
	if n.localDemand == 0 {
		return 0
	}
	return n.localDelay / n.localDemand
}

// FCSR returns the fine-grain cycle-stealing ratio accumulated so far, or
// 0 when no idle time has been observed.
func (n *RefNode) FCSR() float64 {
	if n.idleSeen == 0 {
		return 0
	}
	return n.foreignCPU / n.idleSeen
}

// ForeignCPU returns the total CPU seconds delivered to foreign jobs.
func (n *RefNode) ForeignCPU() float64 { return n.foreignCPU }

// LocalDelay returns the total context-switch delay charged to local
// bursts, in seconds.
func (n *RefNode) LocalDelay() float64 { return n.localDelay }

// LocalCPUDemand returns the total local CPU demand observed while a
// foreign job was attached, in seconds.
func (n *RefNode) LocalCPUDemand() float64 { return n.localDemand }

// Advance moves the node's clock to until with no foreign job attached;
// see Node.Advance.
func (n *RefNode) Advance(until float64) {
	if until < n.now {
		panic(fmt.Sprintf("node: Advance backwards from %g to %g", n.now, until))
	}
	// No foreign job ran in the gap, and a future attach must pay a fresh
	// switch-in.
	n.foreignRanIdle = false
	n.switchPaid = false
	if n.haveCur && until < n.cur.End() {
		// Still inside the current burst: keep it so the remainder (for a
		// pure-idle node, the rest of a whole trace window) stays usable.
		n.now = until
		return
	}
	n.haveCur = false
	if until > n.stream.Now() {
		n.stream.SeekTo(until)
	}
	n.now = until
}

// ServeForeign runs a compute-bound foreign job on the node until either
// demand CPU-seconds have been delivered or the wall clock reaches until.
// This is the per-burst reference loop: one stream pull, one branch
// cascade and one field-resident accounting update per burst.
func (n *RefNode) ServeForeign(demand, until float64) float64 {
	if demand < 0 {
		panic(fmt.Sprintf("node: negative foreign demand %g", demand))
	}
	if until < n.now {
		panic(fmt.Sprintf("node: ServeForeign until %g before now %g", until, n.now))
	}
	delivered := 0.0
	cs := n.cfg.ContextSwitch
	for n.now < until && delivered < demand {
		if !n.haveCur || burstDone(n.now, n.cur.End()) {
			n.cur = n.stream.Next()
			n.haveCur = true
			n.switchPaid = false
			// Entering a run burst: account the owner's demand and the
			// preemption delay if the foreign job held the CPU.
			if n.cur.Run {
				n.localDemand += n.cur.Duration
				if n.foreignRanIdle {
					n.localDelay += cs
					n.preemptions++
					n.preemptC.Inc()
				}
				n.foreignRanIdle = false
			}
		}
		segEnd := n.cur.End()
		if segEnd > until {
			segEnd = until
		}
		if n.cur.Run {
			n.now = segEnd
			continue
		}
		// Idle burst: the foreign job first pays its switch-in (anchored at
		// the current position — the job may resume mid-burst after an
		// Advance), then steals cycles until the burst ends, the deadline
		// hits, or the demand completes.
		if !n.switchPaid {
			payEnd := n.now + cs
			if payEnd > segEnd {
				n.idleSeen += segEnd - n.now
				n.now = segEnd
				continue
			}
			n.idleSeen += payEnd - n.now
			n.now = payEnd
			n.switchPaid = true
		}
		room := segEnd - n.now
		if room <= 0 {
			continue
		}
		use := room
		if rem := demand - delivered; use > rem {
			use = rem
		}
		n.idleSeen += use
		n.foreignCPU += use
		delivered += use
		n.now += use
		n.foreignRanIdle = true
	}
	return delivered
}

// ResetMetrics clears the accumulated LDR/FCSR accounting without moving
// the clock.
func (n *RefNode) ResetMetrics() {
	n.localDemand = 0
	n.localDelay = 0
	n.idleSeen = 0
	n.foreignCPU = 0
	n.preemptions = 0
}
