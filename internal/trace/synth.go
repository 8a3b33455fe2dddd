package trace

import (
	"fmt"
	"math"
	"sync"

	"lingerlonger/internal/stats"
)

// Config parameterizes the synthetic workstation model. The zero value is
// not usable; start from DefaultConfig.
type Config struct {
	Days    int     // trace length in days
	TotalMB float64 // physical memory size (the paper's machines: 64 MB)

	// Presence model: target probability that the owner is at the machine,
	// by period, realized with a two-state Markov chain whose mean session
	// length is MeanSessionMin minutes.
	PresenceWeekday float64 // working hours (9:00-20:00), Mon-Fri
	PresenceEvening float64 // 20:00-24:00 every day
	PresenceNight   float64 // 0:00-9:00 every day
	PresenceWeekend float64 // 9:00-20:00, Sat-Sun
	MeanSessionMin  float64

	// Episode model while present (means in seconds).
	MeanTypingSec  float64 // keyboard-active editing bouts
	MeanPauseSec   float64 // reading/thinking, no keyboard
	MeanComputeSec float64 // compiles/simulations, high CPU
	ComputeProb    float64 // P(typing bout is followed by compute, not pause)

	// CPU levels by episode (uniform ranges).
	CPUTyping  [2]float64
	CPUPause   [2]float64
	CPUCompute [2]float64
	CPUAbsent  [2]float64

	// Background daemon spikes while otherwise quiet.
	CronProb    float64 // per-sample probability of a spike starting
	MeanCronSec float64
	CPUCron     [2]float64

	// Memory model (megabytes).
	OSMB          float64    // resident kernel + daemons
	BaseWSPresent [2]float64 // owner working set while present
	BaseWSAbsent  [2]float64 // decayed working set while away
	ComputeWSMB   [2]float64 // extra working set during compute episodes
	WSDriftMB     float64    // per-sample random-walk step of the base WS
}

// DefaultConfig returns the calibration that reproduces the paper's
// aggregate statistics (§3.2 and Figure 4); see the package comment.
func DefaultConfig() Config {
	return Config{
		Days:    1,
		TotalMB: 64,

		PresenceWeekday: 0.80,
		PresenceEvening: 0.50,
		PresenceNight:   0.20,
		PresenceWeekend: 0.35,
		MeanSessionMin:  120,

		MeanTypingSec:  60,
		MeanPauseSec:   45,
		MeanComputeSec: 90,
		ComputeProb:    0.25,

		CPUTyping:  [2]float64{0.02, 0.09},
		CPUPause:   [2]float64{0.005, 0.03},
		CPUCompute: [2]float64{0.30, 0.95},
		CPUAbsent:  [2]float64{0.002, 0.02},

		CronProb:    0.0004,
		MeanCronSec: 20,
		CPUCron:     [2]float64{0.20, 0.70},

		OSMB:          14,
		BaseWSPresent: [2]float64{16, 26},
		BaseWSAbsent:  [2]float64{8, 14},
		ComputeWSMB:   [2]float64{10, 30},
		WSDriftMB:     0.15,
	}
}

// Validate checks that the configuration is self-consistent.
func (c Config) Validate() error {
	if c.Days <= 0 {
		return fmt.Errorf("trace: Days must be positive, got %d", c.Days)
	}
	if c.TotalMB <= c.OSMB {
		return fmt.Errorf("trace: TotalMB (%g) must exceed OSMB (%g)", c.TotalMB, c.OSMB)
	}
	for _, p := range []float64{c.PresenceWeekday, c.PresenceEvening, c.PresenceNight, c.PresenceWeekend, c.ComputeProb, c.CronProb} {
		if p < 0 || p > 1 {
			return fmt.Errorf("trace: probability %g out of [0,1]", p)
		}
	}
	for _, pair := range [][2]float64{c.CPUTyping, c.CPUPause, c.CPUCompute, c.CPUAbsent, c.CPUCron} {
		if pair[0] < 0 || pair[1] > 1 || pair[0] > pair[1] {
			return fmt.Errorf("trace: CPU range %v invalid", pair)
		}
	}
	if c.MeanSessionMin <= 0 || c.MeanTypingSec <= 0 || c.MeanPauseSec <= 0 || c.MeanComputeSec <= 0 || c.MeanCronSec <= 0 {
		return fmt.Errorf("trace: episode means must be positive")
	}
	return nil
}

// episode states of the owner model.
type ownerState int

const (
	stAbsent ownerState = iota
	stTyping
	stPause
	stCompute
)

// Generate synthesizes one workstation trace, drawing from rng. The model
// steps every two seconds:
//
//   - a two-state presence Markov chain targets the configured hourly
//     occupancy with sticky sessions (mean MeanSessionMin),
//   - while present, the owner alternates typing bouts (keyboard, light
//     CPU), pauses (quiet — these are what lingering exploits) and compute
//     episodes (heavy CPU),
//   - while absent, background daemons keep the CPU near zero with rare
//     cron spikes,
//   - the free-memory signal follows the owner's working set: a drifting
//     base set plus a surge during compute episodes.
//
// The whole trace is synthesized before Generate returns, so rng ends
// where the last sample left it.
func Generate(cfg Config, rng *stats.RNG) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tr := newGenerated(&cfg, rng)
	for b := range tr.blocks {
		tr.block(b, nil)
	}
	tr.gen = nil
	return tr, nil
}

// newGenerated returns a trace whose blocks are synthesized from rng, which
// the trace then owns, the first time they are read.
func newGenerated(cfg *Config, rng *stats.RNG) *Trace {
	tr := makeTrace(SampleInterval, cfg.TotalMB, int(float64(cfg.Days)*24*3600/SampleInterval))
	tr.gen = &generator{cfg: *cfg, head: newChain(cfg, rng), snaps: make([]*chain, len(tr.blocks))}
	return tr
}

// chain is the generator's state between two samples: everything the
// next sample depends on, including the variate stream. Stepping a chain
// through a block draws the same variates whether or not the samples are
// stored, so a copy taken at a block boundary resumes the trace exactly
// there.
type chain struct {
	rng       *stats.RNG
	i         int // index of the next sample
	present   bool
	state     ownerState
	stateLeft float64 // seconds remaining in state
	cronLeft  float64
	baseWS    float64
	computeWS float64

	// The presence target is piecewise constant per hour, so it is looked
	// up once per hour boundary instead of per two-second sample. The
	// values are identical to calling presenceAt every step.
	target, targetUntil float64

	lastActive float64 // last non-quiet sample, for the idle flag
}

// newChain draws the initial state of a trace from rng, which the chain
// then owns.
func newChain(cfg *Config, rng *stats.RNG) *chain {
	c := &chain{rng: rng, state: stAbsent, lastActive: -RecruitmentDelay}
	c.present = rng.Bool(cfg.presenceAt(0))
	if c.present {
		c.state = stTyping
	}
	c.stateLeft = sampleEpisode(rng, cfg, c.state)
	c.baseWS = uniform(rng.Float64(), cfg.BaseWSPresent)
	return c
}

// clone returns an independent copy of c.
func (c *chain) clone() *chain {
	d := *c
	d.rng = c.rng.Clone()
	return &d
}

// run steps the chain through the next n samples and stores them in
// blk[0:n]; a nil blk steps through them storing nothing. Both draw the
// same variates, so skipping a block and filling it leave the chain in
// the same state.
//
// The uniform draws go through a stats.Cursor held in a local, so the
// stream position stays in registers across the loop; it is handed back
// to the RNG before the rare draws made through the RNG itself (episode
// lengths and transitions, cron spike lengths) and at the end. The draws
// and their order are those of calling c.rng directly.
func (c *chain) run(cfg *Config, blk *block, n int) {
	// Presence chain: leave probability fixed by mean session length;
	// arrival probability solves the target stationary occupancy.
	pLeave := SampleInterval / (cfg.MeanSessionMin * 60)

	// The state lives in locals for the loop and goes back at the end.
	rng := c.rng
	cur := rng.Cursor()
	present, state, stateLeft, cronLeft := c.present, c.state, c.stateLeft, c.cronLeft
	baseWS, computeWS := c.baseWS, c.computeWS
	target, targetUntil, lastActive := c.target, c.targetUntil, c.lastActive

	var u float64 // the latest uniform draw
	for j := 0; j < n; j++ {
		now := float64(c.i+j) * SampleInterval
		if now >= targetUntil {
			target = cfg.presenceAt(now)
			targetUntil = (math.Floor(now/3600) + 1) * 3600
		}

		// Presence transitions.
		if present {
			if u, cur = cur.Float64(); u < pLeave {
				present = false
				state = stAbsent
				stateLeft = 0
			}
		} else {
			pArrive := 0.0
			if target < 1 {
				pArrive = pLeave * target / (1 - target)
			} else {
				pArrive = 1
			}
			if u, cur = cur.Float64(); u < pArrive {
				present = true
				state = stTyping
				rng.SetCursor(cur)
				stateLeft = sampleEpisode(rng, cfg, state)
				cur = rng.Cursor()
			}
		}

		// Episode transitions while present.
		if present {
			stateLeft -= SampleInterval
			if stateLeft <= 0 {
				rng.SetCursor(cur)
				state = nextEpisode(rng, cfg, state)
				stateLeft = sampleEpisode(rng, cfg, state)
				cur = rng.Cursor()
			}
		}

		// Cron spikes while the CPU is otherwise quiet.
		if cronLeft > 0 {
			cronLeft -= SampleInterval
		} else if state == stAbsent || state == stPause {
			if u, cur = cur.Float64(); u < cfg.CronProb {
				rng.SetCursor(cur)
				cronLeft = rng.ExpFloat64() * cfg.MeanCronSec
				cur = rng.Cursor()
			}
		}

		// CPU and keyboard for this sample.
		var cpu float64
		var kb bool
		switch state {
		case stAbsent:
			u, cur = cur.Float64()
			cpu = uniform(u, cfg.CPUAbsent)
		case stTyping:
			u, cur = cur.Float64()
			cpu = uniform(u, cfg.CPUTyping)
			u, cur = cur.Float64()
			kb = u < 0.8
		case stPause:
			u, cur = cur.Float64()
			cpu = uniform(u, cfg.CPUPause)
		case stCompute:
			u, cur = cur.Float64()
			cpu = uniform(u, cfg.CPUCompute)
			u, cur = cur.Float64()
			kb = u < 0.1
		}
		if cronLeft > 0 {
			u, cur = cur.Float64()
			if cron := uniform(u, cfg.CPUCron); cron > cpu {
				cpu = cron
			}
		}
		cpu = clamp(cpu, 0, 1)
		idle := idleStep(&lastActive, now, cpu, kb)

		// Working set dynamics.
		u, cur = cur.Float64()
		baseWS += (u*2 - 1) * cfg.WSDriftMB
		lo, hi := cfg.BaseWSAbsent[0], cfg.BaseWSPresent[1]
		if present {
			lo = cfg.BaseWSPresent[0]
		} else if baseWS > cfg.BaseWSAbsent[1] {
			baseWS -= cfg.WSDriftMB // decay toward the absent range
		}
		baseWS = clamp(baseWS, lo, hi)
		if state == stCompute {
			if computeWS == 0 {
				u, cur = cur.Float64()
				computeWS = uniform(u, cfg.ComputeWSMB)
			}
		} else {
			computeWS = 0
		}

		if blk != nil {
			free := cfg.TotalMB - cfg.OSMB - baseWS - computeWS
			blk.cpu[j] = cpu
			blk.free[j] = clamp(free, 1, cfg.TotalMB)
			blk.kb[j] = kb
			blk.idle[j] = idle
		}
	}

	rng.SetCursor(cur)
	c.i += n
	c.present, c.state, c.stateLeft, c.cronLeft = present, state, stateLeft, cronLeft
	c.baseWS, c.computeWS = baseWS, computeWS
	c.target, c.targetUntil, c.lastActive = target, targetUntil, lastActive
}

// generator synthesizes the blocks of one trace on demand. It keeps the
// chain at the frontier (the start of block next) and, for every block
// the frontier has stepped past without filling, a copy of the chain at
// that block's start.
type generator struct {
	mu    sync.Mutex
	cfg   Config
	head  *chain   // chain at the start of block next
	next  int      // first block the frontier has not reached
	snaps []*chain // snaps[b]: chain at the start of unfilled block b < next
}

// fill sets block b of a generated trace and returns it with the number
// of samples the chain stepped through without storing (to reach b) and
// the number it stored. A block some other reader filled first costs
// nothing.
func (t *Trace) fill(b int) (blk *block, advanced, filled int) {
	g := t.gen
	g.mu.Lock()
	defer g.mu.Unlock()
	if blk := t.blocks[b].Load(); blk != nil {
		return blk, 0, 0
	}
	for ; g.next < b; g.next++ {
		g.snaps[g.next] = g.head.clone()
		n := t.blockSize(g.next)
		g.head.run(&g.cfg, nil, n)
		advanced += n
	}
	c := g.head
	if b < g.next {
		c, g.snaps[b] = g.snaps[b], nil
	} else {
		g.next++
	}
	blk = new(block)
	filled = t.blockSize(b)
	c.run(&g.cfg, blk, filled)
	t.blocks[b].Store(blk)
	return blk, advanced, filled
}

// GenerateCorpus synthesizes machines independent traces. Each trace gets
// an independent RNG split from rng, so the corpus is reproducible from a
// single seed: each trace is a pure function of its own split, the same
// trace Generate makes from it.
//
// The traces are lazy: a block is synthesized when something first reads
// it (DESIGN.md §8). The splits are drawn serially, in machine order, and
// each trace's initial state is drawn from its split here, so when and on
// which goroutine a block fills never changes what it holds.
func GenerateCorpus(cfg Config, machines int, rng *stats.RNG) ([]*Trace, error) {
	if machines <= 0 {
		return nil, fmt.Errorf("trace: machine count must be positive, got %d", machines)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]*Trace, machines)
	for i := range out {
		out[i] = newGenerated(&cfg, rng.Split())
	}
	return out, nil
}

// presenceAt returns the target occupancy for the time-of-week at t
// seconds from the trace start (the trace starts Monday 00:00).
func (c *Config) presenceAt(t float64) float64 {
	day := int(t/86400) % 7 // 0 = Monday
	hour := math.Mod(t, 86400) / 3600
	weekend := day >= 5
	switch {
	case hour < 9:
		return c.PresenceNight
	case hour < 20:
		if weekend {
			return c.PresenceWeekend
		}
		return c.PresenceWeekday
	default:
		return c.PresenceEvening
	}
}

func sampleEpisode(rng *stats.RNG, cfg *Config, s ownerState) float64 {
	switch s {
	case stTyping:
		return rng.ExpFloat64() * cfg.MeanTypingSec
	case stPause:
		return rng.ExpFloat64() * cfg.MeanPauseSec
	case stCompute:
		return rng.ExpFloat64() * cfg.MeanComputeSec
	default:
		return 0
	}
}

func nextEpisode(rng *stats.RNG, cfg *Config, s ownerState) ownerState {
	switch s {
	case stTyping:
		if rng.Bool(cfg.ComputeProb) {
			return stCompute
		}
		return stPause
	case stPause:
		if rng.Bool(0.1) {
			return stCompute
		}
		return stTyping
	default: // compute
		return stTyping
	}
}

// uniform maps a uniform draw u in [0, 1) onto [r[0], r[1]).
func uniform(u float64, r [2]float64) float64 {
	return r[0] + u*(r[1]-r[0])
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// OfficeConfig returns a 9-to-5 office calibration: heavy weekday-daytime
// presence, deserted nights and weekends. Compared to DefaultConfig the
// idle capacity is concentrated off-hours — the classic overnight
// cycle-stealing scenario.
func OfficeConfig() Config {
	cfg := DefaultConfig()
	cfg.PresenceWeekday = 0.90
	cfg.PresenceEvening = 0.15
	cfg.PresenceNight = 0.03
	cfg.PresenceWeekend = 0.08
	cfg.MeanSessionMin = 180
	return cfg
}

// StudentLabConfig returns a university-lab calibration: moderate
// presence around the clock with long hacking sessions — the flavour of
// the UMD/Berkeley corpora the paper used (DefaultConfig is calibrated to
// the paper's aggregate numbers; this preset is slightly busier).
func StudentLabConfig() Config {
	cfg := DefaultConfig()
	cfg.PresenceWeekday = 0.85
	cfg.PresenceEvening = 0.65
	cfg.PresenceNight = 0.30
	cfg.PresenceWeekend = 0.50
	return cfg
}

// ServerRoomConfig returns an unattended-machine calibration: no keyboard
// sessions at all, just background daemons with frequent batch spikes.
// Such machines are non-idle only through CPU activity, which exercises
// the recruitment threshold's CPU branch.
func ServerRoomConfig() Config {
	cfg := DefaultConfig()
	cfg.PresenceWeekday = 0
	cfg.PresenceEvening = 0
	cfg.PresenceNight = 0
	cfg.PresenceWeekend = 0
	cfg.CronProb = 0.004
	cfg.MeanCronSec = 120
	cfg.CPUCron = [2]float64{0.3, 0.9}
	return cfg
}
