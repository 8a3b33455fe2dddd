package memory_test

import (
	"testing"

	"lingerlonger/internal/memory"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// Drive the priority page pool from a synthetic workstation trace: the
// local working set follows the trace's memory signal while a resident
// 8 MB foreign job holds its pages. The priority scheme must never force
// the owner to page out as long as the machine has room, and the foreign
// job must survive (possibly shrunken) through owner memory pressure.
func TestPoolDrivenByTrace(t *testing.T) {
	cfg := trace.DefaultConfig()
	tr, err := trace.Generate(cfg, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}

	pool := memory.NewPool(cfg.TotalMB, 4)
	jobPages := pool.PagesForMB(8)
	granted := pool.RequestForeign(jobPages)
	if granted != jobPages {
		t.Fatalf("foreign job got %d of %d pages on an empty machine", granted, jobPages)
	}

	reclaimEvents := 0
	hostable := 0
	for i := 0; i < tr.Len(); i += 30 { // once a minute; the WS drifts slowly
		localMB := tr.TotalMB() - tr.Sample(i).FreeMB
		before := pool.ForeignReclaims()
		pool.SetLocalUsage(pool.PagesForMB(localMB))
		if pool.ForeignReclaims() > before {
			reclaimEvents++
		}
		if pool.CanHost(8) {
			hostable++
		}
		// Invariants under trace-driven pressure.
		if pool.LocalPages()+pool.ForeignPages() > pool.TotalPages() {
			t.Fatalf("pages over-committed at sample %d", i)
		}
		if pool.LocalPageouts() != 0 {
			t.Fatalf("owner paged out at sample %d: local usage %.1f MB", i, localMB)
		}
	}
	if reclaimEvents == 0 {
		t.Log("note: trace never pressured the foreign pool (acceptable, free memory is plentiful)")
	}
	if hostable == 0 {
		t.Error("machine was never able to host a second 8 MB job; contradicts Figure 4")
	}
}

// The Figure 4 reading through the pool's admission check: using the
// trace free-memory signal, an 8 MB foreign job fits the free list the
// overwhelming majority of the time.
func TestAdmissionMatchesFig4(t *testing.T) {
	cfg := trace.DefaultConfig()
	tr, err := trace.Generate(cfg, stats.NewRNG(78))
	if err != nil {
		t.Fatal(err)
	}
	pool := memory.NewPool(cfg.TotalMB, 4)
	admitted, total := 0, 0
	for i := 0; i < tr.Len(); i += 30 {
		pool.SetLocalUsage(pool.PagesForMB(tr.TotalMB() - tr.Sample(i).FreeMB))
		total++
		if pool.CanHost(8) {
			admitted++
		}
	}
	frac := float64(admitted) / float64(total)
	if frac < 0.90 {
		t.Errorf("8 MB job admissible %.1f%% of the time, want > 90%% (Figure 4)", 100*frac)
	}
}
