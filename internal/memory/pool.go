// Package memory implements the paper's priority page-allocation scheme
// (§3.2): physical memory is split into two pools, one for the owner's
// local jobs and one for the foreign job. The foreign job may only consume
// pages from the free list; when local jobs need pages they reclaim from
// the foreign pool before paging out any of their own pages. The same
// technique appeared in the Stealth scheduler, and the paper implemented
// it as a priority extension to the Linux paging mechanism.
//
// The cluster simulator uses the pool both as an admission check (can this
// node host a foreign job of a given size without hurting the owner?) and
// to account reclaim events during lingering.
package memory

import "fmt"

// Pool is a two-priority physical page pool. The zero value is not usable;
// construct with NewPool.
type Pool struct {
	totalPages   int
	pageKB       int
	localPages   int
	foreignPages int

	localPageouts   int // times the local jobs had to page out their own pages
	foreignReclaims int // pages reclaimed from the foreign job by local demand
	foreignDenied   int // foreign page requests denied (free list empty)
}

// NewPool returns a pool of totalMB megabytes in pages of pageKB
// kilobytes. It panics if the sizes are non-positive or do not divide into
// at least one page.
func NewPool(totalMB float64, pageKB int) *Pool {
	if totalMB <= 0 || pageKB <= 0 {
		panic(fmt.Sprintf("memory: invalid pool size %gMB / %dKB pages", totalMB, pageKB))
	}
	total := int(totalMB * 1024 / float64(pageKB))
	if total < 1 {
		panic(fmt.Sprintf("memory: pool smaller than one page: %gMB / %dKB", totalMB, pageKB))
	}
	return &Pool{totalPages: total, pageKB: pageKB}
}

// PagesForMB returns the number of pages needed to hold mb megabytes.
func (p *Pool) PagesForMB(mb float64) int {
	pages := int(mb * 1024 / float64(p.pageKB))
	if float64(pages)*float64(p.pageKB) < mb*1024 {
		pages++
	}
	return pages
}

// TotalPages returns the pool capacity in pages.
func (p *Pool) TotalPages() int { return p.totalPages }

// FreePages returns the current free-list size.
func (p *Pool) FreePages() int { return p.totalPages - p.localPages - p.foreignPages }

// LocalPages returns the pages held by local jobs.
func (p *Pool) LocalPages() int { return p.localPages }

// ForeignPages returns the pages held by the foreign job.
func (p *Pool) ForeignPages() int { return p.foreignPages }

// LocalPageouts returns how many times local demand exceeded even the
// reclaimed foreign pages — the events the priority scheme must keep at
// zero for the owner not to notice the foreign job.
func (p *Pool) LocalPageouts() int { return p.localPageouts }

// ForeignReclaims returns the total pages local jobs reclaimed from the
// foreign pool.
func (p *Pool) ForeignReclaims() int { return p.foreignReclaims }

// ForeignDenied returns the total foreign pages denied for lack of free
// pages.
func (p *Pool) ForeignDenied() int { return p.foreignDenied }

// RequestLocal allocates pages for local jobs. Local demand is satisfied
// from the free list first, then by reclaiming pages from the foreign job
// ("when the local job runs out of pages, it reclaims them from the
// foreign job prior to paging out any of its pages"), and only then counts
// as a local pageout. It returns the pages actually granted (always the
// full request unless it exceeds the whole machine) and the number
// reclaimed from the foreign job.
func (p *Pool) RequestLocal(pages int) (granted, reclaimed int) {
	if pages < 0 {
		panic("memory: negative local request")
	}
	free := p.FreePages()
	fromFree := min(pages, free)
	p.localPages += fromFree
	remaining := pages - fromFree

	fromForeign := min(remaining, p.foreignPages)
	p.foreignPages -= fromForeign
	p.localPages += fromForeign
	p.foreignReclaims += fromForeign
	remaining -= fromForeign

	if remaining > 0 {
		// The owner's own pages must be recycled: a pageout event. The
		// local working set stays at machine capacity.
		p.localPageouts++
		grantedExtra := min(remaining, p.totalPages-p.localPages)
		p.localPages += grantedExtra
		return fromFree + fromForeign + grantedExtra, fromForeign
	}
	return pages, fromForeign
}

// ReleaseLocal returns pages from local jobs to the free list, making them
// available to the foreign job ("whenever a page is placed on the
// free-list by a local job, the foreign job is able to use the page"). It
// panics if more pages are released than held.
func (p *Pool) ReleaseLocal(pages int) {
	if pages < 0 || pages > p.localPages {
		panic(fmt.Sprintf("memory: releasing %d local pages, holding %d", pages, p.localPages))
	}
	p.localPages -= pages
}

// RequestForeign allocates pages for the foreign job from the free list
// only; it never displaces local pages. It returns the pages granted,
// which may be fewer than requested.
func (p *Pool) RequestForeign(pages int) int {
	if pages < 0 {
		panic("memory: negative foreign request")
	}
	granted := min(pages, p.FreePages())
	p.foreignPages += granted
	if granted < pages {
		p.foreignDenied += pages - granted
	}
	return granted
}

// ReleaseForeign returns pages from the foreign job to the free list (for
// example on migration). It panics if more pages are released than held.
func (p *Pool) ReleaseForeign(pages int) {
	if pages < 0 || pages > p.foreignPages {
		panic(fmt.Sprintf("memory: releasing %d foreign pages, holding %d", pages, p.foreignPages))
	}
	p.foreignPages -= pages
}

// SetLocalUsage adjusts the local working set to exactly pages, growing
// through RequestLocal (with its reclaim semantics) or shrinking through
// ReleaseLocal. The §7 prototype's agent (internal/runtime) drives this
// from its owner's free-memory signal before each admission and tick; the
// cluster simulator does not use the pool (its memory check compares the
// trace's free memory with the job size directly).
func (p *Pool) SetLocalUsage(pages int) {
	if pages < 0 {
		panic("memory: negative local usage")
	}
	if pages > p.totalPages {
		pages = p.totalPages
	}
	switch {
	case pages > p.localPages:
		p.RequestLocal(pages - p.localPages)
	case pages < p.localPages:
		p.ReleaseLocal(p.localPages - pages)
	}
}

// CanHost reports whether a foreign job of jobMB megabytes fits in the
// free list right now without displacing any local pages.
func (p *Pool) CanHost(jobMB float64) bool {
	return p.PagesForMB(jobMB) <= p.FreePages()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
