package obs

// Recorder is the narrow handle the instrumented layers (node scheduler,
// trace synthesis, cluster policies, BSP simulator, §7 runtime,
// checkpoint store, exp runner) accept. It bundles a metric registry with an
// optional event sink; either half may be absent.
//
// The zero value of the *pointer* is the off switch: every method on a
// nil *Recorder (and on the nil handles it returns) is a no-op, so code
// is instrumented unconditionally and pays one predictable branch per
// site when observability is disabled. Hot loops pre-resolve their
// handles once (r.Counter(...) at setup), so the per-event cost is a
// single nil-check inside Counter.Inc.
type Recorder struct {
	reg  *Registry
	sink *EventSink
}

// New builds a Recorder over a registry and an optional event sink.
// Either argument may be nil; New(nil, nil) returns nil (fully off).
func New(reg *Registry, sink *EventSink) *Recorder {
	if reg == nil && sink == nil {
		return nil
	}
	return &Recorder{reg: reg, sink: sink}
}

// Counter resolves a counter handle (nil when metrics are off).
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge resolves a gauge handle (nil when metrics are off).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Histogram resolves a histogram handle (nil when metrics are off).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.reg.Histogram(name)
}

// Tracing reports whether an event sink is attached, so call sites can
// skip assembling Event structs entirely when no one is listening.
func (r *Recorder) Tracing() bool {
	return r != nil && r.sink != nil
}

// Emit writes one trace event (no-op without a sink).
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	r.sink.Emit(e)
}

// Registry exposes the underlying registry (nil when metrics are off);
// report generators use it to render metric tables.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}
