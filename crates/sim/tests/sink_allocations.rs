//! Sink heap budgets:
//!
//! * streaming a run's events through the JSONL sink costs a constant
//!   number of heap allocations (the sink's box and the growth of its
//!   one line buffer), however many events the run emits;
//! * the latency sink's extra peak heap stays under a fixed budget,
//!   because its histograms store only the buckets their samples hit.
//!
//! A counting global allocator counts allocations, live bytes and the
//! live-byte high-water mark per thread, because the harness runs tests
//! in parallel and their allocations must not leak into the count.
#![expect(
    clippy::disallowed_macros,
    reason = "the allocation counter must be per thread: the harness runs tests in parallel"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::{JsonlSink, LatencySink, NoopSink, Observer, SimEvent, Simulator};

thread_local! {
    static ALLOCATIONS: AtomicU64 = const { AtomicU64::new(0) };
    /// Bytes this thread allocated minus bytes it freed. Signed: a
    /// thread may free a block another thread allocated.
    static LIVE_BYTES: AtomicI64 = const { AtomicI64::new(0) };
    /// High-water mark of [`LIVE_BYTES`] since the last [`reset_peak`].
    static PEAK_BYTES: AtomicI64 = const { AtomicI64::new(0) };
}

/// Counts every allocation of the calling thread and tracks its live
/// bytes. The trait's default `alloc_zeroed` and `realloc` go through
/// `alloc` and `dealloc`, so they count too.
struct Counting;

fn on_alloc(size: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.fetch_add(1, Ordering::Relaxed));
    let _ = LIVE_BYTES.try_with(|live| {
        let now = live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
        let _ = PEAK_BYTES.try_with(|peak| peak.fetch_max(now, Ordering::Relaxed));
    });
}

fn on_dealloc(size: usize) {
    let _ = LIVE_BYTES.try_with(|live| live.fetch_sub(size as i64, Ordering::Relaxed));
}

// SAFETY: `alloc` and `dealloc` forward to `System` with the caller's
// arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.load(Ordering::Relaxed))
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(|n| n.load(Ordering::Relaxed))
}

/// Restarts the high-water mark at the current live bytes.
fn reset_peak() {
    PEAK_BYTES.with(|peak| peak.store(live_bytes(), Ordering::Relaxed));
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.with(|n| n.load(Ordering::Relaxed))
}

/// Two CO-MAP cells side by side, saturated: headers, opportunities,
/// retries and adaptation all emit.
fn cfg() -> SimConfig {
    let mut cfg = SimConfig::testbed(11);
    cfg.default_features = MacFeatures::COMAP;
    let ap1 = cfg.add_node(NodeSpec::ap("AP1", Position::new(0.0, 0.0)));
    let c1 = cfg.add_node(NodeSpec::client("C1", Position::new(-8.0, 0.0)));
    let ap2 = cfg.add_node(NodeSpec::ap("AP2", Position::new(36.0, 0.0)));
    let c2 = cfg.add_node(NodeSpec::client("C2", Position::new(26.0, 0.0)));
    cfg.add_flow(c1, ap1, Traffic::Saturated);
    cfg.add_flow(c2, ap2, Traffic::Saturated);
    cfg
}

const DURATION: SimDuration = SimDuration::from_millis(100);

/// Allocations of one run of [`cfg`] with `sink` attached, counting the
/// simulator's construction and the sink's box.
fn allocations_with(sink: impl Observer + 'static) -> u64 {
    let before = allocations();
    let mut sim = Simulator::new(cfg());
    sim.attach_sink(Box::new(sink));
    drop(sim.run(DURATION));
    allocations() - before
}

/// Peak heap of one run of [`cfg`] with `sink` attached, over the live
/// bytes before it: the simulator, the sink and the finished report.
fn peak_heap_with(sink: impl Observer + 'static) -> i64 {
    let before = live_bytes();
    reset_peak();
    let mut sim = Simulator::new(cfg());
    sim.attach_sink(Box::new(sink));
    drop(sim.run(DURATION));
    peak_bytes() - before
}

/// Counts the events of a run.
struct EventCount(Arc<AtomicU64>);

impl Observer for EventCount {
    fn on_event(&mut self, _now: SimTime, _event: &SimEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// The sink's box plus the line buffer's doublings up to the longest
/// line the run writes.
const JSONL_EXTRA_ALLOCATIONS: u64 = 8;

#[test]
fn jsonl_sink_allocates_a_constant_per_run_not_per_event() {
    let events = Arc::new(AtomicU64::new(0));
    let mut sim = Simulator::new(cfg());
    sim.attach_sink(Box::new(EventCount(Arc::clone(&events))));
    drop(sim.run(DURATION));
    let events = events.load(Ordering::Relaxed);
    assert!(
        events > 10 * JSONL_EXTRA_ALLOCATIONS,
        "the run is long enough for a per-event allocation to show: {events} events"
    );

    let noop = allocations_with(NoopSink);
    let jsonl = allocations_with(JsonlSink::new(io::sink()));
    let extra = jsonl.saturating_sub(noop);
    assert!(
        extra <= JSONL_EXTRA_ALLOCATIONS,
        "streaming {events} events made {extra} allocations beyond a NoopSink run \
         ({jsonl} against {noop}); at most {JSONL_EXTRA_ALLOCATIONS} are allowed"
    );
}

/// The latency sink's spans in flight plus four histograms per sender,
/// each holding only the buckets its samples hit. A histogram stored
/// dense from bucket 0 to its largest millisecond sample needs about
/// 6 KiB alone, so the two senders' eight histograms overrun this.
const LATENCY_EXTRA_PEAK_BYTES: i64 = 16 * 1024;

#[test]
fn latency_sink_peak_heap_stays_within_budget() {
    let noop = peak_heap_with(NoopSink);
    let latency = peak_heap_with(LatencySink::new());
    let extra = latency - noop;
    assert!(
        extra <= LATENCY_EXTRA_PEAK_BYTES,
        "the latency sink raised the run's peak heap by {extra} B \
         ({latency} B against {noop} B); at most {LATENCY_EXTRA_PEAK_BYTES} B are allowed"
    );
}
