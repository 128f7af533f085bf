//! The JSONL sink's allocation budget: streaming a run's events costs a
//! constant number of heap allocations (the sink's box and the growth of
//! its one line buffer), however many events the run emits.
//!
//! A counting global allocator counts per thread, because the harness
//! runs tests in parallel and their allocations must not leak into the
//! count.
#![expect(
    clippy::disallowed_macros,
    reason = "the allocation counter must be per thread: the harness runs tests in parallel"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use comap_mac::time::{SimDuration, SimTime};
use comap_radio::Position;
use comap_sim::config::{MacFeatures, NodeSpec, SimConfig, Traffic};
use comap_sim::{JsonlSink, NoopSink, Observer, SimEvent, Simulator};

thread_local! {
    static ALLOCATIONS: AtomicU64 = const { AtomicU64::new(0) };
}

/// Counts every allocation of the calling thread. The trait's default
/// `alloc_zeroed` and `realloc` go through `alloc`, so they count too.
struct Counting;

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.fetch_add(1, Ordering::Relaxed));
}

// SAFETY: `alloc` and `dealloc` forward to `System` with the caller's
// arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.load(Ordering::Relaxed))
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
