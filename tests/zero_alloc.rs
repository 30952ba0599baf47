//! Steady-state allocation test: after warm-up, the canonical
//! `sense → ads.tick → world.step` loop must not touch the heap. The
//! per-run `SensorFrame` buffer in `SimLoop`, the scratch buffers inside
//! `World`, and the preallocated trajectory make every tick allocation-free,
//! which is what keeps large campaigns cache-friendly and free of
//! allocator contention across worker threads.
//!
//! The whole binary runs under a counting wrapper around the system
//! allocator; an observer samples the counter each tick and the test
//! asserts the per-tick delta hits zero once buffers have grown to their
//! steady-state sizes. The counter is per thread, so tests running
//! concurrently in this binary never count each other's allocations.
//!
//! The flight recorder rides along on every observed run (the runner
//! attaches it as a stock observer), so the end-to-end test gates its
//! per-tick write path too; a second test drives the ring through
//! several wraparounds directly to pin the no-allocation contract of
//! `FlightRing::push` itself.

use diverseav::AgentMode;
use diverseav_faultinj::{run_experiment_observed, RunConfig};
use diverseav_obs::flight::{FlightRing, TickRecord, DEFAULT_RING_CAPACITY};
use diverseav_runtime::{LoopObserver, TickContext};
use diverseav_simworld::lead_slowdown;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts every allocation made by the
/// calling thread.
struct CountingAlloc;

thread_local! {
    // `const`-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on the current thread. `try_with` tolerates
/// allocations made while the thread's locals are being torn down.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the current thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records the allocation-counter delta of every tick. The sample vector
/// is preallocated so the observer itself never allocates on the hot path.
struct AllocSampler {
    last: u64,
    per_tick: Vec<u64>,
}

impl AllocSampler {
    fn new(capacity: usize) -> Self {
        AllocSampler { last: allocs(), per_tick: Vec::with_capacity(capacity) }
    }
}

impl LoopObserver for AllocSampler {
    fn on_tick(&mut self, _ctx: &TickContext<'_>) {
        let now = allocs();
        if self.per_tick.len() < self.per_tick.capacity() {
            self.per_tick.push(now - self.last);
        }
        self.last = now;
    }
}

#[test]
fn steady_state_ticks_are_allocation_free() {
    let mut scenario = lead_slowdown();
    scenario.duration = 2.0;
    // Default config: no detector, no training collection — the paper's
    // fault-injection hot path.
    let cfg = RunConfig::new(scenario, AgentMode::RoundRobin, 11);
    let mut sampler = AllocSampler::new(128);
    let result = run_experiment_observed(&cfg, &mut [&mut sampler]);
    assert!(!result.termination.is_hang_or_crash(), "clean run expected: {:?}", result.termination);

    // Warm-up: the trajectory vector, fabric contexts, and lidar/camera
    // buffers reach steady-state size within the first ticks.
    const WARMUP: usize = 16;
    assert!(sampler.per_tick.len() > WARMUP + 16, "run long enough to observe steady state");
    let warmup_total: u64 = sampler.per_tick[..WARMUP].iter().sum();
    assert!(warmup_total > 0, "counter sanity: warm-up ticks must allocate (buffer growth)");
    let steady = &sampler.per_tick[WARMUP..];
    let total: u64 = steady.iter().sum();
    assert_eq!(
        total, 0,
        "heap allocations after warm-up (per-tick deltas from tick {WARMUP}): {steady:?}"
    );
}

/// `FlightRing::push` must never allocate — not while filling, and not
/// across wraparound — so the recorder can run on every tick of every
/// campaign run without perturbing the steady-state gate above.
#[test]
fn flight_ring_push_is_allocation_free_across_wraparound() {
    let mut ring = FlightRing::new(DEFAULT_RING_CAPACITY);
    let template = TickRecord {
        tick: 0,
        flags: 0b1111,
        score: 0.75,
        slope: -0.003,
        margin: 0.25,
        phase_ns: [1_000, 2_000, 3_000, 4_000],
        deadline_margin_ns: -5_000,
        d_throttle: 0.1,
        d_brake: 0.0,
        d_steer: -0.02,
    };
    let before = allocs();
    for t in 0..4 * DEFAULT_RING_CAPACITY as u64 {
        ring.push(TickRecord { tick: t, ..template });
    }
    let after = allocs();
    assert_eq!(after - before, 0, "flight-ring pushes allocated {} time(s)", after - before);
    assert_eq!(ring.len(), DEFAULT_RING_CAPACITY);
    assert_eq!(ring.pushed(), 4 * DEFAULT_RING_CAPACITY as u64);
}
