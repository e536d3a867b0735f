//! Memory steady-state regression tests, enforced with a counting
//! global allocator: recording into the bounded histogram never
//! allocates (the fix for the old serve metrics window that grew an
//! unbounded sample `Vec`), and the disabled tracing path — what every
//! kernel call pays when no trace is being captured — is
//! allocation-free too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ai2_obs::{local_span, Registry, TimeSource, Tracer, NO_PARENT};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Per thread, so each test reads
    /// only its own: the harness runs tests on parallel threads.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's allocations during TLS teardown go uncounted
    // instead of panicking inside the allocator.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn recording_a_million_samples_never_allocates() {
    let reg = Registry::new();
    let counter = reg.counter("served");
    let gauge = reg.gauge("depth");
    let hist = reg.histogram("latency_ns");
    // Warm up outside the measured window, then measure steady state.
    hist.record(1);
    let before = allocs();
    for i in 0..1_000_000u64 {
        counter.inc();
        gauge.set(i as i64 & 0xff);
        hist.record(i.wrapping_mul(2654435761) >> 12);
    }
    let during = allocs() - before;
    assert_eq!(during, 0, "steady-state metric recording allocated");
    assert_eq!(hist.count(), 1_000_001);
}

#[test]
fn disabled_tracing_path_never_allocates() {
    let time: TimeSource = Arc::new(|| 0);
    let tracer = Tracer::new(time);
    assert!(!tracer.enabled());
    let before = allocs();
    for _ in 0..100_000 {
        // No scoped tracer installed: the kernel-side fast path.
        let g = local_span("tensor.gemm", "kernel");
        assert!(!g.is_recording());
        // Disabled explicit tracer: the serve-side fast path.
        let mut s = tracer.span("request", "serve", 0, NO_PARENT);
        s.arg("ignored", 1u64);
    }
    let during = allocs() - before;
    assert_eq!(during, 0, "disabled tracing path allocated");
}
