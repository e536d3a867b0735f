//! Service observability over the `ai2_obs` substrate: one lock-free
//! metrics [`Registry`] per shard (plus one service-level registry for
//! cross-shard state like queue depth, and for the cache hits answered
//! at admission), merged on read into the [`MetricsSnapshot`] the
//! `stats` endpoint serves.
//!
//! Latency percentiles come from the bounded log-scale
//! [`Histogram`](ai2_obs::Histogram) — fixed memory for the life of the
//! process (the old implementation kept an unbounded sample `Vec`;
//! `ai2_obs`'s `steady_state` test pins the allocation-free fix) at the
//! price of ≲3% quantile error.
//!
//! Metric names (the glossary the README documents):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `serve.served` | counter | recommendations answered, incl. cache hits |
//! | `serve.cache_hits` | counter | answers straight from the response cache, at admission |
//! | `serve.deadline_expired` | counter | requests dropped past their deadline |
//! | `serve.errors` | counter | error responses issued |
//! | `serve.sheds` | counter | requests refused at admission (overload policy) |
//! | `serve.line_cap_closes` | counter | connections closed for a request line over `MAX_LINE_BYTES` |
//! | `serve.queue_depth` | gauge | jobs admitted but not yet drained |
//! | `serve.latency_ns` | histogram | admission→response latency |
//! | `serve.latency_ns.analytic` / `.systolic` / `.cascade` | histogram | same, split by cost backend |
//! | `serve.latency_ns.f32` / `.int8` | histogram | same, split by the computing replica's decoder flavor (cache hits excluded) |
//! | `serve.batch_size` | histogram | drained micro-batch sizes (a cache hit never reaches a shard) |

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ai2_obs::{Counter, Gauge, Histogram, MetricsDump, Registry};

/// Per-service metrics: a service-level registry plus one registry per
/// shard, all updated lock-free through pre-resolved handles.
#[derive(Debug)]
pub struct ServiceMetrics {
    started: Instant,
    /// The service-level handles; they also record the cache hits
    /// answered at admission (served and latency, never a flavor).
    service: ShardMetrics,
    cache_hits: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    sheds: Arc<Counter>,
    line_cap_closes: Arc<Counter>,
    /// Mirror of the queue-depth gauge so the high-water mark can be
    /// maintained with one `fetch_max` per admission (the gauge itself
    /// has no read-back cheaper than a full registry snapshot).
    depth_mirror: AtomicI64,
    queue_high_water: AtomicU64,
    shards: Vec<ShardMetrics>,
}

/// One registry's metric handles: a shard's own (so recording never
/// contends with siblings), or the service level's.
#[derive(Debug)]
pub struct ShardMetrics {
    registry: Registry,
    served: Arc<Counter>,
    deadline_expired: Arc<Counter>,
    errors: Arc<Counter>,
    latency_ns: Arc<Histogram>,
    latency_analytic: Arc<Histogram>,
    latency_systolic: Arc<Histogram>,
    latency_cascade: Arc<Histogram>,
    latency_f32: Arc<Histogram>,
    latency_int8: Arc<Histogram>,
    batch_size: Arc<Histogram>,
}

impl ShardMetrics {
    fn new(registry: Registry) -> ShardMetrics {
        ShardMetrics {
            served: registry.counter("serve.served"),
            deadline_expired: registry.counter("serve.deadline_expired"),
            errors: registry.counter("serve.errors"),
            latency_ns: registry.histogram("serve.latency_ns"),
            latency_analytic: registry.histogram("serve.latency_ns.analytic"),
            latency_systolic: registry.histogram("serve.latency_ns.systolic"),
            latency_cascade: registry.histogram("serve.latency_ns.cascade"),
            latency_f32: registry.histogram("serve.latency_ns.f32"),
            latency_int8: registry.histogram("serve.latency_ns.int8"),
            batch_size: registry.histogram("serve.batch_size"),
            registry,
        }
    }

    /// Records one computed recommendation: its admission→response
    /// latency, the cost backend that verified it, and the decoder
    /// flavor of the replica that answered.
    pub fn record_served(&self, latency_ns: u64, backend: &str, int8: bool) {
        self.record_answer(latency_ns, backend);
        if int8 {
            self.latency_int8.record(latency_ns);
        } else {
            self.latency_f32.record(latency_ns);
        }
    }

    fn record_answer(&self, latency_ns: u64, backend: &str) {
        self.served.inc();
        self.latency_ns.record(latency_ns);
        match backend {
            "systolic" => self.latency_systolic.record(latency_ns),
            "cascade" => self.latency_cascade.record(latency_ns),
            _ => self.latency_analytic.record(latency_ns),
        }
    }

    /// Records the size of one drained micro-batch.
    pub fn record_batch(&self, size: usize) {
        self.batch_size.record(size as u64);
    }

    /// Records a request dropped for an expired deadline.
    pub fn record_deadline_expired(&self) {
        self.deadline_expired.inc();
        self.errors.inc();
    }

    /// Records an error response (bad query, unknown model …).
    pub fn record_error(&self) {
        self.errors.inc();
    }
}

/// A point-in-time metrics snapshot (merged across every shard).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Recommendations answered, including cache hits.
    pub served: u64,
    /// Answers straight from the response cache.
    pub cache_hits: u64,
    /// Requests dropped because their deadline had expired.
    pub deadline_expired: u64,
    /// Error responses issued.
    pub errors: u64,
    /// Milliseconds since service start.
    pub uptime_ms: u64,
    /// Served requests per second over the uptime.
    pub throughput_rps: f64,
    /// Jobs admitted but not yet drained by any shard.
    pub queue_depth: u64,
    /// Median latency (µs); `None` before any request was served (a
    /// cold server has no percentiles — and `NaN` is not legal JSON, so
    /// the wire shows `null` instead).
    pub p50_us: Option<f64>,
    /// 95th percentile (µs); `None` on a cold server.
    pub p95_us: Option<f64>,
    /// 99th percentile (µs); `None` on a cold server.
    pub p99_us: Option<f64>,
    /// Median drained micro-batch size; `None` before any batch ran.
    pub batch_size_p50: Option<f64>,
    /// 95th-percentile micro-batch size; `None` before any batch ran.
    pub batch_size_p95: Option<f64>,
    /// Requests refused at admission by the overload policy.
    pub sheds: u64,
    /// Highest queue depth ever observed at an admission.
    pub queue_high_water: u64,
    /// Connections closed for a request line over the line cap.
    pub line_cap_closes: u64,
}

impl ServiceMetrics {
    /// Fresh metrics for `shards` worker shards, clock started now.
    pub fn new(shards: usize) -> ServiceMetrics {
        let service = ShardMetrics::new(Registry::new());
        ServiceMetrics {
            started: Instant::now(),
            cache_hits: service.registry.counter("serve.cache_hits"),
            queue_depth: service.registry.gauge("serve.queue_depth"),
            sheds: service.registry.counter("serve.sheds"),
            line_cap_closes: service.registry.counter("serve.line_cap_closes"),
            depth_mirror: AtomicI64::new(0),
            queue_high_water: AtomicU64::new(0),
            service,
            shards: (0..shards.max(1))
                .map(|_| ShardMetrics::new(Registry::new()))
                .collect(),
        }
    }

    /// The metric handles of shard `i`.
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Tracks admissions (`+n`) and drains (`-n`) of the shared queue,
    /// folding the post-admission depth into the high-water mark.
    pub fn queue_depth_add(&self, n: i64) {
        self.queue_depth.add(n);
        let depth = self.depth_mirror.fetch_add(n, Ordering::SeqCst) + n;
        if n > 0 && depth > 0 {
            self.queue_high_water
                .fetch_max(depth as u64, Ordering::SeqCst);
        }
    }

    /// Records a recommendation answered from the response cache at
    /// admission, on the service-level handles.
    pub fn record_cache_hit(&self, latency_ns: u64, backend: &str) {
        self.cache_hits.inc();
        self.service.record_answer(latency_ns, backend);
    }

    /// Records a request refused at admission by the overload policy.
    pub fn record_shed(&self) {
        self.sheds.inc();
        self.service.record_error();
    }

    /// Records a service-level error response (malformed line, rejected
    /// admin message) that no shard owns.
    pub fn record_error(&self) {
        self.service.record_error();
    }

    /// Records a connection closed for a request line over the line cap.
    pub fn record_line_cap_close(&self) {
        self.line_cap_closes.inc();
    }

    /// The merged raw dump across the service and every shard registry.
    pub fn dump(&self) -> MetricsDump {
        let mut dump = self.service.registry.snapshot();
        for shard in &self.shards {
            dump.merge(&shard.registry.snapshot());
        }
        dump
    }

    /// Aggregates counters and histogram percentiles across shards.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let dump = self.dump();
        let served = dump.counter("serve.served");
        let uptime = self.started.elapsed();
        let secs = uptime.as_secs_f64();
        let latency = dump.histogram("serve.latency_ns");
        let lat_us = |q: f64| {
            latency
                .filter(|h| !h.is_empty())
                .and_then(|h| h.quantile(q))
                .map(|ns| ns / 1e3)
        };
        let batch = dump.histogram("serve.batch_size");
        let batch_q = |q: f64| batch.filter(|h| !h.is_empty()).and_then(|h| h.quantile(q));
        MetricsSnapshot {
            served,
            cache_hits: dump.counter("serve.cache_hits"),
            deadline_expired: dump.counter("serve.deadline_expired"),
            errors: dump.counter("serve.errors"),
            uptime_ms: uptime.as_millis() as u64,
            throughput_rps: if secs > 0.0 {
                served as f64 / secs
            } else {
                0.0
            },
            queue_depth: dump.gauge("serve.queue_depth").max(0) as u64,
            p50_us: lat_us(0.50),
            p95_us: lat_us(0.95),
            p99_us: lat_us(0.99),
            batch_size_p50: batch_q(0.50),
            batch_size_p95: batch_q(0.95),
            sheds: dump.counter("serve.sheds"),
            queue_high_water: self.queue_high_water.load(Ordering::SeqCst),
            line_cap_closes: dump.counter("serve.line_cap_closes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles_aggregate_across_shards() {
        let m = ServiceMetrics::new(2);
        for i in 1..=100u64 {
            // spread over both shards and admission; latencies 1..=100 µs
            if i % 4 == 0 {
                m.record_cache_hit(i * 1_000, "analytic");
            } else {
                m.shard((i % 2) as usize)
                    .record_served(i * 1_000, "analytic", false);
            }
        }
        m.shard(0).record_deadline_expired();
        m.record_error();
        let s = m.snapshot();
        assert_eq!(s.served, 100);
        assert_eq!(s.cache_hits, 25);
        assert_eq!(s.deadline_expired, 1);
        assert_eq!(s.errors, 2);
        // samples 1..=100 µs → the exact p50 is 50.5; the log-scale
        // histogram interpolates within its bucket (≲3% error)
        let (p50, p95, p99) = (
            s.p50_us.expect("warm percentiles"),
            s.p95_us.expect("warm percentiles"),
            s.p99_us.expect("warm percentiles"),
        );
        assert!((p50 - 50.5).abs() <= 2.0, "p50 {p50}");
        assert!((p95 - 95.05).abs() <= 5.0, "p95 {p95}");
        assert!(p95 > p50 && p99 >= p95);
        assert!(s.throughput_rps > 0.0);
    }

    #[test]
    fn empty_window_reports_no_percentiles_not_nan() {
        // NaN is not legal JSON: a cold server's percentiles must be
        // absent (None → null on the wire), never NaN
        let s = ServiceMetrics::new(2).snapshot();
        assert_eq!(s.served, 0);
        assert_eq!(s.p50_us, None);
        assert_eq!(s.p95_us, None);
        assert_eq!(s.p99_us, None);
        assert_eq!(s.batch_size_p50, None);
        assert_eq!(s.batch_size_p95, None);
        assert_eq!(s.queue_depth, 0);
    }

    #[test]
    fn queue_depth_and_batch_sizes_surface_in_the_snapshot() {
        let m = ServiceMetrics::new(1);
        m.queue_depth_add(5);
        m.queue_depth_add(-2);
        for size in [4u64, 4, 4, 8] {
            m.shard(0).record_batch(size as usize);
        }
        let s = m.snapshot();
        assert_eq!(s.queue_depth, 3);
        // the high-water mark keeps the +5 peak even after the drain
        assert_eq!(s.queue_high_water, 5);
        let p50 = s.batch_size_p50.expect("batches recorded");
        assert!((p50 - 4.0).abs() < 0.5, "p50 {p50}");
        assert!(s.batch_size_p95.expect("batches recorded") >= p50);
    }

    #[test]
    fn sheds_count_as_errors_but_keep_their_own_counter() {
        let m = ServiceMetrics::new(1);
        m.record_shed();
        m.record_shed();
        m.record_error();
        let s = m.snapshot();
        assert_eq!(s.sheds, 2);
        assert_eq!(s.errors, 3);
        assert_eq!(s.served, 0);
    }

    #[test]
    fn latency_splits_by_backend_and_flavor() {
        let m = ServiceMetrics::new(1);
        m.shard(0).record_served(1_000, "analytic", false);
        m.shard(0).record_served(2_000, "systolic", true);
        m.shard(0).record_served(3_000, "cascade", false);
        m.shard(0).record_served(4_000, "cascade", true);
        // a cache hit joins the whole and the backend split, not a flavor
        m.record_cache_hit(5_000, "analytic");
        let dump = m.dump();
        assert_eq!(dump.histogram("serve.latency_ns").unwrap().count(), 5);
        assert_eq!(
            dump.histogram("serve.latency_ns.analytic").unwrap().count(),
            2
        );
        assert_eq!(
            dump.histogram("serve.latency_ns.systolic").unwrap().count(),
            1
        );
        assert_eq!(
            dump.histogram("serve.latency_ns.cascade").unwrap().count(),
            2
        );
        assert_eq!(dump.histogram("serve.latency_ns.f32").unwrap().count(), 2);
        assert_eq!(dump.histogram("serve.latency_ns.int8").unwrap().count(), 2);
    }
}
