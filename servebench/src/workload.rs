//! The three request streams, each a pure function of `(seed, index)`.
//!
//! Request `j` of a workload is always the same line for a given seed, so
//! the TCP run, the correctness check and the traced in-process replay
//! all see the identical stream without sharing state.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use ai2_dse::{Budget, Objective};
use ai2_serve::protocol::encode_line;
use ai2_serve::{Query, RecommendRequest, Request};

/// Whole-model queries of the hot set (4 models × 3 objectives).
pub const ZOO_MIX: [&str; 4] = ["resnet18", "resnet50", "bert_base", "mobilenet_v2"];
/// GEMM keys in the hot set; with the 12 model keys the set holds 512,
/// half the server's default 1024-entry response cache.
pub const HOT_GEMMS: u64 = 500;
/// Size of the whole hot set.
pub const HOT_KEYS: u64 = HOT_GEMMS + (ZOO_MIX.len() * OBJECTIVES.len()) as u64;

const OBJECTIVES: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Edp];
const DATAFLOWS: [&str; 3] = ["ws", "os", "rs"];
/// Table I GEMM ranges (inclusive upper bounds, lower bound 1).
const M_MAX: u64 = 256;
const N_MAX: u64 = 1677;
const K_MAX: u64 = 1185;
/// Distinct (m, n, k, dataflow, objective) keys.
const SPACE: u128 = (M_MAX * N_MAX * K_MAX) as u128 * 9;
/// Ids of the hot-set warm pass start here, apart from the measured stream.
pub const WARM_ID_BASE: u64 = 1 << 40;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open loop, Poisson arrivals, unique one-shot analytic GEMMs.
    OneshotOpen,
    /// Closed loop, unique GEMMs: one in three on the cascade backend,
    /// the others through the staged pipeline.
    EngineClosed,
    /// Closed loop, 7 of 8 requests from a 512-key hot set.
    HotClosed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "oneshot-open" => Some(Workload::OneshotOpen),
            "engine-closed" => Some(Workload::EngineClosed),
            "hot-closed" => Some(Workload::HotClosed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotOpen => "oneshot-open",
            Workload::EngineClosed => "engine-closed",
            Workload::HotClosed => "hot-closed",
        }
    }
}

/// SplitMix64: a tiny seeded generator, enough for arrival times and
/// hot-key draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

fn mix(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// The seeded stream of one workload.
#[derive(Debug, Clone)]
pub struct Stream {
    pub workload: Workload,
    seed: u64,
    /// Multiplier and offset of the bijection `i ↦ (a·i + b) mod SPACE`
    /// that makes GEMM `i` distinct from every other GEMM of the stream.
    a: u128,
    b: u128,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let coprime = |x: u128| {
            [2u128, 3, 5, 13, 43, 79]
                .iter()
                .all(|p| !x.is_multiple_of(*p))
        };
        let mut a = u128::from(mix(seed, 1)) % SPACE;
        while !coprime(a) {
            a += 1;
        }
        Stream {
            workload,
            seed,
            a,
            b: u128::from(mix(seed, 2)) % SPACE,
        }
    }

    /// The `i`-th distinct GEMM query of this seed.
    fn unique_gemm(&self, i: u64, id: u64) -> RecommendRequest {
        let mut x = (self.a * u128::from(i) + self.b) % SPACE;
        let mut digit = |radix: u64| {
            let d = (x % u128::from(radix)) as u64;
            x /= u128::from(radix);
            d
        };
        let m = 1 + digit(M_MAX);
        let n = 1 + digit(N_MAX);
        let k = 1 + digit(K_MAX);
        let dataflow = DATAFLOWS[digit(3) as usize].to_string();
        let objective = OBJECTIVES[digit(3) as usize];
        RecommendRequest {
            id,
            query: Query::Gemm { m, n, k, dataflow },
            objective,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        }
    }

    /// Hot-set key `h < HOT_KEYS`: GEMMs first, then model × objective.
    fn hot_key(&self, h: u64, id: u64) -> RecommendRequest {
        if h < HOT_GEMMS {
            return self.unique_gemm(h, id);
        }
        let m = (h - HOT_GEMMS) as usize;
        RecommendRequest {
            id,
            query: Query::Model {
                name: ZOO_MIX[m / OBJECTIVES.len()].to_string(),
            },
            objective: OBJECTIVES[m % OBJECTIVES.len()],
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        }
    }

    /// Request `j` of the measured stream (id `j + 1`).
    pub fn request(&self, j: u64) -> RecommendRequest {
        let id = j + 1;
        match self.workload {
            Workload::OneshotOpen => self.unique_gemm(j, id),
            Workload::EngineClosed => {
                // cascade answers take ~1.1 ms and staged ones ~0.2 ms;
                // at 1:2 the median and the p90 each fall inside one of
                // the two modes instead of in the gap between them
                let mut req = self.unique_gemm(j, id);
                if j.is_multiple_of(3) {
                    req.backend = Some("cascade".into());
                } else {
                    req.pipeline = Some("staged".into());
                }
                req
            }
            Workload::HotClosed => {
                if j % 8 == 7 {
                    // a fresh GEMM: misses, then inserts
                    self.unique_gemm(HOT_KEYS + j / 8, id)
                } else {
                    self.hot_key(mix(self.seed, 3 + j) % HOT_KEYS, id)
                }
            }
        }
    }

    /// Ids of the requests sent before the measured stream, excluded from
    /// every metric but checked like the rest: one pass over the hot set
    /// for `hot-closed`, nothing otherwise.
    pub fn warm_ids(&self) -> Vec<u64> {
        match self.workload {
            Workload::HotClosed => (0..HOT_KEYS).map(|h| WARM_ID_BASE + h).collect(),
            _ => Vec::new(),
        }
    }

    /// The request with this id: warm-pass ids from [`WARM_ID_BASE`] on,
    /// measured-stream request `j` under id `j + 1`.
    pub fn by_id(&self, id: u64) -> RecommendRequest {
        if id >= WARM_ID_BASE {
            self.hot_key(id - WARM_ID_BASE, id)
        } else {
            self.request(id - 1)
        }
    }
}

/// A response line's identity for the correctness check: a 64-bit hash of
/// the line without its line terminator.
pub fn line_hash(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.trim_end().hash(&mut h);
    h.finish()
}

/// The wire line of a request.
pub fn line_of(req: &RecommendRequest) -> String {
    encode_line(&Request::Recommend(req.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_serve::QueryKey;
    use std::collections::HashSet;

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        for w in [
            Workload::OneshotOpen,
            Workload::EngineClosed,
            Workload::HotClosed,
        ] {
            let a = Stream::new(w, 7);
            let b = Stream::new(w, 7);
            for j in 0..200 {
                assert_eq!(a.request(j), b.request(j));
            }
            assert_ne!(Stream::new(w, 8).request(3), a.request(3));
        }
    }

    #[test]
    fn unique_streams_never_repeat_a_key() {
        let s = Stream::new(Workload::EngineClosed, 3);
        let mut seen = HashSet::new();
        for j in 0..20_000 {
            let key = QueryKey::of(&s.request(j)).expect("valid query");
            assert!(seen.insert(key), "request {j} repeats a key");
        }
    }

    #[test]
    fn hot_stream_is_seven_eighths_hot() {
        let s = Stream::new(Workload::HotClosed, 5);
        let hot: HashSet<QueryKey> = s
            .warm_ids()
            .into_iter()
            .map(|id| QueryKey::of(&s.by_id(id)).expect("valid"))
            .collect();
        assert_eq!(hot.len() as u64, HOT_KEYS);
        let n = 8000;
        let in_hot = (0..n)
            .filter(|&j| hot.contains(&QueryKey::of(&s.request(j)).expect("valid")))
            .count();
        assert_eq!(in_hot as u64, n / 8 * 7);
    }
}
