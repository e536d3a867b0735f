//! Online model refresh: a replay buffer of served queries, an
//! active-learning labeling/fine-tuning pass, and a publish through the
//! [`ModelRegistry`].
//!
//! The serving layer's premise is that a trained predictor answers
//! design-space queries orders of magnitude faster than search — but a
//! predictor restored once at startup can never improve from the
//! traffic it sees. This module closes the loop:
//!
//! 1. worker shards [`ReplayBuffer::record`] every *computed* GEMM
//!    recommendation (cache hits carry no new information);
//! 2. [`refresh_once`] labels the buffered queries through the shard's
//!    own [`EvalEngine`] oracle ([`DseDataset::label_inputs`] — the
//!    labels land in the engine's oracle cache, so re-labeling a query
//!    already labeled is free);
//! 3. **active learning**: queries are ranked by predictor-vs-oracle
//!    disagreement (the cost ratio of the served point over the oracle
//!    optimum) and only the most-disagreeing fraction is kept — the
//!    replica re-trains where it is most wrong, not where it is already
//!    right;
//! 4. the current replica is restored from the registry and fine-tuned
//!    with [`Stage2Trainer`] (decoder only — the contrastively trained
//!    encoder stays frozen, exactly as in the paper's stage 2);
//! 5. the result is published at `live_version + 1`; shards pick it up
//!    at their next micro-batch boundary.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ai2_dse::{DesignPoint, DseDataset, EvalEngine};
use ai2_workloads::generator::DseInput;
use airchitect::train::{Stage2Trainer, TrainConfig};
use airchitect::Airchitect2;

use crate::registry::ModelRegistry;

/// One served GEMM query and the design point the live replica
/// answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayEntry {
    /// The workload the client asked about.
    pub input: DseInput,
    /// The design point the replica recommended.
    pub predicted: DesignPoint,
}

/// A bounded ring of recently served queries. Capacity 0 disables
/// recording entirely (every `record` is dropped).
///
/// Every recorded entry carries an implicit monotonic **sequence
/// number**; the ring holds the contiguous range
/// `[first_seq, first_seq + len)`. Snapshots report the sequence they
/// covered up to, and [`ReplayBuffer::consume_upto`] drains by
/// sequence — so entries recorded (or even evicted) while a refresh
/// was labeling/training are never mistaken for consumed ones.
#[derive(Debug)]
pub struct ReplayBuffer {
    capacity: usize,
    ring: Mutex<Ring>,
}

#[derive(Debug)]
struct Ring {
    entries: VecDeque<ReplayEntry>,
    /// Sequence number of the front entry.
    first_seq: u64,
}

impl ReplayBuffer {
    /// A buffer keeping at most `capacity` entries (oldest dropped).
    pub fn new(capacity: usize) -> ReplayBuffer {
        ReplayBuffer {
            capacity,
            ring: Mutex::new(Ring {
                entries: VecDeque::new(),
                first_seq: 0,
            }),
        }
    }

    /// Records one served query; drops the oldest entry when full.
    pub fn record(&self, input: DseInput, predicted: DesignPoint) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = crate::lock(&self.ring);
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
            ring.first_seq += 1;
        }
        ring.entries.push_back(ReplayEntry { input, predicted });
    }

    /// Entries currently buffered (including duplicates).
    pub fn len(&self) -> usize {
        crate::lock(&self.ring).entries.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The buffered queries with duplicate workloads collapsed (the
    /// most recent prediction wins), in first-seen order — plus the
    /// one-past-the-end **sequence number** the snapshot covered, taken
    /// under the same lock. A successful refresh passes that sequence
    /// back to [`ReplayBuffer::consume_upto`] so entries recorded
    /// *while* the refresh labeled and trained (which the snapshot
    /// never saw) stay buffered for the next cycle instead of being
    /// silently dropped — even when the capacity bound evicted
    /// snapshotted entries in the meantime.
    pub fn snapshot_distinct(&self) -> (Vec<ReplayEntry>, u64) {
        let ring = crate::lock(&self.ring);
        let mut latest: Vec<ReplayEntry> = Vec::with_capacity(ring.entries.len());
        let mut index_of: HashMap<(u64, u64, u64, usize), usize> = HashMap::new();
        for e in ring.entries.iter() {
            let key = (
                e.input.gemm.m,
                e.input.gemm.n,
                e.input.gemm.k,
                e.input.dataflow.index(),
            );
            match index_of.get(&key) {
                Some(&i) => latest[i] = *e,
                None => {
                    index_of.insert(key, latest.len());
                    latest.push(*e);
                }
            }
        }
        let upto_seq = ring.first_seq + ring.entries.len() as u64;
        (latest, upto_seq)
    }

    /// Drops every entry with a sequence number below `upto_seq` (the
    /// range a snapshot covered). Entries recorded after the snapshot
    /// have sequences `>= upto_seq` and stay put, regardless of how
    /// many snapshotted entries the capacity bound evicted in between.
    pub fn consume_upto(&self, upto_seq: u64) {
        let mut ring = crate::lock(&self.ring);
        let n = (upto_seq.saturating_sub(ring.first_seq) as usize).min(ring.entries.len());
        ring.entries.drain(..n);
        ring.first_seq += n as u64;
    }

    /// Drops everything unconditionally.
    pub fn clear(&self) {
        let mut ring = crate::lock(&self.ring);
        let len = ring.entries.len() as u64;
        ring.entries.clear();
        ring.first_seq += len;
    }
}

/// Knobs of the background refresh loop.
#[derive(Debug, Clone)]
pub struct RefreshConfig {
    /// Distinct buffered queries required before a refresh runs (a
    /// fine-tune on a handful of queries would overfit them).
    pub min_buffer: usize,
    /// Fraction of the buffer kept for fine-tuning, taken from the
    /// most-disagreeing end (clamped to (0, 1]).
    pub keep_fraction: f64,
    /// Fine-tune schedule. Only the stage-2 fields matter: refresh
    /// never re-runs stage 1 (the encoder stays frozen).
    pub train: TrainConfig,
    /// Cadence of the background worker.
    pub interval: Duration,
}

impl Default for RefreshConfig {
    fn default() -> Self {
        RefreshConfig {
            min_buffer: 32,
            keep_fraction: 0.5,
            train: TrainConfig {
                stage2_epochs: 30,
                batch_size: 32,
                // fine-tuning wants a cooler rate than from-scratch
                // stage 2: the full 2e-3 demonstrably walks a trained
                // decoder away from its optimum on small replay corpora
                lr_stage2: 5e-4,
                ..TrainConfig::default()
            },
            interval: Duration::from_secs(30),
        }
    }
}

/// What one successful refresh did.
#[derive(Debug, Clone)]
pub struct RefreshOutcome {
    /// Lineage version published.
    pub version: u64,
    /// Distinct replayed queries labeled through the oracle.
    pub replayed: usize,
    /// Queries selected by the active-learning filter and trained on.
    pub trained_on: usize,
    /// Geometric-mean cost ratio (served point / oracle optimum) over
    /// the whole buffer, **before** fine-tuning. 1.0 means every served
    /// answer was already oracle-optimal.
    pub disagreement_before: f64,
    /// The same ratio re-measured with the fine-tuned replica's
    /// predictions.
    pub disagreement_after: f64,
}

/// Per-query predicted-vs-oracle cost ratios of `points` against the
/// labeled oracle optima — the one place the disagreement criterion is
/// computed, shared by the geometric mean *and* the active-learning
/// ranking so the two can never silently drift apart.
fn cost_ratios(
    engine: &EvalEngine,
    inputs: &[DseInput],
    points: &[DesignPoint],
    labeled: &DseDataset,
) -> Vec<f64> {
    debug_assert_eq!(inputs.len(), points.len());
    debug_assert_eq!(inputs.len(), labeled.len());
    let scoring = engine.scoring();
    inputs
        .iter()
        .zip(points)
        .zip(&labeled.samples)
        .map(|((input, &point), sample)| engine.cost(input, point, &scoring) / sample.best_score)
        .collect()
}

/// Geometric mean of a ratio vector (1.0 for an empty one).
fn geo_mean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Runs one refresh cycle: label the replay buffer, select the
/// most-disagreeing queries, fine-tune the live replica's decoder on
/// them, and publish the result at `live_version + 1`. Only the
/// snapshotted prefix of the buffer is drained, and only on success —
/// queries served while the refresh was labeling/training stay
/// buffered for the next cycle.
///
/// # Errors
///
/// Returns a human-readable reason when the refresh cannot run (buffer
/// too small, registry frozen, checkpoint fails to restore) or the
/// publish is rejected (a concurrent swap advanced the version first).
pub fn refresh_once(
    engine: &Arc<EvalEngine>,
    registry: &ModelRegistry,
    buffer: &ReplayBuffer,
    cfg: &RefreshConfig,
) -> Result<RefreshOutcome, String> {
    if registry.frozen() {
        return Err("registry is frozen; refresh skipped".to_string());
    }
    let (entries, snapshot_upto_seq) = buffer.snapshot_distinct();
    if entries.len() < cfg.min_buffer.max(1) {
        return Err(format!(
            "replay buffer holds {} distinct queries; refresh needs at least {}",
            entries.len(),
            cfg.min_buffer.max(1)
        ));
    }

    // -- label every replayed query through the oracle ----------------
    let inputs: Vec<DseInput> = entries.iter().map(|e| e.input).collect();
    let served_points: Vec<DesignPoint> = entries.iter().map(|e| e.predicted).collect();
    let labeled = DseDataset::label_inputs(engine, &inputs);
    let ratios = cost_ratios(engine, &inputs, &served_points, &labeled);
    let disagreement_before = geo_mean(&ratios);

    // -- active learning: keep the most-disagreeing fraction ----------
    let mut ranked: Vec<(usize, f64)> = ratios.iter().copied().enumerate().collect();
    // descending by disagreement; ties broken by buffer order so the
    // selection (hence the fine-tune) is deterministic
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let keep_fraction = cfg.keep_fraction.clamp(f64::EPSILON, 1.0);
    let keep = ((entries.len() as f64 * keep_fraction).ceil() as usize).clamp(1, entries.len());
    let mut selected: Vec<usize> = ranked[..keep].iter().map(|&(i, _)| i).collect();
    // training-set order = buffer order, not disagreement order, so the
    // minibatch stream is stable under cost ties
    selected.sort_unstable();
    let train_ds = DseDataset {
        backend: labeled.backend,
        samples: selected.iter().map(|&i| labeled.samples[i]).collect(),
    };

    // -- fine-tune the live replica's decoder -------------------------
    let base = registry.current();
    let mut model = Airchitect2::from_checkpoint(Arc::clone(engine), &base)
        .map_err(|e| format!("live checkpoint failed to restore: {e}"))?;
    let prep = model.prepare(&train_ds);
    Stage2Trainer::new(cfg.train.clone()).run(&mut model, &prep);

    let refreshed_points = model.predict(&inputs);
    let disagreement_after = geo_mean(&cost_ratios(engine, &inputs, &refreshed_points, &labeled));
    // no-regression gate: never roll the fleet onto a replica that got
    // *worse* on the very queries it was tuned for (a diverged
    // fine-tune, e.g. from a too-hot learning rate, lands here). The
    // buffer is kept so the next cycle can retry with more data.
    if disagreement_after > disagreement_before {
        return Err(format!(
            "fine-tune regressed on-buffer disagreement \
             ({disagreement_before:.4} → {disagreement_after:.4}); not published"
        ));
    }

    // -- publish at live_version + 1 ----------------------------------
    let next = registry.version() + 1;
    let ckpt = model
        .checkpoint()
        .with_version(next)
        .with_provenance(engine.backend_id().as_str(), train_ds.len() as u64);
    let version = registry.publish(ckpt).map_err(|e| e.to_string())?;
    // drain only what the snapshot covered: queries served while this
    // refresh labeled and trained were never seen by it and must stay
    // buffered for the next cycle
    buffer.consume_upto(snapshot_upto_seq);
    Ok(RefreshOutcome {
        version,
        replayed: entries.len(),
        trained_on: train_ds.len(),
        disagreement_before,
        disagreement_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_dse::{DseTask, GenerateConfig};
    use ai2_maestro::{Dataflow, GemmWorkload};
    use airchitect::ModelConfig;

    fn input(m: u64, n: u64, k: u64, df: usize) -> DseInput {
        DseInput {
            gemm: GemmWorkload::new(m, n, k),
            dataflow: Dataflow::from_index(df),
        }
    }

    #[test]
    fn replay_buffer_bounds_dedups_and_clears() {
        let buf = ReplayBuffer::new(3);
        let p = |i| DesignPoint {
            pe_idx: i,
            buf_idx: i,
        };
        buf.record(input(1, 1, 1, 0), p(0));
        buf.record(input(2, 2, 2, 0), p(1));
        buf.record(input(1, 1, 1, 0), p(2)); // duplicate workload, newer point
        assert_eq!(buf.len(), 3);
        let (distinct, upto) = buf.snapshot_distinct();
        assert_eq!(distinct.len(), 2, "duplicates collapse");
        assert_eq!(upto, 3, "sequence covers every snapshotted entry");
        assert_eq!(distinct[0].predicted, p(2), "most recent prediction wins");
        // overflow drops the oldest raw entry
        buf.record(input(3, 3, 3, 0), p(3));
        buf.record(input(4, 4, 4, 0), p(4));
        assert_eq!(buf.len(), 3);
        buf.clear();
        assert!(buf.is_empty());
        // capacity 0 disables recording
        let off = ReplayBuffer::new(0);
        off.record(input(1, 1, 1, 0), p(0));
        assert!(off.is_empty());
    }

    #[test]
    fn consume_upto_preserves_entries_recorded_after_the_snapshot() {
        // the refresh-cycle contract: queries served while a refresh is
        // labeling/training were not in its snapshot and must survive
        // the post-publish drain for the next cycle
        let buf = ReplayBuffer::new(16);
        let p = |i| DesignPoint {
            pe_idx: i,
            buf_idx: i,
        };
        for i in 0..4u64 {
            buf.record(input(i + 1, 1, 1, 0), p(i as usize));
        }
        let (snap, upto) = buf.snapshot_distinct();
        assert_eq!((snap.len(), upto), (4, 4));
        // two more queries arrive while the (conceptual) fine-tune runs
        buf.record(input(100, 1, 1, 0), p(5));
        buf.record(input(101, 1, 1, 0), p(6));
        buf.consume_upto(upto);
        assert_eq!(buf.len(), 2, "post-snapshot entries survive the drain");
        let (rest, _) = buf.snapshot_distinct();
        assert_eq!(rest[0].input.gemm.m, 100);
        assert_eq!(rest[1].input.gemm.m, 101);
        // a stale over-large sequence never touches post-snapshot data
        buf.consume_upto(upto);
        assert_eq!(buf.len(), 2, "re-consuming an old snapshot is a no-op");
    }

    #[test]
    fn consume_upto_is_eviction_safe_at_capacity() {
        // a full ring under sustained traffic: eviction during the
        // refresh window must not cause the drain to eat post-snapshot
        // entries (sequence accounting, not a raw prefix count)
        let buf = ReplayBuffer::new(4);
        let p = |i| DesignPoint {
            pe_idx: i,
            buf_idx: i,
        };
        for i in 0..4u64 {
            buf.record(input(i + 1, 1, 1, 0), p(i as usize));
        }
        let (_, upto) = buf.snapshot_distinct(); // covers seqs [0, 4)
        assert_eq!(upto, 4);
        // three arrivals while the refresh trains: each evicts one
        // snapshotted entry (ring now holds seqs 3..7: one snapshotted
        // entry + the three new ones)
        for j in 0..3u64 {
            buf.record(input(100 + j, 1, 1, 0), p(9));
        }
        assert_eq!(buf.len(), 4);
        buf.consume_upto(upto);
        // only the surviving snapshotted entry (seq 3) was drained; the
        // three post-snapshot arrivals remain for the next cycle
        assert_eq!(buf.len(), 3, "eviction must not inflate the drain");
        let (rest, _) = buf.snapshot_distinct();
        let ms: Vec<u64> = rest.iter().map(|e| e.input.gemm.m).collect();
        assert_eq!(ms, vec![100, 101, 102]);
    }

    /// Tiny standalone LCG so these tests need no RNG dependency
    /// (mirrors the `LruCache` reference-model test).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    #[test]
    fn randomized_record_snapshot_drain_never_double_labels_or_skips() {
        // the labeling contract: across any interleaving of records,
        // snapshots and sequence-range drains, every recorded entry is
        // labeled at most once (no double-label) and an entry only
        // vanishes unlabeled by eviction — never by a drain eating
        // post-snapshot arrivals (no skip). Entries carry a unique `m`
        // so dedup never collapses them and each one is traceable.
        for (seed, capacity) in [(1u64, 2usize), (2, 4), (3, 7), (4, 16), (5, 1)] {
            let buf = ReplayBuffer::new(capacity);
            let mut g = Lcg(seed);
            let mut next_m = 1u64;
            let mut recorded = 0u64; // total records ever
            let mut evictions = 0u64; // capacity-bound drops
            let mut labeled: Vec<u64> = Vec::new(); // drained (= labeled) m values
            let mut open_snapshot: Option<(Vec<u64>, u64)> = None;
            for step in 0..3000 {
                match g.next() % 4 {
                    // record (twice as likely so the ring actually fills)
                    0 | 1 => {
                        if buf.len() == capacity && capacity > 0 {
                            evictions += 1;
                        }
                        buf.record(
                            input(next_m, 1, 1, 0),
                            DesignPoint {
                                pe_idx: 0,
                                buf_idx: 0,
                            },
                        );
                        next_m += 1;
                        recorded += 1;
                    }
                    // take a snapshot (a refresh starting to label)
                    2 => {
                        let (snap, upto) = buf.snapshot_distinct();
                        open_snapshot = Some((snap.iter().map(|e| e.input.gemm.m).collect(), upto));
                    }
                    // drain the snapshotted range (the refresh publishing)
                    _ => {
                        if let Some((ms, upto)) = open_snapshot.take() {
                            // whatever survives of the snapshot in the
                            // ring right now is about to be labeled
                            let (before, _) = buf.snapshot_distinct();
                            let surviving: Vec<u64> = before
                                .iter()
                                .map(|e| e.input.gemm.m)
                                .filter(|m| ms.contains(m))
                                .collect();
                            buf.consume_upto(upto);
                            let (after, _) = buf.snapshot_distinct();
                            for m in &surviving {
                                assert!(
                                    !after.iter().any(|e| e.input.gemm.m == *m),
                                    "seed {seed} cap {capacity} step {step}: drained entry \
                                     m={m} still buffered (would be labeled twice)"
                                );
                                assert!(
                                    !labeled.contains(m),
                                    "seed {seed} cap {capacity} step {step}: entry m={m} \
                                     labeled twice across drains"
                                );
                                labeled.push(*m);
                            }
                            // post-snapshot arrivals must all survive
                            for e in &after {
                                assert!(
                                    !ms.contains(&e.input.gemm.m)
                                        || !surviving.contains(&e.input.gemm.m),
                                    "inconsistent drain bookkeeping"
                                );
                            }
                        }
                    }
                }
                assert!(buf.len() <= capacity, "ring over capacity");
            }
            // conservation: every record was labeled once, evicted, or
            // is still buffered — nothing double-counted, nothing lost
            assert_eq!(
                labeled.len() as u64 + evictions + buf.len() as u64,
                recorded,
                "seed {seed} cap {capacity}: {} labeled + {evictions} evicted + {} buffered \
                 != {recorded} recorded",
                labeled.len(),
                buf.len()
            );
        }
    }

    #[test]
    fn concurrent_record_and_drain_label_every_entry_exactly_once() {
        // real-thread version of the same contract, capacity large
        // enough that nothing is evicted: a recorder hammers the buffer
        // while a drainer snapshots + consumes; at the end every entry
        // must have been drained exactly once or still be buffered
        const N: u64 = 2000;
        let buf = std::sync::Arc::new(ReplayBuffer::new(N as usize));
        let drained = std::sync::Arc::new(Mutex::new(Vec::<u64>::new()));
        std::thread::scope(|scope| {
            let recorder = {
                let buf = std::sync::Arc::clone(&buf);
                scope.spawn(move || {
                    for m in 1..=N {
                        buf.record(
                            input(m, 1, 1, 0),
                            DesignPoint {
                                pe_idx: 0,
                                buf_idx: 0,
                            },
                        );
                    }
                })
            };
            let buf = std::sync::Arc::clone(&buf);
            let drained = std::sync::Arc::clone(&drained);
            scope.spawn(move || {
                while !recorder.is_finished() {
                    let (snap, upto) = buf.snapshot_distinct();
                    buf.consume_upto(upto);
                    drained
                        .lock()
                        .unwrap()
                        .extend(snap.iter().map(|e| e.input.gemm.m));
                }
            });
        });
        let mut seen = drained.lock().unwrap().clone();
        let (rest, _) = buf.snapshot_distinct();
        seen.extend(rest.iter().map(|e| e.input.gemm.m));
        seen.sort_unstable();
        let expect: Vec<u64> = (1..=N).collect();
        assert_eq!(
            seen, expect,
            "every recorded entry drained or buffered exactly once"
        );
    }

    #[test]
    fn refresh_requires_a_filled_buffer_and_respects_freeze() {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 30,
                seed: 17,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let engine = EvalEngine::shared(task);
        let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
        model.fit(&ds, &TrainConfig::quick());
        let registry = ModelRegistry::new(model.checkpoint().with_version(1));
        let buffer = ReplayBuffer::new(64);
        let cfg = RefreshConfig {
            min_buffer: 4,
            ..RefreshConfig::default()
        };

        // empty buffer → refused with a reason, nothing published
        let err = refresh_once(&engine, &registry, &buffer, &cfg).unwrap_err();
        assert!(err.contains("replay buffer"), "{err}");
        assert_eq!(registry.version(), 1);

        for (i, s) in ds.samples.iter().take(8).enumerate() {
            buffer.record(
                s.input(),
                DesignPoint {
                    pe_idx: i % 4,
                    buf_idx: i % 3,
                },
            );
        }
        // frozen → refused even with a filled buffer
        registry.set_frozen(true);
        let err = refresh_once(&engine, &registry, &buffer, &cfg).unwrap_err();
        assert!(err.contains("frozen"), "{err}");
        assert_eq!(
            buffer.len(),
            8,
            "a refused refresh must not drain the buffer"
        );

        // unfrozen → publishes version 2 and drains the buffer
        registry.set_frozen(false);
        let outcome = refresh_once(&engine, &registry, &buffer, &cfg).unwrap();
        assert_eq!(outcome.version, 2);
        assert_eq!(registry.version(), 2);
        assert_eq!(outcome.replayed, 8);
        assert!(outcome.trained_on >= 1 && outcome.trained_on <= 8);
        assert!(outcome.disagreement_before >= 1.0 - 1e-9);
        assert!(buffer.is_empty());
        // provenance records the refresh
        let live = registry.current();
        assert_eq!(live.provenance.backend, "analytic");
        assert_eq!(live.provenance.training_samples, outcome.trained_on as u64);
    }
}
