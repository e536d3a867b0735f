//! The live-model registry: one atomically swappable checkpoint slot
//! that worker shards, admin handlers, and the background refresh
//! worker all coordinate through.
//!
//! # Swap semantics
//!
//! * [`ModelRegistry::publish`] installs a new checkpoint and bumps the
//!   **epoch** (a monotonically increasing swap counter). Publishing is
//!   atomic: a reader sees either the old replica or the new one,
//!   never a mix.
//! * Worker shards compare the epoch at every micro-batch boundary and
//!   rebuild their replica from [`ModelRegistry::current`] when it
//!   moved. A swap therefore never interrupts an in-flight batch — zero
//!   requests are dropped — and every post-swap batch is answered by a
//!   model freshly restored from the published checkpoint, which is
//!   bit-identical to any other replica restored from the same file.
//! * Lineage versions are **monotonic**: a publish whose checkpoint
//!   version is not strictly greater than the live one is rejected
//!   ([`PublishError::NotNewer`]) — a stale refresh result or an
//!   operator pointing `swap` at an old file must not silently roll the
//!   fleet backward. Operators that *want* to re-publish existing
//!   weights ask for a version bump (`bump` on the wire `swap`
//!   message), which re-stamps the loaded checkpoint at
//!   `current + 1`.
//! * [`ModelRegistry::set_frozen`] gates all publishes
//!   ([`PublishError::Frozen`]): an incident freeze stops both admin
//!   swaps and the background refresh loop without stopping serving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use airchitect::ModelCheckpoint;

/// Why a publish was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The registry is frozen; no publishes until unfrozen.
    Frozen,
    /// The candidate's lineage version does not advance the live one.
    NotNewer {
        /// Version of the rejected candidate.
        published: u64,
        /// Version currently live.
        current: u64,
    },
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::Frozen => {
                write!(f, "registry is frozen; unfreeze before publishing")
            }
            PublishError::NotNewer { published, current } => write!(
                f,
                "checkpoint version {published} does not advance the live version {current} \
                 (use bump to re-publish existing weights)"
            ),
        }
    }
}

impl std::error::Error for PublishError {}

/// The swappable slot holding the live checkpoint.
#[derive(Debug)]
pub struct ModelRegistry {
    /// The live checkpoint. `Arc` so readers snapshot it without
    /// copying parameter tensors; `Mutex` only guards the pointer swap
    /// (reads clone the `Arc` and drop the lock immediately).
    slot: Mutex<Arc<ModelCheckpoint>>,
    /// Bumped on every successful publish. Shards poll this (one
    /// relaxed atomic load per micro-batch) instead of taking the slot
    /// lock.
    epoch: AtomicU64,
    /// Live lineage version, mirrored out of the slot so `stats` reads
    /// never contend with a publish.
    version: AtomicU64,
    frozen: AtomicBool,
    swaps: AtomicU64,
}

impl ModelRegistry {
    /// A registry serving `initial` (epoch 0, no swaps yet).
    pub fn new(initial: ModelCheckpoint) -> ModelRegistry {
        let version = initial.version;
        ModelRegistry {
            slot: Mutex::new(Arc::new(initial)),
            epoch: AtomicU64::new(0),
            version: AtomicU64::new(version),
            frozen: AtomicBool::new(false),
            swaps: AtomicU64::new(0),
        }
    }

    /// Snapshot of the live checkpoint (cheap: clones the `Arc`).
    pub fn current(&self) -> Arc<ModelCheckpoint> {
        Arc::clone(&crate::lock(&self.slot))
    }

    /// The swap counter — changes exactly when the live replica does.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Lineage version of the live checkpoint.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Successful publishes so far.
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }

    /// Whether publishes are currently gated off.
    pub fn frozen(&self) -> bool {
        self.frozen.load(Ordering::Acquire)
    }

    /// Freezes (or unfreezes) publishing. Serving is unaffected.
    pub fn set_frozen(&self, frozen: bool) {
        self.frozen.store(frozen, Ordering::Release);
    }

    /// Installs `candidate` as the live checkpoint and returns its
    /// version.
    ///
    /// # Errors
    ///
    /// [`PublishError::Frozen`] while frozen;
    /// [`PublishError::NotNewer`] unless
    /// `candidate.version > self.version()`.
    pub fn publish(&self, candidate: ModelCheckpoint) -> Result<u64, PublishError> {
        self.publish_impl(candidate, false)
    }

    /// Installs `candidate` re-stamped at `live_version + 1`,
    /// regardless of the version it carries — the operator path for
    /// re-publishing existing weights. The re-stamp happens **under
    /// the slot lock**, so it cannot lose a version race against a
    /// concurrent publish (e.g. the background refresh worker): the
    /// bump always lands on whatever version is live at install time.
    ///
    /// # Errors
    ///
    /// [`PublishError::Frozen`] while frozen.
    pub fn publish_bumped(&self, candidate: ModelCheckpoint) -> Result<u64, PublishError> {
        self.publish_impl(candidate, true)
    }

    fn publish_impl(
        &self,
        mut candidate: ModelCheckpoint,
        bump: bool,
    ) -> Result<u64, PublishError> {
        let mut slot = crate::lock(&self.slot);
        // freeze is checked under the slot lock so a freeze cannot race
        // a publish into the gap between check and install
        if self.frozen.load(Ordering::Acquire) {
            return Err(PublishError::Frozen);
        }
        let current = slot.version;
        if bump {
            candidate.version = current + 1;
        } else if candidate.version <= current {
            return Err(PublishError::NotNewer {
                published: candidate.version,
                current,
            });
        }
        let version = candidate.version;
        *slot = Arc::new(candidate);
        self.version.store(version, Ordering::Release);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        // epoch bumps LAST (Release): a shard that observes the new
        // epoch is guaranteed to read the new slot and version
        self.epoch.fetch_add(1, Ordering::Release);
        Ok(version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_dse::{DseDataset, DseTask, EvalEngine, GenerateConfig};
    use airchitect::train::TrainConfig;
    use airchitect::{Airchitect2, ModelConfig};

    fn tiny_checkpoint(version: u64) -> ModelCheckpoint {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 24,
                seed: 3,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let engine = EvalEngine::shared(task);
        let mut model =
            Airchitect2::with_engine(&ModelConfig::tiny(), std::sync::Arc::clone(&engine), &ds);
        model.fit(&ds, &TrainConfig::quick());
        model.checkpoint().with_version(version)
    }

    #[test]
    fn publish_is_monotonic_and_bumps_epoch() {
        let ck = tiny_checkpoint(1);
        let registry = ModelRegistry::new(ck.clone());
        assert_eq!((registry.version(), registry.epoch()), (1, 0));

        // same version → rejected
        let err = registry.publish(ck.clone()).unwrap_err();
        assert_eq!(
            err,
            PublishError::NotNewer {
                published: 1,
                current: 1
            }
        );
        assert!(err.to_string().contains("does not advance"));

        // newer → installed, epoch moves
        registry.publish(ck.clone().with_version(2)).unwrap();
        assert_eq!((registry.version(), registry.epoch()), (2, 1));
        assert_eq!(registry.current().version, 2);
        assert_eq!(registry.swaps(), 1);

        // older again → rejected, nothing moved
        assert!(registry.publish(ck.with_version(2)).is_err());
        assert_eq!((registry.version(), registry.epoch()), (2, 1));
    }

    #[test]
    fn bumped_publish_lands_on_the_live_version_even_after_a_race() {
        let ck = tiny_checkpoint(1);
        let registry = ModelRegistry::new(ck.clone());
        // a competing publisher advanced the version after the caller
        // last looked — the bump must land on the *current* live
        // version, not spuriously fail
        registry.publish(ck.clone().with_version(5)).unwrap();
        let v = registry.publish_bumped(ck.clone().with_version(1)).unwrap();
        assert_eq!(v, 6, "bump stamps live+1 under the lock");
        assert_eq!(registry.current().version, 6);
        // frozen still gates bumped publishes
        registry.set_frozen(true);
        assert_eq!(
            registry.publish_bumped(ck).unwrap_err(),
            PublishError::Frozen
        );
    }

    #[test]
    fn freeze_gates_publishes_without_touching_reads() {
        let ck = tiny_checkpoint(1);
        let registry = ModelRegistry::new(ck.clone());
        registry.set_frozen(true);
        assert!(registry.frozen());
        assert_eq!(
            registry.publish(ck.clone().with_version(2)).unwrap_err(),
            PublishError::Frozen
        );
        // reads still answer while frozen
        assert_eq!(registry.current().version, 1);
        registry.set_frozen(false);
        registry.publish(ck.with_version(2)).unwrap();
        assert_eq!(registry.version(), 2);
    }

    /// Naive single-lock reference registry: one struct, one implicit
    /// lock (exclusive `&mut` access), no atomics — trivially correct
    /// by inspection (mirrors the `LruCache` reference-model test).
    struct NaiveRegistry {
        version: u64,
        epoch: u64,
        swaps: u64,
        frozen: bool,
    }

    impl NaiveRegistry {
        fn publish(&mut self, candidate_version: u64, bump: bool) -> Result<u64, PublishError> {
            if self.frozen {
                return Err(PublishError::Frozen);
            }
            let version = if bump {
                self.version + 1
            } else if candidate_version <= self.version {
                return Err(PublishError::NotNewer {
                    published: candidate_version,
                    current: self.version,
                });
            } else {
                candidate_version
            };
            self.version = version;
            self.swaps += 1;
            self.epoch += 1;
            Ok(version)
        }
    }

    /// Tiny standalone LCG so this test needs no RNG dependency.
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
    fn randomized_publish_bump_freeze_ops_match_the_reference_registry() {
        // every seed replays 600 mixed publish/bump/freeze/read ops on
        // both implementations; results, versions, epochs, swap counts
        // and the live checkpoint's stamped version must agree at every
        // step
        let base = tiny_checkpoint(0);
        for seed in [1u64, 2, 3, 4, 5] {
            let registry = ModelRegistry::new(base.clone().with_version(1));
            let mut reference = NaiveRegistry {
                version: 1,
                epoch: 0,
                swaps: 0,
                frozen: false,
            };
            let mut g = Lcg(seed);
            for step in 0..600 {
                match g.next() % 5 {
                    // plain publish at a random version near the live one
                    // (below, equal, and above all occur)
                    0 | 1 => {
                        let v = reference.version.saturating_sub(2) + g.next() % 5;
                        let got = registry.publish(base.clone().with_version(v));
                        let want = reference.publish(v, false);
                        assert_eq!(got, want, "seed {seed} step {step}: publish({v})");
                    }
                    // bumped publish (version on the candidate is noise)
                    2 => {
                        let v = g.next() % 4;
                        let got = registry.publish_bumped(base.clone().with_version(v));
                        let want = reference.publish(v, true);
                        assert_eq!(got, want, "seed {seed} step {step}: bump({v})");
                    }
                    // freeze / unfreeze
                    3 => {
                        let frozen = g.next().is_multiple_of(2);
                        registry.set_frozen(frozen);
                        reference.frozen = frozen;
                    }
                    // pure reads must never disturb state
                    _ => {}
                }
                assert_eq!(
                    registry.version(),
                    reference.version,
                    "seed {seed} step {step}"
                );
                assert_eq!(registry.epoch(), reference.epoch, "seed {seed} step {step}");
                assert_eq!(registry.swaps(), reference.swaps, "seed {seed} step {step}");
                assert_eq!(
                    registry.frozen(),
                    reference.frozen,
                    "seed {seed} step {step}"
                );
                assert_eq!(
                    registry.current().version,
                    reference.version,
                    "seed {seed} step {step}: live checkpoint stamp diverged"
                );
            }
        }
    }

    #[test]
    fn concurrent_readers_always_see_a_consistent_checkpoint() {
        let registry = std::sync::Arc::new(ModelRegistry::new(tiny_checkpoint(1)));
        let publisher = {
            let registry = std::sync::Arc::clone(&registry);
            let base = tiny_checkpoint(0);
            std::thread::spawn(move || {
                for v in 2..10u64 {
                    registry.publish(base.clone().with_version(v)).unwrap();
                }
            })
        };
        // readers racing the publisher: every snapshot is a whole
        // checkpoint whose stamped version matches its contents
        for _ in 0..200 {
            let snap = registry.current();
            assert!(snap.version >= 1 && snap.version < 10);
            assert!(!snap.params.params.is_empty());
        }
        publisher.join().unwrap();
        assert_eq!(registry.version(), 9);
        assert_eq!(registry.epoch(), 8);
    }
}
