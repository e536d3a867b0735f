//! The invariant checker: after every simulation step, the system's
//! observable behavior is compared against independently reconstructed
//! ground truth.
//!
//! The checker owns its **own** oracle substrate — a fresh
//! [`BackendEngines`] over the same task, a fresh [`Airchitect2`]
//! replica per published checkpoint version, and its own compilation of
//! the scenario's [`PipelineSet`] — deliberately separate from the
//! engines, replicas, and pipelines inside the service under test.
//! Every completed response is recomputed through the pure
//! [`recommend_batch_in`] executor on the replica version that answered
//! and must match **bit for bit** (costs compared as `f64::to_bits`).
//!
//! Invariants ([`INVARIANTS`], each with a coverage counter so the
//! corpus test can assert every one is actually exercised):
//!
//! * `bit_identity` — responses identical to a fresh Predictor +
//!   EvalEngine oracle for the version that answered (errors included:
//!   invalid queries must produce the oracle's exact error).
//! * `monotonic_version` — the observable `model_version` (stats lines,
//!   admin acks, registry reads) never moves backwards.
//! * `cache_epoch_isolation` — a canonical query re-asked across a
//!   version change must be answered by the *new* version's oracle:
//!   the epoch-tagged cache may never leak a cross-version answer.
//! * `zero_drops` — every admitted request completes exactly once, no
//!   matter how many swaps/freezes/refreshes the run interleaved.
//! * `backend_isolation` — the same canonical GEMM asked under more
//!   than one cost backend (analytic, systolic, cascade) is verified
//!   against each backend's own oracle engine; per-backend caches
//!   never cross.
//! * `deadline_honored` — a deadline error is only ever issued at or
//!   after the request's deadline on the virtual clock.
//! * `frozen_rejects_publish` — while frozen, swaps and refreshes are
//!   rejected with the frozen error (and serving continues).
//! * `flavor_scoped_identity` — under a quantized scenario the oracle
//!   replicas carry the int8 decoder flavor too, so the bit-identity
//!   check is scoped *within* the flavor: an int8 shard is held to the
//!   int8 oracle, never to the f32 one (and stats must report every
//!   shard as quantized).
//! * `trace_well_nested` — the span tree the run's trace capture
//!   recorded is structurally sound: every child span lies within its
//!   parent's `[start, end]` window, siblings under one parent never
//!   *partially* overlap (one strictly starting inside another and
//!   ending after it), and every non-root parent id resolves to a
//!   recorded span.
//! * `pipeline_identity` — requests on the default pipeline (named or
//!   implicit) are additionally recomputed through the pre-pipeline
//!   one-shot [`recommend_batch`] entry point and must still match bit
//!   for bit (the refactor's degenerate-pipeline contract); requests on
//!   a staged pipeline must beat-or-tie the one-shot answer's point
//!   re-scored under the staged backend (feasibility first, then cost —
//!   the executor's never-worse clamp). Per-pipeline `served` counters
//!   in stats snapshots are cross-checked against the checker's books.
//! * `cascade_identity` — answers served through the staged cascade
//!   backend are bit-identical to re-running the whole
//!   prefilter → escalate → calibrate cascade against the checker's own
//!   fresh per-stage oracles (its private analytic and systolic
//!   engines): the oracle recompute that `bit_identity` performs goes
//!   through the checker's own [`BackendEngines`], whose cascade is
//!   staged over its own sibling engines, so a match proves the staged
//!   construction is deterministic end to end.
//! * `shed_accounting` — under a shed admission policy
//!   (`ServeConfig::overload`), every refused request is answered
//!   inline with the shedding error and counted exactly once, and the
//!   books balance at drain: delivered recommendations = completions +
//!   sheds (with `zero_drops` closing the loop — every admitted request
//!   still completes). Stats snapshots must report the same `sheds`
//!   count and a `queue_high_water` no lower than the configured mark
//!   once anything has shed.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ai2_dse::{BackendId, DseTask, EvalEngine, PipelineSet, Scoring};
use ai2_serve::{
    recommend_batch, recommend_batch_in, AdminAck, BackendEngines, QueryKey, RecommendRequest,
    Response, ServeStats,
};
use airchitect::{Airchitect2, InferenceScratch, ModelCheckpoint};

/// Every invariant the checker tracks, by coverage-counter name.
pub const INVARIANTS: [&str; 12] = [
    "bit_identity",
    "monotonic_version",
    "cache_epoch_isolation",
    "zero_drops",
    "backend_isolation",
    "cascade_identity",
    "deadline_honored",
    "frozen_rejects_publish",
    "flavor_scoped_identity",
    "trace_well_nested",
    "pipeline_identity",
    "shed_accounting",
];

/// The canonical identity of a request with the backend stripped —
/// under this key the analytic and systolic answers to the same
/// question meet for the `backend_isolation` check.
fn canon_no_backend(req: &RecommendRequest) -> Option<QueryKey> {
    let mut r = req.clone();
    r.backend = None;
    QueryKey::of(&r)
}

/// The `pipeline_identity` recompute (see the module docs): default
/// answers must equal the pre-pipeline one-shot kernel bit for bit;
/// staged answers must beat-or-tie the one-shot pick re-scored under
/// the staged backend. Returns whether this completion exercised the
/// invariant.
fn pipeline_identity_check(
    engines: &BackendEngines,
    req: &RecommendRequest,
    resp: &Response,
    replica: &Airchitect2,
) -> Result<bool, String> {
    match req.pipeline.as_deref() {
        None | Some("default") => {
            // the degenerate-pipeline contract: selecting no pipeline
            // (or naming the built-in) is the historical one-shot path
            let mut one_shot = req.clone();
            one_shot.pipeline = None;
            let legacy = recommend_batch(replica, engines, std::slice::from_ref(&one_shot))
                .pop()
                .expect("one request, one answer");
            if &legacy != resp {
                return Err(format!(
                    "id {}: default-pipeline answer diverged from the one-shot kernel\n    \
                     got:      {resp:?}\n    expected: {legacy:?}",
                    req.id
                ));
            }
            Ok(true)
        }
        Some(_) => {
            let Response::Recommendation(rec) = resp else {
                // staged errors (unknown pipeline, model-through-staged)
                // are already pinned bit-for-bit by `bit_identity`
                return Ok(false);
            };
            let mut one_shot = req.clone();
            one_shot.pipeline = None;
            let os = recommend_batch(replica, engines, std::slice::from_ref(&one_shot))
                .pop()
                .expect("one request, one answer");
            let Response::Recommendation(os) = os else {
                return Err(format!(
                    "id {}: staged answered a query the one-shot kernel rejects: {os:?}",
                    req.id
                ));
            };
            let input = req
                .query
                .as_dse_input()
                .expect("a staged recommendation implies a valid GEMM");
            let backend: BackendId = rec.backend.parse().map_err(|e| {
                format!("id {}: unparseable backend {:?}: {e}", req.id, rec.backend)
            })?;
            let engine = engines.get(backend);
            let os_cost = engine.cost(&input, os.point, &Scoring::new(req.objective, req.budget));
            let os_feasible = engine.is_feasible_under(os.point, req.budget);
            // the executor's clamp rank: feasibility first, then cost
            let worse = (!rec.feasible && os_feasible)
                || (rec.feasible == os_feasible && rec.cost > os_cost);
            if worse {
                return Err(format!(
                    "id {}: staged answer is worse than the one-shot pick under {:?} on {}: \
                     staged (feasible={}, cost={}) vs one-shot point ({},{}) (feasible={}, \
                     cost={os_cost})",
                    req.id,
                    req.objective,
                    rec.backend,
                    rec.feasible,
                    rec.cost,
                    os.point.pe_idx,
                    os.point.buf_idx,
                    os_feasible
                ));
            }
            Ok(true)
        }
    }
}

/// Independently reconstructed ground truth plus the invariant
/// counters. See the module docs for the invariant list.
pub struct Checker {
    engines: BackendEngines,
    oracle_engine: Arc<EvalEngine>,
    /// The checker's own compilation of the scenario's pipeline
    /// registry (always carries the built-in `"default"`).
    pipelines: PipelineSet,
    /// One fresh replica per published checkpoint version.
    replicas: HashMap<u64, Airchitect2>,
    last_version: u64,
    /// Recommendations completed (the server's `served` must agree).
    pub completed_recs: u64,
    /// Every completion seen, expected errors included (the shed
    /// reconciliation counts these against deliveries).
    pub completed_total: u64,
    /// Requests refused inline by the shed policy (the server's `sheds`
    /// must agree).
    pub sheds: u64,
    /// The scenario's configured shed high-water mark (0 = the
    /// unbounded-queue policy; sheds are then a violation outright).
    shed_high_water: usize,
    /// Successful publishes seen (the server's `swaps` must agree).
    pub publishes: u64,
    /// Last answer per exact canonical key, with the version that gave
    /// it — the cross-version repeat detector.
    exact: HashMap<QueryKey, u64>,
    /// Backends seen per backend-stripped canonical key (bit 1 =
    /// analytic, bit 2 = systolic, bit 4 = cascade).
    backend_pairs: HashMap<QueryKey, u8>,
    /// Whether the service under test serves the int8 decoder flavor on
    /// every shard; oracle replicas mirror the same flavor so
    /// bit-identity stays scoped per flavor.
    quantized: bool,
    /// Recommendations completed per normalized pipeline name (the
    /// server's per-pipeline `served` rows must agree).
    served_by_pipeline: BTreeMap<String, u64>,
    coverage: BTreeMap<&'static str, u64>,
}

impl Checker {
    /// A checker with its own oracle engines over `task`, primed with
    /// the version-0 checkpoint the service started from. With
    /// `quantized`, every oracle replica serves the int8 decoder flavor
    /// (adopting a published blob when the checkpoint carries one,
    /// quantizing deterministically otherwise) — exactly what each
    /// shard of an all-quantized service does. `pipelines` must be
    /// compiled from the same configs as the service's registry (the
    /// harness builds both from one recipe).
    pub fn new(
        task: DseTask,
        initial: &ModelCheckpoint,
        quantized: bool,
        pipelines: PipelineSet,
        shed_high_water: usize,
    ) -> Checker {
        let oracle_engine = EvalEngine::shared(task);
        let mut checker = Checker {
            engines: BackendEngines::new(Arc::clone(&oracle_engine)),
            oracle_engine,
            pipelines,
            replicas: HashMap::new(),
            last_version: initial.version,
            completed_recs: 0,
            completed_total: 0,
            sheds: 0,
            shed_high_water,
            publishes: 0,
            exact: HashMap::new(),
            backend_pairs: HashMap::new(),
            quantized,
            served_by_pipeline: BTreeMap::new(),
            coverage: INVARIANTS.iter().map(|&name| (name, 0)).collect(),
        };
        checker.register_replica(initial.version, initial);
        checker
    }

    fn bump(&mut self, invariant: &'static str) {
        *self
            .coverage
            .get_mut(invariant)
            .expect("unknown invariant name") += 1;
    }

    /// Coverage counters in deterministic (alphabetical) order.
    pub fn coverage(&self) -> Vec<(String, u64)> {
        self.coverage
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Builds the fresh oracle replica for a published version,
    /// mirroring the per-shard flavor policy of the service under test.
    fn register_replica(&mut self, version: u64, ckpt: &ModelCheckpoint) {
        let mut replica = Airchitect2::from_checkpoint(Arc::clone(&self.oracle_engine), ckpt)
            .expect("published checkpoints restore by construction");
        if self.quantized {
            if !replica.quantized_decoder() {
                replica.quantize_decoder();
            }
        } else {
            replica.clear_quantized_decoder();
        }
        self.replicas.insert(version, replica);
    }

    /// Checks an observed `model_version` against monotonicity.
    ///
    /// # Errors
    ///
    /// Returns the violation when the version moved backwards.
    pub fn observe_version(&mut self, version: u64) -> Result<(), String> {
        if version < self.last_version {
            return Err(format!(
                "model_version moved backwards: {} after {}",
                version, self.last_version
            ));
        }
        self.last_version = version;
        self.bump("monotonic_version");
        Ok(())
    }

    /// Records a successful publish (admin swap ack or refresh outcome)
    /// of `ckpt` at `version` and builds its oracle replica.
    ///
    /// # Errors
    ///
    /// Returns the violation when the published version does not
    /// strictly advance the last observed one.
    pub fn note_publish(&mut self, version: u64, ckpt: &ModelCheckpoint) -> Result<(), String> {
        if version <= self.last_version {
            return Err(format!(
                "publish acknowledged v{version} but v{} was already live",
                self.last_version
            ));
        }
        self.observe_version(version)?;
        self.publishes += 1;
        self.register_replica(version, ckpt);
        Ok(())
    }

    /// Records a rejected publish while frozen (the expected outcome).
    pub fn note_frozen_rejection(&mut self) {
        self.bump("frozen_rejects_publish");
    }

    /// Records one inline shed answer and checks it was legal.
    ///
    /// # Errors
    ///
    /// Returns the violation when the scenario configured no shed
    /// policy, or the error did not echo the request's id.
    pub fn note_shed(&mut self, req_id: u64, echoed_id: u64, message: &str) -> Result<(), String> {
        if self.shed_high_water == 0 {
            return Err(format!(
                "id {req_id} was shed ({message:?}) but the scenario configured the \
                 unbounded-queue policy"
            ));
        }
        if echoed_id != req_id {
            return Err(format!(
                "shed error echoed id {echoed_id}, expected {req_id}"
            ));
        }
        self.sheds += 1;
        self.bump("shed_accounting");
        Ok(())
    }

    /// The end-of-run shed reconciliation: every delivered
    /// recommendation is either a completion or a counted shed.
    ///
    /// # Errors
    ///
    /// Returns the violation when the books do not balance.
    pub fn check_shed_accounting(&mut self, delivered_recommends: u64) -> Result<(), String> {
        if self.completed_total + self.sheds != delivered_recommends {
            return Err(format!(
                "shed books do not balance: {} completions + {} sheds != {} delivered \
                 recommendations",
                self.completed_total, self.sheds, delivered_recommends
            ));
        }
        Ok(())
    }

    /// Checks one completed answer — a shard completion or a cache hit
    /// answered at admission — against the oracle for `live_version`
    /// (the version the answering replica was restored from). Returns a
    /// one-line transcript summary.
    ///
    /// # Errors
    ///
    /// Returns the invariant violation.
    pub fn check_completion(
        &mut self,
        req: &RecommendRequest,
        deadline_ns: Option<u64>,
        resp: &Response,
        live_version: u64,
        now_ns: u64,
    ) -> Result<String, String> {
        self.completed_total += 1;
        self.observe_version(live_version)?;
        // deadline expiry happens in the shard, above the recommend
        // kernel — checked against the virtual clock instead
        if let Response::Error { id, message } = resp {
            if message.contains("deadline") {
                if *id != req.id {
                    return Err(format!(
                        "deadline error echoed id {id}, expected {}",
                        req.id
                    ));
                }
                let deadline = deadline_ns.ok_or_else(|| {
                    format!(
                        "id {}: deadline error on a request without a deadline",
                        req.id
                    )
                })?;
                if now_ns < deadline {
                    return Err(format!(
                        "id {}: deadline error at t={now_ns}ns, {}ns before the deadline",
                        req.id,
                        deadline - now_ns
                    ));
                }
                self.bump("deadline_honored");
                return Ok(format!("id={} deadline-expired ok", req.id));
            }
        }
        let replica = self.replicas.get(&live_version).ok_or_else(|| {
            format!("no oracle replica registered for live version {live_version}")
        })?;
        let mut scratch = InferenceScratch::new();
        let expected = recommend_batch_in(
            replica,
            &self.engines,
            &self.pipelines,
            std::slice::from_ref(req),
            &mut scratch,
        )
        .pop()
        .expect("one request, one answer");
        if &expected != resp {
            return Err(format!(
                "id {}: answer diverged from the fresh v{live_version} oracle\n    got:      \
                 {resp:?}\n    expected: {expected:?}",
                req.id
            ));
        }
        let pipeline_covered = pipeline_identity_check(&self.engines, req, resp, replica)?;
        self.bump("bit_identity");
        if self.quantized {
            // the oracle that just agreed bit-for-bit carries the int8
            // flavor: identity was established within the flavor
            self.bump("flavor_scoped_identity");
        }
        if pipeline_covered {
            self.bump("pipeline_identity");
        }
        let Response::Recommendation(rec) = resp else {
            // the oracle agreed this query is an error (zero-dim GEMM,
            // unknown model/backend/pipeline) — bit-identity covered it
            return Ok(format!("id={} expected-error ok", req.id));
        };
        self.completed_recs += 1;
        if rec.backend == "cascade" {
            // the oracle recompute above went through the checker's own
            // staged cascade — a fresh prefilter + escalation over its
            // private analytic and systolic engines — so the bit match
            // just established is the cascade-identity contract
            self.bump("cascade_identity");
        }
        let pipeline_name = req.pipeline.as_deref().unwrap_or(PipelineSet::DEFAULT);
        *self
            .served_by_pipeline
            .entry(pipeline_name.to_string())
            .or_insert(0) += 1;
        let mut notes = String::new();
        if let Some(key) = QueryKey::of(req) {
            if let Some(prev_version) = self.exact.insert(key, live_version) {
                if prev_version != live_version {
                    // a canonical repeat across a swap: the oracle match
                    // above proves the epoch-tagged cache did not leak
                    // the old version's answer
                    self.bump("cache_epoch_isolation");
                    notes.push_str(" cross-version-repeat");
                }
            }
        }
        if let Some(canon) = canon_no_backend(req) {
            let mask = self.backend_pairs.entry(canon).or_insert(0);
            let bit = match rec.backend.as_str() {
                "systolic" => 2u8,
                "cascade" => 4u8,
                _ => 1u8,
            };
            if *mask & bit == 0 {
                *mask |= bit;
                let distinct = mask.count_ones();
                if distinct >= 2 {
                    // another backend answered the same canonical GEMM,
                    // each verified against its own oracle engine
                    self.bump("backend_isolation");
                    notes.push_str(if distinct == 3 {
                        " all-backends"
                    } else {
                        " both-backends"
                    });
                }
            }
        }
        Ok(format!(
            "id={} rec point=({},{}) cost={:016x} v={} {}{}",
            req.id,
            rec.point.pe_idx,
            rec.point.buf_idx,
            rec.cost.to_bits(),
            live_version,
            rec.backend,
            notes
        ))
    }

    /// Cross-checks a wire `stats` snapshot against the checker's own
    /// books. Returns a transcript summary.
    ///
    /// # Errors
    ///
    /// Returns the first counter that disagrees.
    pub fn check_stats(&mut self, s: &ServeStats, expected_frozen: bool) -> Result<String, String> {
        self.observe_version(s.model_version)?;
        if s.served != self.completed_recs {
            return Err(format!(
                "stats served={} but the checker saw {} completed recommendations",
                s.served, self.completed_recs
            ));
        }
        if s.swaps != self.publishes {
            return Err(format!(
                "stats swaps={} but the checker saw {} publishes",
                s.swaps, self.publishes
            ));
        }
        if s.sheds != self.sheds {
            return Err(format!(
                "stats sheds={} but the checker saw {} inline sheds",
                s.sheds, self.sheds
            ));
        }
        if self.sheds > 0 && (s.queue_high_water as usize) < self.shed_high_water {
            return Err(format!(
                "stats queue_high_water={} below the configured shed mark {} despite {} sheds",
                s.queue_high_water, self.shed_high_water, self.sheds
            ));
        }
        for row in &s.pipelines {
            let expected = self.served_by_pipeline.get(&row.name).copied().unwrap_or(0);
            if row.served != expected {
                return Err(format!(
                    "stats pipeline {:?} served={} but the checker saw {expected}",
                    row.name, row.served
                ));
            }
        }
        let reported: u64 = s.pipelines.iter().map(|row| row.served).sum();
        if reported != self.completed_recs {
            return Err(format!(
                "per-pipeline served rows sum to {reported} but {} recommendations completed",
                self.completed_recs
            ));
        }
        if s.frozen != expected_frozen {
            return Err(format!(
                "stats frozen={} but the last acknowledged freeze state was {}",
                s.frozen, expected_frozen
            ));
        }
        let expected_quantized = if self.quantized { s.shards } else { 0 };
        if s.quantized_shards != expected_quantized {
            return Err(format!(
                "stats quantized_shards={} but the scenario configured {}",
                s.quantized_shards, expected_quantized
            ));
        }
        if s.kernel != ai2_tensor::kernel::active().name() {
            return Err(format!(
                "stats kernel={:?} but this process dispatches {:?}",
                s.kernel,
                ai2_tensor::kernel::active().name()
            ));
        }
        Ok(format!(
            "stats ok served={} cache_hits={} swaps={} v={} frozen={} kernel={} q={}",
            s.served,
            s.cache_hits,
            s.swaps,
            s.model_version,
            s.frozen,
            s.kernel,
            s.quantized_shards
        ))
    }

    /// Checks a freeze acknowledgement (version must not move).
    ///
    /// # Errors
    ///
    /// Returns the violation.
    pub fn check_freeze_ack(&mut self, ack: &AdminAck, requested: bool) -> Result<String, String> {
        if ack.op != "freeze" || ack.frozen != requested {
            return Err(format!(
                "unexpected freeze ack {ack:?} (requested {requested})"
            ));
        }
        self.observe_version(ack.model_version)?;
        Ok(format!(
            "freeze ack frozen={} v={}",
            ack.frozen, ack.model_version
        ))
    }

    /// Checks the structural soundness of the run's trace capture:
    /// every parent id resolves, children lie within their parent's
    /// time window, and siblings under one parent never partially
    /// overlap (request roots from different requests may — they run
    /// concurrently by design). Returns a transcript summary.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation.
    pub fn check_trace(&mut self, records: &[ai2_obs::SpanRecord]) -> Result<String, String> {
        let mut by_id: HashMap<u64, &ai2_obs::SpanRecord> = HashMap::new();
        for r in records {
            if r.end_ns < r.start_ns {
                return Err(format!("span {} ({}) ends before it starts", r.id, r.name));
            }
            if by_id.insert(r.id, r).is_some() {
                return Err(format!("duplicate span id {}", r.id));
            }
        }
        let mut children: HashMap<u64, Vec<&ai2_obs::SpanRecord>> = HashMap::new();
        for r in records {
            if r.parent == ai2_obs::NO_PARENT {
                continue;
            }
            let parent = by_id.get(&r.parent).ok_or_else(|| {
                format!(
                    "span {} ({}) has dangling parent {}",
                    r.id, r.name, r.parent
                )
            })?;
            if parent.instant {
                return Err(format!(
                    "span {} ({}) is parented to instant {} ({})",
                    r.id, r.name, parent.id, parent.name
                ));
            }
            if r.start_ns < parent.start_ns || r.end_ns > parent.end_ns {
                return Err(format!(
                    "span {} ({}) [{}, {}] escapes parent {} ({}) [{}, {}]",
                    r.id,
                    r.name,
                    r.start_ns,
                    r.end_ns,
                    parent.id,
                    parent.name,
                    parent.start_ns,
                    parent.end_ns
                ));
            }
            if !r.instant {
                children.entry(r.parent).or_default().push(r);
            }
        }
        for siblings in children.values() {
            for (i, a) in siblings.iter().enumerate() {
                for b in &siblings[i + 1..] {
                    let (first, second) = if a.start_ns <= b.start_ns {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    // strict partial overlap: the later sibling starts
                    // inside the earlier one and outlives it
                    if second.start_ns > first.start_ns
                        && second.start_ns < first.end_ns
                        && second.end_ns > first.end_ns
                    {
                        return Err(format!(
                            "siblings {} ({}) and {} ({}) partially overlap",
                            first.id, first.name, second.id, second.name
                        ));
                    }
                }
            }
        }
        self.bump("trace_well_nested");
        Ok(format!(
            "trace ok {} spans ({} roots)",
            records.len(),
            records
                .iter()
                .filter(|r| r.parent == ai2_obs::NO_PARENT)
                .count()
        ))
    }

    /// Declares the end-of-run drain complete with `outstanding`
    /// requests unanswered (must be zero).
    ///
    /// # Errors
    ///
    /// Returns the dropped-request violation.
    pub fn check_zero_drops(&mut self, outstanding: &[u64]) -> Result<(), String> {
        if !outstanding.is_empty() {
            return Err(format!(
                "{} requests were dropped (never answered): ids {:?}",
                outstanding.len(),
                outstanding
            ));
        }
        self.bump("zero_drops");
        Ok(())
    }
}
