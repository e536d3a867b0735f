//! The AIrchitect v2 encoder–decoder transformer.

use std::sync::Arc;

use ai2_dse::{DesignPoint, DseDataset, DseTask, EvalEngine};
use ai2_nn::layers::{LayerNorm, Linear, TransformerBlock};
use ai2_nn::quant::{QuantError, QuantSource, QuantizedBlock, QuantizedLinear};
use ai2_nn::{Arena, Graph, ParamId, ParamStore, VarId};
use ai2_tensor::Tensor;
use ai2_uov::ConfigCodec;
use ai2_workloads::generator::DseInput;

use crate::config::{HeadKind, ModelConfig};
use crate::features::{FeatureEncoder, PreparedDataset, NUM_FEATURES};
use crate::predictor::Predictor;
use crate::quant::{QuantBlob, QuantTensor};
use crate::train::{Stage1Trainer, Stage2Trainer, TrainConfig, TrainReport};

/// Number of UOV buckets used for the stage-1 contrastive class labels
/// (independent of the head codec, fixed at the paper's K = 16).
pub(crate) const CONTRASTIVE_BUCKETS: usize = 16;

/// Rows per inference graph — bounds tape size (and therefore arena
/// footprint) for very large batches.
const INFER_CHUNK: usize = 512;

/// Reusable inference workspace: an activation [`Arena`] plus the output
/// tensors of the encoder and the two decoder heads.
///
/// One scratch serves one thread. After a warm-up pass per batch shape,
/// [`Airchitect2::predict_with`] / [`Airchitect2::forward_into`] perform
/// **zero heap allocations** in the forward pass — the serving hot path
/// reuses every buffer across batches.
#[derive(Default)]
pub struct InferenceScratch {
    arena: Arena,
    emb: Tensor,
    pe_out: Tensor,
    buf_out: Tensor,
}

impl InferenceScratch {
    /// An empty workspace; buffers grow on the first pass.
    pub fn new() -> InferenceScratch {
        InferenceScratch::default()
    }

    /// Number of pooled activation buffers currently idle (diagnostics).
    pub fn pooled(&self) -> usize {
        self.arena.pooled()
    }
}

/// Int8 views of every decoder matmul weight — the runtime form of the
/// quantized checkpoint flavor (see [`crate::quant`]).
pub struct QuantizedDecoder {
    dec_in: QuantizedLinear,
    blocks: Vec<QuantizedBlock>,
    head_pe: QuantizedLinear,
    head_buf: QuantizedLinear,
}

/// The AIrchitect v2 model: a contrastively trained encoder producing the
/// intermediate representation, and a decoder with two output heads
/// (`#PEs`, buffer size) predicting Unified Ordinal Vectors.
pub struct Airchitect2 {
    cfg: ModelConfig,
    store: ParamStore,
    // encoder (stage 1)
    embed: Linear,
    pos_enc: ParamId,
    enc_blocks: Vec<TransformerBlock>,
    enc_ln: LayerNorm,
    enc_proj: Linear,
    perf_head: Linear,
    encoder_param_count: usize,
    // decoder (stage 2)
    dec_in: Linear,
    pos_dec: ParamId,
    dec_blocks: Vec<TransformerBlock>,
    dec_ln: LayerNorm,
    head_pe: Linear,
    head_buf: Linear,
    /// When set, decoder inference runs through int8 weights (the
    /// quantized checkpoint flavor).
    quant_dec: Option<QuantizedDecoder>,
    // problem binding
    pe_codec: Box<dyn ConfigCodec>,
    buf_codec: Box<dyn ConfigCodec>,
    features: FeatureEncoder,
    engine: Arc<EvalEngine>,
}

impl Airchitect2 {
    /// Builds a model bound to `task`, fitting feature statistics on
    /// `train`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or `train` is empty.
    pub fn new(cfg: &ModelConfig, task: &DseTask, train: &DseDataset) -> Airchitect2 {
        Self::with_engine(cfg, EvalEngine::shared(task.clone()), train)
    }

    /// Builds a model sharing a caller-provided [`EvalEngine`], so its
    /// metric and deployment queries land in (and reuse) the same oracle
    /// cache as every other subsystem.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or `train` is empty.
    pub fn with_engine(
        cfg: &ModelConfig,
        engine: Arc<EvalEngine>,
        train: &DseDataset,
    ) -> Airchitect2 {
        Self::with_features(cfg, engine, FeatureEncoder::fit(train))
    }

    /// Builds a model from pre-fitted feature statistics instead of a
    /// training dataset — the serving-side constructor: a restored
    /// checkpoint must reuse the statistics fitted on the *original*
    /// training split, not refit them.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn with_features(
        cfg: &ModelConfig,
        engine: Arc<EvalEngine>,
        features: FeatureEncoder,
    ) -> Airchitect2 {
        cfg.validate();
        let task = engine.task();
        let mut store = ParamStore::new(cfg.seed);
        let td = cfg.tokens * cfg.d_model;

        let embed = Linear::new(&mut store, "enc.embed", NUM_FEATURES, td, true);
        let pos_enc = store.add_zeros("enc.pos", &[td]);
        let enc_blocks = (0..cfg.layers)
            .map(|i| {
                TransformerBlock::new(&mut store, &format!("enc.blk{i}"), cfg.d_model, cfg.heads)
            })
            .collect();
        let enc_ln = LayerNorm::new(&mut store, "enc.ln", cfg.d_model);
        let enc_proj = Linear::new(&mut store, "enc.proj", cfg.d_model, cfg.d_emb, true);
        let perf_head = Linear::new(&mut store, "enc.perf", cfg.d_emb, 1, true);
        let encoder_param_count = store.len();

        let dec_in = Linear::new(&mut store, "dec.in", cfg.d_emb, td, true);
        let pos_dec = store.add_zeros("dec.pos", &[td]);
        let dec_blocks = (0..cfg.layers)
            .map(|i| {
                TransformerBlock::new(&mut store, &format!("dec.blk{i}"), cfg.d_model, cfg.heads)
            })
            .collect();
        let dec_ln = LayerNorm::new(&mut store, "dec.ln", cfg.d_model);
        let pe_codec = cfg.head.codec(task.space().num_pe_choices());
        let buf_codec = cfg.head.codec(task.space().num_buf_choices());
        let head_pe = Linear::new(
            &mut store,
            "dec.head_pe",
            cfg.d_model,
            pe_codec.width(),
            true,
        );
        let head_buf = Linear::new(
            &mut store,
            "dec.head_buf",
            cfg.d_model,
            buf_codec.width(),
            true,
        );

        Airchitect2 {
            cfg: *cfg,
            store,
            embed,
            pos_enc,
            enc_blocks,
            enc_ln,
            enc_proj,
            perf_head,
            encoder_param_count,
            dec_in,
            pos_dec,
            dec_blocks,
            dec_ln,
            head_pe,
            head_buf,
            quant_dec: None,
            pe_codec,
            buf_codec,
            features,
            engine,
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The bound DSE task.
    pub fn task(&self) -> &DseTask {
        self.engine.task()
    }

    /// The shared evaluation substrate the model is bound to.
    pub fn engine(&self) -> &Arc<EvalEngine> {
        &self.engine
    }

    /// The fitted feature encoder.
    pub fn feature_encoder(&self) -> &FeatureEncoder {
        &self.features
    }

    /// The PE head's codec.
    pub fn pe_codec(&self) -> &dyn ConfigCodec {
        self.pe_codec.as_ref()
    }

    /// The buffer head's codec.
    pub fn buf_codec(&self) -> &dyn ConfigCodec {
        self.buf_codec.as_ref()
    }

    /// The parameter store (shared by both stages).
    pub fn store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store, exposed for custom training loops (the
    /// built-in trainers and the step-level benchmarks use it).
    pub fn store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Total scalar parameters — the "model size" axis of Figs. 8b / 9.
    pub fn model_size(&self) -> usize {
        self.store.num_scalars()
    }

    /// Parameters of the encoder side (frozen during stage 2).
    pub fn encoder_params(&self) -> Vec<ParamId> {
        self.store
            .iter()
            .map(|(id, _, _)| id)
            .take(self.encoder_param_count)
            .collect()
    }

    /// Parameters of the decoder side.
    pub fn decoder_params(&self) -> Vec<ParamId> {
        self.store
            .iter()
            .map(|(id, _, _)| id)
            .skip(self.encoder_param_count)
            .collect()
    }

    /// Renders a dataset into training tensors for this model's codecs.
    pub fn prepare(&self, ds: &DseDataset) -> PreparedDataset {
        PreparedDataset::build(
            ds,
            self.engine.task(),
            &self.features,
            self.pe_codec.as_ref(),
            self.buf_codec.as_ref(),
            CONTRASTIVE_BUCKETS,
        )
    }

    // ---- graph builders ---------------------------------------------------

    /// Records the encoder on `g`: features `[B, F]` → embedding
    /// `[B, d_emb]`.
    pub fn forward_encoder(&self, g: &mut Graph<'_>, x: VarId) -> VarId {
        let b = g.value(x).rows();
        let h = self.embed.forward(g, x);
        let pos = g.param(self.pos_enc);
        let h = g.add_row(h, pos);
        let mut h = g.reshape(h, &[b * self.cfg.tokens, self.cfg.d_model]);
        for blk in &self.enc_blocks {
            h = blk.forward(g, h, b, self.cfg.tokens);
        }
        let h = self.enc_ln.forward(g, h);
        let pooled = g.mean_pool_tokens(h, self.cfg.tokens);
        self.enc_proj.forward(g, pooled)
    }

    /// Records the performance-prediction head: embedding → `[B, 1]`.
    pub fn forward_perf(&self, g: &mut Graph<'_>, z: VarId) -> VarId {
        self.perf_head.forward(g, z)
    }

    /// Records the decoder: embedding `[B, d_emb]` → raw logits of the
    /// two heads (`[B, pe_width]`, `[B, buf_width]`).
    pub fn forward_decoder(&self, g: &mut Graph<'_>, z: VarId) -> (VarId, VarId) {
        let b = g.value(z).rows();
        let h = self.dec_in.forward(g, z);
        let pos = g.param(self.pos_dec);
        let h = g.add_row(h, pos);
        let mut h = g.reshape(h, &[b * self.cfg.tokens, self.cfg.d_model]);
        for blk in &self.dec_blocks {
            h = blk.forward(g, h, b, self.cfg.tokens);
        }
        let h = self.dec_ln.forward(g, h);
        let pooled = g.mean_pool_tokens(h, self.cfg.tokens);
        (
            self.head_pe.forward(g, pooled),
            self.head_buf.forward(g, pooled),
        )
    }

    /// Records the decoder with int8 matmul weights in place of the `f32`
    /// ones (inference-only; same structure as
    /// [`Airchitect2::forward_decoder`]).
    pub fn forward_decoder_quant(
        &self,
        g: &mut Graph<'_>,
        z: VarId,
        q: &QuantizedDecoder,
    ) -> (VarId, VarId) {
        let b = g.value(z).rows();
        let h = self.dec_in.forward_quant(g, z, &q.dec_in);
        let pos = g.param(self.pos_dec);
        let h = g.add_row(h, pos);
        let mut h = g.reshape(h, &[b * self.cfg.tokens, self.cfg.d_model]);
        for (blk, qb) in self.dec_blocks.iter().zip(&q.blocks) {
            h = blk.forward_quant(g, h, b, self.cfg.tokens, qb);
        }
        let h = self.dec_ln.forward(g, h);
        let pooled = g.mean_pool_tokens(h, self.cfg.tokens);
        (
            self.head_pe.forward_quant(g, pooled, &q.head_pe),
            self.head_buf.forward_quant(g, pooled, &q.head_buf),
        )
    }

    // ---- quantized decoder flavor -----------------------------------------

    fn build_quant_decoder(
        &self,
        src: &mut QuantSource<'_>,
    ) -> Result<QuantizedDecoder, QuantError> {
        Ok(QuantizedDecoder {
            dec_in: self.dec_in.quantized(&self.store, src)?,
            blocks: self
                .dec_blocks
                .iter()
                .map(|b| b.quantized(&self.store, src))
                .collect::<Result<Vec<_>, _>>()?,
            head_pe: self.head_pe.quantized(&self.store, src)?,
            head_buf: self.head_buf.quantized(&self.store, src)?,
        })
    }

    /// Switches decoder inference to freshly quantized int8 weights and
    /// returns the serializable blob (deterministic: the same `f32`
    /// weights always quantize to the same blob).
    pub fn quantize_decoder(&mut self) -> QuantBlob {
        let mut blob = QuantBlob::default();
        let qd = self
            .build_quant_decoder(&mut |name: &str, w: &Tensor| {
                let q = QuantizedLinear::from_weight(w);
                blob.tensors
                    .insert(name.to_string(), QuantTensor::from_linear(&q));
                Ok(q)
            })
            .expect("fresh quantization cannot fail");
        self.quant_dec = Some(qd);
        blob
    }

    /// Switches decoder inference to int8 weights restored from `blob` —
    /// never re-quantized, so every replica restored from one published
    /// blob answers bit-identically.
    ///
    /// # Errors
    ///
    /// Returns a [`QuantError`] if the blob is missing a decoder weight
    /// or holds one with the wrong dimensions.
    pub fn restore_quantized_decoder(&mut self, blob: &QuantBlob) -> Result<(), QuantError> {
        let qd = self.build_quant_decoder(&mut |name: &str, _w: &Tensor| {
            blob.tensors
                .get(name)
                .map(QuantTensor::to_linear)
                .ok_or_else(|| QuantError::Missing(name.to_string()))
        })?;
        self.quant_dec = Some(qd);
        Ok(())
    }

    /// Reverts decoder inference to the full-precision `f32` weights.
    pub fn clear_quantized_decoder(&mut self) {
        self.quant_dec = None;
    }

    /// Whether the decoder currently serves through int8 weights.
    pub fn quantized_decoder(&self) -> bool {
        self.quant_dec.is_some()
    }

    // ---- inference ----------------------------------------------------------

    /// Embeddings for a feature matrix `[n, F]` computed into `scratch`
    /// (chunked to bound graph size). Warm calls allocate nothing.
    pub fn embeddings_into<'a>(
        &self,
        features: &Tensor,
        scratch: &'a mut InferenceScratch,
    ) -> &'a Tensor {
        let n = features.rows();
        let de = self.cfg.d_emb;
        scratch.emb.reset_zeros(&[n, de]);
        let mut i = 0;
        while i < n {
            let j = (i + INFER_CHUNK).min(n);
            let arena = std::mem::take(&mut scratch.arena);
            let mut g = Graph::with_arena(&self.store, arena);
            let x = g.input_rows(features, i, j);
            let z = self.forward_encoder(&mut g, x);
            scratch.emb.as_mut_slice()[i * de..j * de].copy_from_slice(g.value(z).as_slice());
            scratch.arena = g.into_arena();
            i = j;
        }
        &scratch.emb
    }

    /// Decoder heads over the embeddings already sitting in
    /// `scratch.emb`; fills `scratch.pe_out` / `scratch.buf_out`.
    fn head_outputs_scratch(&self, scratch: &mut InferenceScratch) {
        let n = scratch.emb.rows();
        let (pw, bw) = (self.pe_codec.width(), self.buf_codec.width());
        scratch.pe_out.reset_zeros(&[n, pw]);
        scratch.buf_out.reset_zeros(&[n, bw]);
        let mut i = 0;
        while i < n {
            let j = (i + INFER_CHUNK).min(n);
            let arena = std::mem::take(&mut scratch.arena);
            let mut g = Graph::with_arena(&self.store, arena);
            let z = g.input_rows(&scratch.emb, i, j);
            let (pe, buf) = match &self.quant_dec {
                Some(q) => self.forward_decoder_quant(&mut g, z, q),
                None => self.forward_decoder(&mut g, z),
            };
            let pe = g.sigmoid(pe);
            let buf = g.sigmoid(buf);
            scratch.pe_out.as_mut_slice()[i * pw..j * pw].copy_from_slice(g.value(pe).as_slice());
            scratch.buf_out.as_mut_slice()[i * bw..j * bw].copy_from_slice(g.value(buf).as_slice());
            scratch.arena = g.into_arena();
            i = j;
        }
    }

    /// Predicted (sigmoided) head outputs for an embedding matrix,
    /// computed into `scratch`. Warm calls allocate nothing.
    pub fn head_outputs_into<'a>(
        &self,
        embeddings: &Tensor,
        scratch: &'a mut InferenceScratch,
    ) -> (&'a Tensor, &'a Tensor) {
        scratch.emb.reset_zeros(embeddings.shape());
        scratch
            .emb
            .as_mut_slice()
            .copy_from_slice(embeddings.as_slice());
        self.head_outputs_scratch(scratch);
        (&scratch.pe_out, &scratch.buf_out)
    }

    /// The full serving forward pass — features `[n, F]` → sigmoided
    /// head outputs — entirely inside `scratch`'s pooled buffers.
    pub fn forward_into<'a>(
        &self,
        features: &Tensor,
        scratch: &'a mut InferenceScratch,
    ) -> (&'a Tensor, &'a Tensor) {
        let mut sp = ai2_obs::local_span("core.forward", "model");
        if sp.is_recording() {
            sp.arg("rows", features.rows());
            sp.arg(
                "flavor",
                if self.quant_dec.is_some() {
                    "int8"
                } else {
                    "f32"
                },
            );
        }
        self.embeddings_into(features, scratch);
        self.head_outputs_scratch(scratch);
        (&scratch.pe_out, &scratch.buf_out)
    }

    /// Embeddings for a feature matrix `[n, F]`, chunked to bound graph
    /// size.
    pub fn embeddings(&self, features: &Tensor) -> Tensor {
        let mut scratch = InferenceScratch::new();
        self.embeddings_into(features, &mut scratch);
        scratch.emb
    }

    /// Predicted (sigmoided) head outputs for an embedding matrix.
    pub fn head_outputs(&self, embeddings: &Tensor) -> (Tensor, Tensor) {
        let mut scratch = InferenceScratch::new();
        self.head_outputs_into(embeddings, &mut scratch);
        (scratch.pe_out, scratch.buf_out)
    }

    /// One-shot prediction for a batch of DSE inputs.
    pub fn predict(&self, inputs: &[DseInput]) -> Vec<DesignPoint> {
        let mut scratch = InferenceScratch::new();
        self.predict_with(inputs, &mut scratch)
    }

    /// [`Airchitect2::predict`] over a caller-held workspace — the
    /// serving hot path. The forward pass allocates nothing once
    /// `scratch` is warm for the batch shape.
    pub fn predict_with(
        &self,
        inputs: &[DseInput],
        scratch: &mut InferenceScratch,
    ) -> Vec<DesignPoint> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let mut sp = ai2_obs::local_span("core.predict", "model");
        if sp.is_recording() {
            sp.arg("batch", inputs.len());
        }
        let f = self.features.encode_inputs(inputs);
        self.forward_into(&f, scratch);
        (0..scratch.emb.rows())
            .map(|i| DesignPoint {
                pe_idx: self.pe_codec.decode(scratch.pe_out.row(i)),
                buf_idx: self.buf_codec.decode(scratch.buf_out.row(i)),
            })
            .collect()
    }

    /// Decodes a batch of embedding rows into design points — the hook
    /// used by the latent-space BO of Fig. 8a.
    pub fn decode_embedding_batch(&self, embeddings: &Tensor) -> Vec<DesignPoint> {
        let (pe_out, buf_out) = self.head_outputs(embeddings);
        (0..embeddings.rows())
            .map(|i| DesignPoint {
                pe_idx: self.pe_codec.decode(pe_out.row(i)),
                buf_idx: self.buf_codec.decode(buf_out.row(i)),
            })
            .collect()
    }

    /// Decodes a single embedding vector.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != d_emb`.
    pub fn decode_embedding(&self, z: &[f32]) -> DesignPoint {
        assert_eq!(z.len(), self.cfg.d_emb, "decode_embedding: wrong width");
        let t = Tensor::from_vec(z.to_vec(), &[1, z.len()]).expect("sized");
        self.decode_embedding_batch(&t)[0]
    }

    /// Predicted (de-standardised) latency score for raw inputs — the
    /// stage-1 performance predictor.
    pub fn predict_perf(&self, inputs: &[DseInput]) -> Vec<f64> {
        let f = self.features.encode_inputs(inputs);
        let z = self.embeddings(&f);
        let mut g = Graph::new(&self.store);
        let zv = g.constant(z);
        let p = self.forward_perf(&mut g, zv);
        g.value(p)
            .as_slice()
            .iter()
            .map(|&v| self.features.decode_perf(v))
            .collect()
    }

    /// Trains both stages with `cfg` and returns the loss history.
    pub fn fit(&mut self, train: &DseDataset, cfg: &TrainConfig) -> TrainReport {
        let prep = self.prepare(train);
        let stage1 = Stage1Trainer::new(cfg.clone()).run(self, &prep);
        let stage2 = Stage2Trainer::new(cfg.clone()).run(self, &prep);
        TrainReport { stage1, stage2 }
    }

    /// The evaluation interface over this trained model.
    pub fn predictor(&self) -> Predictor<'_> {
        Predictor::new(self)
    }

    /// Snapshots the trained model (config + feature statistics +
    /// parameters) for later [`Airchitect2::from_checkpoint`] restores.
    pub fn checkpoint(&self) -> crate::checkpoint::ModelCheckpoint {
        crate::checkpoint::ModelCheckpoint::from_model(self)
    }

    /// Restores a model from a [`ModelCheckpoint`] — the warm-start path
    /// of the serving layer. Predictions of the restored model are
    /// bit-identical to the model that produced the checkpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the checkpoint is missing a
    /// parameter or holds one with the wrong shape.
    ///
    /// [`ModelCheckpoint`]: crate::checkpoint::ModelCheckpoint
    /// [`CheckpointError`]: ai2_nn::checkpoint::CheckpointError
    pub fn from_checkpoint(
        engine: Arc<EvalEngine>,
        ck: &crate::checkpoint::ModelCheckpoint,
    ) -> Result<Airchitect2, ai2_nn::checkpoint::CheckpointError> {
        let mut model = Self::with_features(&ck.config, engine, ck.features.clone());
        ck.params.apply_to(model.store_mut())?;
        if let Some(blob) = &ck.flavor {
            model.restore_quantized_decoder(blob).map_err(|e| match e {
                QuantError::Missing(n) => {
                    ai2_nn::checkpoint::CheckpointError::MissingParam(format!("quantized:{n}"))
                }
                QuantError::ShapeMismatch {
                    name,
                    expected,
                    found,
                } => ai2_nn::checkpoint::CheckpointError::ShapeMismatch {
                    name,
                    expected: vec![expected.0, expected.1],
                    found: vec![found.0, found.1],
                },
            })?;
        }
        Ok(model)
    }

    /// Head kind shortcut (for reporting).
    pub fn head_kind(&self) -> HeadKind {
        self.cfg.head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_dse::GenerateConfig;

    fn tiny_setup() -> (DseTask, DseDataset, Airchitect2) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 60,
                seed: 5,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let model = Airchitect2::new(&ModelConfig::tiny(), &task, &ds);
        (task, ds, model)
    }

    #[test]
    fn forward_shapes() {
        let (_, ds, model) = tiny_setup();
        let prep = model.prepare(&ds);
        let z = model.embeddings(&prep.features);
        assert_eq!(z.shape(), &[60, model.config().d_emb]);
        let (pe, buf) = model.head_outputs(&z);
        assert_eq!(pe.shape(), &[60, model.pe_codec().width()]);
        assert_eq!(buf.shape(), &[60, model.buf_codec().width()]);
        assert!(pe.all_finite() && buf.all_finite());
        // sigmoid outputs in (0,1)
        assert!(pe.max() < 1.0 && pe.min() > 0.0);
    }

    #[test]
    fn predictions_are_valid_points() {
        let (task, ds, model) = tiny_setup();
        let inputs: Vec<DseInput> = ds.samples.iter().map(|s| s.input()).collect();
        for p in model.predict(&inputs) {
            assert!(p.pe_idx < task.space().num_pe_choices());
            assert!(p.buf_idx < task.space().num_buf_choices());
        }
    }

    #[test]
    fn encoder_decoder_param_split_is_complete() {
        let (_, _, model) = tiny_setup();
        let e = model.encoder_params();
        let d = model.decoder_params();
        assert!(!e.is_empty() && !d.is_empty());
        assert_eq!(e.len() + d.len(), model.store().len());
        // no overlap
        for id in &e {
            assert!(!d.contains(id));
        }
        // heads belong to the decoder
        let names: Vec<&str> = d.iter().map(|&id| model.store().name(id)).collect();
        assert!(names.iter().any(|n| n.contains("head_pe")));
        assert!(names.iter().all(|n| n.starts_with("dec.")));
    }

    #[test]
    fn embeddings_are_deterministic() {
        let (_, ds, model) = tiny_setup();
        let prep = model.prepare(&ds);
        assert_eq!(
            model.embeddings(&prep.features),
            model.embeddings(&prep.features)
        );
    }

    #[test]
    fn decode_single_embedding_matches_batch() {
        let (_, ds, model) = tiny_setup();
        let prep = model.prepare(&ds);
        let z = model.embeddings(&prep.features);
        let batch = model.decode_embedding_batch(&z);
        let single = model.decode_embedding(z.row(4));
        assert_eq!(single, batch[4]);
    }

    #[test]
    fn model_size_counts_scalars() {
        let (_, _, model) = tiny_setup();
        assert_eq!(model.model_size(), model.store().num_scalars());
        assert!(model.model_size() > 1000);
    }

    #[test]
    fn warm_scratch_matches_fresh_prediction() {
        let (_, ds, model) = tiny_setup();
        let inputs: Vec<DseInput> = ds.samples.iter().map(|s| s.input()).collect();
        let fresh = model.predict(&inputs);
        let mut scratch = InferenceScratch::new();
        // Warm the workspace, then predict repeatedly — results must not
        // drift across reuses and must equal the fresh-workspace path.
        for _ in 0..3 {
            assert_eq!(model.predict_with(&inputs, &mut scratch), fresh);
        }
        assert!(scratch.pooled() > 0, "arena should hold recycled buffers");
        // A smaller batch through the same (oversized) scratch still
        // agrees with a fresh run.
        let small = &inputs[..7];
        assert_eq!(
            model.predict_with(small, &mut scratch),
            model.predict(small)
        );
    }

    #[test]
    fn quantized_decoder_stays_rank_consistent_and_valid() {
        let (task, ds, mut model) = tiny_setup();
        let inputs: Vec<DseInput> = ds.samples.iter().map(|s| s.input()).collect();
        let f32_points = model.predict(&inputs);
        model.quantize_decoder();
        assert!(model.quantized_decoder());
        let q_points = model.predict(&inputs);
        assert_eq!(q_points.len(), f32_points.len());
        for p in &q_points {
            assert!(p.pe_idx < task.space().num_pe_choices());
            assert!(p.buf_idx < task.space().num_buf_choices());
        }
        model.clear_quantized_decoder();
        assert_eq!(model.predict(&inputs), f32_points);
    }

    #[test]
    fn restored_blob_is_bit_identical_to_publisher() {
        let (_, ds, mut model) = tiny_setup();
        let prep = model.prepare(&ds);
        let z = model.embeddings(&prep.features);
        let blob = model.quantize_decoder();
        assert!(!blob.is_empty());
        let (pe_a, buf_a) = model.head_outputs(&z);

        // An independent model instance restored from the stored i8 data
        // (no re-quantization) must answer bit-for-bit identically.
        let mut other = Airchitect2::with_features(
            model.config(),
            std::sync::Arc::clone(model.engine()),
            model.feature_encoder().clone(),
        );
        ai2_nn::checkpoint::Checkpoint::from_store(model.store())
            .apply_to(other.store_mut())
            .unwrap();
        other.restore_quantized_decoder(&blob).unwrap();
        let (pe_b, buf_b) = other.head_outputs(&z);
        assert_eq!(pe_a, pe_b);
        assert_eq!(buf_a, buf_b);
    }

    #[test]
    fn restore_from_incomplete_blob_errors() {
        let (_, _, mut model) = tiny_setup();
        let mut blob = model.quantize_decoder();
        let key = blob.tensors.keys().next().unwrap().clone();
        blob.tensors.remove(&key);
        assert!(model.restore_quantized_decoder(&blob).is_err());
    }
}
