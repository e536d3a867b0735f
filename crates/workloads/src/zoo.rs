//! The model zoo: real DNN/LLM architectures lowered to GEMM layers.
//!
//! Two groups mirror the paper's protocol:
//!
//! * [`training_models`] — the pool from which the 105-workload training
//!   manifest ([`crate::manifest`]) is assembled.
//! * [`evaluation_models`] — models **never seen during training**, used
//!   for the model-level deployment comparison (paper Fig. 7): ResNet-50,
//!   Llama2-7B, Llama3-8B, plus BERT-large and ViT-base.
//!
//! Convolutions are lowered with im2col at inference batch 1; transformer
//! layers use a 128-token sequence for encoders and a 256-token prefill
//! for decoder LLMs. Depthwise convolutions (MobileNet) contribute only
//! their pointwise halves, which dominate MACs.

use ai2_maestro::GemmWorkload;

use crate::layer::Layer;
use crate::model::ModelWorkload;

/// AlexNet (227² input, batch 1).
pub fn alexnet() -> ModelWorkload {
    ModelWorkload::new(
        "alexnet",
        vec![
            Layer::conv2d("conv1", 55, 55, 96, 3, 11, 11),
            Layer::conv2d("conv2", 27, 27, 256, 96, 5, 5),
            Layer::conv2d("conv3", 13, 13, 384, 256, 3, 3),
            Layer::conv2d("conv4", 13, 13, 384, 384, 3, 3),
            Layer::conv2d("conv5", 13, 13, 256, 384, 3, 3),
            Layer::linear("fc6", 1, 4096, 9216),
            Layer::linear("fc7", 1, 4096, 4096),
            Layer::linear("fc8", 1, 1000, 4096),
        ],
    )
}

/// VGG-16 (224² input, batch 1).
pub fn vgg16() -> ModelWorkload {
    ModelWorkload::new(
        "vgg16",
        vec![
            Layer::conv2d("conv1_1", 224, 224, 64, 3, 3, 3),
            Layer::conv2d("conv1_2", 224, 224, 64, 64, 3, 3),
            Layer::conv2d("conv2_1", 112, 112, 128, 64, 3, 3),
            Layer::conv2d("conv2_2", 112, 112, 128, 128, 3, 3),
            Layer::conv2d("conv3_1", 56, 56, 256, 128, 3, 3),
            Layer::repeated("conv3_x", GemmWorkload::new(56 * 56, 256, 256 * 9), 2),
            Layer::conv2d("conv4_1", 28, 28, 512, 256, 3, 3),
            Layer::repeated("conv4_x", GemmWorkload::new(28 * 28, 512, 512 * 9), 2),
            Layer::repeated("conv5_x", GemmWorkload::new(14 * 14, 512, 512 * 9), 3),
            Layer::linear("fc6", 1, 4096, 25088),
            Layer::linear("fc7", 1, 4096, 4096),
            Layer::linear("fc8", 1, 1000, 4096),
        ],
    )
}

/// ResNet-18 (224² input, batch 1).
pub fn resnet18() -> ModelWorkload {
    ModelWorkload::new(
        "resnet18",
        vec![
            Layer::conv2d("conv1", 112, 112, 64, 3, 7, 7),
            Layer::repeated("conv2_x", GemmWorkload::new(56 * 56, 64, 64 * 9), 4),
            Layer::conv2d("conv3_1", 28, 28, 128, 64, 3, 3),
            Layer::repeated("conv3_x", GemmWorkload::new(28 * 28, 128, 128 * 9), 3),
            Layer::conv2d("conv4_1", 14, 14, 256, 128, 3, 3),
            Layer::repeated("conv4_x", GemmWorkload::new(14 * 14, 256, 256 * 9), 3),
            Layer::conv2d("conv5_1", 7, 7, 512, 256, 3, 3),
            Layer::repeated("conv5_x", GemmWorkload::new(7 * 7, 512, 512 * 9), 3),
            Layer::linear("fc", 1, 1000, 512),
        ],
    )
}

/// ResNet-34 (224² input, batch 1).
pub fn resnet34() -> ModelWorkload {
    ModelWorkload::new(
        "resnet34",
        vec![
            Layer::conv2d("conv1", 112, 112, 64, 3, 7, 7),
            Layer::repeated("conv2_x", GemmWorkload::new(56 * 56, 64, 64 * 9), 6),
            Layer::conv2d("conv3_1", 28, 28, 128, 64, 3, 3),
            Layer::repeated("conv3_x", GemmWorkload::new(28 * 28, 128, 128 * 9), 7),
            Layer::conv2d("conv4_1", 14, 14, 256, 128, 3, 3),
            Layer::repeated("conv4_x", GemmWorkload::new(14 * 14, 256, 256 * 9), 11),
            Layer::conv2d("conv5_1", 7, 7, 512, 256, 3, 3),
            Layer::repeated("conv5_x", GemmWorkload::new(7 * 7, 512, 512 * 9), 5),
            Layer::linear("fc", 1, 1000, 512),
        ],
    )
}

/// MobileNetV2 pointwise backbone (224² input, batch 1).
pub fn mobilenet_v2() -> ModelWorkload {
    ModelWorkload::new(
        "mobilenet_v2",
        vec![
            Layer::conv2d("conv1", 112, 112, 32, 3, 3, 3),
            Layer::linear("b1.pw", 112 * 112, 16, 32),
            Layer::linear("b2.expand", 112 * 112, 96, 16),
            Layer::linear("b2.project", 56 * 56, 24, 96),
            Layer::repeated("b3.expand", GemmWorkload::new(56 * 56, 144, 24), 2),
            Layer::linear("b3.project", 56 * 56, 24, 144),
            Layer::linear("b4.project", 28 * 28, 32, 144),
            Layer::repeated("b5.expand", GemmWorkload::new(28 * 28, 192, 32), 3),
            Layer::repeated("b5.project", GemmWorkload::new(28 * 28, 32, 192), 2),
            Layer::linear("b6.project", 14 * 14, 64, 192),
            Layer::repeated("b7.expand", GemmWorkload::new(14 * 14, 384, 64), 4),
            Layer::repeated("b7.project", GemmWorkload::new(14 * 14, 64, 384), 3),
            Layer::repeated("b8.project", GemmWorkload::new(14 * 14, 96, 384), 3),
            Layer::repeated("b9.expand", GemmWorkload::new(7 * 7, 576, 96), 3),
            Layer::repeated("b9.project", GemmWorkload::new(7 * 7, 160, 576), 3),
            Layer::linear("b10.project", 7 * 7, 320, 960),
            Layer::linear("head", 7 * 7, 1280, 320),
            Layer::linear("fc", 1, 1000, 1280),
        ],
    )
}

/// SqueezeNet v1.1 (224² input, batch 1).
pub fn squeezenet() -> ModelWorkload {
    let fire = |name: &str, hw: u64, s: u64, e: u64, inc: u64| {
        vec![
            Layer::linear(format!("{name}.squeeze"), hw * hw, s, inc),
            Layer::linear(format!("{name}.expand1"), hw * hw, e, s),
            Layer::conv2d(format!("{name}.expand3"), hw, hw, e, s, 3, 3),
        ]
    };
    let mut layers = vec![Layer::conv2d("conv1", 111, 111, 64, 3, 3, 3)];
    layers.extend(fire("fire2", 55, 16, 64, 64));
    layers.extend(fire("fire4", 27, 32, 128, 128));
    layers.extend(fire("fire6", 13, 48, 192, 256));
    layers.extend(fire("fire8", 13, 64, 256, 384));
    layers.push(Layer::linear("conv10", 13 * 13, 1000, 512));
    ModelWorkload::new("squeezenet", layers)
}

/// EfficientNet-Lite0-style pointwise backbone (224² input, batch 1).
pub fn efficientnet_lite0() -> ModelWorkload {
    ModelWorkload::new(
        "efficientnet_lite0",
        vec![
            Layer::conv2d("stem", 112, 112, 32, 3, 3, 3),
            Layer::linear("mb1.pw", 112 * 112, 16, 32),
            Layer::linear("mb2.expand", 112 * 112, 96, 16),
            Layer::linear("mb2.project", 56 * 56, 24, 96),
            Layer::repeated("mb3.expand", GemmWorkload::new(56 * 56, 144, 24), 2),
            Layer::linear("mb3.project", 28 * 28, 40, 144),
            Layer::repeated("mb4.expand", GemmWorkload::new(28 * 28, 240, 40), 2),
            Layer::linear("mb4.project", 14 * 14, 80, 240),
            Layer::repeated("mb5.expand", GemmWorkload::new(14 * 14, 480, 80), 3),
            Layer::repeated("mb5.project", GemmWorkload::new(14 * 14, 80, 480), 2),
            Layer::linear("mb6.project", 14 * 14, 112, 480),
            Layer::repeated("mb6.expand", GemmWorkload::new(14 * 14, 672, 112), 3),
            Layer::linear("mb7.project", 7 * 7, 192, 672),
            Layer::repeated("mb7.expand", GemmWorkload::new(7 * 7, 1152, 192), 4),
            Layer::repeated("mb7b.project", GemmWorkload::new(7 * 7, 192, 1152), 3),
            Layer::linear("mb8.project", 7 * 7, 320, 1152),
            Layer::linear("head", 7 * 7, 1280, 320),
            Layer::linear("fc", 1, 1000, 1280),
        ],
    )
}

/// One transformer encoder/decoder stack lowered to GEMMs.
fn transformer_stack(
    prefix: &str,
    tokens: u64,
    d_model: u64,
    d_ff: u64,
    blocks: u32,
) -> Vec<Layer> {
    vec![
        Layer::repeated(
            format!("{prefix}.attn.qkv"),
            GemmWorkload::new(tokens, d_model, d_model),
            3 * blocks,
        ),
        Layer::repeated(
            format!("{prefix}.attn.out"),
            GemmWorkload::new(tokens, d_model, d_model),
            blocks,
        ),
        Layer::repeated(
            format!("{prefix}.ffn.up"),
            GemmWorkload::new(tokens, d_ff, d_model),
            blocks,
        ),
        Layer::repeated(
            format!("{prefix}.ffn.down"),
            GemmWorkload::new(tokens, d_model, d_ff),
            blocks,
        ),
    ]
}

/// BERT-base (12 blocks, 768 hidden, 128-token sequence).
pub fn bert_base() -> ModelWorkload {
    let mut layers = transformer_stack("enc", 128, 768, 3072, 12);
    layers.push(Layer::linear("pooler", 1, 768, 768));
    ModelWorkload::new("bert_base", layers)
}

/// GPT-2 small (12 blocks, 768 hidden, 256-token prefill).
pub fn gpt2_small() -> ModelWorkload {
    let mut layers = transformer_stack("dec", 256, 768, 3072, 12);
    layers.push(Layer::linear("lm_head", 1, 50257, 768));
    ModelWorkload::new("gpt2_small", layers)
}

/// T5-small encoder-decoder (512 hidden, 6+6 blocks, 128 tokens).
pub fn t5_small() -> ModelWorkload {
    let mut layers = transformer_stack("enc", 128, 512, 2048, 6);
    layers.extend(transformer_stack("dec", 128, 512, 2048, 6));
    // cross-attention adds one extra projection set per decoder block
    layers.push(Layer::repeated(
        "dec.xattn.kv",
        GemmWorkload::new(128, 512, 512),
        12,
    ));
    ModelWorkload::new("t5_small", layers)
}

/// ViT-small (384 hidden, 12 blocks, 197 tokens).
pub fn vit_small() -> ModelWorkload {
    let mut layers = vec![Layer::linear("patch_embed", 196, 384, 768)];
    layers.extend(transformer_stack("enc", 197, 384, 1536, 12));
    layers.push(Layer::linear("head", 1, 1000, 384));
    ModelWorkload::new("vit_small", layers)
}

/// DLRM-style recommendation MLPs (batch 128).
pub fn dlrm_mlp() -> ModelWorkload {
    ModelWorkload::new(
        "dlrm_mlp",
        vec![
            Layer::linear("bot.0", 128, 512, 13),
            Layer::linear("bot.1", 128, 256, 512),
            Layer::linear("bot.2", 128, 64, 256),
            Layer::linear("top.0", 128, 1024, 479),
            Layer::linear("top.1", 128, 1024, 1024),
            Layer::linear("top.2", 128, 512, 1024),
            Layer::linear("top.3", 128, 1, 512),
        ],
    )
}

/// Two-layer LSTM language model (batch 64, 650 hidden), gates fused.
pub fn lstm_lm() -> ModelWorkload {
    ModelWorkload::new(
        "lstm_lm",
        vec![
            Layer::linear("embed_proj", 64, 650, 650),
            Layer::repeated("lstm.gates", GemmWorkload::new(64, 4 * 650, 2 * 650), 2),
            Layer::linear("decoder", 64, 10000, 650),
        ],
    )
}

/// Inception-v3 (299² input, batch 1) — representative mixed blocks.
pub fn inception_v3() -> ModelWorkload {
    ModelWorkload::new(
        "inception_v3",
        vec![
            Layer::conv2d("conv1", 149, 149, 32, 3, 3, 3),
            Layer::conv2d("conv2", 147, 147, 32, 32, 3, 3),
            Layer::conv2d("conv3", 147, 147, 64, 32, 3, 3),
            Layer::linear("conv4.1x1", 73 * 73, 80, 64),
            Layer::conv2d("conv5", 71, 71, 192, 80, 3, 3),
            Layer::repeated("mixed_a.1x1", GemmWorkload::new(35 * 35, 64, 192), 3),
            Layer::repeated("mixed_a.5x5", GemmWorkload::new(35 * 35, 64, 48 * 25), 3),
            Layer::repeated("mixed_a.3x3dbl", GemmWorkload::new(35 * 35, 96, 64 * 9), 3),
            Layer::repeated("mixed_b.1x1", GemmWorkload::new(17 * 17, 192, 768), 4),
            Layer::repeated("mixed_b.7x1", GemmWorkload::new(17 * 17, 192, 192 * 7), 8),
            Layer::repeated("mixed_c.3x3", GemmWorkload::new(8 * 8, 320, 1280), 2),
            Layer::linear("fc", 1, 1000, 2048),
        ],
    )
}

/// U-Net-lite segmentation backbone (128² input, batch 1).
pub fn unet_lite() -> ModelWorkload {
    ModelWorkload::new(
        "unet_lite",
        vec![
            Layer::conv2d("enc1", 128, 128, 32, 3, 3, 3),
            Layer::conv2d("enc2", 64, 64, 64, 32, 3, 3),
            Layer::conv2d("enc3", 32, 32, 128, 64, 3, 3),
            Layer::conv2d("bottleneck", 16, 16, 256, 128, 3, 3),
            Layer::conv2d("dec3", 32, 32, 128, 256 + 128, 3, 3),
            Layer::conv2d("dec2", 64, 64, 64, 128 + 64, 3, 3),
            Layer::conv2d("dec1", 128, 128, 32, 64 + 32, 3, 3),
            Layer::linear("head", 128 * 128, 2, 32),
        ],
    )
}

/// NCF-style collaborative filtering MLP (batch 256).
pub fn ncf() -> ModelWorkload {
    ModelWorkload::new(
        "ncf",
        vec![
            Layer::linear("mlp.0", 256, 256, 128),
            Layer::linear("mlp.1", 256, 128, 256),
            Layer::linear("mlp.2", 256, 64, 128),
            Layer::linear("predict", 256, 1, 128),
        ],
    )
}

// ---------------------------------------------------------------------------
// Evaluation models (unseen during training — paper Fig. 7)
// ---------------------------------------------------------------------------

/// ResNet-50 (224² input, batch 1) — evaluation model \[32\].
pub fn resnet50() -> ModelWorkload {
    let bottleneck = |name: &str, hw: u64, w: u64, blocks: u32| {
        vec![
            Layer::repeated(
                format!("{name}.reduce"),
                GemmWorkload::new(hw * hw, w, 4 * w),
                blocks,
            ),
            Layer::repeated(
                format!("{name}.conv3"),
                GemmWorkload::new(hw * hw, w, w * 9),
                blocks,
            ),
            Layer::repeated(
                format!("{name}.expand"),
                GemmWorkload::new(hw * hw, 4 * w, w),
                blocks,
            ),
        ]
    };
    let mut layers = vec![
        Layer::conv2d("conv1", 112, 112, 64, 3, 7, 7),
        Layer::linear("conv2.reduce0", 56 * 56, 64, 64),
    ];
    layers.extend(bottleneck("conv2", 56, 64, 3));
    layers.extend(bottleneck("conv3", 28, 128, 4));
    layers.extend(bottleneck("conv4", 14, 256, 6));
    layers.extend(bottleneck("conv5", 7, 512, 3));
    layers.push(Layer::linear("fc", 1, 1000, 2048));
    ModelWorkload::new("resnet50", layers)
}

/// BERT-large (24 blocks, 1024 hidden, 128 tokens) — evaluation model.
pub fn bert_large() -> ModelWorkload {
    let mut layers = transformer_stack("enc", 128, 1024, 4096, 24);
    layers.push(Layer::linear("pooler", 1, 1024, 1024));
    ModelWorkload::new("bert_large", layers)
}

/// ViT-base (768 hidden, 12 blocks, 197 tokens) — evaluation model.
pub fn vit_base() -> ModelWorkload {
    let mut layers = vec![Layer::linear("patch_embed", 196, 768, 768)];
    layers.extend(transformer_stack("enc", 197, 768, 3072, 12));
    layers.push(Layer::linear("head", 1, 1000, 768));
    ModelWorkload::new("vit_base", layers)
}

/// Llama2-7B (32 blocks, 4096 hidden, 11008 FFN, 256-token prefill) —
/// evaluation model \[33\].
pub fn llama2_7b() -> ModelWorkload {
    ModelWorkload::new(
        "llama2_7b",
        vec![
            Layer::repeated("attn.qkv", GemmWorkload::new(256, 4096, 4096), 3 * 32),
            Layer::repeated("attn.out", GemmWorkload::new(256, 4096, 4096), 32),
            Layer::repeated("ffn.gate", GemmWorkload::new(256, 11008, 4096), 32),
            Layer::repeated("ffn.up", GemmWorkload::new(256, 11008, 4096), 32),
            Layer::repeated("ffn.down", GemmWorkload::new(256, 4096, 11008), 32),
            Layer::linear("lm_head", 1, 32000, 4096),
        ],
    )
}

/// Llama3-8B (32 blocks, 4096 hidden, 14336 FFN, GQA with 1024-wide KV,
/// 256-token prefill) — evaluation model \[34\].
pub fn llama3_8b() -> ModelWorkload {
    ModelWorkload::new(
        "llama3_8b",
        vec![
            Layer::repeated("attn.q", GemmWorkload::new(256, 4096, 4096), 32),
            Layer::repeated("attn.kv", GemmWorkload::new(256, 1024, 4096), 2 * 32),
            Layer::repeated("attn.out", GemmWorkload::new(256, 4096, 4096), 32),
            Layer::repeated("ffn.gate", GemmWorkload::new(256, 14336, 4096), 32),
            Layer::repeated("ffn.up", GemmWorkload::new(256, 14336, 4096), 32),
            Layer::repeated("ffn.down", GemmWorkload::new(256, 4096, 14336), 32),
            Layer::linear("lm_head", 1, 128256, 4096),
        ],
    )
}

/// Models contributing layers to the 105-workload training manifest.
pub fn training_models() -> Vec<ModelWorkload> {
    vec![
        alexnet(),
        vgg16(),
        resnet18(),
        resnet34(),
        mobilenet_v2(),
        squeezenet(),
        efficientnet_lite0(),
        inception_v3(),
        unet_lite(),
        bert_base(),
        gpt2_small(),
        t5_small(),
        vit_small(),
        dlrm_mlp(),
        lstm_lm(),
        ncf(),
    ]
}

/// Models reserved for deployment evaluation (never in the training
/// manifest), matching the paper's Fig. 7 protocol.
pub fn evaluation_models() -> Vec<ModelWorkload> {
    vec![
        resnet50(),
        llama2_7b(),
        llama3_8b(),
        bert_large(),
        vit_base(),
    ]
}

/// Every zoo model (training pool then evaluation models) — the lookup
/// universe of name-addressed consumers like the serving layer.
pub fn all_models() -> Vec<ModelWorkload> {
    let mut models = training_models();
    models.extend(evaluation_models());
    models
}

/// Looks a zoo model up by its canonical name (`"resnet50"`,
/// `"llama2_7b"` …), case-insensitively. `None` for unknown names — the
/// serving layer turns that into a protocol error instead of a panic.
pub fn model_by_name(name: &str) -> Option<ModelWorkload> {
    all_models()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zoo_models_are_nonempty_and_distinctly_named() {
        let mut names = HashSet::new();
        for m in training_models().into_iter().chain(evaluation_models()) {
            assert!(!m.layers.is_empty(), "{} has no layers", m.name);
            assert!(names.insert(m.name.clone()), "duplicate model {}", m.name);
        }
    }

    #[test]
    fn resnet50_macs_in_expected_range() {
        let macs = resnet50().total_macs();
        // ≈ 4.1 GMACs at 224²; the GEMM lowering should land within 25%
        assert!(
            (3_000_000_000..5_500_000_000).contains(&macs),
            "resnet50 macs {macs}"
        );
    }

    #[test]
    fn vgg16_macs_in_expected_range() {
        let macs = vgg16().total_macs();
        // ≈ 15.5 GMACs
        assert!(
            (13_000_000_000..18_000_000_000).contains(&macs),
            "vgg16 macs {macs}"
        );
    }

    #[test]
    fn bert_base_macs_in_expected_range() {
        let macs = bert_base().total_macs();
        // 12 blocks × 128 tokens: ~11 GMACs of projections (excl. attention scores)
        assert!(
            (8_000_000_000..15_000_000_000).contains(&macs),
            "bert macs {macs}"
        );
    }

    #[test]
    fn llama2_prefill_macs_in_expected_range() {
        let macs = llama2_7b().total_macs();
        // ≈ 6.5 G projection params × 256 prefill tokens ≈ 1.7 TMACs
        assert!(
            (1_300_000_000_000..2_200_000_000_000).contains(&macs),
            "llama2 macs {macs}"
        );
    }

    #[test]
    fn model_by_name_finds_every_zoo_model() {
        for m in all_models() {
            let found = model_by_name(&m.name).expect("zoo model must resolve");
            assert_eq!(found, m);
        }
        // case-insensitive, and unknown names answer None
        assert_eq!(model_by_name("ResNet50").unwrap().name, "resnet50");
        assert!(model_by_name("not_a_model").is_none());
    }

    #[test]
    fn evaluation_models_are_disjoint_from_training() {
        let train: HashSet<String> = training_models().into_iter().map(|m| m.name).collect();
        for m in evaluation_models() {
            assert!(!train.contains(&m.name), "{} leaked into training", m.name);
        }
    }

    #[test]
    fn dse_layers_of_every_model_are_in_range() {
        for m in training_models().into_iter().chain(evaluation_models()) {
            for l in m.to_dse_layers() {
                assert!(l.in_table_i_ranges(), "{}::{} out of range", m.name, l.name);
            }
        }
    }
}
