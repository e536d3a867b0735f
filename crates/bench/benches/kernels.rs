//! Self-timed kernel microbenchmarks: scalar vs the best detected SIMD
//! level vs the int8 quantized path, over serving-relevant GEMM shapes.
//!
//! It times each case itself from per-iteration samples, so it can
//! report p50/p95 (budget via `AI2_BENCH_BUDGET_MS` /
//! `AI2_BENCH_MIN_ITERS`), and writes `results/BENCH_kernels.json` —
//! the record the CI `kernel-parity` job uploads and the "SIMD is
//! actually ≥ 2× on this machine" claim is checked against.
//!
//! Cases:
//!
//! * `gemm_nt/<m>x<k>x<n>/<kernel>` — the serving hot path's GEMM
//!   (row-major × transposed weights) at micro-batch shapes, per
//!   kernel level the machine supports,
//! * `matvec/<m>x<k>/<kernel>` — the batch-of-one decode,
//! * `gemm_nt_i8/<m>x<k>x<n>` — the same contraction over the int8
//!   decoder flavor's per-row dot products (kernel-dispatched
//!   `dot_i8`).
//!
//! With `AI2_KERNELS_MIN_SPEEDUP=X` the process exits non-zero when
//! the worst per-shape p95 speedup of the best SIMD level over scalar
//! falls below `X` — skipped (with a note) when the machine has no
//! SIMD level above scalar, where the ratio is 1.0 by construction.

use std::time::Instant;

use ai2_tensor::kernel::{self, Kernel};
use ai2_tensor::rng;
use ai2_tensor::stats::percentile;

/// Serving micro-batch GEMM shapes `(m, k, n)`: batch-of-8 through
/// batch-of-64 rows against decoder-sized weight panels.
const GEMM_SHAPES: [(usize, usize, usize); 3] = [(8, 64, 64), (32, 128, 128), (64, 256, 256)];

/// Batch-of-one decode shapes `(m, k)`.
const MATVEC_SHAPES: [(usize, usize); 2] = [(64, 64), (256, 256)];

struct Case {
    name: String,
    iters: usize,
    p50_us: f64,
    p95_us: f64,
    mean_us: f64,
}

fn budget_ms() -> u64 {
    std::env::var("AI2_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn min_iters() -> usize {
    std::env::var("AI2_BENCH_MIN_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Times `f` until the budget runs out (but at least `min_iters`
/// samples) and reports per-iteration percentiles.
fn time_case(name: String, mut f: impl FnMut()) -> Case {
    // one untimed warmup pass settles caches and page faults
    f();
    let budget = std::time::Duration::from_millis(budget_ms());
    let floor = min_iters();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < floor || started.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        if samples.len() >= 1_000_000 {
            break;
        }
    }
    let case = Case {
        p50_us: percentile(&samples, 50.0),
        p95_us: percentile(&samples, 95.0),
        mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
        iters: samples.len(),
        name,
    };
    println!(
        "kernels/{:<28} mean {:>9.2}µs p50 {:>9.2}µs p95 {:>9.2}µs ({} iters)",
        case.name, case.mean_us, case.p50_us, case.p95_us, case.iters
    );
    case
}

fn available_kernels() -> Vec<Kernel> {
    Kernel::ALL
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

fn main() {
    let best = kernel::best_available();
    let mut r = rng::seeded(0x5EED_C0DE);
    let mut cases: Vec<Case> = Vec::new();

    for &(m, k, n) in &GEMM_SHAPES {
        let a = rng::rand_uniform(&mut r, &[m, k], -1.0, 1.0);
        let b = rng::rand_uniform(&mut r, &[n, k], -1.0, 1.0);
        let mut out = vec![0.0f32; m * n];
        // cross-kernel sanity: every level must compute the same GEMM
        let mut reference = vec![0.0f32; m * n];
        kernel::gemm_nt(
            Kernel::Scalar,
            a.as_slice(),
            b.as_slice(),
            &mut reference,
            m,
            k,
            n,
        );
        for kn in available_kernels() {
            // the kernels accumulate (out += a·bᵀ), so every call
            // starts from zeros — both in the sanity check and in the
            // timed body, exactly as the layers consume them
            out.fill(0.0);
            kernel::gemm_nt(kn, a.as_slice(), b.as_slice(), &mut out, m, k, n);
            let max_diff = out
                .iter()
                .zip(&reference)
                .map(|(x, y)| (x - y).abs() as f64)
                .fold(0.0, f64::max);
            assert!(
                max_diff <= 1e-3,
                "{kn:?} disagrees with scalar by {max_diff:e} on {m}x{k}x{n}"
            );
            cases.push(time_case(
                format!("gemm_nt/{m}x{k}x{n}/{}", kn.name()),
                || {
                    out.fill(0.0);
                    kernel::gemm_nt(kn, a.as_slice(), b.as_slice(), &mut out, m, k, n);
                    std::hint::black_box(&out);
                },
            ));
        }

        // the int8 decoder flavor's contraction: per-row dot_i8 + scale,
        // exactly how the quantized linear layer consumes the blob
        let qa: Vec<i8> = a.as_slice().iter().map(|x| (x * 127.0) as i8).collect();
        let qb: Vec<i8> = b.as_slice().iter().map(|x| (x * 127.0) as i8).collect();
        let scale = 1.0f32 / (127.0 * 127.0);
        cases.push(time_case(format!("gemm_nt_i8/{m}x{k}x{n}"), || {
            for i in 0..m {
                for j in 0..n {
                    out[i * n + j] =
                        kernel::dot_i8(best, &qa[i * k..(i + 1) * k], &qb[j * k..(j + 1) * k])
                            as f32
                            * scale;
                }
            }
            std::hint::black_box(&out);
        }));
    }

    for &(m, k) in &MATVEC_SHAPES {
        let a = rng::rand_uniform(&mut r, &[m, k], -1.0, 1.0);
        let v = rng::rand_uniform(&mut r, &[1, k], -1.0, 1.0);
        let mut out = vec![0.0f32; m];
        for kn in available_kernels() {
            cases.push(time_case(format!("matvec/{m}x{k}/{}", kn.name()), || {
                out.fill(0.0);
                kernel::matvec(kn, a.as_slice(), v.as_slice(), &mut out, m, k);
                std::hint::black_box(&out);
            }));
        }
    }

    // -- p95 speedup of the best SIMD level over scalar, per shape ----
    let p95 = |name: &str| cases.iter().find(|c| c.name == name).map(|c| c.p95_us);
    let mut speedups: Vec<(String, f64)> = Vec::new();
    for &(m, k, n) in &GEMM_SHAPES {
        let scalar = p95(&format!("gemm_nt/{m}x{k}x{n}/scalar"));
        let simd = p95(&format!("gemm_nt/{m}x{k}x{n}/{}", best.name()));
        if let (Some(s), Some(b)) = (scalar, simd) {
            speedups.push((format!("gemm_nt/{m}x{k}x{n}"), s / b));
        }
    }
    let min_speedup = speedups
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    for (shape, s) in &speedups {
        println!(
            "kernels: {shape} p95 speedup {}/scalar = {s:.2}x",
            best.name()
        );
    }

    let entries: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":\"{}\",\"iters\":{},\"mean_us\":{:.3},\"p50_us\":{:.3},\"p95_us\":{:.3}}}",
                c.name, c.iters, c.mean_us, c.p50_us, c.p95_us
            )
        })
        .collect();
    let speedup_rows: Vec<String> = speedups
        .iter()
        .map(|(shape, s)| format!("\"{shape}\":{s:.3}"))
        .collect();
    let body = format!(
        "{{\"best_kernel\":\"{}\",\"gemm_p95_speedup\":{{{}}},\"min_gemm_p95_speedup\":{:.3},\"cases\":[{}]}}",
        best.name(),
        speedup_rows.join(","),
        min_speedup,
        entries.join(",")
    );
    // cargo bench runs with the package as CWD — anchor the artifact
    // to the workspace-root results/ dir the CI job uploads from
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&out).expect("create results dir");
    let path = out.join("BENCH_kernels.json");
    std::fs::write(&path, body).expect("write BENCH_kernels.json");
    println!("KERNELS_JSON={}", path.display());

    if let Some(floor) = std::env::var("AI2_KERNELS_MIN_SPEEDUP")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        if best == Kernel::Scalar {
            eprintln!(
                "[kernels] no SIMD level above scalar on this machine — speedup floor skipped"
            );
        } else if min_speedup < floor {
            eprintln!(
                "[kernels] FAIL: min gemm p95 speedup {min_speedup:.2}x below the {floor}x floor"
            );
            std::process::exit(1);
        } else {
            eprintln!("[kernels] min gemm p95 speedup {min_speedup:.2}x ≥ {floor}x floor");
        }
    }
}
