//! Micro-benchmarks of the dense FD kernels at the paper's space orders
//! 4, 8 and 12, sweeping the **full interior** of an `N³` volume (every
//! pencil, not just one centre row — a single row overstates cache locality
//! and understates the y/x-stride traffic that dominates real sweeps).
//!
//! Each kernel shape is measured once per *kernel backend* available on
//! this host — the per-point `Scalar` reference, the autovectorizer-shaped
//! `Portable` pencil path, and the explicit-intrinsics `Avx2` path — over
//! identical iteration spaces through the same `Backend` row API the
//! propagators use. All backends produce bitwise-identical results (see
//! `tests/kernel_backends.rs`), so the ratios are pure code-generation
//! ablations: hoisted bounds checks and lane structure (scalar → portable),
//! then explicit unaligned 256-bit loads (portable → avx2).
//!
//! A second input, the *fringe*, holds values decaying through
//! 1e-30 … 1e-45 — what a wavefront leaves around an off-grid source after
//! a few steps. Under IEEE gradual underflow, x86 cores take a microcode
//! assist on every subnormal operand or result, so the so8 shapes are swept
//! over it twice: without and with the `FlushDenormals` guard the
//! propagators take around every step. The ratio to the random input shows
//! the penalty the guard removes.
//!
//! Per-backend rows are merged into `results/BENCH_<host>.json` (keyed
//! `microbench-so{so}/{kernel shape}[-fringe-{fp mode}]/{backend}`) so the
//! comparison is on record next to the tempest-report matrix.

use std::hint::black_box;
use tempest_bench::microbench::{self, Config, Sample};
use tempest_bench::perf_report::{host_name, BenchEntry, BenchReport};
use tempest_stencil::fpenv::{self, FlushDenormals};
use tempest_stencil::kernels::{first_derivative_weights, staggered_weights, AxisWeights};
use tempest_stencil::Backend;

const N: usize = 64;

fn grid() -> (Vec<f32>, usize, usize) {
    let mut u = vec![0.0f32; N * N * N];
    for (i, v) in u.iter_mut().enumerate() {
        *v = ((i * 2_654_435_761) % 1000) as f32 * 1e-3 - 0.5;
    }
    (u, N * N, N)
}

/// The fringe input: magnitudes falling from 1e-30 at x = 0 to 1e-45 at
/// x = N − 1, with the same sign and jitter pattern as [`grid`].
fn fringe_grid() -> Vec<f32> {
    let (u, _, _) = grid();
    u.iter()
        .enumerate()
        .map(|(i, &v)| {
            let x = (i / (N * N)) as f64 / (N - 1) as f64;
            (v as f64 * 2.0 * 10f64.powf(-30.0 - 15.0 * x)) as f32
        })
        .collect()
}

/// Interior extent, elements covered, and a scratch row for row calls.
fn interior<const R: usize>() -> (usize, usize, u64, Vec<f32>) {
    let (lo, hi) = (R, N - R);
    let n = hi - lo;
    (lo, hi, (n * n * n) as u64, vec![0.0f32; n])
}

fn backends() -> Vec<Backend> {
    Backend::ALL.into_iter().filter(|b| b.available()).collect()
}

/// One BENCH-report row per measured (shape, order, backend) cell.
fn entry(shape: &str, so: usize, backend: Backend, elems: u64, s: &Sample) -> BenchEntry {
    let secs = s.median.as_secs_f64().max(1e-12);
    BenchEntry {
        model: format!("microbench-so{so}"),
        schedule: shape.to_string(),
        kernel: backend.name().to_string(),
        gpts_per_s: elems as f64 / secs / 1e9,
        elapsed_s: secs,
        barrier_wait_share: 0.0,
        worst_imbalance: 1.0,
        critical_path_ms: 0.0,
        dropped_events: 0,
        ai: 0.0,
        roof_pct: 0.0,
        reuse_pct: 0.0,
    }
}

fn report_speedups(name: &str, so: usize, rows: &[(Backend, Sample)]) {
    let scalar = rows
        .iter()
        .find(|(b, _)| *b == Backend::Scalar)
        .map(|(_, s)| s.median.as_secs_f64())
        .unwrap_or(0.0);
    for (b, s) in rows {
        if *b == Backend::Scalar {
            continue;
        }
        let sp = scalar / s.median.as_secs_f64().max(1e-12);
        println!("  {name}/so{so}: {} speedup {sp:.2}x over scalar", b.name());
    }
}

fn bench_laplacian<const R: usize>(
    cfg: Config,
    so: usize,
    u: &[f32],
    sx: usize,
    sy: usize,
    input: &str,
    out_rows: &mut Vec<BenchEntry>,
) {
    let w = AxisWeights::second_derivative(so, 10.0);
    let side: [f32; R] = w.side_array();
    let center = 3.0 * w.center;
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let label = format!("laplacian_{}/so{so}{input}", b.name());
        let s = microbench::run_elems(&label, cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.laplacian_row_r::<R>(
                        black_box(u),
                        i0,
                        sx,
                        sy,
                        center,
                        &side,
                        &side,
                        &side,
                        &mut out,
                    );
                    black_box(&out);
                }
            }
        });
        out_rows.push(entry(&format!("laplacian{input}"), so, b, elems, &s));
        rows.push((b, s));
    }
    report_speedups(&format!("laplacian{input}"), so, &rows);
}

fn bench_cross<const R: usize>(
    cfg: Config,
    so: usize,
    u: &[f32],
    sx: usize,
    sy: usize,
    input: &str,
    out_rows: &mut Vec<BenchEntry>,
) {
    let w = first_derivative_weights(so, 10.0);
    let w: [f32; R] = w[..].try_into().expect("radius mismatch");
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let label = format!("cross_diff_{}/so{so}{input}", b.name());
        let s = microbench::run_elems(&label, cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.cross_diff_row_r::<R>(black_box(u), i0, sx, sy, &w, &w, &mut out);
                    black_box(&out);
                }
            }
        });
        out_rows.push(entry(&format!("cross_diff{input}"), so, b, elems, &s));
        rows.push((b, s));
    }
    report_speedups(&format!("cross_diff{input}"), so, &rows);
}

fn bench_staggered<const R: usize>(
    cfg: Config,
    so: usize,
    u: &[f32],
    input: &str,
    out_rows: &mut Vec<BenchEntry>,
) {
    let w = staggered_weights(so, 10.0);
    let w: [f32; R] = w[..].try_into().expect("radius mismatch");
    let (lo, hi, elems, mut out) = interior::<R>();
    let mut rows = Vec::new();
    for b in backends() {
        let label = format!("staggered_{}/so{so}{input}", b.name());
        let s = microbench::run_elems(&label, cfg, elems, || {
            for x in lo..hi {
                for y in lo..hi {
                    let i0 = (x * N + y) * N + lo;
                    b.staggered_fwd_row_r::<R>(black_box(u), i0, 1, &w, &mut out);
                    black_box(&out);
                }
            }
        });
        out_rows.push(entry(&format!("staggered{input}"), so, b, elems, &s));
        rows.push((b, s));
    }
    report_speedups(&format!("staggered{input}"), so, &rows);
}

fn bench_order<const R: usize>(
    cfg: Config,
    so: usize,
    u: &[f32],
    sx: usize,
    sy: usize,
    input: &str,
    out_rows: &mut Vec<BenchEntry>,
) {
    bench_laplacian::<R>(cfg, so, u, sx, sy, input, out_rows);
    bench_cross::<R>(cfg, so, u, sx, sy, input, out_rows);
    bench_staggered::<R>(cfg, so, u, input, out_rows);
}

/// Median time over the fringe input relative to the random input, per
/// so8 shape and backend, in each FP mode measured.
fn report_fringe_penalty(rows: &[BenchEntry]) {
    let time = |key: String| rows.iter().find(|e| e.key() == key).map(|e| e.elapsed_s);
    let modes: &[&str] = if fpenv::FLUSHES {
        &["ieee", fpenv::MODE]
    } else {
        &["ieee"]
    };
    for shape in ["laplacian", "cross_diff", "staggered"] {
        for b in backends() {
            let Some(random) = time(format!("microbench-so8/{shape}/{}", b.name())) else {
                continue;
            };
            let mut line = format!("  fringe {shape}/so8 {}: time over random input,", b.name());
            for mode in modes {
                if let Some(t) = time(format!("microbench-so8/{shape}-fringe-{mode}/{}", b.name()))
                {
                    line += &format!(" {mode} {:.2}x", t / random.max(1e-12));
                }
            }
            println!("{line}");
        }
    }
}

/// Merge the per-backend rows into the host's bench report (same pattern as
/// the schedule head-to-heads in `benches/schedules.rs`). `cargo bench`
/// runs with the package as CWD, so resolve `results/` against the
/// workspace root.
fn record_entries(entries: Vec<BenchEntry>) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .to_path_buf();
    let dir = root.join("results");
    let path = dir.join(format!("BENCH_{}.json", host_name()));
    let mut report = BenchReport::read(&path).unwrap_or(BenchReport {
        host: host_name(),
        threads: tempest_par::available_threads(),
        size: 64,
        nt: 8,
        fp_mode: fpenv::MODE.to_string(),
        ..Default::default()
    });
    for e in entries {
        report.entries.retain(|old| old.key() != e.key());
        report.entries.push(e);
    }
    match report.write(&dir) {
        Ok(p) => println!("stencil_kernels: recorded in {}", p.display()),
        Err(e) => eprintln!("stencil_kernels: could not write report: {e}"),
    }
}

fn main() {
    let cfg = Config::default();
    let (u, sx, sy) = grid();
    let names: Vec<&str> = backends().iter().map(|b| b.name()).collect();
    println!("stencil_kernels: full-interior sweep of a {N}^3 volume, backends: {names:?}");
    if !Backend::Avx2.available() {
        println!("  note: AVX2 unavailable on this host — avx2 rows omitted");
    }
    let mut rows = Vec::new();
    bench_order::<2>(cfg, 4, &u, sx, sy, "", &mut rows);
    bench_order::<4>(cfg, 8, &u, sx, sy, "", &mut rows);
    bench_order::<6>(cfg, 12, &u, sx, sy, "", &mut rows);

    println!("stencil_kernels: so8 over the fringe input (1e-30 … 1e-45)");
    let fringe = fringe_grid();
    bench_order::<4>(cfg, 8, &fringe, sx, sy, "-fringe-ieee", &mut rows);
    if fpenv::FLUSHES {
        let _fp = FlushDenormals::new();
        let input = format!("-fringe-{}", fpenv::MODE);
        bench_order::<4>(cfg, 8, &fringe, sx, sy, &input, &mut rows);
    } else {
        println!("  note: no flush-to-zero mode on this target — guarded rows omitted");
    }
    report_fringe_penalty(&rows);
    record_entries(rows);
}
