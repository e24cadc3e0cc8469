//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig9-acoustic-so4|tti-so8|survey-rerun> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny] [--tune]
//! ```
//!
//! One process runs one workload: measurement cycles (see `workload`) for
//! `--seconds`, then prints every metric by name with its unit and, as the
//! last line of standard output, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from spans the benchmark records around its own calls
//! into each crate plus isolated probes of each layer. End-to-end numbers
//! come only from untraced runs.
//!
//! `--tiny` shrinks every workload to a smoke configuration; `--tune` runs
//! the repository autotuner over the workload and prints the shapes to pin.

mod layers;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use tempest_grid::Rng64;
use tempest_sparse::SparsePoints;

use stats::{fmt, json_str, median, median_metric, metric, result_line, Metric};
use trace::Tracer;
use workload::{CycleOut, Rep, Spec};

const USAGE: &str = "usage: perfbench --workload <fig9-acoustic-so4|tti-so8|survey-rerun> \
--seed <n> --seconds <s> --trace <0|1> [--tiny] [--tune]";

/// Cycles measured even when `--seconds` has run out: medians need a few.
const MIN_CYCLES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    tune: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        tune: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--tiny" => a.tiny = true,
            "--tune" => a.tune = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn env_or_unset(name: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| "unset".to_string())
}

/// The commit being measured, or `unknown` when the working directory is
/// not the root of a git checkout (git is not asked to search parents).
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MB (10⁶ bytes), from
/// `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

fn print_meta(args: &Args, spec: &Spec, l3: Option<usize>) {
    let fields = [
        ("git_sha", git_sha()),
        ("workload", spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("tiny", args.tiny.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("pool_threads", tempest_par::available_threads().to_string()),
        (
            "l3_bytes",
            l3.map_or("unknown".to_string(), |b| b.to_string()),
        ),
        (
            "kernel_backend",
            tempest_core::KernelPath::Auto.resolve().name().to_string(),
        ),
        ("grid", format!("{0}x{0}x{0}", spec.n)),
        ("space_order", spec.so.to_string()),
        ("nt", spec.nt.to_string()),
        ("shots", spec.shots.to_string()),
        ("receivers", spec.num_receivers().to_string()),
        ("wtb_shape", spec.wtb.to_string()),
        ("sb_shape", "8x8".to_string()),
        ("TEMPEST_THREADS", env_or_unset("TEMPEST_THREADS")),
        ("TEMPEST_KERNEL", env_or_unset("TEMPEST_KERNEL")),
        ("TEMPEST_CACHE_MB", env_or_unset("TEMPEST_CACHE_MB")),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("# meta {{{}}}", body.join(", "));
}

fn gpts(updates: f64, secs: f64) -> f64 {
    updates / secs / 1e9
}

/// One value per direct-leg repetition of every cycle.
fn per_rep(cycles: &[&CycleOut], f: impl Fn(&CycleOut, &Rep) -> f64) -> Vec<f64> {
    let mut v = Vec::new();
    for c in cycles {
        for r in &c.reps {
            v.push(f(c, r));
        }
    }
    v
}

fn end_to_end(cycles: &[&CycleOut]) -> Vec<Metric> {
    let col = |f: &dyn Fn(&CycleOut) -> f64| cycles.iter().map(|c| f(c)).collect::<Vec<f64>>();
    vec![
        median_metric("setup_s", "s", &col(&|c| c.setup_s)),
        median_metric(
            "sb_gpts",
            "GPts/s",
            &per_rep(cycles, |c, r| gpts(c.updates_per_rep, r.sb_wall_s)),
        ),
        median_metric(
            "wtb_gpts",
            "GPts/s",
            &per_rep(cycles, |c, r| gpts(c.updates_per_rep, r.wtb_wall_s)),
        ),
        median_metric("job_s", "s", &col(&|c| c.job_s)),
        median_metric("rerun_s", "s", &col(&|c| c.rerun_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM of this process"),
    ]
}

fn per_layer(
    spec: &Spec,
    cycles: &[(bool, CycleOut)],
    tr: &mut Tracer,
    sources: &SparsePoints,
    l3: usize,
    triad_cache: usize,
) -> Vec<Metric> {
    let traced: Vec<&CycleOut> = cycles.iter().filter(|c| c.0).map(|c| &c.1).collect();
    let untraced: Vec<&CycleOut> = cycles.iter().filter(|c| !c.0).map(|c| &c.1).collect();
    let col = |f: &dyn Fn(&CycleOut) -> f64| traced.iter().map(|c| f(c)).collect::<Vec<f64>>();
    let shots = spec.shots as f64;

    let spans_per_cycle = tr.len() as f64 / traced.len() as f64;
    let probes = layers::probe(spec, sources, tr);
    let (triad_gbs, triad_bytes) = layers::triad(triad_cache, tr);

    let cost = layers::cost(spec);
    let ws_bytes = (layers::working_set_volumes(spec) * spec.shape().len() * 4) as f64;
    let sb = median(&per_rep(&traced, |c, r| {
        gpts(c.updates_per_rep, r.sb_wall_s)
    }));
    let wtb = median(&per_rep(&traced, |c, r| {
        gpts(c.updates_per_rep, r.wtb_wall_s)
    }));
    let run_s = median(&per_rep(&traced, |_, r| r.wtb_run_s / shots));
    let threads = workload::solve_threads(spec) as f64;
    let kernel_est_s = spec.updates() * layers::kernel_ns_per_pt(spec, &probes) * 1e-9 / threads;
    let residual_s = run_s - kernel_est_s - probes.exec_overhead_s;
    let bytes_wtb = cost.bytes_streaming_temporal(spec.wtb.tile_t);
    let roof_share = wtb * bytes_wtb / triad_gbs;
    let jobs: Vec<_> = traced.iter().flat_map(|c| c.jobs.iter().copied()).collect();
    let jcol = |f: &dyn Fn(&workload::JobSplit) -> f64| jobs.iter().map(f).collect::<Vec<f64>>();
    let reuse: Vec<f64> = traced
        .iter()
        .map(|c| match c.cache.rerun_lookups {
            0 => 0.0,
            n => c.cache.rerun_hits as f64 / n as f64,
        })
        .collect();
    let cycle_wall = |v: &[&CycleOut]| median(&v.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    let overhead = cycle_wall(&traced) / cycle_wall(&untraced) - 1.0;

    let out = vec![
        median_metric("grid.model_build_s", "s", &col(&|c| c.model_build_s)),
        metric(
            "grid.working_set_mb",
            "MB",
            ws_bytes / 1e6,
            format!(
                "computed: {} volumes x {} points x 4 B",
                layers::working_set_volumes(spec),
                spec.shape().len()
            ),
        ),
        metric(
            "grid.working_set_over_l3",
            "ratio",
            ws_bytes / l3 as f64,
            format!("computed; L3 = {l3} B"),
        ),
        metric(
            "sparse.src_precompute_s",
            "s",
            probes.src_precompute_s,
            "SourcePrecompute::build, median of 3",
        ),
        metric(
            "sparse.rec_precompute_s",
            "s",
            probes.rec_precompute_s,
            "ReceiverPrecompute::build, median of 3",
        ),
        metric(
            "sparse.compress_s",
            "s",
            probes.compress_s,
            "CompressedMask of source SID + receiver RID, median of 3",
        ),
        metric(
            "sparse.affected_pts",
            "count",
            probes.affected_pts as f64,
            "source + receiver affected grid points",
        ),
        metric(
            "sparse.mask_bytes",
            "B",
            probes.mask_bytes as f64,
            "source + receiver masks, ids and weights",
        ),
        metric(
            "sparse.gather_ns_per_rec",
            "ns",
            probes.gather_ns_per_rec,
            "gather_region over the receivers' bounding box",
        ),
        metric(
            "stencil.lap_ns_per_pt",
            "ns",
            probes.lap_ns_per_pt,
            "laplacian_row_r::<2>, 64^3 sweep, 1 thread",
        ),
        metric(
            "stencil.cross_ns_per_pt",
            "ns",
            probes.cross_ns_per_pt,
            "cross_diff_row_r::<4>, 64^3 sweep, 1 thread",
        ),
        metric(
            "stencil.second_ns_per_pt",
            "ns",
            probes.second_ns_per_pt,
            "second_diff_row_r::<4> along x, 64^3 sweep, 1 thread",
        ),
        metric(
            "stencil.flops_per_pt",
            "flop",
            cost.flops,
            "computed from tempest_stencil::metrics",
        ),
        metric(
            "stencil.bytes_per_pt",
            "B",
            cost.bytes_streaming,
            "computed streaming bytes, no temporal reuse",
        ),
        metric(
            "stencil.gflops",
            "GFLOP/s",
            cost.flops * wtb,
            "flops_per_pt x median WTB GPts/s",
        ),
        metric(
            "par.dataflow_ns_per_node",
            "ns",
            probes.dataflow_ns_per_node,
            "run_dataflow no-op over the WTB tile graph",
        ),
        metric(
            "par.fork_join_us",
            "us",
            probes.fork_join_us,
            "for_each_index no-op over one SB step's 8x8 blocks",
        ),
        metric(
            "tiling.tiles",
            "count",
            probes.tiles as f64,
            "tile_graph nodes",
        ),
        metric(
            "tiling.edges",
            "count",
            probes.edges as f64,
            "tile_graph predecessor edges",
        ),
        metric(
            "tiling.graph_build_s",
            "s",
            probes.graph_build_s,
            "tile_graph + DepGraph::from_preds, median of 3",
        ),
        metric(
            "tiling.exec_overhead_s",
            "s",
            probes.exec_overhead_s,
            "execute_dataflow with a no-op step, median of 5",
        ),
        metric(
            "tiling.ns_per_tile",
            "ns",
            probes.exec_overhead_s / probes.tiles.max(1) as f64 * 1e9,
            "exec_overhead_s / tiles",
        ),
        median_metric("core.build_s", "s", &col(&|c| c.core_build_s)),
        median_metric(
            "core.run_s",
            "s",
            &per_rep(&traced, |_, r| r.wtb_run_s / shots),
        ),
        median_metric(
            "core.timed_loop_s",
            "s",
            &per_rep(&traced, |_, r| r.wtb_loop_s / shots),
        ),
        median_metric(
            "core.untimed_s",
            "s",
            &per_rep(&traced, |_, r| (r.wtb_run_s - r.wtb_loop_s) / shots),
        ),
        metric(
            "core.kernel_est_s",
            "s",
            kernel_est_s,
            format!("updates x kernel ns/pt / {threads} threads"),
        ),
        metric(
            "core.residual_frac",
            "ratio",
            residual_s / run_s,
            "(run - kernel_est - exec_overhead) / run",
        ),
        metric(
            "core.wtb_speedup",
            "ratio",
            wtb / sb,
            format!("median WTB {} / median SB {} GPts/s", fmt(wtb), fmt(sb)),
        ),
        metric(
            "core.roof_share",
            "ratio",
            roof_share,
            format!(
                "WTB GPts/s x {} B/pt (streaming / tile_t) / triad {} GB/s",
                fmt(bytes_wtb),
                fmt(triad_gbs)
            ),
        ),
        median_metric("survey.submit_s", "s", &jcol(&|j| j.submit_s)),
        median_metric("survey.queue_wait_s", "s", &jcol(&|j| j.queue_wait_s)),
        median_metric("survey.exec_s", "s", &jcol(&|j| j.exec_s)),
        median_metric("survey.gather_s", "s", &jcol(&|j| j.gather_s)),
        median_metric("cache.hits", "count", &col(&|c| c.cache.hits as f64)),
        median_metric("cache.misses", "count", &col(&|c| c.cache.misses as f64)),
        median_metric(
            "cache.evictions",
            "count",
            &col(&|c| c.cache.evictions as f64),
        ),
        median_metric("cache.bytes", "B", &col(&|c| c.cache.bytes as f64)),
        median_metric("cache.reuse_rate", "ratio", &reuse),
        metric(
            "mem.triad_gbs",
            "GB/s",
            triad_gbs,
            format!("3 arrays of {triad_bytes} B each, 4 x {triad_cache} B"),
        ),
        metric(
            "obs.trace_overhead_frac",
            "ratio",
            overhead,
            format!(
                "median traced cycle {} s vs untraced {} s; span bookkeeping alone is {} ns x {} spans per cycle",
                fmt(cycle_wall(&traced)),
                fmt(cycle_wall(&untraced)),
                fmt(Tracer::span_cost_ns()),
                fmt(spans_per_cycle)
            ),
        ),
    ];

    println!(
        "attribution: core.run_s {} s = kernel est {} s + executor overhead {} s + residual {} s ({:.1}% residual)",
        fmt(run_s),
        fmt(kernel_est_s),
        fmt(probes.exec_overhead_s),
        fmt(residual_s),
        100.0 * residual_s / run_s
    );
    if roof_share > 1.0 {
        println!(
            "core.roof_share: MODEL ERROR, not a measurement: the streaming model puts WTB at {} \
             of triad bandwidth, so data the model counts as DRAM traffic came from cache",
            fmt(roof_share)
        );
    }
    println!(
        "stencil.backend: {}",
        tempest_core::KernelPath::Auto.resolve().name()
    );
    out
}

fn print_self_times(tr: &Tracer) {
    let mut rows: Vec<_> = tr.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    println!("# span self times (traced cycles and probes)");
    println!(
        "{:<26} {:>6} {:>12} {:>12}",
        "span", "count", "total_s", "self_s"
    );
    for (name, (total, own, n)) in rows {
        println!("{name:<26} {n:>6} {total:>12.6} {own:>12.6}");
    }
}

fn write_spans(tr: &Tracer, spec: &Spec, seed: u64) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
    else {
        return;
    };
    let path = dir.join(format!("perfbench-spans-{}-seed{seed}.json", spec.name));
    match std::fs::write(&path, tr.to_json()) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload, args.tiny) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    if args.tune {
        workload::tune(&spec, args.seed);
        return ExitCode::SUCCESS;
    }
    let l3 = layers::l3_bytes();
    print_meta(&args, &spec, l3);

    let mut rng = Rng64::new(args.seed);
    let mut tr = Tracer::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut cycles: Vec<(bool, CycleOut)> = Vec::new();
    let mut last_sources = None;
    // Start another cycle only if it is expected to end before the
    // deadline, so a run lasts about `--seconds`.
    let mut last_cycle = Duration::ZERO;
    while cycles.len() < MIN_CYCLES || Instant::now() + last_cycle < deadline {
        let k = cycles.len();
        // The traced run alternates traced and untraced cycles, so it can
        // report its own overhead.
        let traced = args.trace && k % 2 == 1;
        tr.set_enabled(traced);
        tr.set_sample(k as u64);
        let inputs = workload::draw_inputs(&spec, &mut rng);
        let span = tr.begin("cycle");
        let out = workload::cycle(&spec, &inputs, &mut tr);
        tr.end(span);
        for f in &out.failures {
            println!("FAILED cycle {k}: {f}");
        }
        println!(
            "cycle {k}{}: setup {} s, SB {} GPts/s, WTB {} GPts/s, job {} s, rerun {} s",
            if traced { " (traced)" } else { "" },
            fmt(out.setup_s),
            fmt(median(&per_rep(&[&out], |c, r| gpts(
                c.updates_per_rep,
                r.sb_wall_s
            )))),
            fmt(median(&per_rep(&[&out], |c, r| gpts(
                c.updates_per_rep,
                r.wtb_wall_s
            )))),
            fmt(out.job_s),
            fmt(out.rerun_s)
        );
        last_sources = Some(SparsePoints::new(&spec.domain(), vec![inputs.nudged[0]]));
        last_cycle = Duration::from_secs_f64(out.wall_s);
        cycles.push((traced, out));
    }
    let attempted: u64 = cycles.iter().map(|c| c.1.attempted).sum();
    let failed: u64 = cycles.iter().map(|c| c.1.failed).sum();
    println!(
        "gathers: {} of {} SB/WTB pairs differ in some bit (each failure above is one beyond tolerance)",
        cycles.iter().map(|c| c.1.gathers_bit_different).sum::<u64>(),
        cycles.iter().map(|c| c.1.gathers_compared).sum::<u64>()
    );

    let metrics = if args.trace {
        tr.set_enabled(true);
        tr.set_sample(cycles.len() as u64);
        let sources = last_sources.expect("at least one cycle ran");
        // Without a sysfs cache size, assume a large 105 MiB server L3
        // rather than under-size the triad arrays.
        let l3 = l3.unwrap_or(105 * 1024 * 1024);
        // Smoke runs keep the triad arrays small; real runs size them at
        // four times the last-level cache.
        let triad_cache = if args.tiny { 1 << 20 } else { l3 };
        let m = per_layer(&spec, &cycles, &mut tr, &sources, l3, triad_cache);
        print_self_times(&tr);
        write_spans(&tr, &spec, args.seed);
        m
    } else {
        let all: Vec<&CycleOut> = cycles.iter().map(|c| &c.1).collect();
        end_to_end(&all)
    };
    for m in &metrics {
        println!(
            "{:<28} {:>14} {:<8} {}",
            m.name,
            fmt(m.value),
            m.unit,
            m.note
        );
    }
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "tti-so8",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("tti-so8", 7, 10.0, true)
        );
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--bogus"]).is_err());
    }
}
