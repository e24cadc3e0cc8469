//! Benchmarks of the schedule engine itself: slab generation cost,
//! legality-checker cost, a small end-to-end comparison of the spatially
//! blocked vs wave-front (slab-ordered and dataflow) schedules on a
//! cache-resident problem, a thread-scaling sweep of the wave-front
//! executors, and two head-to-heads recorded into
//! `results/BENCH_<host>.json`: dataflow-vs-slab (barrier discipline, the
//! trade that keeps the slab-ordered executor) and diamond-vs-dataflow
//! (tiling geometry on the same barrier-free substrate). The large-grid
//! comparison lives in the `figure9` harness.

use std::hint::black_box;
use tempest_bench::microbench::{self, Config};
use tempest_bench::perf_report::{host_name, BenchEntry, BenchReport};
use tempest_bench::setup;
use tempest_bench::sweep::{exec_spaceblocked, exec_wavefront};
use tempest_core::{KernelPath, WaveSolver};
use tempest_grid::Shape;
use tempest_par::Policy;
use tempest_tiling::legality::{check_plan, check_schedule, DepModel};
use tempest_tiling::wavefront::{slabs, WavefrontSpec};
use tempest_tiling::{Candidate, DiamondAxis, TilePlan};

fn bench_slab_generation(cfg: Config) {
    let shape = Shape::new(512, 512, 512);
    for tile in [32usize, 128] {
        let spec = WavefrontSpec::new(tile, tile, 8, 2, 8, 8);
        microbench::run(&format!("slab_generation/{tile}"), cfg, || {
            let mut n = 0usize;
            tempest_tiling::wavefront::for_each_slab(shape, 64, &spec, |s| {
                n += usize::from(!s.range.is_empty());
            });
            black_box(n);
        });
    }
}

fn bench_legality_checker(cfg: Config) {
    let shape = Shape::new(64, 64, 4);
    let spec = WavefrontSpec::new(16, 16, 8, 2, 8, 8);
    let sched = slabs(shape, 32, &spec);
    microbench::run("legality_check_64x64x32", cfg, || {
        check_schedule(
            shape,
            32,
            DepModel {
                radius: 2,
                levels: 3,
            },
            black_box(sched.iter().copied()),
        )
        .unwrap();
    });
}

fn bench_plan_checker(cfg: Config) {
    let shape = Shape::new(64, 64, 4);
    let plan = TilePlan::wavefront(shape, 32, &WavefrontSpec::new(16, 16, 8, 2, 8, 8), 2);
    microbench::run("plan_check_64x64x32", cfg, || {
        check_plan(
            shape,
            DepModel {
                radius: 2,
                levels: 3,
            },
            black_box(&plan),
        )
        .unwrap();
    });
}

fn bench_schedules_end_to_end(cfg: Config) {
    {
        let mut s = setup::acoustic(64, 4, 8, 0);
        let e = exec_spaceblocked(8, 8);
        microbench::run("acoustic_64cube_8steps/spaceblocked", cfg, || {
            black_box(s.run(&e).elapsed);
        });
    }
    let cand = Candidate {
        tile_x: 32,
        tile_y: 32,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
        ..Candidate::default()
    };
    for c in [cand, cand.with_dataflow()] {
        let label = if c.dataflow {
            "acoustic_64cube_8steps/wavefront_dataflow"
        } else {
            "acoustic_64cube_8steps/wavefront"
        };
        let mut s = setup::acoustic(64, 4, 8, 0);
        let e = exec_wavefront(&c);
        microbench::run(label, cfg, || {
            black_box(s.run(&e).elapsed);
        });
    }
}

/// Thread-scaling sweep of the wave-front executors: the dataflow
/// executor's advantage is parallel grain, so it is only visible with more
/// than one worker. Capped at the machine's available threads
/// (`TEMPEST_THREADS` respected via `tempest_par::available_threads`).
fn bench_thread_scaling(cfg: Config) {
    let avail = tempest_par::available_threads();
    let cand = Candidate {
        tile_x: 16,
        tile_y: 16,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
        ..Candidate::default()
    };
    for threads in [1usize, 2, 4, 8] {
        if threads > avail {
            println!("thread_scaling: skipping {threads} threads (only {avail} available)");
            continue;
        }
        for c in [cand, cand.with_dataflow()] {
            let mode = if c.dataflow { "dataflow" } else { "slab" };
            let mut s = setup::acoustic(64, 4, 8, 0);
            let mut e = exec_wavefront(&c);
            e.policy = Policy::Capped { threads };
            microbench::run(&format!("thread_scaling/{mode}/t{threads}"), cfg, || {
                black_box(s.run(&e).elapsed);
            });
        }
    }
}

/// Time two candidates on the same 64³ × 32-step acoustic problem under
/// full parallel dispatch, print the comparison and return one report entry
/// per candidate: the median wall time over the measurement budget plus the
/// median barrier-wait share of five profiled runs (one run is hostage to
/// scheduler luck; profiling stays off during the timed iterations).
fn head_to_head(cfg: Config, name: &str, pair: [(&str, Candidate); 2]) -> Vec<BenchEntry> {
    // ~90 ms per run: give the medians a longer budget than the coarse
    // default's 600 ms or they are medians of five.
    let cfg = Config {
        measure: std::time::Duration::from_millis(2000),
        max_iters: 30,
        ..cfg
    };
    let mut entries = Vec::new();
    let mut row = Vec::new();
    for (mode, c) in pair {
        // 32 steps: long enough (tens of milliseconds) that the OS actually
        // interleaves the worker threads — an 8-step run fits in one
        // timeslice and measures no synchronisation at all.
        let mut s = setup::acoustic(64, 4, 32, 0);
        let mut e = exec_wavefront(&c);
        // Full parallel dispatch: `Policy::Auto`'s min-items gate would run
        // small per-slab batches sequentially and hide the barrier cost.
        e.policy = Policy::Parallel;
        let sample = microbench::run(&format!("{name}/{mode}"), cfg, || {
            black_box(s.run(&e).elapsed);
        });
        tempest_obs::set_enabled(true);
        let mut shares = Vec::new();
        let mut last = None;
        for _ in 0..5 {
            let (stats, profile, meta) = s.run_profiled(&e);
            shares.push(profile.barrier_wait_share());
            last = Some((stats, meta));
        }
        tempest_obs::set_enabled(false);
        shares.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let share = shares[shares.len() / 2];
        let (stats, meta) = last.unwrap();
        let total_gpoints = stats.gpoints_per_s * stats.elapsed.as_secs_f64();
        entries.push(BenchEntry {
            model: meta.name.clone(),
            schedule: tempest_obs::sanitize_label(&meta.schedule),
            kernel: KernelPath::Auto.resolve().name().into(),
            gpts_per_s: total_gpoints / sample.median.as_secs_f64(),
            elapsed_s: sample.median.as_secs_f64(),
            barrier_wait_share: share,
            worst_imbalance: 1.0,
            critical_path_ms: 0.0,
            dropped_events: 0,
            ai: 0.0,
            roof_pct: 0.0,
            reuse_pct: 0.0,
        });
        row.push((mode, sample.median, share));
    }
    let [(a, a_med, a_share), (b, b_med, b_share)] = [row[0], row[1]];
    println!(
        "{name}: median {a} {a_med:?} vs {b} {b_med:?} ({b} {}), barrier-wait {:.2}% vs {:.2}%{}",
        if b_med <= a_med {
            "no slower"
        } else {
            "slower"
        },
        100.0 * a_share,
        100.0 * b_share,
        if profile_compiled_in() {
            ""
        } else {
            " (build with --features obs for shares)"
        },
    );
    entries
}

/// Slab-ordered vs dataflow head-to-head: the same tile geometry under the
/// two wave-front executors at temporal heights 2 and 4. The slab-ordered
/// executor parallelises the blocks of one slab between barriers; the
/// dataflow executor runs whole tiles with one join per sweep. Dataflow
/// wins when a time row holds many tiles (16×16 tiles on the 64² footprint
/// give 16 per row); with few tiles per row (64×64 tiles give one) the
/// slab executor's intra-slab parallelism is the only parallelism there
/// is. Medians and barrier shares are recorded into
/// `results/BENCH_<host>.json` (merged by entry key, so a `tempest-report`
/// matrix in the same file survives). Run with `TEMPEST_THREADS=2
/// --features obs` for the reference comparison.
fn bench_dataflow_vs_slab(cfg: Config) {
    let threads = tempest_par::available_threads();
    let mut entries = Vec::new();
    for tile in [16usize, 64] {
        for tile_t in [2usize, 4] {
            let cand = Candidate {
                tile_x: tile,
                tile_y: tile,
                tile_t,
                block_x: 8,
                block_y: 8,
                ..Candidate::default()
            };
            entries.extend(head_to_head(
                cfg,
                &format!("dataflow_vs_slab/{tile}x{tile}/t{tile_t}"),
                [("slab", cand), ("dataflow", cand.with_dataflow())],
            ));
        }
    }
    record_entries(threads, entries, "dataflow_vs_slab");
}

/// Diamond-vs-dataflow head-to-head: at each temporal tile height both
/// schedules run barrier-free on the tile-plan executor with the same
/// 16-wide tiles, so the median wall time isolates the tiling geometry —
/// diamonds trade the dataflow schedule's 2D spatial tiling for full-height
/// time tiles with no redundant halo recompute and a wider ready frontier
/// along the cross axis. Recorded into `results/BENCH_<host>.json` next to
/// the other head-to-head.
fn bench_diamond_vs_dataflow(cfg: Config) {
    let threads = tempest_par::available_threads();
    let mut entries = Vec::new();
    for tile_t in [2usize, 4] {
        // Width 16 at radius 2 (so4): slope 4 at tile_t 2, slope 2 at
        // tile_t 4 — both legal, same footprint as the dataflow tiles.
        let cand = Candidate {
            tile_x: 16,
            tile_y: 16,
            tile_t,
            block_x: 8,
            block_y: 8,
            ..Candidate::default()
        };
        entries.extend(head_to_head(
            cfg,
            &format!("diamond_vs_dataflow/t{tile_t}"),
            [
                ("dataflow", cand.with_dataflow()),
                ("diamond", cand.with_diamond(DiamondAxis::X)),
            ],
        ));
    }
    record_entries(threads, entries, "diamond_vs_dataflow");
}

/// Merge head-to-head entries into the host's bench report so the
/// comparison is on record next to the tempest-report matrix. `cargo bench`
/// runs with the package as CWD, so resolve `results/` against the
/// workspace root.
fn record_entries(threads: usize, entries: Vec<BenchEntry>, label: &str) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a workspace root two levels up")
        .to_path_buf();
    let dir = root.join("results");
    let path = dir.join(format!("BENCH_{}.json", host_name()));
    let mut report = BenchReport::read(&path).unwrap_or(BenchReport {
        host: host_name(),
        threads,
        size: 64,
        nt: 8,
        fp_mode: tempest_stencil::fpenv::MODE.to_string(),
        ..Default::default()
    });
    for e in entries {
        report.entries.retain(|old| old.key() != e.key());
        report.entries.push(e);
    }
    match report.write(&dir) {
        Ok(p) => println!("{label}: recorded in {}", p.display()),
        Err(e) => eprintln!("{label}: could not write report: {e}"),
    }
}

/// Whether the profiling substrate is compiled in (barrier shares are
/// always 0.0 otherwise).
fn profile_compiled_in() -> bool {
    tempest_obs::set_enabled(true);
    let on = tempest_obs::enabled();
    tempest_obs::set_enabled(false);
    on
}

/// `--profile`: one instrumented run per schedule, rendered as a per-phase
/// table and written to `target/profile/*.json`.
fn profile_section() {
    tempest_obs::set_enabled(true);
    let cand = Candidate {
        tile_x: 32,
        tile_y: 32,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
        ..Candidate::default()
    };
    let execs = [
        exec_spaceblocked(8, 8),
        exec_wavefront(&cand),
        exec_wavefront(&cand.with_dataflow()),
    ];
    for e in execs {
        let mut s = setup::acoustic(64, 4, 8, 0);
        let (_, profile, meta) = s.run_profiled(&e);
        if profile.is_empty() {
            println!(
                "profile: no samples for {} — build with --features obs",
                meta.schedule
            );
            continue;
        }
        println!("{}", profile.render(&meta));
        match profile.write_json(&meta) {
            Ok(p) => println!("profile: wrote {}", p.display()),
            Err(err) => eprintln!("profile: could not write JSON: {err}"),
        }
    }
}

fn main() {
    let cfg = Config::coarse();
    bench_slab_generation(cfg);
    bench_legality_checker(cfg);
    bench_plan_checker(cfg);
    bench_schedules_end_to_end(cfg);
    bench_thread_scaling(cfg);
    bench_dataflow_vs_slab(cfg);
    bench_diamond_vs_dataflow(cfg);
    if std::env::args().any(|a| a == "--profile") {
        profile_section();
    }
}
