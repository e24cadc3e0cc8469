//! Benchmarks of the schedule engine itself: slab generation cost,
//! legality-checker cost, a small end-to-end comparison of the spatially
//! blocked vs wave-front (slab-ordered, diagonal-parallel and dataflow)
//! schedules on a cache-resident problem, a thread-scaling sweep of the
//! wave-front executors, and two head-to-heads recorded into
//! `results/BENCH_<host>.json`: diagonal-vs-dataflow (barrier discipline)
//! and diamond-vs-dataflow (tiling geometry on the same barrier-free
//! substrate). The large-grid comparison lives in the `figure9` harness.

use std::hint::black_box;
use tempest_bench::microbench::{self, Config};
use tempest_bench::perf_report::{host_name, BenchEntry, BenchReport};
use tempest_bench::setup;
use tempest_bench::sweep::{exec_spaceblocked, exec_wavefront};
use tempest_core::WaveSolver;
use tempest_grid::Shape;
use tempest_par::Policy;
use tempest_tiling::legality::{check_diagonal_independence, check_schedule, DepModel};
use tempest_tiling::wavefront::{slabs, WavefrontSpec};
use tempest_tiling::{Candidate, DiamondAxis};

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

fn bench_diagonal_checker(cfg: Config) {
    let shape = Shape::new(64, 64, 4);
    let spec = WavefrontSpec::new(16, 16, 8, 2, 8, 8);
    microbench::run("diagonal_independence_check_64x64x32", cfg, || {
        check_diagonal_independence(
            shape,
            32,
            DepModel {
                radius: 2,
                levels: 3,
            },
            black_box(&spec),
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
        diagonal: false,
        dataflow: false,
        diamond: None,
        kernel: None,
    };
    for c in [cand, cand.with_diagonal(), cand.with_dataflow()] {
        let label = if c.dataflow {
            "acoustic_64cube_8steps/wavefront_dataflow"
        } else if c.diagonal {
            "acoustic_64cube_8steps/wavefront_diagonal"
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

/// Thread-scaling sweep of the wave-front executors: the diagonal and
/// dataflow executors' advantage is parallel grain, so it is only visible
/// with more than one worker. Capped at the machine's available threads
/// (`TEMPEST_THREADS` respected via `tempest_par::available_threads`).
fn bench_thread_scaling(cfg: Config) {
    let avail = tempest_par::available_threads();
    let cand = Candidate {
        tile_x: 16,
        tile_y: 16,
        tile_t: 4,
        block_x: 8,
        block_y: 8,
        diagonal: false,
        dataflow: false,
        diamond: None,
        kernel: None,
    };
    for threads in [1usize, 2, 4, 8] {
        if threads > avail {
            println!(
                "thread_scaling: skipping {threads} threads (only {avail} available)"
            );
            continue;
        }
        for c in [cand, cand.with_diagonal(), cand.with_dataflow()] {
            let mode = if c.dataflow {
                "dataflow"
            } else if c.diagonal {
                "diagonal"
            } else {
                "slab"
            };
            let mut s = setup::acoustic(64, 4, 8, 0);
            let mut e = exec_wavefront(&c);
            e.policy = Policy::Capped { threads };
            microbench::run(
                &format!("thread_scaling/{mode}/t{threads}"),
                cfg,
                || {
                    black_box(s.run(&e).elapsed);
                },
            );
        }
    }
}

/// Barrier-discipline head-to-head (ISSUE 5 acceptance): at each temporal
/// tile height the diagonal and dataflow executors run the same tile
/// geometry, so median wall time isolates the scheduling overhead and the
/// profiled barrier-wait share isolates the synchronisation cost. Both the
/// medians and the shares are recorded into `results/BENCH_<host>.json`
/// (merged by entry key, so a `tempest-report` matrix in the same file
/// survives). Run with `TEMPEST_THREADS=4 --features obs` for the
/// reference comparison.
fn bench_dataflow_vs_diagonal(cfg: Config) {
    let threads = tempest_par::available_threads();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if threads > cores {
        println!(
            "dataflow_vs_diagonal: CAVEAT — {threads} threads on {cores} hardware core(s); \
             any work actually shared makes the other participants wait out the thief's \
             timeslice, which inflates the measured waits of whichever executor shares more \
             (the dataflow one). Medians are the decisive column here; compare shares on a \
             machine with ≥{threads} cores."
        );
    }
    // ~90 ms per run: give the medians a longer budget than the coarse
    // default's 600 ms or they are medians of five.
    let cfg = Config {
        measure: std::time::Duration::from_millis(2000),
        max_iters: 30,
        ..cfg
    };
    let mut entries: Vec<BenchEntry> = Vec::new();
    for tile_t in [2usize, 4] {
        // 16×16 tiles on the 64² footprint give 16 tiles per time row — a
        // wide enough graph that the scheduling discipline, not the tile
        // count, is what differs between the two executors.
        let cand = Candidate {
            tile_x: 16,
            tile_y: 16,
            tile_t,
            block_x: 8,
            block_y: 8,
            diagonal: false,
            dataflow: false,
            diamond: None,
            kernel: None,
        };
        let mut row = Vec::new();
        for c in [cand.with_diagonal(), cand.with_dataflow()] {
            let mode = if c.dataflow { "dataflow" } else { "diagonal" };
            // 32 steps: long enough (tens of milliseconds) that the OS
            // actually interleaves the worker threads — an 8-step run fits
            // in one timeslice and measures no synchronisation at all.
            let mut s = setup::acoustic(64, 4, 32, 0);
            let mut e = exec_wavefront(&c);
            // Full parallel dispatch: `Policy::Auto`'s min-items gate would
            // run the diagonal executor's small per-diagonal batches
            // sequentially and hide the barrier cost being measured.
            e.policy = Policy::Parallel;
            let sample = microbench::run(
                &format!("dataflow_vs_diagonal/t{tile_t}/{mode}"),
                cfg,
                || {
                    black_box(s.run(&e).elapsed);
                },
            );
            // Median barrier-wait share over five instrumented runs (one
            // run is hostage to scheduler luck); profiling stays off during
            // the timed iterations above.
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
                kernel: "pencil".into(),
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
        let (_, diag_med, diag_share) = row[0];
        let (_, dflow_med, dflow_share) = row[1];
        println!(
            "dataflow_vs_diagonal/t{tile_t}: barrier-wait diagonal {:.2}% vs dataflow {:.2}% ({}), \
             median {:?} vs {:?} ({})",
            100.0 * diag_share,
            100.0 * dflow_share,
            if profile_compiled_in() {
                if dflow_share < diag_share { "lower ✓" } else { "NOT lower ✗" }
            } else {
                "build with --features obs to measure"
            },
            diag_med,
            dflow_med,
            if dflow_med <= diag_med { "no slower ✓" } else { "slower ✗" },
        );
    }

    record_entries(threads, entries, "dataflow_vs_diagonal");
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

/// Diamond-vs-dataflow head-to-head: at each temporal tile height both
/// schedules run barrier-free on the dependency-counted substrate with the
/// same 16-wide tiles, so the median wall time isolates the tiling
/// geometry — diamonds trade the dataflow schedule's 2D spatial tiling for
/// full-height time tiles with no redundant halo recompute and a wider
/// ready frontier along the cross axis. Recorded into
/// `results/BENCH_<host>.json` next to the other head-to-head.
fn bench_diamond_vs_dataflow(cfg: Config) {
    let threads = tempest_par::available_threads();
    let cfg = Config {
        measure: std::time::Duration::from_millis(2000),
        max_iters: 30,
        ..cfg
    };
    let mut entries: Vec<BenchEntry> = Vec::new();
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
        let mut row = Vec::new();
        for c in [cand.with_dataflow(), cand.with_diamond(DiamondAxis::X)] {
            let mode = if c.diamond.is_some() { "diamond" } else { "dataflow" };
            let mut s = setup::acoustic(64, 4, 32, 0);
            let mut e = exec_wavefront(&c);
            e.policy = Policy::Parallel;
            let sample = microbench::run(
                &format!("diamond_vs_dataflow/t{tile_t}/{mode}"),
                cfg,
                || {
                    black_box(s.run(&e).elapsed);
                },
            );
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
                kernel: "pencil".into(),
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
        let (_, dflow_med, dflow_share) = row[0];
        let (_, dmnd_med, dmnd_share) = row[1];
        println!(
            "diamond_vs_dataflow/t{tile_t}: median dataflow {:?} vs diamond {:?} ({}), \
             barrier-wait {:.2}% vs {:.2}%",
            dflow_med,
            dmnd_med,
            if dmnd_med <= dflow_med { "diamond no slower ✓" } else { "diamond slower" },
            100.0 * dflow_share,
            100.0 * dmnd_share,
        );
    }
    record_entries(threads, entries, "diamond_vs_dataflow");
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
        diagonal: false,
        dataflow: false,
        diamond: None,
        kernel: None,
    };
    let execs = [
        exec_spaceblocked(8, 8),
        exec_wavefront(&cand),
        exec_wavefront(&cand.with_diagonal()),
        exec_wavefront(&cand.with_dataflow()),
    ];
    for e in execs {
        let mut s = setup::acoustic(64, 4, 8, 0);
        let (_, profile, meta) = s.run_profiled(&e);
        if profile.is_empty() {
            println!("profile: no samples for {} — build with --features obs", meta.schedule);
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
    bench_diagonal_checker(cfg);
    bench_schedules_end_to_end(cfg);
    bench_thread_scaling(cfg);
    bench_dataflow_vs_diagonal(cfg);
    bench_diamond_vs_dataflow(cfg);
    if std::env::args().any(|a| a == "--profile") {
        profile_section();
    }
}
