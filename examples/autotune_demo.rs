//! Auto-tuning demo (paper §IV.C / Table I): sweep tile/block shapes for
//! wave-front temporal blocking of the acoustic propagator and print the
//! ranking. Shows why tuning matters — the spread between best and worst
//! candidate is often larger than the blocking gain itself.
//!
//! ```text
//! cargo run --release --example autotune_demo
//! ```
//!
//! With profiling compiled in and switched on, the sweep also records each
//! candidate's barrier-wait share and uses it to break near-ties between
//! slab-ordered and dataflow shapes:
//!
//! ```text
//! TEMPEST_PROFILE=1 cargo run --release --example autotune_demo --features obs
//! ```
//!
//! Add `--trace` (or `TEMPEST_TRACE=1`) to trace the final tuned run: the
//! per-diagonal tile load-imbalance summary prints next to the comparison
//! and the Chrome trace JSON lands under `results/trace/`.

use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::config::EquationKind;
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Domain, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::tiling::{
    autotune_measured, autotune::default_candidates, with_dataflow_variants, with_diamond_variants,
    Candidate, Measurement,
};

/// Schedule for a candidate: slab-ordered, dependency-driven dataflow, or
/// diamond, per its `dataflow`/`diamond` flags. Diamond candidates reuse `tile_x`
/// as the diamond base width and `tile_y` as the cross-axis window.
fn schedule_of(c: &Candidate) -> Schedule {
    if let Some(axis) = c.diamond {
        Schedule::Diamond {
            width: c.tile_x,
            tile_t: c.tile_t,
            tile_c: c.tile_y,
            axis,
            block_x: c.block_x,
            block_y: c.block_y,
        }
    } else if c.dataflow {
        Schedule::WavefrontDataflow {
            tile_x: c.tile_x,
            tile_y: c.tile_y,
            tile_t: c.tile_t,
            block_x: c.block_x,
            block_y: c.block_y,
        }
    } else {
        Schedule::Wavefront {
            tile_x: c.tile_x,
            tile_y: c.tile_y,
            tile_t: c.tile_t,
            block_x: c.block_x,
            block_y: c.block_y,
        }
    }
}

fn main() {
    if std::env::args().any(|a| a == "--trace") {
        tempest::obs::trace::set_enabled(true);
    }
    let n = 128;
    let nt = 16;
    let domain = Domain::uniform(Shape::cube(n), 10.0);
    let model = Model::random(domain, 1500.0, 3000.0, 7);
    let cfg = SimConfig::new(domain, 8, EquationKind::Acoustic, 3000.0, 200.0).with_nt(nt);
    let src = SparsePoints::single_center(&domain, 0.37);
    let mut solver = Acoustic::new(&model, cfg, src, None);

    // Each tile geometry is tried under both wave-front executors —
    // slab-ordered and dependency-driven dataflow ("/ dflow") — plus the
    // diamond schedule ("/ dmnd-x", "/ dmnd-y") for every geometry whose
    // tile width is a legal diamond base width at this stencil radius. Same
    // bases, no duplicates.
    let radius = 4; // space order 8
    let base = default_candidates(n, n, &[4, 8, 16]);
    let mut cands = with_dataflow_variants(&base);
    cands.extend(
        with_diamond_variants(&base, radius, 1)
            .into_iter()
            .filter(|c| c.diamond.is_some()),
    );
    println!(
        "sweeping {} candidates on a {n}³ grid, {nt} steps each…\n",
        cands.len()
    );

    // Candidates within 5% of the fastest are ranked by measured
    // barrier-wait share (when telemetry is recorded) — wall time alone
    // cannot separate slab-ordered from dataflow shapes on short
    // tuning runs.
    let result = autotune_measured(
        &cands,
        |c| {
            let exec = Execution {
                schedule: schedule_of(c),
                sparse: SparseMode::FusedCompressed,
                policy: Policy::default(),
                kernel: KernelPath::default(),
            };
            let (stats, profile, _) = solver.run_profiled(&exec);
            Measurement {
                time: stats.elapsed,
                barrier_share: if profile.is_empty() {
                    None
                } else {
                    Some(profile.barrier_wait_share())
                },
            }
        },
        0.05,
    );

    let share_col = |m: &Measurement| {
        m.barrier_share
            .map(|s| format!("{:>5.1}%", s * 100.0))
            .unwrap_or_else(|| "    —".into())
    };

    // Ranking table.
    let mut ranked = result.all.clone();
    ranked.sort_by_key(|(_, m)| m.time);
    println!("rank  candidate                       time      barrier-wait");
    for (i, (c, m)) in ranked.iter().take(8).enumerate() {
        println!("{:>4}  {c:<30}  {:>8.3?}  {}", i + 1, m.time, share_col(m));
    }
    println!("   …");
    let (wc, wm) = ranked.last().unwrap();
    println!("last  {wc:<30}  {:>8.3?}  {}", wm.time, share_col(wm));

    println!(
        "\nbest: {}  ({:.3?}, barrier-wait {}); worst is {:.2}x slower",
        result.best,
        result.best_measurement.time,
        share_col(&result.best_measurement),
        wm.time.as_secs_f64() / result.best_measurement.time.as_secs_f64()
    );

    // Compare the tuned schedule against the baseline.
    let base = solver.run(&Execution::baseline());
    let tuned_exec = Execution {
        schedule: schedule_of(&result.best),
        sparse: SparseMode::FusedCompressed,
        policy: Policy::default(),
        kernel: KernelPath::default(),
    };
    let (wtb, _profile, trace, meta) = solver.run_traced(&tuned_exec);
    println!(
        "\nbaseline {:.3} GPts/s → tuned WTB {:.3} GPts/s ({:.2}x)",
        base.gpoints_per_s,
        wtb.gpoints_per_s,
        wtb.gpoints_per_s / base.gpoints_per_s
    );

    // With tracing on, show how well the tuned schedule balances the tiles
    // of each anti-diagonal — the signal behind the barrier-share
    // tie-breaker above.
    if !trace.is_empty() {
        println!("\n{}", tempest::obs::analysis::TraceAnalysis::from_trace(&trace).render());
        match trace.write_chrome_json(&meta) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(err) => eprintln!("could not write trace JSON: {err}"),
        }
    }

    // Same tile geometry, barrier discipline compared head-to-head: one
    // barrier per slab (slab-ordered executor) vs one join per sweep
    // (dataflow executor). With profiling on, the barrier-wait share is the
    // synchronisation cost each discipline actually paid.
    let geometry = result.best;
    let run_share = |solver: &mut Acoustic, c: &Candidate| {
        let exec = Execution {
            schedule: schedule_of(c),
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        };
        let (stats, profile, _) = solver.run_profiled(&exec);
        let share = (!profile.is_empty()).then(|| profile.barrier_wait_share());
        (stats, share)
    };
    let slab = Candidate {
        dataflow: false,
        diamond: None,
        ..geometry
    };
    let (sl_stats, sl_share) = run_share(&mut solver, &slab);
    let (df_stats, df_share) = run_share(&mut solver, &geometry.with_dataflow());
    let pct = |s: Option<f64>| s.map(|v| format!("{:>5.1}%", v * 100.0)).unwrap_or("    —".into());
    println!("\nbarrier discipline at the tuned geometry ({geometry}):");
    println!(
        "  slab     (barrier per slab)           {:>8.3?}  barrier-wait {}",
        sl_stats.elapsed,
        pct(sl_share)
    );
    println!(
        "  dataflow (single join per sweep)      {:>8.3?}  barrier-wait {}",
        df_stats.elapsed,
        pct(df_share)
    );
    // Diamond shares the single-join discipline; it only joins the
    // comparison when the tuned tile width is a legal diamond base width.
    match with_diamond_variants(&[geometry], radius, 1)
        .into_iter()
        .find(|c| c.diamond.is_some())
    {
        Some(dm) => {
            let (dm_stats, dm_share) = run_share(&mut solver, &dm);
            println!(
                "  diamond  (single join per sweep)      {:>8.3?}  barrier-wait {}",
                dm_stats.elapsed,
                pct(dm_share)
            );
        }
        None => println!(
            "  diamond: tile width {} is not a legal diamond base width at \
             radius {radius}, tile_t {} (needs a multiple of 2·tile_t with \
             width/(2·tile_t) ≥ radius)",
            geometry.tile_x, geometry.tile_t
        ),
    }
}
