//! Incremental recomputation suite (DESIGN.md §16): dirty-cone
//! invalidation plus the per-tile result cache.
//!
//! The correctness bar is *bitwise equivalence*: an incremental rerun after
//! a delta (moved source, changed receivers) must reproduce the wavefield a
//! cold full rerun computes, bit for bit, while recomputing strictly fewer
//! tiles. Receiver traces are bitwise at sequential/cap-1 execution and
//! within accumulation-order tolerance at higher caps — exactly the
//! determinism contract the non-incremental schedules already satisfy.
//!
//! The cone pass itself is property-tested against a brute-force oracle
//! (transitive closure of halo-overlap successors from the seed tiles) over
//! wavefront, tile_t = 1 (spaceblocked) and diamond tile graphs.
//!
//! The CI `incremental` job re-runs this suite under `TEMPEST_THREADS` of
//! 1, 2 and 4; nothing here may depend on the pool size.

use std::sync::{Arc, Mutex, MutexGuard};

use tempest::core::config::EquationKind;
use tempest::core::operator::{DiamondAxis, KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Execution, SimConfig, WaveSolver};
use tempest::grid::{Array2, Domain, Model, Shape};
use tempest::par::Policy;
use tempest::sparse::SparsePoints;
use tempest::survey::{run_survey, JobSpec, JobState, Survey, SurveyOptions, SurveyService};
use tempest::tiling::incremental::{dirty_cone, dirty_cone_oracle, DirtyRect, TileCache};
use tempest::tiling::{DiamondSpec, TilePlan, WavefrontSpec};

const N: usize = 32;
const NT: usize = 6;

/// Every test that runs a solver holds this lock. The counter oracles
/// (obs feature) read process-wide counters, which a solver run on another
/// test thread would bump mid-check.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn domain() -> Domain {
    Domain::uniform(Shape::cube(N), 10.0)
}

/// The standard problem: two-layer model, one off-grid source near the
/// centre (nudged sub-cell by `frac`), a 4-receiver line.
fn problem(frac: f32) -> Acoustic {
    problem_with_receivers(frac, 4)
}

fn problem_with_receivers(frac: f32, receivers: usize) -> Acoustic {
    let d = domain();
    let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2800.0, 50.0)
        .with_nt(NT)
        .with_f0(25.0);
    let src = SparsePoints::single_center(&d, frac);
    let rec = (receivers > 0).then(|| SparsePoints::receiver_line(&d, receivers, 0.2));
    Acoustic::new(&model, cfg, src, rec)
}

/// Every schedule the incremental path supports, with tile shapes small
/// enough that a sub-cell source nudge leaves part of the graph clean.
fn schedules() -> Vec<(&'static str, Schedule)> {
    vec![
        (
            "spaceblocked",
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
        ),
        (
            "wavefront-dataflow",
            Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            },
        ),
        (
            "diamond",
            Schedule::Diamond {
                width: 24,
                tile_t: 3,
                tile_c: 8,
                axis: DiamondAxis::X,
                block_x: 4,
                block_y: 4,
            },
        ),
    ]
}

fn exec(schedule: Schedule, policy: Policy) -> Execution {
    Execution {
        schedule,
        sparse: SparseMode::FusedCompressed,
        policy,
        kernel: KernelPath::default(),
    }
}

fn trace_bitwise(a: &Array2<f32>, b: &Array2<f32>, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: trace dims differ");
    for i in 0..a.len() {
        assert_eq!(
            a.as_slice()[i].to_bits(),
            b.as_slice()[i].to_bits(),
            "{what}: trace element {i}: {} vs {}",
            a.as_slice()[i],
            b.as_slice()[i]
        );
    }
}

fn trace_close(a: &Array2<f32>, b: &Array2<f32>, tol_rel: f32, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: trace dims differ");
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()))
        .max(1e-30);
    for i in 0..a.len() {
        let d = (a.as_slice()[i] - b.as_slice()[i]).abs();
        assert!(
            d <= tol_rel * scale,
            "{what}: trace element {i}: {} vs {} (scale {scale})",
            a.as_slice()[i],
            b.as_slice()[i]
        );
    }
}

// ---------------------------------------------------------------------------
// Cone-oracle property tests
// ---------------------------------------------------------------------------

/// Cheap deterministic LCG so the rect sample is reproducible (the CI
/// `incremental` job runs this at several thread caps; the sample must not
/// vary).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize
    }
}

/// `dirty_cone` must equal the brute-force transitive closure over every
/// plan family — wavefront parallelograms, the degenerate tile_t = 1
/// (spaceblocked) plan, and the diamond (MWD) graph — for corner-touching,
/// full-domain and random deltas alike.
#[test]
fn dirty_cone_matches_oracle_across_plans() {
    let shape = Shape::new(23, 17, 4);
    let plans = vec![
        (
            "wavefront",
            TilePlan::wavefront(shape, 11, &WavefrontSpec::new(8, 8, 4, 2, 4, 4), 2),
        ),
        ("tile_t1", TilePlan::spaceblocked(shape, 5, 8, 8, 2)),
        (
            "diamond",
            TilePlan::diamond(
                shape,
                12,
                &DiamondSpec::new(3, 2, 8, 2, 4, 4, DiamondAxis::X),
                2,
            ),
        ),
    ];
    let mut rng = Lcg(0x1CEB00DA);
    for (label, plan) in &plans {
        assert!(!plan.is_empty(), "{label}: empty plan");
        let mut cases: Vec<Vec<DirtyRect>> = vec![
            // Boundary tiles: corner cells at both extremes.
            vec![DirtyRect { x0: 0, x1: 1, y0: 0, y1: 1 }],
            vec![DirtyRect {
                x0: shape.nx - 1,
                x1: shape.nx,
                y0: shape.ny - 1,
                y1: shape.ny,
            }],
            // Full-domain delta: everything must go dirty.
            vec![DirtyRect {
                x0: 0,
                x1: shape.nx,
                y0: 0,
                y1: shape.ny,
            }],
        ];
        for _ in 0..12 {
            let n = 1 + rng.next() % 3;
            cases.push(
                (0..n)
                    .map(|_| {
                        let x0 = rng.next() % shape.nx;
                        let y0 = rng.next() % shape.ny;
                        DirtyRect {
                            x0,
                            x1: x0 + 1 + rng.next() % (shape.nx - x0),
                            y0,
                            y1: y0 + 1 + rng.next() % (shape.ny - y0),
                        }
                    })
                    .collect(),
            );
        }
        for rects in &cases {
            assert_eq!(
                dirty_cone(plan, rects),
                dirty_cone_oracle(plan, rects),
                "{label}: cone disagrees with oracle for {rects:?}"
            );
        }
    }
}

/// The full-domain delta dirties every tile; the empty delta dirties none.
#[test]
fn cone_extremes() {
    let shape = Shape::new(23, 17, 4);
    let plan = TilePlan::spaceblocked(shape, 5, 8, 8, 2);
    let all = dirty_cone(
        &plan,
        &[DirtyRect {
            x0: 0,
            x1: shape.nx,
            y0: 0,
            y1: shape.ny,
        }],
    );
    assert!(all.iter().all(|&d| d));
    let none = dirty_cone(&plan, &[]);
    assert!(none.iter().all(|&d| !d));
}

// ---------------------------------------------------------------------------
// Incremental rerun ≡ cold rerun, per schedule × thread cap
// ---------------------------------------------------------------------------

/// The acceptance criterion: after a single moved source, the warm
/// incremental rerun is bitwise-identical to a cold full rerun on every
/// supported schedule at caps 1/2/4 — while recomputing strictly fewer
/// tiles, with `reused + recomputed == total`.
#[test]
fn warm_rerun_is_bitwise_and_reuses_tiles() {
    let _serial = serial();
    for (label, schedule) in schedules() {
        for cap in [1usize, 2, 4] {
            let what = format!("{label} cap{cap}");
            let ex = exec(schedule, Policy::Capped { threads: cap });
            let cache = TileCache::with_capacity_mb(256);

            // Cold run populates the cache.
            let mut a = problem(0.37);
            let cold = a.run_incremental(&ex, &cache, 0);
            assert!(cold.cold, "{what}: first run must be cold");
            assert_eq!(cold.reused, 0, "{what}");
            assert_eq!(cold.recomputed, cold.total_tiles, "{what}");
            assert!(cold.total_tiles > 0, "{what}: no tiles enumerated");

            // Warm rerun with the source nudged sub-cell.
            let mut b = problem(0.61);
            let warm = b.run_incremental(&ex, &cache, 0);
            assert!(!warm.cold, "{what}: rerun must see the prior session");
            assert_eq!(warm.total_tiles, cold.total_tiles, "{what}");
            assert_eq!(
                warm.reused + warm.recomputed,
                warm.total_tiles,
                "{what}: every tile is either reused or recomputed"
            );
            assert!(warm.reused > 0, "{what}: nudged source must leave clean tiles");
            assert!(
                warm.recomputed < warm.total_tiles,
                "{what}: nudge must not dirty everything"
            );
            assert!(warm.recomputed > 0, "{what}: nudge must dirty its cone");

            // Reference: a cold full rerun of the nudged problem.
            let mut c = problem(0.61);
            c.run(&ex);
            assert!(
                b.final_field().bit_equal(&c.final_field()),
                "{what}: incremental field differs from cold rerun (max diff {})",
                b.final_field().max_abs_diff(&c.final_field())
            );
            let (tb, tc) = (b.trace().unwrap(), c.trace().unwrap());
            if cap == 1 {
                trace_bitwise(&tb, &tc, &what);
            } else {
                trace_close(&tb, &tc, 1e-4, &what);
            }
        }
    }
}

/// A cold run whose payload is several times the cache budget captures
/// only the tiles the budget holds: none of its captures evicts another,
/// and the bytes held never exceed the capacity. Its nudged rerun restores
/// those tiles and is bitwise-identical to a cold solve at caps 1/2/4.
#[test]
fn over_budget_run_keeps_what_fits_and_rerun_reuses_it() {
    let _serial = serial();
    const BIG: usize = 48;
    let d = Domain::uniform(Shape::cube(BIG), 10.0);
    let big = |frac: f32| {
        let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2800.0, 50.0)
            .with_nt(NT)
            .with_f0(25.0);
        let src = SparsePoints::single_center(&d, frac);
        let rec = SparsePoints::receiver_line(&d, 4, 0.2);
        Acoustic::new(&model, cfg, src, Some(rec))
    };
    for (label, schedule) in schedules() {
        for cap in [1usize, 2, 4] {
            let what = format!("{label} cap{cap}");
            let ex = exec(schedule, Policy::Capped { threads: cap });
            let cache = TileCache::with_capacity_mb(1);
            let payload = BIG * BIG * BIG * NT * std::mem::size_of::<f32>();
            assert!(
                payload > 2 * cache.capacity_bytes(),
                "{what}: sweep must exceed the budget"
            );

            let cold = big(0.37).run_incremental(&ex, &cache, 0);
            assert!(cold.cold, "{what}");
            let s = cache.stats();
            assert_eq!(s.evictions, 0, "{what}: a run evicted its own captures");
            assert!(
                s.bytes <= cache.capacity_bytes(),
                "{what}: {} > cap",
                s.bytes
            );
            assert!(
                s.entries > 0 && s.entries < cold.total_tiles,
                "{what}: {} of {} tiles kept",
                s.entries,
                cold.total_tiles
            );

            let mut b = big(0.61);
            let warm = b.run_incremental(&ex, &cache, 0);
            assert!(!warm.cold, "{what}");
            assert!(
                warm.reused > 0,
                "{what}: the kept tiles must serve the rerun"
            );
            assert_eq!(warm.reused + warm.recomputed, warm.total_tiles, "{what}");
            let s = cache.stats();
            assert_eq!(s.evictions, 0, "{what}: the rerun evicted kept tiles");
            assert!(
                s.bytes <= cache.capacity_bytes(),
                "{what}: {} > cap",
                s.bytes
            );

            let mut c = big(0.61);
            c.run(&ex);
            assert!(
                b.final_field().bit_equal(&c.final_field()),
                "{what}: incremental field differs from cold rerun (max diff {})",
                b.final_field().max_abs_diff(&c.final_field())
            );
            let (tb, tc) = (b.trace().unwrap(), c.trace().unwrap());
            if cap == 1 {
                trace_bitwise(&tb, &tc, &what);
            } else {
                trace_close(&tb, &tc, 1e-4, &what);
            }
        }
    }
}

/// Sequential policy is the cap-1 determinism anchor: traces bitwise too.
#[test]
fn warm_rerun_sequential_traces_are_bitwise() {
    let _serial = serial();
    for (label, schedule) in schedules() {
        let ex = exec(schedule, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(256);
        problem(0.37).run_incremental(&ex, &cache, 0);
        let mut b = problem(0.61);
        let warm = b.run_incremental(&ex, &cache, 0);
        assert!(warm.reused > 0, "{label}");
        let mut c = problem(0.61);
        c.run(&ex);
        assert!(b.final_field().bit_equal(&c.final_field()), "{label}");
        trace_bitwise(&b.trace().unwrap(), &c.trace().unwrap(), label);
    }
}

/// A receiver-only delta (here: the receiver line replaced by a shorter
/// one) has no stencil footprint, so the cone is empty: nothing recomputes,
/// every tile restores, and the replayed gather against the *new* receiver
/// set matches a cold run bitwise.
#[test]
fn receiver_only_delta_recomputes_nothing() {
    let _serial = serial();
    for (label, schedule) in schedules() {
        let ex = exec(schedule, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(256);
        problem_with_receivers(0.37, 4).run_incremental(&ex, &cache, 0);

        let mut b = problem_with_receivers(0.37, 2);
        let warm = b.run_incremental(&ex, &cache, 0);
        assert!(!warm.cold, "{label}");
        assert_eq!(warm.recomputed, 0, "{label}: receiver delta dirtied stencil tiles");
        assert_eq!(warm.reused, warm.total_tiles, "{label}");

        let mut c = problem_with_receivers(0.37, 2);
        c.run(&ex);
        assert!(b.final_field().bit_equal(&c.final_field()), "{label}");
        trace_bitwise(&b.trace().unwrap(), &c.trace().unwrap(), label);
    }
}

/// Receivers in the subnormal-range fringe of an SO8 wavefront, where the
/// floating-point mode decides the bits. The source sits a third of the
/// way along the diagonal, the receivers towards the far corner. Each
/// receiver lies on a grid column (x, y on the grid) with z a hair off it,
/// so one of its two weights is 0.002 and `w · v` is subnormal for field
/// values up to ~6e-36, of which the fringe holds many. One task adds all
/// of a sample's contributions in a fixed order, so the trace is bitwise at
/// every cap. The warm rerun restores every tile and replays the gathers:
/// a replay computed in another FP mode than the cold solve's steps shows
/// up as a trace bit mismatch.
#[test]
fn warm_gather_replay_in_the_fringe_is_bitwise() {
    let _serial = serial();
    const NT_FRINGE: usize = 16;
    let d = domain();
    let (o, h) = (d.origin(), d.spacing());
    let at = |i: [usize; 3], dz: f32| {
        [0, 1, 2].map(|a| o[a] + i[a] as f32 * h[a] + if a == 2 { dz * h[2] } else { 0.0 })
    };
    let fringe_problem = |rec: &[[usize; 3]]| {
        let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(d, 8, EquationKind::Acoustic, 2800.0, 500.0).with_nt(NT_FRINGE);
        let src = SparsePoints::new(&d, vec![at([10, 10, 10], 0.37)]);
        let rec = SparsePoints::new(&d, rec.iter().map(|&i| at(i, 0.002)).collect());
        Acoustic::new(&model, cfg, src, Some(rec))
    };
    let fringe = [
        [16, 29, 30],
        [18, 26, 26],
        [19, 28, 30],
        [21, 25, 26],
        [21, 29, 22],
        [19, 30, 30],
    ];
    let schedules = [
        Schedule::SpaceBlocked {
            block_x: 8,
            block_y: 8,
        },
        Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 4,
            block_y: 4,
        },
    ];
    for schedule in schedules {
        for cap in [1usize, 2, 4] {
            let ex = exec(schedule, Policy::Capped { threads: cap });
            let what = format!("{} cap{cap}", ex.schedule_label());
            let cache = TileCache::with_capacity_mb(256);
            fringe_problem(&[[16, 16, 16]]).run_incremental(&ex, &cache, 0);

            let mut b = fringe_problem(&fringe);
            let warm = b.run_incremental(&ex, &cache, 0);
            assert_eq!(warm.recomputed, 0, "{what}: receiver delta dirtied stencil tiles");
            assert_eq!(warm.reused, warm.total_tiles, "{what}");

            let mut c = fringe_problem(&fringe);
            c.run(&ex);
            assert!(b.final_field().bit_equal(&c.final_field()), "{what}");
            let (tb, tc) = (b.trace().unwrap(), c.trace().unwrap());
            assert!(
                tc.as_slice().iter().any(|v| *v != 0.0 && v.abs() < 1e-30),
                "{what}: receivers must sample the fringe"
            );
            trace_bitwise(&tb, &tc, &what);
        }
    }
}

/// An unchanged resubmission reuses every tile.
#[test]
fn identical_rerun_reuses_everything() {
    let _serial = serial();
    let ex = exec(schedules()[0].1, Policy::Sequential);
    let cache = TileCache::with_capacity_mb(256);
    problem(0.37).run_incremental(&ex, &cache, 0);
    let mut b = problem(0.37);
    let warm = b.run_incremental(&ex, &cache, 0);
    assert!(!warm.cold);
    assert_eq!(warm.recomputed, 0);
    assert_eq!(warm.reused, warm.total_tiles);
    let mut c = problem(0.37);
    c.run(&ex);
    assert!(b.final_field().bit_equal(&c.final_field()));
    trace_bitwise(&b.trace().unwrap(), &c.trace().unwrap(), "identical rerun");
}

/// `TEMPEST_CACHE_MB=0` (a zero-capacity cache) must behave exactly like
/// the pre-cache code path: `run_incremental` falls back to the plain
/// executor and the wavefield + trace are bitwise-identical to `run`.
#[test]
fn disabled_cache_is_bitwise_identical_to_plain_run() {
    let _serial = serial();
    for (label, schedule) in schedules() {
        let ex = exec(schedule, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(0);
        assert!(!cache.enabled());
        let mut a = problem(0.37);
        let rep = a.run_incremental(&ex, &cache, 0);
        assert!(rep.cold, "{label}");
        assert_eq!(rep.total_tiles, 0, "{label}: fallback enumerates no tiles");
        assert_eq!(rep.reused, 0, "{label}");
        assert_eq!(rep.recomputed, 0, "{label}");

        let mut b = problem(0.37);
        b.run(&ex);
        assert!(a.final_field().bit_equal(&b.final_field()), "{label}");
        trace_bitwise(&a.trace().unwrap(), &b.trace().unwrap(), label);
    }
}

// ---------------------------------------------------------------------------
// Service-level reuse across jobs
// ---------------------------------------------------------------------------

/// A paused [`SurveyService`] keeps one tile cache across jobs: submitting
/// the same fused-sparse survey twice serves the second job's tiles from
/// cache, and both jobs' gathers are byte-identical.
#[test]
fn service_reuses_tiles_across_jobs() {
    let _serial = serial();
    let svc = SurveyService::paused();
    let Some(cache) = svc.tile_cache().cloned() else {
        // TEMPEST_CACHE_MB=0 in the environment disables the service cache;
        // the disabled path is covered above.
        return;
    };

    let d = Domain::uniform(Shape::cube(16), 10.0);
    let model = Model::homogeneous(d, 2000.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let mut s = Survey::new(model, cfg).with_receivers(SparsePoints::receiver_line(&d, 3, 0.2));
    s.add_shot_line(2, 0.1);
    let survey = Arc::new(s);

    let opts = SurveyOptions {
        exec: exec(
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            Policy::Sequential,
        ),
        ..Default::default()
    };

    let first = svc.submit(JobSpec::new(Arc::clone(&survey)).with_opts(opts.clone()));
    assert_eq!(svc.drain(), 1);
    let after_cold = cache.stats();
    assert!(after_cold.entries > 0, "cold job must populate the cache");

    let second = svc.submit(JobSpec::new(survey).with_opts(opts));
    assert_eq!(svc.drain(), 1);
    let after_warm = cache.stats();
    assert!(
        after_warm.hits > after_cold.hits,
        "resubmitted job must reuse tiles ({} vs {})",
        after_warm.hits,
        after_cold.hits
    );

    assert_eq!(svc.poll(first).unwrap().state, JobState::Completed);
    assert_eq!(svc.poll(second).unwrap().state, JobState::Completed);
    let ga = svc.take_gathers(first).unwrap();
    let gb = svc.take_gathers(second).unwrap();
    assert_eq!(ga.len(), gb.len());
    for (x, y) in ga.iter().zip(&gb) {
        let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
        trace_bitwise(x, y, "cross-job gather");
    }
}

/// The session key covers every coefficient cell through the assets'
/// digest: a job on a model that differs from the previous job's in one
/// cell restores no tile from it, and its gathers equal a cache-off solve.
#[test]
fn service_job_on_a_one_cell_model_change_restores_nothing() {
    let _serial = serial();
    let svc = SurveyService::paused();
    let Some(cache) = svc.tile_cache().cloned() else {
        return; // TEMPEST_CACHE_MB=0: nothing is cached to begin with
    };
    let d = Domain::uniform(Shape::cube(16), 10.0);
    let cfg = SimConfig::new(d, 4, EquationKind::Acoustic, 2000.0, 30.0)
        .with_nt(4)
        .with_boundary(2, 0.3);
    let survey_on = |model: Model| {
        let mut s =
            Survey::new(model, cfg.clone()).with_receivers(SparsePoints::receiver_line(&d, 3, 0.2));
        s.add_shot_line(2, 0.1);
        Arc::new(s)
    };
    let opts = SurveyOptions {
        exec: exec(
            Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            Policy::Sequential,
        ),
        ..Default::default()
    };
    let model = Model::homogeneous(d, 2000.0);
    let mut changed = model.clone();
    let cell = changed.m.len() / 3;
    changed.m.as_mut_slice()[cell] *= 1.0001;

    svc.submit(JobSpec::new(survey_on(model)).with_opts(opts.clone()));
    assert_eq!(svc.drain(), 1);
    let before = cache.stats();
    assert!(before.entries > 0, "first job must populate the cache");

    let changed = survey_on(changed);
    let id = svc.submit(JobSpec::new(Arc::clone(&changed)).with_opts(opts.clone()));
    assert_eq!(svc.drain(), 1);
    assert_eq!(svc.poll(id).unwrap().state, JobState::Completed);
    assert_eq!(
        cache.stats().hits,
        before.hits,
        "a one-cell model change must not restore tiles of the previous job"
    );
    let got = svc.take_gathers(id).unwrap();
    let want = run_survey(
        &changed,
        &SurveyOptions {
            cache: None,
            ..opts
        },
    )
    .unwrap();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        trace_bitwise(
            g.as_ref().unwrap(),
            w.gather.as_ref().unwrap(),
            "changed-model job",
        );
    }
}

// ---------------------------------------------------------------------------
// Counter mirror (obs feature only)
// ---------------------------------------------------------------------------

#[cfg(feature = "obs")]
mod counters {
    use super::*;
    use tempest::obs::{self, Counter};

    fn guard() -> MutexGuard<'static, ()> {
        let g = serial();
        obs::set_enabled(true);
        obs::reset();
        g
    }

    /// Exact-count oracle: `TilesReused + TilesRecomputed` equals the
    /// tiles the plan enumerated, and each mirrors the report.
    #[test]
    fn reuse_counters_are_exact() {
        let _g = guard();
        for (label, schedule) in schedules() {
            let ex = exec(schedule, Policy::Sequential);
            let cache = TileCache::with_capacity_mb(256);
            problem(0.37).run_incremental(&ex, &cache, 0);
            obs::reset();
            let mut b = problem(0.61);
            let warm = b.run_incremental(&ex, &cache, 0);
            let p = obs::snapshot();
            assert_eq!(p.counter(Counter::TilesReused), warm.reused as u64, "{label}");
            assert_eq!(
                p.counter(Counter::TilesRecomputed),
                warm.recomputed as u64,
                "{label}"
            );
            assert_eq!(
                p.counter(Counter::TilesReused) + p.counter(Counter::TilesRecomputed),
                warm.total_tiles as u64,
                "{label}: counter sum must equal the enumerated tile count"
            );
        }
    }

    /// The disabled-cache fallback records none of the new counters.
    #[test]
    fn disabled_cache_records_no_new_counters() {
        let _g = guard();
        let ex = exec(schedules()[0].1, Policy::Sequential);
        let cache = TileCache::with_capacity_mb(0);
        let mut a = problem(0.37);
        a.run_incremental(&ex, &cache, 0);
        let p = obs::snapshot();
        assert_eq!(p.counter(Counter::TilesReused), 0);
        assert_eq!(p.counter(Counter::TilesRecomputed), 0);
        assert_eq!(p.counter(Counter::CacheEvictions), 0);
    }
}
