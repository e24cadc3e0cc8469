//! The three workloads, their seeded inputs, and one measurement cycle.
//!
//! Every workload runs the same closed-loop cycle with one client, so that
//! every end-to-end metric is measured on every workload:
//!
//! 1. build a fresh seeded model;
//! 2. service leg: start a default `SurveyService`, submit the cold survey
//!    job and wait for `Completed`, then resubmit it with every shot nudged
//!    by a seeded sub-cell offset (the incremental rerun) and take its
//!    gathers, which must equal a cache-off solve of the nudged survey
//!    under the same options bit for bit;
//! 3. direct leg: build the propagator(s) of the nudged problem and run
//!    them with `WaveSolver::run` under the spatially blocked baseline and
//!    then under wave-front dataflow temporal blocking at the workload's
//!    pinned shape (several shots run shot-parallel, one thread each). WTB's final field must equal SB's bit for bit and its
//!    receiver gather must agree within the repository's sparse-path
//!    tolerance (bitwise differences are counted).
//!
//! A mismatch, or a job that does not end `Completed`, is a failed
//! operation and the run goes on. Each cycle starts a fresh service, so the
//! cold job meets an empty tile cache, and builds a fresh seeded model, so
//! no state leaks between cycles. The survey service runs acoustic
//! propagators only, so the `tti-so8` service leg is an acoustic job at the
//! same grid, spacing, order and source.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use tempest_core::config::EquationKind;
use tempest_core::{Acoustic, Execution, ShotAssets, SimConfig, Tti, WaveSolver};
use tempest_grid::{Array2, Domain, Model, Rng64, Shape, TtiModel};
use tempest_par::Policy;
use tempest_sparse::SparsePoints;
use tempest_survey::{
    run_survey, JobSpec, JobState, ShotSpec, Survey, SurveyOptions, SurveyService,
};
use tempest_tiling::Candidate;

use crate::trace::Tracer;

/// Slowest and fastest velocity of the seeded models (m/s).
const VMIN: f32 = 1500.0;
const VMAX: f32 = 3000.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Physics {
    Acoustic,
    Tti,
}

#[derive(Debug, Clone, Copy)]
pub enum Receivers {
    /// `n` receivers on a line along x at 20% depth.
    Line(usize),
    /// `n` receivers on a near-surface x-y plane.
    Plane(usize),
}

/// A pinned WTB shape: square `tile × tile × tile_t` tiles with square
/// blocks, run by the dataflow executor.
fn dataflow(tile: usize, tile_t: usize, block: usize) -> Candidate {
    Candidate {
        tile_x: tile,
        tile_y: tile,
        tile_t,
        block_x: block,
        block_y: block,
        ..Candidate::default()
    }
    .with_dataflow()
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub physics: Physics,
    /// Cube edge in grid points.
    pub n: usize,
    /// Grid spacing (m).
    pub h: f32,
    pub so: usize,
    pub nt: usize,
    pub receivers: Receivers,
    pub shots: usize,
    /// Repetitions of the direct SB/WTB leg per cycle: more throughput
    /// samples where the service leg dominates the cycle.
    pub direct_reps: usize,
    /// Whether `setup_s` is the client's set-up of a service workload
    /// (model, service start, survey build) rather than the direct
    /// propagator build (model, constructor, sparse precompute).
    pub service_setup: bool,
    /// WTB shape pinned from one run of `tempest_bench::sweep` (see
    /// `--tune`); the full-size values are recorded in `BENCHMARK.json`.
    pub wtb: Candidate,
}

/// The workload called `name`; `tiny` shrinks it to a seconds-long smoke
/// configuration with the same structure.
pub fn spec(name: &str, tiny: bool) -> Option<Spec> {
    let small = dataflow(8, 4, 4);
    let s = match name {
        // Paper Fig. 9 headline case: memory-bound, 256³ working set well
        // beyond the last-level cache.
        "fig9-acoustic-so4" => Spec {
            name: "fig9-acoustic-so4",
            physics: Physics::Acoustic,
            n: 256,
            h: 10.0,
            so: 4,
            nt: 8,
            receivers: Receivers::Line(64),
            shots: 1,
            direct_reps: 3,
            service_setup: false,
            wtb: dataflow(16, 8, 8),
        },
        // Compute-bound: TTI SO8 at 20 m on a cube whose working set fits
        // the last-level cache, so the cross-derivative kernel dominates.
        "tti-so8" => Spec {
            name: "tti-so8",
            physics: Physics::Tti,
            n: 96,
            h: 20.0,
            so: 8,
            nt: 16,
            receivers: Receivers::Line(64),
            shots: 1,
            direct_reps: 1,
            service_setup: false,
            wtb: dataflow(16, 16, 8),
        },
        // Service, sparse and tile-cache layers: small solves, many
        // receivers, a cold job then its nudged rerun.
        "survey-rerun" => Spec {
            name: "survey-rerun",
            physics: Physics::Acoustic,
            n: 64,
            h: 10.0,
            so: 4,
            nt: 32,
            receivers: Receivers::Plane(4096),
            shots: 4,
            direct_reps: 1,
            service_setup: true,
            wtb: dataflow(16, 8, 16),
        },
        _ => return None,
    };
    Some(if tiny {
        Spec {
            n: 24,
            nt: 8,
            receivers: match s.receivers {
                Receivers::Line(_) => Receivers::Line(8),
                Receivers::Plane(_) => Receivers::Plane(64),
            },
            shots: s.shots.min(2),
            wtb: small,
            ..s
        }
    } else {
        s
    })
}

impl Spec {
    pub fn shape(&self) -> Shape {
        Shape::cube(self.n)
    }

    pub fn domain(&self) -> Domain {
        Domain::uniform(self.shape(), self.h)
    }

    pub fn radius(&self) -> usize {
        self.so / 2
    }

    /// Point updates of one direct solve.
    pub fn updates(&self) -> f64 {
        self.nt as f64 * self.shape().len() as f64
    }

    pub fn acoustic_cfg(&self) -> SimConfig {
        SimConfig::new(self.domain(), self.so, EquationKind::Acoustic, VMAX, 512.0).with_nt(self.nt)
    }

    pub fn tti_cfg(&self, model: &TtiModel) -> SimConfig {
        SimConfig::new(
            self.domain(),
            self.so,
            EquationKind::Tti,
            model.vmax(),
            512.0,
        )
        .with_nt(self.nt)
    }

    pub fn receiver_points(&self) -> SparsePoints {
        let d = self.domain();
        match self.receivers {
            Receivers::Line(n) => SparsePoints::receiver_line(&d, n, 0.2),
            Receivers::Plane(n) => SparsePoints::plane_layout(&d, n, 0.05, 0.37),
        }
    }

    pub fn num_receivers(&self) -> usize {
        match self.receivers {
            Receivers::Line(n) | Receivers::Plane(n) => n,
        }
    }

    /// The baseline: spatially blocked with classic sparse operators.
    pub fn sb_exec(&self) -> Execution {
        Execution::baseline()
    }

    /// Wave-front dataflow temporal blocking with fused, compressed sparse
    /// operators at the pinned shape.
    pub fn wtb_exec(&self) -> Execution {
        tempest_bench::sweep::exec_wavefront(&self.wtb)
    }
}

/// The seeded inputs of one cycle. The program only ever sees these.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub model_seed: u64,
    pub shots: Vec<[f32; 3]>,
    pub nudged: Vec<[f32; 3]>,
}

/// Draw one cycle's inputs: a model seed, off-grid shot positions in the
/// inner part of the domain, and a sub-cell nudge of every shot.
pub fn draw_inputs(spec: &Spec, rng: &mut Rng64) -> Inputs {
    let d = spec.domain();
    let (o, e) = (d.origin(), d.extent());
    let model_seed = rng.next_u64();
    let n = spec.shots;
    let mut shots = Vec::with_capacity(n);
    for s in 0..n {
        let fx = (s as f32 + 1.0) / (n as f32 + 1.0) + rng.range_f32(-0.05, 0.05);
        shots.push([
            o[0] + fx * e[0],
            o[1] + rng.range_f32(0.4, 0.6) * e[1],
            o[2] + rng.range_f32(0.3, 0.45) * e[2],
        ]);
    }
    let nudged = shots
        .iter()
        .map(|p| {
            let mut q = *p;
            for v in &mut q {
                *v += rng.range_f32(-0.45, 0.45) * spec.h;
            }
            q
        })
        .collect();
    Inputs {
        model_seed,
        shots,
        nudged,
    }
}

/// Cache statistics deltas of one cycle's service leg.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheDelta {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Payload bytes held after the rerun.
    pub bytes: usize,
    /// Lookups made by the rerun alone.
    pub rerun_hits: u64,
    pub rerun_lookups: u64,
}

/// Client-side split of one job (traced runs only; zero otherwise).
#[derive(Debug, Clone, Copy, Default)]
pub struct JobSplit {
    pub submit_s: f64,
    pub queue_wait_s: f64,
    pub exec_s: f64,
    pub gather_s: f64,
}

/// One repetition of the direct leg: every shot under SB, then under WTB.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Wall time around all of the repetition's `WaveSolver::run` calls
    /// under each schedule (the shots of a multi-shot problem run
    /// concurrently).
    pub sb_wall_s: f64,
    pub wtb_wall_s: f64,
    /// Wall time around each single `run`, summed over the shots.
    pub sb_run_s: f64,
    pub wtb_run_s: f64,
    /// `RunStats.elapsed`, summed over the shots.
    pub sb_loop_s: f64,
    pub wtb_loop_s: f64,
}

/// Everything one cycle measured.
#[derive(Debug, Clone, Default)]
pub struct CycleOut {
    pub setup_s: f64,
    pub model_build_s: f64,
    pub core_build_s: f64,
    /// One entry per repetition of the direct leg.
    pub reps: Vec<Rep>,
    /// Point updates of one repetition (every shot, one schedule).
    pub updates_per_rep: f64,
    pub job_s: f64,
    pub rerun_s: f64,
    pub jobs: Vec<JobSplit>,
    pub cache: CacheDelta,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// SB/WTB gather pairs compared, and how many differ in any bit.
    pub gathers_compared: u64,
    pub gathers_bit_different: u64,
    pub wall_s: f64,
}

impl CycleOut {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two gathers agree within `tol` of the first one's largest
/// magnitude: the tolerance the repository's equivalence tests allow
/// between sparse paths, whose receiver sums run in different orders.
fn gather_close(a: &Array2<f32>, b: &Array2<f32>, tol: f32) -> bool {
    let scale = a
        .as_slice()
        .iter()
        .fold(0.0f32, |m, &v| m.max(v.abs()))
        .max(1e-30);
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= tol * scale)
}

/// Relative tolerance between the classic (SB) and fused (WTB) receiver
/// gathers, as in `tests/equivalence.rs`.
const GATHER_TOL: f32 = 1e-4;

/// Run every solver under `exec` and return (wall time of the whole
/// batch, summed wall time around each `run`, summed `RunStats.elapsed`).
/// A single solver gets the whole pool. Several run shot-parallel with one
/// thread each, the way the survey service runs shots: tile parallelism
/// inside a small solve spends most of its time synchronising, and that
/// time swings with whatever else the host runs.
fn run_batch<S: WaveSolver + Send>(solvers: &mut [S], exec: &Execution) -> (f64, f64, f64) {
    let start = Instant::now();
    if let [solver] = solvers {
        let st = solver.run(exec);
        let wall = start.elapsed().as_secs_f64();
        return (wall, wall, st.elapsed.as_secs_f64());
    }
    let sums = Mutex::new((0.0f64, 0.0f64));
    tempest_par::for_each_chunk_mut(Policy::default(), solvers, 1, |_, chunk| {
        let t = Instant::now();
        let st = tempest_par::with_thread_budget(1, || chunk[0].run(exec));
        let run_s = t.elapsed().as_secs_f64();
        let mut s = sums.lock().expect("no solve panics while holding the lock");
        s.0 += run_s;
        s.1 += st.elapsed.as_secs_f64();
    });
    let (run_s, loop_s) = sums.into_inner().expect("no solve panicked");
    (start.elapsed().as_secs_f64(), run_s, loop_s)
}

/// Threads one direct solve may use: all of them for a single shot, one
/// per shot otherwise (see [`run_batch`]).
pub fn solve_threads(spec: &Spec) -> usize {
    if spec.shots > 1 {
        1
    } else {
        tempest_par::available_threads()
    }
}

/// Run `solvers` under SB then WTB, timing the wall clock around the
/// `run` calls. WTB's final field must equal SB's bit for bit. The gathers
/// come from two sparse paths that sum receiver contributions in different
/// orders, so they must agree within [`GATHER_TOL`]; bitwise differences
/// are counted and reported.
fn sb_then_wtb<S: WaveSolver + Send>(
    solvers: &mut [S],
    spec: &Spec,
    tr: &mut Tracer,
    out: &mut CycleOut,
) -> Rep {
    let mut rep = Rep::default();
    (rep.sb_wall_s, rep.sb_run_s, rep.sb_loop_s) =
        tr.span("core.run.sb", || run_batch(solvers, &spec.sb_exec()));
    let sb: Vec<_> = tr.span("check.snapshot", || {
        solvers
            .iter_mut()
            .map(|s| (s.final_field(), s.trace()))
            .collect()
    });
    (rep.wtb_wall_s, rep.wtb_run_s, rep.wtb_loop_s) =
        tr.span("core.run.wtb", || run_batch(solvers, &spec.wtb_exec()));
    out.attempted += 2 * solvers.len() as u64;

    let span = tr.begin("check.compare");
    for (i, (solver, (sb_field, sb_gather))) in solvers.iter_mut().zip(sb).enumerate() {
        if !bits_equal(solver.final_field().as_slice(), sb_field.as_slice()) {
            out.fail(format!("shot {i}: WTB final field differs from SB"));
        }
        match (solver.trace(), sb_gather) {
            (Some(a), Some(b)) => {
                out.gathers_compared += 1;
                if !bits_equal(a.as_slice(), b.as_slice()) {
                    out.gathers_bit_different += 1;
                    if !gather_close(&b, &a, GATHER_TOL) {
                        out.fail(format!(
                            "shot {i}: WTB gather differs from SB beyond {GATHER_TOL}"
                        ));
                    }
                }
            }
            (None, None) => {}
            _ => out.fail(format!("shot {i}: only one schedule recorded a gather")),
        }
    }
    tr.end(span);
    rep
}

/// Submit one job and wait until it is terminal. Traced runs poll for
/// `Running` to split queue wait from execution; untraced runs block in
/// `wait` only. Returns the wall time from `submit` to terminal state and
/// the gathers of a `Completed` job.
fn run_job(
    service: &SurveyService,
    survey: Arc<Survey>,
    opts: &SurveyOptions,
    tr: &mut Tracer,
    name: &'static str,
    out: &mut CycleOut,
) -> (f64, Option<Vec<Option<Array2<f32>>>>) {
    let traced = tr.enabled();
    let span = tr.begin(name);
    let mut split = JobSplit::default();
    let t0 = Instant::now();
    let id = tr.span("survey.submit", || {
        service.submit(JobSpec::new(survey).with_opts(opts.clone()))
    });
    let t_submitted = Instant::now();
    split.submit_s = (t_submitted - t0).as_secs_f64();
    let mut t_running = t_submitted;
    if traced {
        let wait = tr.begin("survey.queue_wait");
        while service.poll(id).map(|s| s.state) == Some(JobState::Queued) {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        tr.end(wait);
        t_running = Instant::now();
        split.queue_wait_s = (t_running - t_submitted).as_secs_f64();
    }
    let status = tr.span("survey.exec", || service.wait(id));
    let wall = t0.elapsed().as_secs_f64();
    split.exec_s = (Instant::now() - t_running).as_secs_f64();
    out.attempted += 1;
    let gathers = match status {
        Some(s) if s.state == JobState::Completed => {
            let t = Instant::now();
            let g = tr.span("survey.gather", || service.take_gathers(id));
            split.gather_s = t.elapsed().as_secs_f64();
            if g.is_none() {
                out.fail(format!("{name}: completed job returned no gathers"));
            }
            g
        }
        Some(s) => {
            out.fail(format!("{name}: job ended {:?}: {:?}", s.state, s.error));
            None
        }
        None => {
            out.fail(format!("{name}: job id unknown to the service"));
            None
        }
    };
    tr.end(span);
    if traced {
        out.jobs.push(split);
    }
    (wall, gathers)
}

fn survey_of(
    model: &Model,
    cfg: &SimConfig,
    receivers: &SparsePoints,
    shots: &[[f32; 3]],
) -> Survey {
    let mut s = Survey::new(model.clone(), cfg.clone()).with_receivers(receivers.clone());
    for &p in shots {
        s.add_shot(ShotSpec::at(p));
    }
    s
}

/// One measurement cycle on `inputs`.
pub fn cycle(spec: &Spec, inputs: &Inputs, tr: &mut Tracer) -> CycleOut {
    let mut out = CycleOut::default();
    let t_cycle = Instant::now();
    let domain = spec.domain();
    let receivers = spec.receiver_points();
    let acfg = spec.acoustic_cfg();

    // Set-up, part 1: the seeded model. TTI builds its anisotropic model
    // for the direct leg; the service leg always needs an acoustic one.
    let t = Instant::now();
    let span = tr.begin("grid.model_build");
    let model = Model::random(domain, VMIN, VMAX, inputs.model_seed);
    let tti_model = (spec.physics == Physics::Tti)
        .then(|| TtiModel::random(domain, VMIN, VMAX, inputs.model_seed));
    tr.end(span);
    out.model_build_s = t.elapsed().as_secs_f64();

    // Service leg. Survey-rerun's set-up is service start plus survey
    // build; the solver workloads count their propagator build instead.
    let t = Instant::now();
    let service = tr.span("survey.service_start", SurveyService::start);
    let (cold, rerun) = tr.span("survey.build", || {
        (
            Arc::new(survey_of(&model, &acfg, &receivers, &inputs.shots)),
            Arc::new(survey_of(&model, &acfg, &receivers, &inputs.nudged)),
        )
    });
    let survey_setup_s = t.elapsed().as_secs_f64();
    // The service's default options (one thread per shot solve) with the
    // workload's WTB execution.
    let opts = SurveyOptions {
        exec: spec.wtb_exec(),
        ..SurveyOptions::default()
    };
    let stats = |svc: &SurveyService| svc.tile_cache().map(|c| c.stats()).unwrap_or_default();
    let s0 = stats(&service);
    let (job_s, _) = run_job(&service, cold, &opts, tr, "survey.job.cold", &mut out);
    let s1 = stats(&service);
    let (rerun_s, rerun_gathers) = run_job(
        &service,
        Arc::clone(&rerun),
        &opts,
        tr,
        "survey.job.rerun",
        &mut out,
    );
    let s2 = stats(&service);
    out.job_s = job_s;
    out.rerun_s = rerun_s;
    out.cache = CacheDelta {
        hits: s2.hits - s0.hits,
        misses: s2.misses - s0.misses,
        evictions: s2.evictions - s0.evictions,
        bytes: s2.bytes,
        rerun_hits: s2.hits - s1.hits,
        rerun_lookups: (s2.hits + s2.misses) - (s1.hits + s1.misses),
    };
    tr.span("survey.shutdown", || drop(service));

    // The rerun must reproduce a cache-off solve of the same nudged survey
    // under the same options bit for bit.
    let span = tr.begin("check.rerun");
    let reference = run_survey(
        &rerun,
        &SurveyOptions {
            cache: None,
            ..opts
        },
    );
    drop(rerun);
    match (rerun_gathers, reference) {
        (_, Err(e)) => out.fail(format!("cache-off reference solve failed: {e}")),
        (Some(got), Ok(want)) => {
            let same = got.len() == want.len()
                && got.iter().zip(&want).all(|(a, b)| match (a, &b.gather) {
                    (Some(a), Some(b)) => bits_equal(a.as_slice(), b.as_slice()),
                    _ => false,
                });
            if !same {
                out.fail("rerun gathers differ from the cache-off solve".to_string());
            }
        }
        (None, Ok(_)) => {} // already counted as a failed job
    }
    tr.end(span);

    // Direct leg on the nudged problem.
    match spec.physics {
        Physics::Acoustic => {
            let t = Instant::now();
            let span = tr.begin("core.build");
            let assets = ShotAssets::new(&model, acfg, Some(receivers));
            let mut solvers: Vec<Acoustic> = inputs
                .nudged
                .iter()
                .map(|&p| Acoustic::from_assets(&assets, SparsePoints::new(&domain, vec![p])))
                .collect();
            tr.end(span);
            out.core_build_s = t.elapsed().as_secs_f64();
            drop(assets);
            for _ in 0..spec.direct_reps {
                let rep = sb_then_wtb(&mut solvers, spec, tr, &mut out);
                out.reps.push(rep);
            }
        }
        Physics::Tti => {
            let tti_model = tti_model.expect("TTI workloads build a TTI model");
            let t = Instant::now();
            let span = tr.begin("core.build");
            let mut solver = Tti::new(
                &tti_model,
                spec.tti_cfg(&tti_model),
                SparsePoints::new(&domain, vec![inputs.nudged[0]]),
                Some(receivers),
            );
            tr.end(span);
            out.core_build_s = t.elapsed().as_secs_f64();
            for _ in 0..spec.direct_reps {
                let rep = sb_then_wtb(std::slice::from_mut(&mut solver), spec, tr, &mut out);
                out.reps.push(rep);
            }
        }
    }
    out.updates_per_rep = spec.shots as f64 * spec.updates();
    out.setup_s = out.model_build_s
        + if spec.service_setup {
            survey_setup_s
        } else {
            out.core_build_s
        };
    out.wall_s = t_cycle.elapsed().as_secs_f64();
    out
}

/// Pin a WTB shape with one run of the repository's autotuner over the
/// dataflow candidates at the workload's size, and print the winner and
/// runner-up with their times.
pub fn tune(spec: &Spec, seed: u64) {
    use tempest_bench::sweep;
    let mut rng = Rng64::new(seed);
    let inputs = draw_inputs(spec, &mut rng);
    let domain = spec.domain();
    let n = spec.n;
    let cands: Vec<_> = sweep::candidates_for(n, n, spec.nt, false)
        .into_iter()
        .map(|c| c.with_dataflow())
        .collect();
    let src = SparsePoints::new(&domain, vec![inputs.nudged[0]]);
    let rec = Some(spec.receiver_points());
    let res = match spec.physics {
        Physics::Acoustic => {
            let model = Model::random(domain, VMIN, VMAX, inputs.model_seed);
            let mut s = Acoustic::new(&model, spec.acoustic_cfg(), src, rec);
            sweep::tune_wavefront(&mut s, &cands)
        }
        Physics::Tti => {
            let model = TtiModel::random(domain, VMIN, VMAX, inputs.model_seed);
            let mut s = Tti::new(&model, spec.tti_cfg(&model), src, rec);
            sweep::tune_wavefront(&mut s, &cands)
        }
    };
    let mut all = res.all;
    all.sort_by_key(|(_, t)| *t);
    println!(
        "# {} tuned over {} dataflow candidates (best of 2 runs each)",
        spec.name,
        all.len()
    );
    for (c, t) in all.iter().take(5) {
        println!("{:>10.4} ms  {c}", t.as_secs_f64() * 1e3);
    }
    let default = all
        .iter()
        .find(|(c, _)| (c.tile_x, c.tile_y, c.tile_t, c.block_x, c.block_y) == (64, 64, 8, 8, 8));
    if let Some((c, t)) = default {
        println!("default {c}: {:.4} ms", t.as_secs_f64() * 1e3);
    }
}
