//! Subnormal oracle for the solver's floating-point mode (DESIGN.md §10).
//!
//! A wavefront spreading out of an off-grid source leaves a fringe of
//! values decaying through the subnormal range, where x86 arithmetic falls
//! onto microcode assists. Every propagator step runs under
//! `tempest_stencil::fpenv::FlushDenormals`, so no stored value and no
//! receiver sample may be subnormal — whichever backend and schedule
//! computed it. A run must also hand the caller's FP control word back
//! unchanged.
//!
//! The problems are SO8 on 32³ for 16 steps, with the source off centre:
//! without the flush their final fields hold hundreds to thousands of
//! subnormal values.

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Elastic, Execution, SimConfig, Tti, WaveSolver};
use tempest::grid::{Array2, Array3, Domain, ElasticModel, Model, Shape, TtiModel};
use tempest::sparse::SparsePoints;
use tempest::stencil::{fpenv, Backend};

const N: usize = 32;
const SO: usize = 8;
const NT: usize = 16;
const VMAX: f32 = 3000.0;

fn domain() -> Domain {
    Domain::uniform(Shape::cube(N), 10.0)
}

/// A point at fraction `f` of the domain along its main diagonal, pushed
/// off the grid by `off` of a cell.
fn diagonal_point(d: &Domain, f: f32, off: f32) -> [f32; 3] {
    let (o, e, h) = (d.origin(), d.extent(), d.spacing());
    [0, 1, 2].map(|a| o[a] + f * e[a] + off * h[a])
}

/// One source 0.3 of the way along the diagonal, so the fringe of
/// the spreading wavefront lies inside the grid towards the far corner,
/// where the receivers sit.
fn sparse(d: &Domain) -> (SparsePoints, SparsePoints) {
    let src = SparsePoints::new(d, vec![diagonal_point(d, 0.3, 0.37)]);
    let rec = [0.7f32, 0.78, 0.85, 0.9]
        .iter()
        .map(|&f| diagonal_point(d, f, 0.41))
        .collect();
    (src, SparsePoints::new(d, rec))
}

fn acoustic() -> Acoustic {
    let d = domain();
    let model = Model::random(d, 1500.0, VMAX, 0xAC);
    let cfg = SimConfig::new(d, SO, EquationKind::Acoustic, VMAX, 512.0).with_nt(NT);
    let (src, rec) = sparse(&d);
    Acoustic::new(&model, cfg, src, Some(rec))
}

fn tti() -> Tti {
    let d = domain();
    let model = TtiModel::random(d, 1500.0, VMAX, 0x77);
    let cfg = SimConfig::new(d, SO, EquationKind::Tti, model.vmax(), 512.0).with_nt(NT);
    let (src, rec) = sparse(&d);
    Tti::new(&model, cfg, src, Some(rec))
}

fn elastic() -> Elastic {
    let d = domain();
    let model = ElasticModel::random(d, 2000.0, VMAX, 0xE1);
    let cfg = SimConfig::new(d, SO, EquationKind::Elastic, VMAX, 512.0).with_nt(NT);
    let (src, rec) = sparse(&d);
    Elastic::new(&model, cfg, src, Some(rec))
}

/// The spatially blocked baseline (classic sparse operators between steps)
/// and a dataflow temporal-blocking schedule (fused sparse operators).
fn schedules() -> Vec<(&'static str, Execution)> {
    let sb = Execution::baseline();
    let mut df = Execution::wavefront_dataflow_default();
    df.schedule = Schedule::WavefrontDataflow {
        tile_x: 8,
        tile_y: 8,
        tile_t: 4,
        block_x: 4,
        block_y: 4,
    };
    df.sparse = SparseMode::FusedCompressed;
    vec![("spaceblocked", sb), ("dataflow", df)]
}

fn subnormals(values: &[f32]) -> usize {
    values.iter().filter(|v| v.is_subnormal()).count()
}

fn check(model: &str, solver: &mut dyn WaveSolver) {
    for b in Backend::ALL.into_iter().filter(|b| b.available()) {
        for (name, exec) in schedules() {
            let what = format!("{model} {name} backend={}", b.name());
            let before = fpenv::control_word();
            solver.run(&exec.with_kernel(KernelPath::from(b)));
            assert_eq!(
                fpenv::control_word(),
                before,
                "{what}: run changed the caller's FP mode"
            );

            let f: Array3<f32> = solver.final_field();
            assert!(f.max_abs() > 0.0, "{what}: field must be excited");
            let tr: Array2<f32> = solver.trace().expect("receivers attached");
            let (in_field, in_trace) = (subnormals(f.as_slice()), subnormals(tr.as_slice()));
            if !fpenv::FLUSHES {
                continue; // IEEE-only target: the guard is a no-op.
            }
            assert_eq!(
                (in_field, in_trace),
                (0, 0),
                "{what}: {in_field} subnormal field values, {in_trace} subnormal trace samples"
            );
        }
    }
}

#[test]
fn acoustic_fields_and_traces_hold_no_subnormals() {
    check("acoustic", &mut acoustic());
}

#[test]
fn tti_fields_and_traces_hold_no_subnormals() {
    check("tti", &mut tti());
}

#[test]
fn elastic_fields_and_traces_hold_no_subnormals() {
    check("elastic", &mut elastic());
}

/// The caller's FP environment is never touched: a thread that runs with
/// IEEE subnormals before a solve still has them after it.
#[test]
fn run_leaves_caller_in_ieee_mode() {
    let before = fpenv::control_word();
    assert!(!fpenv::flushing());
    acoustic().run(&Execution::baseline());
    assert_eq!(fpenv::control_word(), before);
    let tiny = std::hint::black_box(f32::MIN_POSITIVE) * std::hint::black_box(0.5f32);
    assert!(tiny.is_subnormal(), "caller lost gradual underflow");
}
