//! Scalar-vs-pencil kernel-path equivalence: the correctness contract of the
//! pencil-vectorized kernel layer (`tempest_stencil::simd`).
//!
//! The pencil kernels hoist bounds checks and process whole `z`-rows in
//! fixed-width lanes, but they replay the scalar per-point accumulation
//! order term-for-term — so every propagator, under every schedule and at
//! every supported space order, must produce **bitwise identical** final
//! wavefields (`Array3::bit_equal`, i.e. `f32::to_bits` equality) whichever
//! kernel path is selected.

use tempest::core::config::EquationKind;
use tempest::core::operator::{KernelPath, Schedule, SparseMode};
use tempest::core::{Acoustic, Elastic, Execution, SimConfig, Tti, WaveSolver};
use tempest::grid::{Array3, Domain, ElasticModel, Model, Shape, TtiModel};
use tempest::sparse::SparsePoints;

const N: usize = 20;
const NT: usize = 10;

fn domain() -> Domain {
    Domain::uniform(Shape::cube(N), 10.0)
}

/// One execution per schedule family, sequential, fused-compressed sparse.
fn schedules() -> Vec<(&'static str, Execution)> {
    let sb = Execution::baseline().sequential();
    let mut wf = Execution::wavefront_default().sequential();
    wf.schedule = Schedule::Wavefront {
        tile_x: 8,
        tile_y: 8,
        tile_t: 3,
        block_x: 4,
        block_y: 4,
    };
    wf.sparse = SparseMode::FusedCompressed;
    let mut df = Execution::wavefront_dataflow_default().sequential();
    df.schedule = Schedule::WavefrontDataflow {
        tile_x: 8,
        tile_y: 8,
        tile_t: 3,
        block_x: 4,
        block_y: 4,
    };
    vec![("spaceblocked", sb), ("wavefront", wf), ("dataflow", df)]
}

fn assert_bitwise(label: &str, scalar: &Array3<f32>, pencil: &Array3<f32>) {
    assert!(scalar.max_abs() > 0.0, "{label}: field must be excited");
    assert!(
        scalar.bit_equal(pencil),
        "{label}: pencil path must be bitwise identical to scalar, max diff {}",
        scalar.max_abs_diff(pencil)
    );
}

/// Run `solver` under `exec` with each kernel path and return both fields.
fn both_paths(solver: &mut dyn WaveSolver, exec: &Execution) -> (Array3<f32>, Array3<f32>) {
    let scalar_exec = (*exec).scalar_kernels();
    let pencil_exec = (*exec).with_kernel(KernelPath::Portable);
    solver.run(&scalar_exec);
    let s = solver.final_field();
    solver.run(&pencil_exec);
    let p = solver.final_field();
    (s, p)
}

#[test]
fn acoustic_scalar_vs_pencil_bitwise_all_orders_all_schedules() {
    for so in [4usize, 8, 12] {
        let d = domain();
        let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
        let cfg = SimConfig::new(d, so, EquationKind::Acoustic, 2800.0, 50.0)
            .with_nt(NT)
            .with_f0(12.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&d, 0.4);
        let rec = SparsePoints::receiver_line(&d, 4, 0.25);
        let mut a = Acoustic::new(&model, cfg, src, Some(rec));
        for (name, exec) in schedules() {
            let (s, p) = both_paths(&mut a, &exec);
            assert_bitwise(&format!("acoustic so={so} {name}"), &s, &p);
        }
    }
}

#[test]
fn tti_scalar_vs_pencil_bitwise_all_orders_all_schedules() {
    for so in [4usize, 8, 12] {
        let d = domain();
        let model = TtiModel::homogeneous(d, 2000.0, 0.2, 0.1, 0.35, 0.3);
        let cfg = SimConfig::new(d, so, EquationKind::Tti, model.vmax(), 80.0)
            .with_nt(NT)
            .with_f0(15.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&d, 0.4);
        let mut t = Tti::new(&model, cfg, src, None);
        for (name, exec) in schedules() {
            let (s, p) = both_paths(&mut t, &exec);
            assert_bitwise(&format!("tti so={so} {name}"), &s, &p);
        }
    }
}

#[test]
fn elastic_scalar_vs_pencil_bitwise_all_orders_all_schedules() {
    for so in [4usize, 8, 12] {
        let d = domain();
        let model = ElasticModel::homogeneous(d, 3000.0, 1400.0, 2200.0);
        let cfg = SimConfig::new(d, so, EquationKind::Elastic, 3000.0, 40.0)
            .with_nt(NT)
            .with_f0(25.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&d, 0.4);
        let rec = SparsePoints::receiver_line(&d, 4, 0.25);
        let mut e = Elastic::new(&model, cfg, src, Some(rec));
        for (name, exec) in schedules() {
            let (s, p) = both_paths(&mut e, &exec);
            assert_bitwise(&format!("elastic so={so} {name}"), &s, &p);
        }
    }
}

#[test]
fn parallel_pencil_matches_sequential_scalar_bitwise() {
    // The strongest cross-cutting claim: parallel dataflow-wavefront
    // execution on the pencil path reproduces the sequential space-blocked
    // scalar baseline bit-for-bit.
    let d = domain();
    let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
    let cfg = SimConfig::new(d, 8, EquationKind::Acoustic, 2800.0, 50.0)
        .with_nt(NT)
        .with_f0(12.0)
        .with_boundary(4, 0.3);
    let src = SparsePoints::single_center(&d, 0.4);
    let mut a = Acoustic::new(&model, cfg, src, None);

    a.run(&Execution::baseline().sequential().scalar_kernels());
    let base = a.final_field();

    let mut exec = Execution::wavefront_dataflow_default().with_kernel(KernelPath::Portable);
    exec.schedule = Schedule::WavefrontDataflow {
        tile_x: 8,
        tile_y: 8,
        tile_t: 3,
        block_x: 4,
        block_y: 4,
    };
    exec.policy = tempest::par::Policy::Parallel;
    a.run(&exec);
    let par = a.final_field();
    assert_bitwise("acoustic parallel dataflow pencil vs scalar baseline", &base, &par);
}

#[test]
fn traces_identical_across_kernel_paths() {
    // Receiver traces gather from the updated pencils, so they inherit the
    // bitwise contract too (same schedule, same sparse mode on both runs).
    let d = domain();
    let model = Model::two_layer(d, 1600.0, 2800.0, 0.5);
    let cfg = SimConfig::new(d, 8, EquationKind::Acoustic, 2800.0, 50.0)
        .with_nt(NT)
        .with_f0(12.0)
        .with_boundary(4, 0.3);
    let src = SparsePoints::single_center(&d, 0.4);
    let rec = SparsePoints::receiver_line(&d, 4, 0.25);
    let mut a = Acoustic::new(&model, cfg, src, Some(rec));

    a.run(&Execution::baseline().sequential().scalar_kernels());
    let ts = a.trace().unwrap();
    a.run(&Execution::baseline().sequential().with_kernel(KernelPath::Portable));
    let tp = a.trace().unwrap();
    assert_eq!(ts.dims(), tp.dims());
    for i in 0..ts.len() {
        assert_eq!(
            ts.as_slice()[i].to_bits(),
            tp.as_slice()[i].to_bits(),
            "trace element {i} differs between kernel paths"
        );
    }
}
