//! Per-layer probes of the traced run: each one times a public entry point
//! of one crate in isolation, on the workload's own geometry, so that a
//! later change can name the layer it moves.

use std::hint::black_box;
use std::time::Instant;

use tempest_grid::{Field, Range3};
use tempest_par::{DepGraph, Policy};
use tempest_sparse::{CompressedMask, ReceiverPrecompute, SourcePrecompute, SparsePoints};
use tempest_stencil::kernels::{first_derivative_weights, AxisWeights};
use tempest_stencil::metrics::{acoustic_cost, tti_cost, KernelCost};
use tempest_tiling::{wavefront, SpaceBlockSpec};

use crate::trace::Tracer;
use crate::workload::{Physics, Spec};

/// Median wall time in seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

#[derive(Debug, Clone, Default)]
pub struct Probes {
    pub src_precompute_s: f64,
    pub rec_precompute_s: f64,
    pub compress_s: f64,
    pub affected_pts: usize,
    pub mask_bytes: usize,
    pub gather_ns_per_rec: f64,
    pub lap_ns_per_pt: f64,
    pub cross_ns_per_pt: f64,
    pub second_ns_per_pt: f64,
    pub dataflow_ns_per_node: f64,
    pub fork_join_us: f64,
    pub tiles: usize,
    pub edges: usize,
    pub graph_build_s: f64,
    pub exec_overhead_s: f64,
}

/// The kernel cost model of the workload's physics and order.
pub fn cost(spec: &Spec) -> KernelCost {
    match spec.physics {
        Physics::Acoustic => acoustic_cost(spec.so),
        Physics::Tti => tti_cost(spec.so),
    }
}

/// Volumes one timestep reads or writes (wavefield ring levels plus
/// coefficient volumes), as allocated by the propagators.
pub fn working_set_volumes(spec: &Spec) -> usize {
    match spec.physics {
        // 3-level ring + c1, c2, c3.
        Physics::Acoustic => 6,
        // Two 3-level rings + c1, c2, c3, eps2, delta_bar + 6 rotation
        // coefficient volumes.
        Physics::Tti => 17,
    }
}

/// Row-kernel cost per point of one timestep's dense update, from the
/// probed row kernels: the acoustic update is one Laplacian row; the TTI
/// update is three second and three cross derivatives for each of p and q.
pub fn kernel_ns_per_pt(spec: &Spec, p: &Probes) -> f64 {
    match spec.physics {
        Physics::Acoustic => p.lap_ns_per_pt,
        Physics::Tti => 6.0 * (p.second_ns_per_pt + p.cross_ns_per_pt),
    }
}

/// Run every probe on the workload's geometry with `sources`.
pub fn probe(spec: &Spec, sources: &SparsePoints, tr: &mut Tracer) -> Probes {
    let mut p = Probes::default();
    probe_sparse(spec, sources, tr, &mut p);
    probe_stencil(tr, &mut p);
    probe_par_tiling(spec, tr, &mut p);
    p
}

fn probe_sparse(spec: &Spec, sources: &SparsePoints, tr: &mut Tracer, p: &mut Probes) {
    let domain = spec.domain();
    let cfg = spec.acoustic_cfg();
    let ricker = tempest_sparse::ricker(cfg.f0, cfg.dt, cfg.nt);
    let wavelets = tempest_sparse::wavelet::wavelet_matrix(&ricker, sources.len());
    let receivers = spec.receiver_points();

    let span = tr.begin("sparse.src_precompute");
    let mut src = None;
    p.src_precompute_s = time_median(3, || {
        src = Some(SourcePrecompute::build(&domain, sources, &wavelets));
    });
    tr.end(span);
    let src = src.expect("timed at least once");

    let span = tr.begin("sparse.rec_precompute");
    let mut rec = None;
    p.rec_precompute_s = time_median(3, || {
        rec = Some(ReceiverPrecompute::build(&domain, &receivers));
    });
    tr.end(span);
    let rec = rec.expect("timed at least once");

    let span = tr.begin("sparse.compress");
    p.compress_s = time_median(3, || {
        black_box(CompressedMask::build(&src.sid));
        black_box(rec.compressed());
    });
    tr.end(span);

    p.affected_pts = src.npts() + rec.npts();
    p.mask_bytes = src.memory_overhead_bytes()
        + rec.rm.len()
        + rec.rid.len() * std::mem::size_of::<i32>()
        + rec.offsets.len() * std::mem::size_of::<u32>()
        + rec.entries.len() * std::mem::size_of::<(u32, f32)>();

    // One fused gather over the receivers' bounding box (the region a
    // compressed-mask sweep touches), per receiver.
    let shape = spec.shape();
    let mut field = Field::zeros(shape, spec.radius());
    for (i, v) in field.raw_mut().as_mut_slice().iter_mut().enumerate() {
        *v = (i % 97) as f32 * 1e-3;
    }
    let (mut lo, mut hi) = ([usize::MAX; 3], [0usize; 3]);
    for q in &rec.points {
        for a in 0..3 {
            lo[a] = lo[a].min(q[a]);
            hi[a] = hi[a].max(q[a] + 1);
        }
    }
    let region = Range3::new((lo[0], hi[0]), (lo[1], hi[1]), (lo[2], hi[2]));
    let mut row = vec![0.0f32; rec.num_receivers];
    let span = tr.begin("sparse.gather");
    let reps = 64;
    let t = time_median(5, || {
        for _ in 0..reps {
            rec.gather_region(&field, &region, &mut row);
        }
        black_box(&row);
    });
    tr.end(span);
    p.gather_ns_per_rec = t / reps as f64 / rec.num_receivers as f64 * 1e9;
}

/// Edge of the cube the row kernels sweep: 1 MiB of f32, resident in L2.
const KERNEL_N: usize = 64;

/// ns per point of one row kernel swept over the interior of the probe
/// cube, single-threaded, median of 5.
fn row_kernel_ns(r: usize, mut row: impl FnMut(usize, &mut [f32])) -> f64 {
    let n = KERNEL_N;
    let (lo, hi) = (r, n - r);
    let mut out = vec![0.0f32; hi - lo];
    let pts = ((hi - lo) * (hi - lo) * (hi - lo)) as f64;
    let t = time_median(5, || {
        for x in lo..hi {
            for y in lo..hi {
                row((x * n + y) * n + lo, &mut out);
                black_box(&out);
            }
        }
    });
    t / pts * 1e9
}

fn probe_stencil(tr: &mut Tracer, p: &mut Probes) {
    let n = KERNEL_N;
    let u: Vec<f32> = (0..n * n * n)
        .map(|i| ((i * 2_654_435_761) % 1000) as f32 * 1e-3 - 0.5)
        .collect();
    let (sx, sy) = (n * n, n);
    let b = tempest_core::KernelPath::Auto.resolve();

    let w4 = AxisWeights::second_derivative(4, 10.0);
    let side2: [f32; 2] = w4.side_array();
    let span = tr.begin("stencil.lap");
    p.lap_ns_per_pt = row_kernel_ns(2, |i0, out| {
        b.laplacian_row_r::<2>(
            black_box(&u),
            i0,
            sx,
            sy,
            3.0 * w4.center,
            &side2,
            &side2,
            &side2,
            out,
        )
    });
    tr.end(span);

    let w1: [f32; 4] = first_derivative_weights(8, 20.0)[..]
        .try_into()
        .expect("SO8 first derivative has radius 4");
    let span = tr.begin("stencil.cross");
    p.cross_ns_per_pt = row_kernel_ns(4, |i0, out| {
        b.cross_diff_row_r::<4>(black_box(&u), i0, sx, sy, &w1, &w1, out)
    });
    tr.end(span);

    let w8 = AxisWeights::second_derivative(8, 20.0);
    let side4: [f32; 4] = w8.side_array();
    let span = tr.begin("stencil.second");
    p.second_ns_per_pt = row_kernel_ns(4, |i0, out| {
        b.second_diff_row_r::<4>(black_box(&u), i0, sx, w8.center, &side4, out)
    });
    tr.end(span);
}

fn probe_par_tiling(spec: &Spec, tr: &mut Tracer, p: &mut Probes) {
    let shape = spec.shape();
    let radius = spec.radius();
    let wspec = spec.wtb_exec().wavefront_spec(radius, 1);
    let policy = Policy::default();

    let span = tr.begin("tiling.graph_build");
    let mut built = None;
    p.graph_build_s = time_median(3, || {
        let (tiles, preds) = wavefront::tile_graph(shape, spec.nt, &wspec, radius);
        let graph = DepGraph::from_preds(&preds);
        built = Some((
            tiles.len(),
            preds.iter().map(Vec::len).sum::<usize>(),
            graph,
        ));
    });
    tr.end(span);
    let (tiles, edges, graph) = built.expect("timed at least once");
    p.tiles = tiles;
    p.edges = edges;

    let span = tr.begin("par.dataflow");
    let t = time_median(5, || {
        tempest_par::run_dataflow(policy, &graph, |i| {
            black_box(i);
        })
    });
    tr.end(span);
    p.dataflow_ns_per_node = t / graph.len().max(1) as f64 * 1e9;

    let blocks = SpaceBlockSpec::new(8, 8).blocks(shape).len();
    let reps = 100;
    let span = tr.begin("par.fork_join");
    let t = time_median(5, || {
        for _ in 0..reps {
            tempest_par::for_each_index(policy, blocks, |i| {
                black_box(i);
            });
        }
    });
    tr.end(span);
    p.fork_join_us = t / reps as f64 * 1e6;

    let span = tr.begin("tiling.exec_noop");
    p.exec_overhead_s = time_median(5, || {
        wavefront::execute_dataflow(shape, spec.nt, &wspec, radius, policy, |vt, r| {
            black_box((vt, r));
        })
    });
    tr.end(span);
}

/// Bytes of the last-level cache, read from sysfs. `None` when the host
/// does not expose it.
pub fn l3_bytes() -> Option<usize> {
    let raw = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let raw = raw.trim();
    let (num, mult) = match raw.chars().last()? {
        'K' => (&raw[..raw.len() - 1], 1024),
        'M' => (&raw[..raw.len() - 1], 1024 * 1024),
        _ => (raw, 1),
    };
    num.parse::<usize>().ok().map(|v| v * mult)
}

/// Triad bandwidth with each of the three arrays at least four times the
/// last-level cache. Returns (GB/s, bytes per array).
pub fn triad(l3: usize, tr: &mut Tracer) -> (f64, usize) {
    let len = (4 * l3).div_ceil(std::mem::size_of::<f32>());
    let span = tr.begin("mem.triad");
    let gbs = tempest_bench::roofline::measure_bandwidth_gbs(len, 4);
    tr.end(span);
    (gbs, len * std::mem::size_of::<f32>())
}
