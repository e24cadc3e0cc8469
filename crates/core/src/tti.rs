//! Anisotropic acoustic (TTI) wave propagator (paper §III-B).
//!
//! The pseudo-acoustic tilted transversely isotropic system is a coupled
//! pair of scalar PDEs in `(p, q)` with a *rotated* anisotropic Laplacian:
//! with the rotated vertical derivative
//! `D_z̄ = sinθcosφ·∂x + sinθsinφ·∂y + cosθ·∂z` (Eq. 2 gives the conjugate
//! horizontal operator) and `G_z̄z̄ = D_z̄ᵀD_z̄`, `G_h = Δ − G_z̄z̄`:
//!
//! ```text
//! m·p_tt + η·p_t = (1 + 2ε)·G_h p + √(1+2δ)·G_z̄z̄ q + src
//! m·q_tt + η·q_t = √(1+2δ)·G_h p +            G_z̄z̄ q + src
//! ```
//!
//! Expanding `G_z̄z̄` with spatially varying angles yields, per point and per
//! field, three straight second derivatives plus three *mixed* derivatives
//! whose footprint is the `(2r)²` outer product of first-derivative stencils
//! — this is why the TTI kernel "increases the operation count drastically"
//! and sits far right of the acoustic kernel on the roofline (Fig. 11).
//! The six rotation coefficients are precomputed into parameter volumes, so
//! the hot loop is trigonometry-free.

use std::time::Instant;

use crate::config::SimConfig;
use crate::operator::{Execution, KernelPath, RunStats, Schedule, SparseMode, WaveSolver};
use crate::shared::LevelRing;
use crate::sources::{ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_obs as obs;
use tempest_grid::{Array2, Array3, DampingMask, Range3, Shape, TtiModel};
use tempest_sparse::SparsePoints;
use tempest_stencil::fpenv::FlushDenormals;
use tempest_stencil::kernels::{
    cross_diff_r, first_derivative_weights, second_diff_axis_r, AxisWeights,
};
use tempest_stencil::metrics::tti_cost;
use tempest_stencil::simd::LANE;
use tempest_stencil::Backend;
use tempest_tiling::{diamond, spaceblock, wavefront};

/// The TTI pseudo-acoustic propagator.
pub struct Tti {
    cfg: SimConfig,
    p: LevelRing,
    q: LevelRing,
    c1: Array3<f32>,
    c2: Array3<f32>,
    c3: Array3<f32>,
    /// `1 + 2ε` per point.
    eps2: Array3<f32>,
    /// `√(1 + 2δ)` per point.
    delta_bar: Array3<f32>,
    /// Rotation coefficients of `G_z̄z̄`: a², b², c², 2ab, 2ac, 2bc with
    /// `(a, b, c) = (sinθcosφ, sinθsinφ, cosθ)`.
    gz: [Array3<f32>; 6],
    // Second-derivative axis weights (straight terms).
    wxx: AxisWeights,
    wyy: AxisWeights,
    wzz: AxisWeights,
    // First-derivative antisymmetric weights (cross terms).
    w1x: Vec<f32>,
    w1y: Vec<f32>,
    w1z: Vec<f32>,
    radius: usize,
    src: SourceBundle,
    rec: Option<ReceiverBundle>,
    trace: Option<TraceBuffer>,
}

impl Tti {
    /// Build a propagator over `model` with the given sources and optional
    /// receivers (receivers record `p`).
    pub fn new(
        model: &TtiModel,
        cfg: SimConfig,
        sources: SparsePoints,
        receivers: Option<SparsePoints>,
    ) -> Self {
        assert_eq!(model.shape(), cfg.shape(), "model/config shape mismatch");
        let shape = cfg.shape();
        let radius = cfg.radius();
        let h = cfg.domain.spacing();
        let wxx = AxisWeights::second_derivative(cfg.space_order, h[0]);
        let wyy = AxisWeights::second_derivative(cfg.space_order, h[1]);
        let wzz = AxisWeights::second_derivative(cfg.space_order, h[2]);
        let w1x = first_derivative_weights(cfg.space_order, h[0]);
        let w1y = first_derivative_weights(cfg.space_order, h[1]);
        let w1z = first_derivative_weights(cfg.space_order, h[2]);

        let damp = DampingMask::sponge(shape, cfg.nbl, cfg.damp_coeff);
        let dt2 = cfg.dt * cfg.dt;
        let n = shape.len();
        let mut c1 = Array3::from_shape(shape);
        let mut c2 = Array3::from_shape(shape);
        let mut c3 = Array3::from_shape(shape);
        let mut eps2 = Array3::from_shape(shape);
        let mut delta_bar = Array3::from_shape(shape);
        let mut gz: [Array3<f32>; 6] = std::array::from_fn(|_| Array3::from_shape(shape));
        for i in 0..n {
            let eta = damp.damp.as_slice()[i];
            let m = model.m.as_slice()[i];
            let inv = 1.0 / (1.0 + eta);
            c1.as_mut_slice()[i] = 2.0 * inv;
            c2.as_mut_slice()[i] = (1.0 - eta) * inv;
            c3.as_mut_slice()[i] = dt2 / m * inv;
            eps2.as_mut_slice()[i] = 1.0 + 2.0 * model.epsilon.as_slice()[i];
            delta_bar.as_mut_slice()[i] = (1.0 + 2.0 * model.delta.as_slice()[i]).sqrt();
            let th = model.theta.as_slice()[i];
            let ph = model.phi.as_slice()[i];
            let (st, ct) = th.sin_cos();
            let (sp, cp) = ph.sin_cos();
            let (a, b, c) = (st * cp, st * sp, ct);
            gz[0].as_mut_slice()[i] = a * a;
            gz[1].as_mut_slice()[i] = b * b;
            gz[2].as_mut_slice()[i] = c * c;
            gz[3].as_mut_slice()[i] = 2.0 * a * b;
            gz[4].as_mut_slice()[i] = 2.0 * a * c;
            gz[5].as_mut_slice()[i] = 2.0 * b * c;
        }

        let src = SourceBundle::with_ricker(&cfg.domain, sources, cfg.f0, cfg.dt, cfg.nt);
        let rec = receivers.map(|r| ReceiverBundle::new(&cfg.domain, r));
        let trace = rec
            .as_ref()
            .map(|r| TraceBuffer::new(cfg.nt, r.num_receivers()));
        Tti {
            p: LevelRing::new_lane_aligned(shape, radius, 3, LANE),
            q: LevelRing::new_lane_aligned(shape, radius, 3, LANE),
            cfg,
            c1,
            c2,
            c3,
            eps2,
            delta_bar,
            gz,
            wxx,
            wyy,
            wzz,
            w1x,
            w1y,
            w1z,
            radius,
            src,
            rec,
            trace,
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The source bundle (inspection / exact-count oracles).
    pub fn sources(&self) -> &SourceBundle {
        &self.src
    }

    /// The receiver bundle, when receivers were attached.
    pub fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_ref()
    }

    fn reset(&mut self) {
        self.p.clear();
        self.q.clear();
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    fn step_region(&self, k: usize, region: &Range3, mode: SparseMode, kernel: KernelPath) {
        let _fp = FlushDenormals::new();
        let _sp = obs::trace::span(obs::trace::SpanKind::Stencil, obs::trace::SpanArgs::step(k));
        match (kernel.resolve(), self.radius) {
            (Backend::Scalar, 2) => self.step_r::<2>(k, region, mode),
            (Backend::Scalar, 4) => self.step_r::<4>(k, region, mode),
            (Backend::Scalar, 6) => self.step_r::<6>(k, region, mode),
            (backend, 2) => self.step_pencil_r::<2>(k, region, mode, backend),
            (backend, 4) => self.step_pencil_r::<4>(k, region, mode, backend),
            (backend, 6) => self.step_pencil_r::<6>(k, region, mode, backend),
            _ => panic!(
                "TTI propagator supports space orders 4, 8, 12 (radius {}, got order {})",
                self.radius, self.cfg.space_order
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step_r<const R: usize>(&self, k: usize, region: &Range3, mode: SparseMode) {
        let sw = obs::start(obs::Phase::Stencil);
        // One update per grid point: the coupled p/q pair counts once.
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        // SAFETY: see `Acoustic::step_r` — identical schedule contract, two
        // fields updated together from their own older levels.
        let p0 = unsafe { self.p.level(k + 1) };
        let pm = unsafe { self.p.level(k) };
        let q0 = unsafe { self.q.level(k + 1) };
        let qm = unsafe { self.q.level(k) };
        let (sx, sy) = (self.p.sx(), self.p.sy());
        let w1x: [f32; R] = self.w1x[..].try_into().expect("radius mismatch");
        let w1y: [f32; R] = self.w1y[..].try_into().expect("radius mismatch");
        let w1z: [f32; R] = self.w1z[..].try_into().expect("radius mismatch");
        // Fixed-size side weights so the straight-derivative loops unroll.
        let wxx: [f32; R] = self.wxx.side[..].try_into().expect("radius mismatch");
        let wyy: [f32; R] = self.wyy.side[..].try_into().expect("radius mismatch");
        let wzz: [f32; R] = self.wzz.side[..].try_into().expect("radius mismatch");
        let (cxx, cyy, czz) = (self.wxx.center, self.wyy.center, self.wzz.center);
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let pn = unsafe { self.p.pencil_mut(k + 2, x, y) };
                let qn = unsafe { self.q.pencil_mut(k + 2, x, y) };
                let base = self.p.idx(x, y, 0);
                let c1r = self.c1.pencil(x, y);
                let c2r = self.c2.pencil(x, y);
                let c3r = self.c3.pencil(x, y);
                let er = self.eps2.pencil(x, y);
                let dr = self.delta_bar.pencil(x, y);
                let g0 = self.gz[0].pencil(x, y);
                let g1 = self.gz[1].pencil(x, y);
                let g2 = self.gz[2].pencil(x, y);
                let g3 = self.gz[3].pencil(x, y);
                let g4 = self.gz[4].pencil(x, y);
                let g5 = self.gz[5].pencil(x, y);
                for z in region.z0..region.z1 {
                    let i = base + z;
                    // Straight second derivatives of p (give Δp and feed Gz̄z̄).
                    let pxx = second_diff_axis_r::<R>(p0, i, sx, cxx, &wxx);
                    let pyy = second_diff_axis_r::<R>(p0, i, sy, cyy, &wyy);
                    let pzz = second_diff_axis_r::<R>(p0, i, 1, czz, &wzz);
                    // Mixed derivatives of p.
                    let pxy = cross_diff_r::<R>(p0, i, sx, sy, &w1x, &w1y);
                    let pxz = cross_diff_r::<R>(p0, i, sx, 1, &w1x, &w1z);
                    let pyz = cross_diff_r::<R>(p0, i, sy, 1, &w1y, &w1z);
                    // Same for q.
                    let qxx = second_diff_axis_r::<R>(q0, i, sx, cxx, &wxx);
                    let qyy = second_diff_axis_r::<R>(q0, i, sy, cyy, &wyy);
                    let qzz = second_diff_axis_r::<R>(q0, i, 1, czz, &wzz);
                    let qxy = cross_diff_r::<R>(q0, i, sx, sy, &w1x, &w1y);
                    let qxz = cross_diff_r::<R>(q0, i, sx, 1, &w1x, &w1z);
                    let qyz = cross_diff_r::<R>(q0, i, sy, 1, &w1y, &w1z);

                    let gzz_p = g0[z] * pxx
                        + g1[z] * pyy
                        + g2[z] * pzz
                        + g3[z] * pxy
                        + g4[z] * pxz
                        + g5[z] * pyz;
                    let gzz_q = g0[z] * qxx
                        + g1[z] * qyy
                        + g2[z] * qzz
                        + g3[z] * qxy
                        + g4[z] * qxz
                        + g5[z] * qyz;
                    let gh_p = (pxx + pyy + pzz) - gzz_p;

                    let rhs_p = er[z] * gh_p + dr[z] * gzz_q;
                    let rhs_q = dr[z] * gh_p + gzz_q;
                    pn[z] = c1r[z] * p0[i] - c2r[z] * pm[i] + c3r[z] * rhs_p;
                    qn[z] = c1r[z] * q0[i] - c2r[z] * qm[i] + c3r[z] * rhs_q;
                }
                self.fused_sparse(k, x, y, region, pn, qn, c3r, mode);
            }
        }
        sw.stop();
    }

    /// Pencil-kernel twin of [`step_r`](Self::step_r): the twelve derivative
    /// volumes per point (six per field) become twelve whole-row kernel
    /// calls per `z`-row, followed by one combine loop that replays the
    /// scalar accumulation chain term-for-term — results stay bitwise equal.
    #[allow(clippy::too_many_arguments)]
    fn step_pencil_r<const R: usize>(
        &self,
        k: usize,
        region: &Range3,
        mode: SparseMode,
        backend: Backend,
    ) {
        let sw = obs::start(obs::Phase::Stencil);
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        obs::add(
            obs::Counter::PencilRows,
            ((region.x1 - region.x0) * (region.y1 - region.y0)) as u64,
        );
        // SAFETY: see `step_r` — identical schedule contract.
        let p0 = unsafe { self.p.level(k + 1) };
        let pm = unsafe { self.p.level(k) };
        let q0 = unsafe { self.q.level(k + 1) };
        let qm = unsafe { self.q.level(k) };
        let (sx, sy) = (self.p.sx(), self.p.sy());
        let w1x: [f32; R] = self.w1x[..].try_into().expect("radius mismatch");
        let w1y: [f32; R] = self.w1y[..].try_into().expect("radius mismatch");
        let w1z: [f32; R] = self.w1z[..].try_into().expect("radius mismatch");
        let wxx: [f32; R] = self.wxx.side[..].try_into().expect("radius mismatch");
        let wyy: [f32; R] = self.wyy.side[..].try_into().expect("radius mismatch");
        let wzz: [f32; R] = self.wzz.side[..].try_into().expect("radius mismatch");
        let (cxx, cyy, czz) = (self.wxx.center, self.wyy.center, self.wzz.center);
        let n = region.z1 - region.z0;
        // Twelve derivative rows, reused across every pencil in the region.
        let mut d = vec![0.0f32; 12 * n];
        let (dp, dq) = d.split_at_mut(6 * n);
        let (pxx, r) = dp.split_at_mut(n);
        let (pyy, r) = r.split_at_mut(n);
        let (pzz, r) = r.split_at_mut(n);
        let (pxy, r) = r.split_at_mut(n);
        let (pxz, pyz) = r.split_at_mut(n);
        let (qxx, r) = dq.split_at_mut(n);
        let (qyy, r) = r.split_at_mut(n);
        let (qzz, r) = r.split_at_mut(n);
        let (qxy, r) = r.split_at_mut(n);
        let (qxz, qyz) = r.split_at_mut(n);
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let pn = unsafe { self.p.pencil_mut(k + 2, x, y) };
                let qn = unsafe { self.q.pencil_mut(k + 2, x, y) };
                let i0 = self.p.idx(x, y, region.z0);
                let c1r = self.c1.pencil(x, y);
                let c2r = self.c2.pencil(x, y);
                let c3r = self.c3.pencil(x, y);
                let er = self.eps2.pencil(x, y);
                let dr = self.delta_bar.pencil(x, y);
                let g0 = self.gz[0].pencil(x, y);
                let g1 = self.gz[1].pencil(x, y);
                let g2 = self.gz[2].pencil(x, y);
                let g3 = self.gz[3].pencil(x, y);
                let g4 = self.gz[4].pencil(x, y);
                let g5 = self.gz[5].pencil(x, y);
                backend.second_diff_row_r::<R>(p0, i0, sx, cxx, &wxx, pxx);
                backend.second_diff_row_r::<R>(p0, i0, sy, cyy, &wyy, pyy);
                backend.second_diff_row_r::<R>(p0, i0, 1, czz, &wzz, pzz);
                backend.cross_diff_row_r::<R>(p0, i0, sx, sy, &w1x, &w1y, pxy);
                backend.cross_diff_row_r::<R>(p0, i0, sx, 1, &w1x, &w1z, pxz);
                backend.cross_diff_row_r::<R>(p0, i0, sy, 1, &w1y, &w1z, pyz);
                backend.second_diff_row_r::<R>(q0, i0, sx, cxx, &wxx, qxx);
                backend.second_diff_row_r::<R>(q0, i0, sy, cyy, &wyy, qyy);
                backend.second_diff_row_r::<R>(q0, i0, 1, czz, &wzz, qzz);
                backend.cross_diff_row_r::<R>(q0, i0, sx, sy, &w1x, &w1y, qxy);
                backend.cross_diff_row_r::<R>(q0, i0, sx, 1, &w1x, &w1z, qxz);
                backend.cross_diff_row_r::<R>(q0, i0, sy, 1, &w1y, &w1z, qyz);
                for j in 0..n {
                    let z = region.z0 + j;
                    let i = i0 + j;
                    let gzz_p = g0[z] * pxx[j]
                        + g1[z] * pyy[j]
                        + g2[z] * pzz[j]
                        + g3[z] * pxy[j]
                        + g4[z] * pxz[j]
                        + g5[z] * pyz[j];
                    let gzz_q = g0[z] * qxx[j]
                        + g1[z] * qyy[j]
                        + g2[z] * qzz[j]
                        + g3[z] * qxy[j]
                        + g4[z] * qxz[j]
                        + g5[z] * qyz[j];
                    let gh_p = (pxx[j] + pyy[j] + pzz[j]) - gzz_p;
                    let rhs_p = er[z] * gh_p + dr[z] * gzz_q;
                    let rhs_q = dr[z] * gh_p + gzz_q;
                    pn[z] = c1r[z] * p0[i] - c2r[z] * pm[i] + c3r[z] * rhs_p;
                    qn[z] = c1r[z] * q0[i] - c2r[z] * qm[i] + c3r[z] * rhs_q;
                }
                self.fused_sparse(k, x, y, region, pn, qn, c3r, mode);
            }
        }
        sw.stop();
    }

    /// Fused source injection (into both fields, as Devito's TTI operator
    /// does) and receiver gather of `p`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn fused_sparse(
        &self,
        k: usize,
        x: usize,
        y: usize,
        region: &Range3,
        pn: &mut [f32],
        qn: &mut [f32],
        c3r: &[f32],
        mode: SparseMode,
    ) {
        if mode == SparseMode::Classic {
            return;
        }
        let sw = obs::start(obs::Phase::Sparse);
        let mut sp = obs::trace::span(obs::trace::SpanKind::Sparse, obs::trace::SpanArgs::step(k));
        let mut injections = 0u64;
        let mut gathers = 0u64;
        match mode {
            SparseMode::Classic => return,
            SparseMode::Fused => {
                let dcmp = self.src.pre.dcmp_row(k);
                let sm = self.src.pre.sm_pencil(x, y);
                let sid = self.src.pre.sid_pencil(x, y);
                for z in region.z0..region.z1 {
                    if sm[z] != 0 {
                        let v = c3r[z] * dcmp[sid[z] as usize];
                        pn[z] += v;
                        qn[z] += v;
                        // The coupled p/q pair receives one injection.
                        injections += 1;
                    }
                }
            }
            SparseMode::FusedCompressed => {
                let dcmp = self.src.pre.dcmp_row(k);
                for (z, id) in self.src.comp.entries(x, y) {
                    if z >= region.z0 && z < region.z1 {
                        let v = c3r[z] * dcmp[id];
                        pn[z] += v;
                        qn[z] += v;
                        injections += 1;
                    }
                }
            }
        }
        if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
            for (z, id) in rec.comp.entries(x, y) {
                if z >= region.z0 && z < region.z1 {
                    let v = pn[z];
                    let contribs = rec.pre.contributions(id);
                    gathers += contribs.len() as u64;
                    for &(r, w) in contribs {
                        trace.add(k, r as usize, w * v);
                    }
                }
            }
        }
        if injections + gathers == 0 {
            sp.cancel();
        }
        obs::add(obs::Counter::SourceInjections, injections);
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }

    /// Classic per-timestep sparse operators (space-blocked baseline only).
    fn classic_after_step(&self, k: usize) {
        let _fp = FlushDenormals::new();
        let sw = obs::start(obs::Phase::Sparse);
        let _sp = obs::trace::span(obs::trace::SpanKind::Sparse, obs::trace::SpanArgs::step(k));
        let mut injections = 0u64;
        let mut gathers = 0u64;
        for (st, &a) in self.src.stencils.iter().zip(self.src.amps_at(k)) {
            for (c, w) in st.nonzero() {
                let v = self.c3.get(c[0], c[1], c[2]) * (w * a);
                // SAFETY: single-threaded between sweeps.
                unsafe {
                    self.p.pencil_mut(k + 2, c[0], c[1])[c[2]] += v;
                    self.q.pencil_mut(k + 2, c[0], c[1])[c[2]] += v;
                }
                injections += 1;
            }
        }
        if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
            let p = unsafe { self.p.level(k + 2) };
            for (r, st) in rec.stencils.iter().enumerate() {
                let mut acc = 0.0f32;
                for (c, w) in st.nonzero() {
                    acc += w * p[self.p.idx(c[0], c[1], c[2])];
                    gathers += 1;
                }
                trace.add(k, r, acc);
            }
        }
        obs::add(obs::Counter::SourceInjections, injections);
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }
}

impl WaveSolver for Tti {
    fn name(&self) -> &'static str {
        "tti"
    }

    fn shape(&self) -> Shape {
        self.cfg.shape()
    }

    fn num_timesteps(&self) -> usize {
        self.cfg.nt
    }

    fn space_order(&self) -> usize {
        self.cfg.space_order
    }

    fn run(&mut self, exec: &Execution) -> RunStats {
        exec.validate();
        crate::operator::record_backend_run(exec.kernel.resolve());
        self.reset();
        let shape = self.shape();
        let nt = self.cfg.nt;
        let started = Instant::now();
        let this: &Tti = self;
        match exec.schedule {
            Schedule::SpaceBlocked { .. } => {
                let spec = exec.spaceblock_spec();
                let classic = exec.sparse == SparseMode::Classic;
                spaceblock::execute(
                    shape,
                    nt,
                    spec,
                    exec.policy,
                    |k, region| this.step_region(k, region, exec.sparse, exec.kernel),
                    |k| {
                        if classic {
                            this.classic_after_step(k);
                        }
                    },
                );
            }
            Schedule::Wavefront { .. } => {
                let spec = exec.wavefront_spec(self.radius, 1);
                wavefront::execute(shape, nt, &spec, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
            Schedule::WavefrontDiagonal { .. } => {
                let spec = exec.wavefront_spec(self.radius, 1);
                wavefront::execute_diagonal(shape, nt, &spec, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
            Schedule::WavefrontDataflow { .. } => {
                let spec = exec.wavefront_spec(self.radius, 1);
                wavefront::execute_dataflow(shape, nt, &spec, self.radius, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
            Schedule::Diamond { .. } => {
                let spec = exec.diamond_spec(self.radius, 1);
                diamond::execute_diamond(shape, nt, &spec, self.radius, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
        }
        RunStats::new(started.elapsed(), nt, shape)
    }

    fn final_field(&mut self) -> Array3<f32> {
        let t = self.cfg.nt + 1;
        self.p.interior_copy(t)
    }

    fn trace(&self) -> Option<Array2<f32>> {
        self.trace.as_ref().map(|t| t.to_array())
    }

    fn flops_per_point(&self) -> f64 {
        tti_cost(self.cfg.space_order).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquationKind;
    use tempest_grid::Domain;

    fn setup(theta: f32, so: usize, nt: usize) -> Tti {
        let domain = Domain::uniform(Shape::cube(20), 20.0);
        let model = TtiModel::homogeneous(domain, 2000.0, 0.2, 0.1, theta, 0.3);
        let cfg = SimConfig::new(domain, so, EquationKind::Tti, model.vmax(), 80.0)
            .with_nt(nt)
            .with_f0(15.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&domain, 0.4);
        let rec = SparsePoints::receiver_line(&domain, 4, 0.2);
        Tti::new(&model, cfg, src, Some(rec))
    }

    #[test]
    fn propagates_and_stable() {
        let mut t = setup(0.35, 4, 25);
        t.run(&Execution::baseline());
        let f = t.final_field();
        assert!(f.max_abs() > 0.0);
        assert!(f.max_abs().is_finite() && f.max_abs() < 1e6);
    }

    #[test]
    fn zero_angles_zero_anisotropy_reduces_to_acoustic_coupling() {
        // With ε = δ = θ = φ = 0: Gz̄z̄ = ∂zz, Gh = ∂xx + ∂yy, δ̄ = 1 and the
        // p equation becomes the isotropic acoustic one when p ≡ q. Check
        // p stays equal to q (both get the same source and updates).
        let domain = Domain::uniform(Shape::cube(16), 20.0);
        let model = TtiModel::homogeneous(domain, 2000.0, 0.0, 0.0, 0.0, 0.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Tti, 2000.0, 50.0)
            .with_nt(12)
            .with_boundary(0, 0.0);
        let src = SparsePoints::single_center(&domain, 0.4);
        let mut t = Tti::new(&model, cfg, src, None);
        t.run(&Execution::baseline().sequential());
        let p = t.final_field();
        let q = t.q.interior_copy(t.cfg.nt + 1);
        assert!(
            p.max_abs_diff(&q) <= 1e-6 * p.max_abs().max(1e-20),
            "p and q must evolve identically in the degenerate case"
        );
        assert!(p.max_abs() > 0.0);
    }

    #[test]
    fn wavefront_matches_baseline_bitwise() {
        for so in [4usize, 8] {
            let mut t = setup(0.35, so, 12);
            t.run(&Execution::baseline().sequential());
            let base = t.final_field();
            let mut exec = Execution::wavefront_default().sequential();
            exec.schedule = Schedule::Wavefront {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            t.run(&exec);
            let wf = t.final_field();
            assert!(
                base.bit_equal(&wf),
                "so={so}: TTI WTB must be bitwise identical, max diff {}",
                base.max_abs_diff(&wf)
            );
        }
    }

    #[test]
    fn diagonal_matches_baseline_bitwise() {
        for so in [4usize, 8] {
            let mut t = setup(0.35, so, 12);
            t.run(&Execution::baseline().sequential());
            let base = t.final_field();
            let mut exec = Execution::wavefront_diagonal_default().sequential();
            exec.schedule = Schedule::WavefrontDiagonal {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            t.run(&exec);
            let dg = t.final_field();
            assert!(
                base.bit_equal(&dg),
                "so={so}: TTI diagonal WTB must be bitwise identical, max diff {}",
                base.max_abs_diff(&dg)
            );
            exec.policy = tempest_par::Policy::Parallel;
            t.run(&exec);
            let par = t.final_field();
            assert!(base.bit_equal(&par), "so={so}: parallel diagonal differs");
        }
    }

    #[test]
    fn dataflow_matches_diagonal_bitwise_across_policies() {
        use tempest_par::Policy;
        for so in [4usize, 8] {
            let mut t = setup(0.35, so, 12);
            let mut dg = Execution::wavefront_diagonal_default().sequential();
            dg.schedule = Schedule::WavefrontDiagonal {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            t.run(&dg);
            let want = t.final_field();
            for pol in [
                Policy::Sequential,
                Policy::Parallel,
                Policy::Capped { threads: 1 },
                Policy::Capped { threads: 2 },
                Policy::Capped { threads: 4 },
            ] {
                let mut df = dg;
                df.schedule = Schedule::WavefrontDataflow {
                    tile_x: 8,
                    tile_y: 8,
                    tile_t: 3,
                    block_x: 4,
                    block_y: 4,
                };
                df.policy = pol;
                t.run(&df);
                let got = t.final_field();
                assert!(
                    want.bit_equal(&got),
                    "so={so} policy={pol:?}: TTI dataflow must match diagonal, max diff {}",
                    want.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn diamond_matches_dataflow_bitwise_across_policies() {
        use crate::operator::DiamondAxis;
        use tempest_par::Policy;
        for so in [4usize, 8] {
            let mut t = setup(0.35, so, 12);
            let mut df = Execution::wavefront_dataflow_default().sequential();
            df.schedule = Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            t.run(&df);
            let want = t.final_field();
            for pol in [
                Policy::Sequential,
                Policy::Parallel,
                Policy::Capped { threads: 1 },
                Policy::Capped { threads: 2 },
                Policy::Capped { threads: 4 },
            ] {
                let mut dm = df;
                dm.schedule = Schedule::Diamond {
                    width: 24,
                    tile_t: 3,
                    tile_c: 8,
                    axis: DiamondAxis::X,
                    block_x: 4,
                    block_y: 4,
                };
                dm.policy = pol;
                t.run(&dm);
                let got = t.final_field();
                assert!(
                    want.bit_equal(&got),
                    "so={so} policy={pol:?}: TTI diamond must match dataflow, max diff {}",
                    want.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn diamond_fused_sparse_modes_agree_bitwise() {
        use crate::operator::DiamondAxis;
        let mut t = setup(0.35, 4, 12);
        let mut e1 = Execution::diamond_default();
        e1.schedule = Schedule::Diamond {
            width: 24,
            tile_t: 3,
            tile_c: 8,
            axis: DiamondAxis::Y,
            block_x: 4,
            block_y: 4,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        t.run(&e1);
        let f1 = t.final_field();
        t.run(&e2);
        let f2 = t.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under TTI diamond");
    }

    #[test]
    fn dataflow_fused_sparse_modes_agree_bitwise() {
        let mut t = setup(0.35, 4, 12);
        let mut e1 = Execution::wavefront_dataflow_default();
        e1.schedule = Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 8,
            tile_t: 3,
            block_x: 4,
            block_y: 4,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        t.run(&e1);
        let f1 = t.final_field();
        t.run(&e2);
        let f2 = t.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under TTI dataflow");
    }

    #[test]
    fn traces_agree_between_schedules() {
        let mut t = setup(0.35, 4, 15);
        t.run(&Execution::baseline().sequential());
        let tb = t.trace().unwrap();
        let mut exec = Execution::wavefront_default().sequential();
        exec.schedule = Schedule::Wavefront {
            tile_x: 10,
            tile_y: 10,
            tile_t: 4,
            block_x: 5,
            block_y: 5,
        };
        t.run(&exec);
        let tw = t.trace().unwrap();
        let scale = tb
            .as_slice()
            .iter()
            .fold(0.0f32, |s, &v| s.max(v.abs()))
            .max(1e-20);
        for i in 0..tb.len() {
            let d = (tb.as_slice()[i] - tw.as_slice()[i]).abs();
            assert!(d <= 1e-4 * scale);
        }
    }

    #[test]
    fn anisotropy_changes_the_wavefield() {
        let mut iso = setup(0.0, 4, 15);
        let mut tilted = setup(0.5, 4, 15);
        iso.run(&Execution::baseline().sequential());
        tilted.run(&Execution::baseline().sequential());
        let a = iso.final_field();
        let b = tilted.final_field();
        assert!(
            a.max_abs_diff(&b) > 1e-8,
            "tilt angle must affect propagation"
        );
    }

    #[test]
    fn tilted_symmetry_axis_breaks_xy_symmetry() {
        // With φ=0 and θ≠0 the symmetry axis tilts in the x-z plane, so the
        // wavefield loses x↔y symmetry that the isotropic case would keep.
        let domain = Domain::uniform(Shape::cube(17), 20.0);
        let model = TtiModel::homogeneous(domain, 2000.0, 0.25, 0.05, 0.6, 0.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Tti, model.vmax(), 60.0)
            .with_nt(14)
            .with_boundary(0, 0.0);
        // exact on-grid centre source keeps the comparison clean
        let src = SparsePoints::new(&domain, vec![[160.0, 160.0, 160.0]]);
        let mut t = Tti::new(&model, cfg, src, None);
        t.run(&Execution::baseline().sequential());
        let f = t.final_field();
        let c = 8usize;
        let off = 5usize;
        let vx = f.get(c + off, c, c);
        let vy = f.get(c, c + off, c);
        assert!(
            (vx - vy).abs() > 1e-10 * f.max_abs().max(1e-20),
            "tilt in x-z must distinguish x from y: {vx} vs {vy}"
        );
    }
}
