//! Isotropic elastic wave propagator (paper §III-C).
//!
//! First-order velocity–stress formulation on a staggered grid (Virieux):
//!
//! ```text
//! ρ·∂v/∂t = ∇·τ
//! ∂τ/∂t   = λ·tr(∇v)·I + μ·(∇v + ∇vᵀ)
//! ```
//!
//! Nine coupled wavefields (3 particle velocities + 6 stress components) —
//! "this equation … increases the data movement drastically (one or two
//! versus nine state parameters)". Each timestep has **two phases**: the
//! velocity update reads the previous stresses, then the stress update reads
//! the *freshly computed* velocities. Under wave-front temporal blocking
//! each phase becomes its own virtual step, which shifts the wave-front
//! angle exactly as the paper's Fig. 8b prescribes for multi-grid stencils
//! with intra-timestep dependencies.
//!
//! Being first order in time, only two levels per field are kept — the paper
//! uses elastic to "demonstrate that the benefits of time-blocking … are not
//! limited to a single pattern along the time dimension".

use std::time::Instant;

use crate::config::SimConfig;
use crate::operator::{Execution, KernelPath, RunStats, Schedule, SparseMode, WaveSolver};
use crate::shared::LevelRing;
use crate::sources::{ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_obs as obs;
use tempest_grid::{Array2, Array3, DampingMask, ElasticModel, Range3, Shape};
use tempest_sparse::SparsePoints;
use tempest_stencil::fpenv::FlushDenormals;
use tempest_stencil::kernels::{staggered_diff_bwd_r, staggered_diff_fwd_r, staggered_weights};
use tempest_stencil::simd::LANE;
use tempest_stencil::Backend;
use tempest_stencil::metrics::elastic_cost;
use tempest_tiling::{diamond, spaceblock, wavefront};

/// The isotropic elastic velocity–stress propagator.
pub struct Elastic {
    cfg: SimConfig,
    vx: LevelRing,
    vy: LevelRing,
    vz: LevelRing,
    txx: LevelRing,
    tyy: LevelRing,
    tzz: LevelRing,
    txy: LevelRing,
    txz: LevelRing,
    tyz: LevelRing,
    /// `dt·λ` per point.
    lam_dt: Array3<f32>,
    /// `dt·μ` per point.
    mu_dt: Array3<f32>,
    /// `2·dt·μ` per point.
    mu2_dt: Array3<f32>,
    /// `dt/ρ` (buoyancy) per point.
    dtb: Array3<f32>,
    /// Sponge multiplier `(1 − η)` per point.
    fd: Array3<f32>,
    swx: Vec<f32>,
    swy: Vec<f32>,
    swz: Vec<f32>,
    radius: usize,
    src: SourceBundle,
    rec: Option<ReceiverBundle>,
    trace: Option<TraceBuffer>,
}

impl Elastic {
    /// Build a propagator over `model`. Sources are explosive (injected into
    /// the normal stresses); receivers record `vz`.
    pub fn new(
        model: &ElasticModel,
        cfg: SimConfig,
        sources: SparsePoints,
        receivers: Option<SparsePoints>,
    ) -> Self {
        assert_eq!(model.shape(), cfg.shape(), "model/config shape mismatch");
        let shape = cfg.shape();
        let radius = cfg.radius();
        let h = cfg.domain.spacing();
        let swx = staggered_weights(cfg.space_order, h[0]);
        let swy = staggered_weights(cfg.space_order, h[1]);
        let swz = staggered_weights(cfg.space_order, h[2]);

        let damp = DampingMask::sponge(shape, cfg.nbl, cfg.damp_coeff);
        let dt = cfg.dt;
        let n = shape.len();
        let mut lam_dt = Array3::from_shape(shape);
        let mut mu_dt = Array3::from_shape(shape);
        let mut mu2_dt = Array3::from_shape(shape);
        let mut dtb = Array3::from_shape(shape);
        let mut fd = Array3::from_shape(shape);
        for i in 0..n {
            lam_dt.as_mut_slice()[i] = dt * model.lam.as_slice()[i];
            let mu = dt * model.mu.as_slice()[i];
            mu_dt.as_mut_slice()[i] = mu;
            mu2_dt.as_mut_slice()[i] = 2.0 * mu;
            dtb.as_mut_slice()[i] = dt * model.buoyancy.as_slice()[i];
            fd.as_mut_slice()[i] = 1.0 - damp.damp.as_slice()[i];
        }

        let src = SourceBundle::with_ricker(&cfg.domain, sources, cfg.f0, cfg.dt, cfg.nt);
        let rec = receivers.map(|r| ReceiverBundle::new(&cfg.domain, r));
        let trace = rec
            .as_ref()
            .map(|r| TraceBuffer::new(cfg.nt, r.num_receivers()));
        let ring = || LevelRing::new_lane_aligned(shape, radius, 2, LANE);
        Elastic {
            vx: ring(),
            vy: ring(),
            vz: ring(),
            txx: ring(),
            tyy: ring(),
            tzz: ring(),
            txy: ring(),
            txz: ring(),
            tyz: ring(),
            cfg,
            lam_dt,
            mu_dt,
            mu2_dt,
            dtb,
            fd,
            swx,
            swy,
            swz,
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
        for r in [
            &mut self.vx,
            &mut self.vy,
            &mut self.vz,
            &mut self.txx,
            &mut self.tyy,
            &mut self.tzz,
            &mut self.txy,
            &mut self.txz,
            &mut self.tyz,
        ] {
            r.clear();
        }
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    /// Compute virtual step `vt` for `region`. Even `vt` = velocity phase of
    /// timestep `vt/2`; odd = stress phase.
    fn step_region(&self, vt: usize, region: &Range3, mode: SparseMode, kernel: KernelPath) {
        let _fp = FlushDenormals::new();
        let _sp = obs::trace::span(obs::trace::SpanKind::Stencil, obs::trace::SpanArgs::step(vt));
        let t = vt >> 1;
        match (kernel.resolve(), self.radius, vt & 1) {
            (Backend::Scalar, 2, 0) => self.vel_phase::<2>(t, region, mode),
            (Backend::Scalar, 2, 1) => self.stress_phase::<2>(t, region, mode),
            (Backend::Scalar, 4, 0) => self.vel_phase::<4>(t, region, mode),
            (Backend::Scalar, 4, 1) => self.stress_phase::<4>(t, region, mode),
            (Backend::Scalar, 6, 0) => self.vel_phase::<6>(t, region, mode),
            (Backend::Scalar, 6, 1) => self.stress_phase::<6>(t, region, mode),
            (b, 2, 0) => self.vel_phase_pencil::<2>(t, region, mode, b),
            (b, 2, 1) => self.stress_phase_pencil::<2>(t, region, mode, b),
            (b, 4, 0) => self.vel_phase_pencil::<4>(t, region, mode, b),
            (b, 4, 1) => self.stress_phase_pencil::<4>(t, region, mode, b),
            (b, 6, 0) => self.vel_phase_pencil::<6>(t, region, mode, b),
            (b, 6, 1) => self.stress_phase_pencil::<6>(t, region, mode, b),
            _ => panic!(
                "elastic propagator supports space orders 4, 8, 12 (got {})",
                self.cfg.space_order
            ),
        }
    }

    /// Velocity update: `v[t+1] = (v[t] + dt/ρ · ∇·τ[t]) · (1−η)`.
    fn vel_phase<const R: usize>(&self, t: usize, region: &Range3, mode: SparseMode) {
        let sw = obs::start(obs::Phase::Stencil);
        // Each phase (velocity, stress) is its own virtual step and counts
        // one update per grid point.
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        let mut gathers = 0u64;
        // SAFETY: schedule contract (see Acoustic::step_r); velocity levels
        // t+1 are written per disjoint region, all reads are level-t fields.
        let txx = unsafe { self.txx.level(t) };
        let tyy = unsafe { self.tyy.level(t) };
        let tzz = unsafe { self.tzz.level(t) };
        let txy = unsafe { self.txy.level(t) };
        let txz = unsafe { self.txz.level(t) };
        let tyz = unsafe { self.tyz.level(t) };
        let vx0 = unsafe { self.vx.level(t) };
        let vy0 = unsafe { self.vy.level(t) };
        let vz0 = unsafe { self.vz.level(t) };
        let (sx, sy) = (self.vx.sx(), self.vx.sy());
        let swx: [f32; R] = self.swx[..].try_into().expect("radius mismatch");
        let swy: [f32; R] = self.swy[..].try_into().expect("radius mismatch");
        let swz: [f32; R] = self.swz[..].try_into().expect("radius mismatch");
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let vxn = unsafe { self.vx.pencil_mut(t + 1, x, y) };
                let vyn = unsafe { self.vy.pencil_mut(t + 1, x, y) };
                let vzn = unsafe { self.vz.pencil_mut(t + 1, x, y) };
                let base = self.vx.idx(x, y, 0);
                let dtb = self.dtb.pencil(x, y);
                let fd = self.fd.pencil(x, y);
                for z in region.z0..region.z1 {
                    let i = base + z;
                    // vx lives at (i+½, j, k).
                    let dvx = staggered_diff_fwd_r::<R>(txx, i, sx, &swx)
                        + staggered_diff_bwd_r::<R>(txy, i, sy, &swy)
                        + staggered_diff_bwd_r::<R>(txz, i, 1, &swz);
                    vxn[z] = (vx0[i] + dtb[z] * dvx) * fd[z];
                    // vy lives at (i, j+½, k).
                    let dvy = staggered_diff_bwd_r::<R>(txy, i, sx, &swx)
                        + staggered_diff_fwd_r::<R>(tyy, i, sy, &swy)
                        + staggered_diff_bwd_r::<R>(tyz, i, 1, &swz);
                    vyn[z] = (vy0[i] + dtb[z] * dvy) * fd[z];
                    // vz lives at (i, j, k+½).
                    let dvz = staggered_diff_bwd_r::<R>(txz, i, sx, &swx)
                        + staggered_diff_bwd_r::<R>(tyz, i, sy, &swy)
                        + staggered_diff_fwd_r::<R>(tzz, i, 1, &swz);
                    vzn[z] = (vz0[i] + dtb[z] * dvz) * fd[z];
                }
                // Fused receiver gather of vz (the mirror of Listing 4).
                if mode != SparseMode::Classic {
                    if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
                        let sparse_sw = obs::start(obs::Phase::Sparse);
                        for (z, id) in rec.comp.entries(x, y) {
                            if z >= region.z0 && z < region.z1 {
                                let v = vzn[z];
                                let contribs = rec.pre.contributions(id);
                                gathers += contribs.len() as u64;
                                for &(r, w) in contribs {
                                    trace.add(t, r as usize, w * v);
                                }
                            }
                        }
                        sparse_sw.stop();
                    }
                }
            }
        }
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }

    /// Stress update: `τ[t+1] = (τ[t] + dt·(λ tr(ε̇) I + 2μ ε̇)) · (1−η)`,
    /// strain rates from the *fresh* `v[t+1]` (the previous virtual step).
    fn stress_phase<const R: usize>(&self, t: usize, region: &Range3, mode: SparseMode) {
        let sw = obs::start(obs::Phase::Stencil);
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        let mut injections = 0u64;
        let vx1 = unsafe { self.vx.level(t + 1) };
        let vy1 = unsafe { self.vy.level(t + 1) };
        let vz1 = unsafe { self.vz.level(t + 1) };
        let txx0 = unsafe { self.txx.level(t) };
        let tyy0 = unsafe { self.tyy.level(t) };
        let tzz0 = unsafe { self.tzz.level(t) };
        let txy0 = unsafe { self.txy.level(t) };
        let txz0 = unsafe { self.txz.level(t) };
        let tyz0 = unsafe { self.tyz.level(t) };
        let (sx, sy) = (self.vx.sx(), self.vx.sy());
        let swx: [f32; R] = self.swx[..].try_into().expect("radius mismatch");
        let swy: [f32; R] = self.swy[..].try_into().expect("radius mismatch");
        let swz: [f32; R] = self.swz[..].try_into().expect("radius mismatch");
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let txxn = unsafe { self.txx.pencil_mut(t + 1, x, y) };
                let tyyn = unsafe { self.tyy.pencil_mut(t + 1, x, y) };
                let tzzn = unsafe { self.tzz.pencil_mut(t + 1, x, y) };
                let txyn = unsafe { self.txy.pencil_mut(t + 1, x, y) };
                let txzn = unsafe { self.txz.pencil_mut(t + 1, x, y) };
                let tyzn = unsafe { self.tyz.pencil_mut(t + 1, x, y) };
                let base = self.vx.idx(x, y, 0);
                let lam = self.lam_dt.pencil(x, y);
                let mu = self.mu_dt.pencil(x, y);
                let mu2 = self.mu2_dt.pencil(x, y);
                let fd = self.fd.pencil(x, y);
                for z in region.z0..region.z1 {
                    let i = base + z;
                    // Normal stresses live at (i, j, k).
                    let exx = staggered_diff_bwd_r::<R>(vx1, i, sx, &swx);
                    let eyy = staggered_diff_bwd_r::<R>(vy1, i, sy, &swy);
                    let ezz = staggered_diff_bwd_r::<R>(vz1, i, 1, &swz);
                    let ldiv = lam[z] * (exx + eyy + ezz);
                    txxn[z] = (txx0[i] + ldiv + mu2[z] * exx) * fd[z];
                    tyyn[z] = (tyy0[i] + ldiv + mu2[z] * eyy) * fd[z];
                    tzzn[z] = (tzz0[i] + ldiv + mu2[z] * ezz) * fd[z];
                    // Shear stresses at the edge-staggered positions.
                    let exy = staggered_diff_fwd_r::<R>(vx1, i, sy, &swy)
                        + staggered_diff_fwd_r::<R>(vy1, i, sx, &swx);
                    txyn[z] = (txy0[i] + mu[z] * exy) * fd[z];
                    let exz = staggered_diff_fwd_r::<R>(vx1, i, 1, &swz)
                        + staggered_diff_fwd_r::<R>(vz1, i, sx, &swx);
                    txzn[z] = (txz0[i] + mu[z] * exz) * fd[z];
                    let eyz = staggered_diff_fwd_r::<R>(vy1, i, 1, &swz)
                        + staggered_diff_fwd_r::<R>(vz1, i, sy, &swy);
                    tyzn[z] = (tyz0[i] + mu[z] * eyz) * fd[z];
                }
                // Fused explosive source into the normal stresses.
                match mode {
                    SparseMode::Classic => {}
                    SparseMode::Fused => {
                        let sparse_sw = obs::start(obs::Phase::Sparse);
                        let dcmp = self.src.pre.dcmp_row(t);
                        let sm = self.src.pre.sm_pencil(x, y);
                        let sid = self.src.pre.sid_pencil(x, y);
                        for z in region.z0..region.z1 {
                            if sm[z] != 0 {
                                let v = self.cfg.dt * dcmp[sid[z] as usize];
                                txxn[z] += v;
                                tyyn[z] += v;
                                tzzn[z] += v;
                                // One injection per masked point, not per
                                // stress component.
                                injections += 1;
                            }
                        }
                        sparse_sw.stop();
                    }
                    SparseMode::FusedCompressed => {
                        let sparse_sw = obs::start(obs::Phase::Sparse);
                        let dcmp = self.src.pre.dcmp_row(t);
                        for (z, id) in self.src.comp.entries(x, y) {
                            if z >= region.z0 && z < region.z1 {
                                let v = self.cfg.dt * dcmp[id];
                                txxn[z] += v;
                                tyyn[z] += v;
                                tzzn[z] += v;
                                injections += 1;
                            }
                        }
                        sparse_sw.stop();
                    }
                }
            }
        }
        obs::add(obs::Counter::SourceInjections, injections);
        sw.stop();
    }

    /// Pencil-kernel twin of [`vel_phase`](Self::vel_phase): three staggered
    /// derivative rows per velocity component, combined with the exact scalar
    /// accumulation order so the fields stay bitwise equal.
    fn vel_phase_pencil<const R: usize>(
        &self,
        t: usize,
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
        let mut gathers = 0u64;
        // SAFETY: see `vel_phase` — identical schedule contract.
        let txx = unsafe { self.txx.level(t) };
        let tyy = unsafe { self.tyy.level(t) };
        let tzz = unsafe { self.tzz.level(t) };
        let txy = unsafe { self.txy.level(t) };
        let txz = unsafe { self.txz.level(t) };
        let tyz = unsafe { self.tyz.level(t) };
        let vx0 = unsafe { self.vx.level(t) };
        let vy0 = unsafe { self.vy.level(t) };
        let vz0 = unsafe { self.vz.level(t) };
        let (sx, sy) = (self.vx.sx(), self.vx.sy());
        let swx: [f32; R] = self.swx[..].try_into().expect("radius mismatch");
        let swy: [f32; R] = self.swy[..].try_into().expect("radius mismatch");
        let swz: [f32; R] = self.swz[..].try_into().expect("radius mismatch");
        let n = region.z1 - region.z0;
        let mut d = vec![0.0f32; 3 * n];
        let (da, r) = d.split_at_mut(n);
        let (db, dc) = r.split_at_mut(n);
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let vxn = unsafe { self.vx.pencil_mut(t + 1, x, y) };
                let vyn = unsafe { self.vy.pencil_mut(t + 1, x, y) };
                let vzn = unsafe { self.vz.pencil_mut(t + 1, x, y) };
                let i0 = self.vx.idx(x, y, region.z0);
                let dtb = self.dtb.pencil(x, y);
                let fd = self.fd.pencil(x, y);
                // vx lives at (i+½, j, k).
                backend.staggered_fwd_row_r::<R>(txx, i0, sx, &swx, da);
                backend.staggered_bwd_row_r::<R>(txy, i0, sy, &swy, db);
                backend.staggered_bwd_row_r::<R>(txz, i0, 1, &swz, dc);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    let dvx = da[j] + db[j] + dc[j];
                    vxn[z] = (vx0[i] + dtb[z] * dvx) * fd[z];
                }
                // vy lives at (i, j+½, k).
                backend.staggered_bwd_row_r::<R>(txy, i0, sx, &swx, da);
                backend.staggered_fwd_row_r::<R>(tyy, i0, sy, &swy, db);
                backend.staggered_bwd_row_r::<R>(tyz, i0, 1, &swz, dc);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    let dvy = da[j] + db[j] + dc[j];
                    vyn[z] = (vy0[i] + dtb[z] * dvy) * fd[z];
                }
                // vz lives at (i, j, k+½).
                backend.staggered_bwd_row_r::<R>(txz, i0, sx, &swx, da);
                backend.staggered_bwd_row_r::<R>(tyz, i0, sy, &swy, db);
                backend.staggered_fwd_row_r::<R>(tzz, i0, 1, &swz, dc);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    let dvz = da[j] + db[j] + dc[j];
                    vzn[z] = (vz0[i] + dtb[z] * dvz) * fd[z];
                }
                // Fused receiver gather of vz (the mirror of Listing 4).
                if mode != SparseMode::Classic {
                    if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
                        let sparse_sw = obs::start(obs::Phase::Sparse);
                        for (z, id) in rec.comp.entries(x, y) {
                            if z >= region.z0 && z < region.z1 {
                                let v = vzn[z];
                                let contribs = rec.pre.contributions(id);
                                gathers += contribs.len() as u64;
                                for &(r, w) in contribs {
                                    trace.add(t, r as usize, w * v);
                                }
                            }
                        }
                        sparse_sw.stop();
                    }
                }
            }
        }
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }

    /// Pencil-kernel twin of [`stress_phase`](Self::stress_phase).
    fn stress_phase_pencil<const R: usize>(
        &self,
        t: usize,
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
        let mut injections = 0u64;
        let vx1 = unsafe { self.vx.level(t + 1) };
        let vy1 = unsafe { self.vy.level(t + 1) };
        let vz1 = unsafe { self.vz.level(t + 1) };
        let txx0 = unsafe { self.txx.level(t) };
        let tyy0 = unsafe { self.tyy.level(t) };
        let tzz0 = unsafe { self.tzz.level(t) };
        let txy0 = unsafe { self.txy.level(t) };
        let txz0 = unsafe { self.txz.level(t) };
        let tyz0 = unsafe { self.tyz.level(t) };
        let (sx, sy) = (self.vx.sx(), self.vx.sy());
        let swx: [f32; R] = self.swx[..].try_into().expect("radius mismatch");
        let swy: [f32; R] = self.swy[..].try_into().expect("radius mismatch");
        let swz: [f32; R] = self.swz[..].try_into().expect("radius mismatch");
        let n = region.z1 - region.z0;
        let mut d = vec![0.0f32; 3 * n];
        let (da, r) = d.split_at_mut(n);
        let (db, dc) = r.split_at_mut(n);
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let txxn = unsafe { self.txx.pencil_mut(t + 1, x, y) };
                let tyyn = unsafe { self.tyy.pencil_mut(t + 1, x, y) };
                let tzzn = unsafe { self.tzz.pencil_mut(t + 1, x, y) };
                let txyn = unsafe { self.txy.pencil_mut(t + 1, x, y) };
                let txzn = unsafe { self.txz.pencil_mut(t + 1, x, y) };
                let tyzn = unsafe { self.tyz.pencil_mut(t + 1, x, y) };
                let i0 = self.vx.idx(x, y, region.z0);
                let lam = self.lam_dt.pencil(x, y);
                let mu = self.mu_dt.pencil(x, y);
                let mu2 = self.mu2_dt.pencil(x, y);
                let fd = self.fd.pencil(x, y);
                // Normal stresses live at (i, j, k).
                backend.staggered_bwd_row_r::<R>(vx1, i0, sx, &swx, da);
                backend.staggered_bwd_row_r::<R>(vy1, i0, sy, &swy, db);
                backend.staggered_bwd_row_r::<R>(vz1, i0, 1, &swz, dc);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    let (exx, eyy, ezz) = (da[j], db[j], dc[j]);
                    let ldiv = lam[z] * (exx + eyy + ezz);
                    txxn[z] = (txx0[i] + ldiv + mu2[z] * exx) * fd[z];
                    tyyn[z] = (tyy0[i] + ldiv + mu2[z] * eyy) * fd[z];
                    tzzn[z] = (tzz0[i] + ldiv + mu2[z] * ezz) * fd[z];
                }
                // Shear stresses at the edge-staggered positions.
                backend.staggered_fwd_row_r::<R>(vx1, i0, sy, &swy, da);
                backend.staggered_fwd_row_r::<R>(vy1, i0, sx, &swx, db);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    txyn[z] = (txy0[i] + mu[z] * (da[j] + db[j])) * fd[z];
                }
                backend.staggered_fwd_row_r::<R>(vx1, i0, 1, &swz, da);
                backend.staggered_fwd_row_r::<R>(vz1, i0, sx, &swx, db);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    txzn[z] = (txz0[i] + mu[z] * (da[j] + db[j])) * fd[z];
                }
                backend.staggered_fwd_row_r::<R>(vy1, i0, 1, &swz, da);
                backend.staggered_fwd_row_r::<R>(vz1, i0, sy, &swy, db);
                for j in 0..n {
                    let (z, i) = (region.z0 + j, i0 + j);
                    tyzn[z] = (tyz0[i] + mu[z] * (da[j] + db[j])) * fd[z];
                }
                // Fused explosive source into the normal stresses.
                match mode {
                    SparseMode::Classic => {}
                    SparseMode::Fused => {
                        let sparse_sw = obs::start(obs::Phase::Sparse);
                        let dcmp = self.src.pre.dcmp_row(t);
                        let sm = self.src.pre.sm_pencil(x, y);
                        let sid = self.src.pre.sid_pencil(x, y);
                        for z in region.z0..region.z1 {
                            if sm[z] != 0 {
                                let v = self.cfg.dt * dcmp[sid[z] as usize];
                                txxn[z] += v;
                                tyyn[z] += v;
                                tzzn[z] += v;
                                injections += 1;
                            }
                        }
                        sparse_sw.stop();
                    }
                    SparseMode::FusedCompressed => {
                        let sparse_sw = obs::start(obs::Phase::Sparse);
                        let dcmp = self.src.pre.dcmp_row(t);
                        for (z, id) in self.src.comp.entries(x, y) {
                            if z >= region.z0 && z < region.z1 {
                                let v = self.cfg.dt * dcmp[id];
                                txxn[z] += v;
                                tyyn[z] += v;
                                tzzn[z] += v;
                                injections += 1;
                            }
                        }
                        sparse_sw.stop();
                    }
                }
            }
        }
        obs::add(obs::Counter::SourceInjections, injections);
        sw.stop();
    }

    /// Classic per-timestep sparse operators (space-blocked baseline only).
    fn classic_after_step(&self, t: usize) {
        let _fp = FlushDenormals::new();
        let sw = obs::start(obs::Phase::Sparse);
        let _sp = obs::trace::span(obs::trace::SpanKind::Sparse, obs::trace::SpanArgs::step(t));
        let mut injections = 0u64;
        let mut gathers = 0u64;
        for (st, &a) in self.src.stencils.iter().zip(self.src.amps_at(t)) {
            for (c, w) in st.nonzero() {
                let v = self.cfg.dt * (w * a);
                // SAFETY: single-threaded between sweeps.
                unsafe {
                    self.txx.pencil_mut(t + 1, c[0], c[1])[c[2]] += v;
                    self.tyy.pencil_mut(t + 1, c[0], c[1])[c[2]] += v;
                    self.tzz.pencil_mut(t + 1, c[0], c[1])[c[2]] += v;
                }
                injections += 1;
            }
        }
        if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
            let vz = unsafe { self.vz.level(t + 1) };
            for (r, st) in rec.stencils.iter().enumerate() {
                let mut acc = 0.0f32;
                for (c, w) in st.nonzero() {
                    acc += w * vz[self.vz.idx(c[0], c[1], c[2])];
                    gathers += 1;
                }
                trace.add(t, r, acc);
            }
        }
        obs::add(obs::Counter::SourceInjections, injections);
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }
}

impl WaveSolver for Elastic {
    fn name(&self) -> &'static str {
        "elastic"
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
        let nvt = 2 * nt;
        let started = Instant::now();
        let this: &Elastic = self;
        match exec.schedule {
            Schedule::SpaceBlocked { .. } => {
                let spec = exec.spaceblock_spec();
                let classic = exec.sparse == SparseMode::Classic;
                spaceblock::execute(
                    shape,
                    nvt,
                    spec,
                    exec.policy,
                    |vt, region| this.step_region(vt, region, exec.sparse, exec.kernel),
                    |vt| {
                        // The classic sparse ops run once per *timestep*,
                        // after its stress phase.
                        if classic && vt & 1 == 1 {
                            this.classic_after_step(vt >> 1);
                        }
                    },
                );
            }
            Schedule::Wavefront { .. } => {
                // Two virtual steps per timestep: the spec conversion
                // doubles the temporal tile height (Fig. 8b).
                let spec = exec.wavefront_spec(self.radius, 2);
                wavefront::execute(shape, nvt, &spec, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
            Schedule::WavefrontDiagonal { .. } => {
                let spec = exec.wavefront_spec(self.radius, 2);
                wavefront::execute_diagonal(shape, nvt, &spec, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
            Schedule::WavefrontDataflow { .. } => {
                let spec = exec.wavefront_spec(self.radius, 2);
                wavefront::execute_dataflow(shape, nvt, &spec, self.radius, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
            Schedule::Diamond { .. } => {
                let spec = exec.diamond_spec(self.radius, 2);
                diamond::execute_diamond(shape, nvt, &spec, self.radius, exec.policy, |vt, region| {
                    this.step_region(vt, region, exec.sparse, exec.kernel)
                });
            }
        }
        RunStats::new(started.elapsed(), nt, shape)
    }

    fn final_field(&mut self) -> Array3<f32> {
        let t = self.cfg.nt;
        self.vz.interior_copy(t)
    }

    fn trace(&self) -> Option<Array2<f32>> {
        self.trace.as_ref().map(|t| t.to_array())
    }

    fn flops_per_point(&self) -> f64 {
        elastic_cost(self.cfg.space_order).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquationKind;
    use tempest_grid::Domain;

    fn setup(so: usize, nt: usize) -> Elastic {
        let domain = Domain::uniform(Shape::cube(20), 10.0);
        let model = ElasticModel::homogeneous(domain, 3000.0, 1400.0, 2200.0);
        let cfg = SimConfig::new(domain, so, EquationKind::Elastic, 3000.0, 40.0)
            .with_nt(nt)
            .with_f0(25.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&domain, 0.4);
        let rec = SparsePoints::receiver_line(&domain, 4, 0.25);
        Elastic::new(&model, cfg, src, Some(rec))
    }

    #[test]
    fn propagates_and_stable() {
        let mut e = setup(4, 30);
        e.run(&Execution::baseline());
        let f = e.final_field();
        assert!(f.max_abs() > 0.0, "vz must be excited");
        assert!(f.max_abs().is_finite() && f.max_abs() < 1e6);
        let tr = e.trace().unwrap();
        assert!(tr.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn wavefront_matches_baseline_bitwise() {
        for so in [4usize, 8] {
            let mut e = setup(so, 12);
            e.run(&Execution::baseline().sequential());
            let base = e.final_field();
            let mut exec = Execution::wavefront_default().sequential();
            exec.schedule = Schedule::Wavefront {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            e.run(&exec);
            let wf = e.final_field();
            assert!(
                base.bit_equal(&wf),
                "so={so}: elastic WTB must be bitwise identical, max diff {}",
                base.max_abs_diff(&wf)
            );
        }
    }

    #[test]
    fn diagonal_matches_baseline_bitwise() {
        // The staggered scheme runs two virtual steps per timestep; the
        // diagonal executor must keep the velocity/stress interleaving (and
        // the fused source work on odd vt) intact in every tile.
        for so in [4usize, 8] {
            let mut e = setup(so, 12);
            e.run(&Execution::baseline().sequential());
            let base = e.final_field();
            let mut exec = Execution::wavefront_diagonal_default().sequential();
            exec.schedule = Schedule::WavefrontDiagonal {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            e.run(&exec);
            let dg = e.final_field();
            assert!(
                base.bit_equal(&dg),
                "so={so}: elastic diagonal WTB must be bitwise identical, max diff {}",
                base.max_abs_diff(&dg)
            );
            exec.policy = tempest_par::Policy::Parallel;
            e.run(&exec);
            let par = e.final_field();
            assert!(base.bit_equal(&par), "so={so}: parallel diagonal differs");
        }
    }

    #[test]
    fn dataflow_matches_diagonal_bitwise_across_policies() {
        // Two virtual steps per timestep (velocity then stress): the tile
        // dependency graph must keep the phase interleaving intact even
        // though the stress phase reads same-timestep velocities.
        use tempest_par::Policy;
        for so in [4usize, 8] {
            let mut e = setup(so, 12);
            let mut dg = Execution::wavefront_diagonal_default().sequential();
            dg.schedule = Schedule::WavefrontDiagonal {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            e.run(&dg);
            let want = e.final_field();
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
                e.run(&df);
                let got = e.final_field();
                assert!(
                    want.bit_equal(&got),
                    "so={so} policy={pol:?}: elastic dataflow must match diagonal, max diff {}",
                    want.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn diamond_matches_dataflow_bitwise_across_policies() {
        // Two virtual steps per timestep: the diamond spec conversion
        // doubles the virtual tile height, so the slope bound is against
        // 2·radius·tile_t·phases. Width 12·radius gives slope = radius.
        use crate::operator::DiamondAxis;
        use tempest_par::Policy;
        for so in [4usize, 8] {
            let radius = so / 2;
            let mut e = setup(so, 12);
            let mut df = Execution::wavefront_dataflow_default().sequential();
            df.schedule = Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 8,
                tile_t: 3,
                block_x: 4,
                block_y: 4,
            };
            e.run(&df);
            let want = e.final_field();
            for pol in [
                Policy::Sequential,
                Policy::Parallel,
                Policy::Capped { threads: 1 },
                Policy::Capped { threads: 2 },
                Policy::Capped { threads: 4 },
            ] {
                let mut dm = df;
                dm.schedule = Schedule::Diamond {
                    width: 12 * radius,
                    tile_t: 3,
                    tile_c: 8,
                    axis: DiamondAxis::X,
                    block_x: 4,
                    block_y: 4,
                };
                dm.policy = pol;
                e.run(&dm);
                let got = e.final_field();
                assert!(
                    want.bit_equal(&got),
                    "so={so} policy={pol:?}: elastic diamond must match dataflow, max diff {}",
                    want.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn diamond_fused_sparse_modes_agree_bitwise() {
        use crate::operator::DiamondAxis;
        let mut e = setup(4, 10);
        let mut e1 = Execution::diamond_default();
        e1.schedule = Schedule::Diamond {
            width: 24,
            tile_t: 3,
            tile_c: 8,
            axis: DiamondAxis::Y,
            block_x: 8,
            block_y: 8,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        e.run(&e1);
        let f1 = e.final_field();
        e.run(&e2);
        let f2 = e.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under elastic diamond");
    }

    #[test]
    fn dataflow_fused_sparse_modes_agree_bitwise() {
        let mut e = setup(4, 10);
        let mut e1 = Execution::wavefront_dataflow_default();
        e1.schedule = Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 8,
            tile_t: 3,
            block_x: 8,
            block_y: 8,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        e.run(&e1);
        let f1 = e.final_field();
        e.run(&e2);
        let f2 = e.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under elastic dataflow");
    }

    #[test]
    fn all_stress_components_respond() {
        let mut e = setup(4, 16);
        e.run(&Execution::baseline().sequential());
        let t = e.cfg.nt;
        for (name, ring) in [
            ("txx", &mut e.txx),
            ("tyy", &mut e.tyy),
            ("tzz", &mut e.tzz),
            ("txy", &mut e.txy),
            ("txz", &mut e.txz),
            ("tyz", &mut e.tyz),
        ] {
            assert!(
                ring.interior_max_abs(t) > 0.0,
                "{name} must carry energy after an explosive source"
            );
        }
    }

    #[test]
    fn traces_agree_between_schedules() {
        let mut e = setup(4, 14);
        e.run(&Execution::baseline().sequential());
        let tb = e.trace().unwrap();
        let mut exec = Execution::wavefront_default().sequential();
        exec.schedule = Schedule::Wavefront {
            tile_x: 10,
            tile_y: 10,
            tile_t: 4,
            block_x: 5,
            block_y: 5,
        };
        e.run(&exec);
        let tw = e.trace().unwrap();
        let scale = tb
            .as_slice()
            .iter()
            .fold(0.0f32, |s, &v| s.max(v.abs()))
            .max(1e-20);
        for i in 0..tb.len() {
            let d = (tb.as_slice()[i] - tw.as_slice()[i]).abs();
            assert!(d <= 1e-4 * scale, "idx {i}");
        }
    }

    #[test]
    fn shear_free_fluid_keeps_shear_stresses_small() {
        // With μ = 0 (vs = 0) the medium is a fluid: no shear stresses
        // develop from a pressure source.
        let domain = Domain::uniform(Shape::cube(16), 10.0);
        let model = ElasticModel::homogeneous(domain, 1500.0, 0.0, 1000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Elastic, 1500.0, 40.0)
            .with_nt(12)
            .with_boundary(0, 0.0);
        let src = SparsePoints::single_center(&domain, 0.4);
        let mut e = Elastic::new(&model, cfg, src, None);
        e.run(&Execution::baseline().sequential());
        let t = e.cfg.nt;
        assert_eq!(e.txy.interior_max_abs(t), 0.0);
        assert_eq!(e.txz.interior_max_abs(t), 0.0);
        assert_eq!(e.tyz.interior_max_abs(t), 0.0);
        assert!(e.tzz.interior_max_abs(t) > 0.0);
    }

    #[test]
    fn fused_compressed_matches_fused() {
        let mut e = setup(4, 10);
        let mut e1 = Execution::wavefront_default().sequential();
        e1.schedule = Schedule::Wavefront {
            tile_x: 8,
            tile_y: 8,
            tile_t: 3,
            block_x: 8,
            block_y: 8,
        };
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        e.run(&e1);
        let f1 = e.final_field();
        e.run(&e2);
        let f2 = e.final_field();
        assert!(f1.bit_equal(&f2));
    }
}
