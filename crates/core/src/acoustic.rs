//! Isotropic acoustic wave propagator (paper §III-A).
//!
//! Discretises `m·∂²u/∂t² + η·∂u/∂t − Δu = δ(x_s)·q(t)` (squared slowness
//! `m = 1/c²`, sponge damping `η`) with a 2nd-order leap-frog in time and an
//! even-order star Laplacian in space (Fig. 2):
//!
//! `u⁺ = c1·u − c2·u⁻ + c3·(Δu + injected source)` with precomputed
//! per-point coefficients `c1 = 2/(1+η)`, `c2 = (1−η)/(1+η)`,
//! `c3 = dt²/(m·(1+η))`.
//!
//! The same region-update kernel serves every schedule; the sparse source /
//! receiver work is either skipped (classic path, applied between timesteps)
//! or fused per pencil (Listings 4–5).

use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::sync::Arc;
use std::time::Instant;

use crate::config::SimConfig;
use crate::operator::{Execution, KernelPath, RunStats, Schedule, SparseMode, WaveSolver};
use crate::shared::{LevelRing, RingCheckpoint};
use crate::sources::{ReceiverBundle, SourceBundle};
use crate::trace::TraceBuffer;
use tempest_obs as obs;
use tempest_grid::{Array2, Array3, DampingMask, Model, Range3, Shape};
use tempest_sparse::SparsePoints;
use tempest_stencil::fpenv::FlushDenormals;
use tempest_stencil::kernels::{laplacian_at, laplacian_at_r, AxisWeights};
use tempest_stencil::metrics::acoustic_cost;
use tempest_stencil::simd::LANE;
use tempest_stencil::Backend;
use tempest_tiling::incremental::{
    dirty_cone, execute_incremental, DirtyRect, SlabPayload, SourceSig, TileCache, TilePayload,
    TilePlan,
};
use tempest_tiling::{diamond, spaceblock, wavefront, Slab};

/// The isotropic acoustic propagator.
pub struct Acoustic {
    cfg: SimConfig,
    ring: LevelRing,
    c1: Array3<f32>,
    c2: Array3<f32>,
    c3: Array3<f32>,
    wx: Vec<f32>,
    wy: Vec<f32>,
    wz: Vec<f32>,
    center: f32,
    radius: usize,
    src: SourceBundle,
    rec: Option<ReceiverBundle>,
    trace: Option<TraceBuffer>,
}

/// Everything an acoustic shot solve needs that does *not* depend on the
/// source position: leap-frog coefficient volumes (damping + model), FD
/// axis weights, the receiver gather precomputation, and the shared Ricker
/// wavelet samples. Built once per `(model, config, receiver-set)` and
/// reused across every shot of a survey batch — the batch-level reuse rule
/// of the survey engine (DESIGN.md §14). `Clone` is cheap relative to
/// rebuilding: it copies volumes but re-runs no interpolation precompute.
#[derive(Clone)]
pub struct ShotAssets {
    cfg: SimConfig,
    c1: Array3<f32>,
    c2: Array3<f32>,
    c3: Array3<f32>,
    wx: Vec<f32>,
    wy: Vec<f32>,
    wz: Vec<f32>,
    center: f32,
    radius: usize,
    rec: Option<ReceiverBundle>,
    /// Ricker samples at `cfg.f0` — one column of the per-shot wavelet
    /// matrix, shared so shots do not re-evaluate the transcendentals.
    ricker: Vec<f32>,
}

impl ShotAssets {
    /// Precompute the shot-independent assets for `model` under `cfg`, with
    /// an optional shared receiver set.
    pub fn new(model: &Model, cfg: SimConfig, receivers: Option<SparsePoints>) -> Self {
        assert_eq!(model.shape(), cfg.shape(), "model/config shape mismatch");
        let shape = cfg.shape();
        let radius = cfg.radius();
        let h = cfg.domain.spacing();
        let awx = AxisWeights::second_derivative(cfg.space_order, h[0]);
        let awy = AxisWeights::second_derivative(cfg.space_order, h[1]);
        let awz = AxisWeights::second_derivative(cfg.space_order, h[2]);
        let center = awx.center + awy.center + awz.center;

        let damp = DampingMask::sponge(shape, cfg.nbl, cfg.damp_coeff);
        let dt2 = cfg.dt * cfg.dt;
        let mut c1 = Array3::from_shape(shape);
        let mut c2 = Array3::from_shape(shape);
        let mut c3 = Array3::from_shape(shape);
        for i in 0..c1.len() {
            let eta = damp.damp.as_slice()[i];
            let m = model.m.as_slice()[i];
            let inv = 1.0 / (1.0 + eta);
            c1.as_mut_slice()[i] = 2.0 * inv;
            c2.as_mut_slice()[i] = (1.0 - eta) * inv;
            c3.as_mut_slice()[i] = dt2 / m * inv;
        }

        let rec = receivers.map(|r| ReceiverBundle::new(&cfg.domain, r));
        let ricker = tempest_sparse::ricker(cfg.f0, cfg.dt, cfg.nt);
        ShotAssets {
            cfg,
            c1,
            c2,
            c3,
            wx: awx.side,
            wy: awy.side,
            wz: awz.side,
            center,
            radius,
            rec,
            ricker,
        }
    }

    /// The simulation configuration the assets were built for.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The shared receiver bundle, when receivers were attached.
    pub fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_ref()
    }
}

impl Acoustic {
    /// Build a propagator over `model` with the given sources and optional
    /// receivers. Wavelets are Ricker at `cfg.f0`.
    pub fn new(
        model: &Model,
        cfg: SimConfig,
        sources: SparsePoints,
        receivers: Option<SparsePoints>,
    ) -> Self {
        Self::from_assets(&ShotAssets::new(model, cfg, receivers), sources)
    }

    /// Build a propagator from precomputed [`ShotAssets`], paying only the
    /// per-shot cost (source precompute + a fresh wavefield ring). Wavelets
    /// are the assets' shared Ricker — bitwise-identical to
    /// [`new`](Self::new) on the same inputs.
    pub fn from_assets(assets: &ShotAssets, sources: SparsePoints) -> Self {
        let wavelets =
            tempest_sparse::wavelet::wavelet_matrix(&assets.ricker, sources.len());
        Self::from_assets_with_wavelets(assets, sources, wavelets)
    }

    /// Build from precomputed [`ShotAssets`] with explicit per-source
    /// wavelets (`wavelets[t][s]`, `cfg.nt` rows) — the adjoint/RTM shape
    /// of [`new_with_wavelets`](Self::new_with_wavelets).
    pub fn from_assets_with_wavelets(
        assets: &ShotAssets,
        sources: SparsePoints,
        wavelets: Array2<f32>,
    ) -> Self {
        assert_eq!(wavelets.dims()[0], assets.cfg.nt, "one wavelet row per timestep");
        let cfg = assets.cfg.clone();
        let src = SourceBundle::new(&cfg.domain, sources, wavelets);
        let rec = assets.rec.clone();
        let trace = rec
            .as_ref()
            .map(|r| TraceBuffer::new(cfg.nt, r.num_receivers()));
        Acoustic {
            ring: LevelRing::new_lane_aligned(cfg.shape(), assets.radius, 3, LANE),
            cfg,
            c1: assets.c1.clone(),
            c2: assets.c2.clone(),
            c3: assets.c3.clone(),
            wx: assets.wx.clone(),
            wy: assets.wy.clone(),
            wz: assets.wz.clone(),
            center: assets.center,
            radius: assets.radius,
            src,
            rec,
            trace,
        }
    }

    /// Build a propagator whose sources fire explicit per-source wavelets
    /// (`wavelets[t][s]`, `cfg.nt` rows) instead of a shared Ricker — used
    /// by adjoint/RTM passes that re-inject recorded receiver data.
    pub fn new_with_wavelets(
        model: &Model,
        cfg: SimConfig,
        sources: SparsePoints,
        wavelets: tempest_grid::Array2<f32>,
        receivers: Option<SparsePoints>,
    ) -> Self {
        assert_eq!(wavelets.dims()[0], cfg.nt, "one wavelet row per timestep");
        let mut s = Self::new(model, cfg, sources, receivers);
        s.src = SourceBundle::new(&s.cfg.domain, s.src.points.clone(), wavelets);
        s
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The source bundle (inspection / corner-case experiments).
    pub fn sources(&self) -> &SourceBundle {
        &self.src
    }

    /// The receiver bundle, when receivers were attached.
    pub fn receivers(&self) -> Option<&ReceiverBundle> {
        self.rec.as_ref()
    }

    fn reset(&mut self) {
        self.ring.clear();
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    /// Compute timestep `k` (writing level `k + 2`) for `region`. The
    /// `KernelPath` is resolved to a concrete backend here (a cached
    /// lookup), so every schedule picks up the same dispatch decision.
    fn step_region(&self, k: usize, region: &Range3, mode: SparseMode, kernel: KernelPath) {
        // Every schedule, backend and worker computes in the same FP mode
        // because the guard is taken here, at the leaf (DESIGN.md §10).
        let _fp = FlushDenormals::new();
        let _sp = obs::trace::span(obs::trace::SpanKind::Stencil, obs::trace::SpanArgs::step(k));
        match kernel.resolve() {
            Backend::Scalar => match self.radius {
                1 => self.step_r::<1>(k, region, mode),
                2 => self.step_r::<2>(k, region, mode),
                3 => self.step_r::<3>(k, region, mode),
                4 => self.step_r::<4>(k, region, mode),
                6 => self.step_r::<6>(k, region, mode),
                8 => self.step_r::<8>(k, region, mode),
                _ => self.step_dyn(k, region, mode),
            },
            backend => match self.radius {
                1 => self.step_pencil_r::<1>(k, region, mode, backend),
                2 => self.step_pencil_r::<2>(k, region, mode, backend),
                3 => self.step_pencil_r::<3>(k, region, mode, backend),
                4 => self.step_pencil_r::<4>(k, region, mode, backend),
                6 => self.step_pencil_r::<6>(k, region, mode, backend),
                8 => self.step_pencil_r::<8>(k, region, mode, backend),
                _ => self.step_pencil_dyn(k, region, mode, backend),
            },
        }
    }

    /// Row-kernel twin of [`step_r`](Self::step_r): one whole-row Laplacian
    /// call per `z`-row through the selected vector `backend`, then a
    /// slice-zipped leap-frog combine. Bitwise-identical to the scalar path
    /// (same per-point accumulation order; sub-lane remainders fall back to
    /// the scalar kernel inside every backend).
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
        // SAFETY: as in step_r — disjoint region writes, settled reads.
        let u0 = unsafe { self.ring.level(k + 1) };
        let um = unsafe { self.ring.level(k) };
        let (sx, sy) = (self.ring.sx(), self.ring.sy());
        let wx: [f32; R] = self.wx[..].try_into().expect("radius mismatch");
        let wy: [f32; R] = self.wy[..].try_into().expect("radius mismatch");
        let wz: [f32; R] = self.wz[..].try_into().expect("radius mismatch");
        let n = region.z1 - region.z0;
        let mut lap = vec![0.0f32; n];
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let un = unsafe { self.ring.pencil_mut(k + 2, x, y) };
                let i0 = self.ring.idx(x, y, region.z0);
                let c1r = self.c1.pencil(x, y);
                let c2r = self.c2.pencil(x, y);
                let c3r = self.c3.pencil(x, y);
                backend.laplacian_row_r::<R>(u0, i0, sx, sy, self.center, &wx, &wy, &wz, &mut lap);
                let out = &mut un[region.z0..region.z1];
                let u0w = &u0[i0..i0 + n];
                let umw = &um[i0..i0 + n];
                let c1w = &c1r[region.z0..region.z1];
                let c2w = &c2r[region.z0..region.z1];
                let c3w = &c3r[region.z0..region.z1];
                for j in 0..n {
                    out[j] = c1w[j] * u0w[j] - c2w[j] * umw[j] + c3w[j] * lap[j];
                }
                self.fused_sparse(k, x, y, region, un, c3r, mode);
            }
        }
        sw.stop();
    }

    /// Pencil twin of [`step_dyn`](Self::step_dyn) (dynamic radius).
    fn step_pencil_dyn(&self, k: usize, region: &Range3, mode: SparseMode, backend: Backend) {
        let sw = obs::start(obs::Phase::Stencil);
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        obs::add(
            obs::Counter::PencilRows,
            ((region.x1 - region.x0) * (region.y1 - region.y0)) as u64,
        );
        let u0 = unsafe { self.ring.level(k + 1) };
        let um = unsafe { self.ring.level(k) };
        let (sx, sy) = (self.ring.sx(), self.ring.sy());
        let n = region.z1 - region.z0;
        let mut lap = vec![0.0f32; n];
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let un = unsafe { self.ring.pencil_mut(k + 2, x, y) };
                let i0 = self.ring.idx(x, y, region.z0);
                let c1r = self.c1.pencil(x, y);
                let c2r = self.c2.pencil(x, y);
                let c3r = self.c3.pencil(x, y);
                backend.laplacian_row(
                    u0, i0, sx, sy, self.center, &self.wx, &self.wy, &self.wz, &mut lap,
                );
                let out = &mut un[region.z0..region.z1];
                let u0w = &u0[i0..i0 + n];
                let umw = &um[i0..i0 + n];
                let c1w = &c1r[region.z0..region.z1];
                let c2w = &c2r[region.z0..region.z1];
                let c3w = &c3r[region.z0..region.z1];
                for j in 0..n {
                    out[j] = c1w[j] * u0w[j] - c2w[j] * umw[j] + c3w[j] * lap[j];
                }
                self.fused_sparse(k, x, y, region, un, c3r, mode);
            }
        }
        sw.stop();
    }

    fn step_r<const R: usize>(&self, k: usize, region: &Range3, mode: SparseMode) {
        let sw = obs::start(obs::Phase::Stencil);
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        // SAFETY: the schedule guarantees level k+2 writes are disjoint per
        // region and levels k, k+1 hold fully computed values (legality is
        // machine-checked in tempest-tiling and cross-validated bitwise).
        let u0 = unsafe { self.ring.level(k + 1) };
        let um = unsafe { self.ring.level(k) };
        let (sx, sy) = (self.ring.sx(), self.ring.sy());
        let wx: [f32; R] = self.wx[..].try_into().expect("radius mismatch");
        let wy: [f32; R] = self.wy[..].try_into().expect("radius mismatch");
        let wz: [f32; R] = self.wz[..].try_into().expect("radius mismatch");
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let un = unsafe { self.ring.pencil_mut(k + 2, x, y) };
                let base = self.ring.idx(x, y, 0);
                let c1r = self.c1.pencil(x, y);
                let c2r = self.c2.pencil(x, y);
                let c3r = self.c3.pencil(x, y);
                for z in region.z0..region.z1 {
                    let i = base + z;
                    let lap = laplacian_at_r::<R>(u0, i, sx, sy, self.center, &wx, &wy, &wz);
                    un[z] = c1r[z] * u0[i] - c2r[z] * um[i] + c3r[z] * lap;
                }
                self.fused_sparse(k, x, y, region, un, c3r, mode);
            }
        }
        sw.stop();
    }

    /// Fallback for space orders without a monomorphised kernel.
    fn step_dyn(&self, k: usize, region: &Range3, mode: SparseMode) {
        let sw = obs::start(obs::Phase::Stencil);
        obs::add(obs::Counter::StencilUpdates, region.len() as u64);
        let u0 = unsafe { self.ring.level(k + 1) };
        let um = unsafe { self.ring.level(k) };
        let (sx, sy) = (self.ring.sx(), self.ring.sy());
        for x in region.x0..region.x1 {
            for y in region.y0..region.y1 {
                let un = unsafe { self.ring.pencil_mut(k + 2, x, y) };
                let base = self.ring.idx(x, y, 0);
                let c1r = self.c1.pencil(x, y);
                let c2r = self.c2.pencil(x, y);
                let c3r = self.c3.pencil(x, y);
                for z in region.z0..region.z1 {
                    let i = base + z;
                    let lap =
                        laplacian_at(u0, i, sx, sy, self.center, &self.wx, &self.wy, &self.wz);
                    un[z] = c1r[z] * u0[i] - c2r[z] * um[i] + c3r[z] * lap;
                }
                self.fused_sparse(k, x, y, region, un, c3r, mode);
            }
        }
        sw.stop();
    }

    /// Fused source injection (Listings 4–5) and receiver gather for one
    /// pencil of a freshly computed region.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn fused_sparse(
        &self,
        k: usize,
        x: usize,
        y: usize,
        region: &Range3,
        un: &mut [f32],
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
                // Listing 4: scan the full z2 range against the binary mask.
                let dcmp = self.src.pre.dcmp_row(k);
                let sm = self.src.pre.sm_pencil(x, y);
                let sid = self.src.pre.sid_pencil(x, y);
                for z in region.z0..region.z1 {
                    if sm[z] != 0 {
                        un[z] += c3r[z] * dcmp[sid[z] as usize];
                        injections += 1;
                    }
                }
            }
            SparseMode::FusedCompressed => {
                // Listing 5: only the nnz entries of this pencil.
                let dcmp = self.src.pre.dcmp_row(k);
                for (z, id) in self.src.comp.entries(x, y) {
                    if z >= region.z0 && z < region.z1 {
                        un[z] += c3r[z] * dcmp[id];
                        injections += 1;
                    }
                }
            }
        }
        // Fused receiver gather (mirror of the source path).
        if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
            match mode {
                SparseMode::Fused => {
                    let rm = rec.pre.rm_pencil(x, y);
                    let rid = rec.pre.rid_pencil(x, y);
                    for z in region.z0..region.z1 {
                        if rm[z] != 0 {
                            let v = un[z];
                            let contribs = rec.pre.contributions(rid[z] as usize);
                            gathers += contribs.len() as u64;
                            for &(r, w) in contribs {
                                trace.add(k, r as usize, w * v);
                            }
                        }
                    }
                }
                SparseMode::FusedCompressed => {
                    for (z, id) in rec.comp.entries(x, y) {
                        if z >= region.z0 && z < region.z1 {
                            let v = un[z];
                            let contribs = rec.pre.contributions(id);
                            gathers += contribs.len() as u64;
                            for &(r, w) in contribs {
                                trace.add(k, r as usize, w * v);
                            }
                        }
                    }
                }
                SparseMode::Classic => unreachable!(),
            }
        }
        if injections + gathers == 0 {
            // Most pencils have no sparse work; recording them would swamp
            // the trace ring with empty spans.
            sp.cancel();
        }
        obs::add(obs::Counter::SourceInjections, injections);
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }

    /// Run the simulation while recording interior wavefield snapshots
    /// every `every` timesteps (snapshot `s` holds the field after step
    /// `s·every`). This is the forward pass of reverse-time migration
    /// (RTM, ref. \[52\] in the paper): the stored history is cross-correlated
    /// with a backward-propagated receiver wavefield.
    ///
    /// Runs under the spatially blocked schedule (snapshots need globally
    /// consistent time levels, which temporal blocking does not expose
    /// between tiles).
    pub fn run_recording(&mut self, exec: &Execution, every: usize) -> Vec<Array3<f32>> {
        assert!(every >= 1);
        assert!(
            matches!(exec.schedule, Schedule::SpaceBlocked { .. }),
            "snapshot recording requires the spatially blocked schedule"
        );
        exec.validate();
        crate::operator::record_backend_run(exec.kernel.resolve());
        self.reset();
        let shape = self.shape();
        let nt = self.cfg.nt;
        let spec = exec.spaceblock_spec();
        let blocks = spec.blocks(shape);
        let classic = exec.sparse == SparseMode::Classic;
        let mut snaps = Vec::with_capacity(nt / every + 1);
        for k in 0..nt {
            let this: &Acoustic = self;
            tempest_par::for_each(exec.policy, &blocks, |b| {
                this.step_region(k, b, exec.sparse, exec.kernel)
            });
            if classic {
                this.classic_after_step(k);
            }
            if (k + 1).is_multiple_of(every) {
                snaps.push(self.snapshot_level(k + 2));
            }
        }
        snaps
    }

    /// Advance timesteps `[k0, k1)` under the spatially blocked schedule.
    /// `k0 == 0` resets state first; `k0 > 0` continues from wherever a
    /// previous `run_range` left the ring, so a full run decomposes exactly:
    /// `run_range(0, s)` + `run_range(s, nt)` is bit-for-bit `run_range(0, nt)`.
    ///
    /// Together with [`checkpoint`](Self::checkpoint) /
    /// [`restore_checkpoint`](Self::restore_checkpoint) this is the
    /// checkpointed-restart primitive of RTM-style adjoint loops: snapshot
    /// the ring at step `s`, and later re-materialise `[s, nt)` instead of
    /// storing every intermediate wavefield.
    pub fn run_range(&mut self, exec: &Execution, k0: usize, k1: usize) {
        assert!(k0 <= k1 && k1 <= self.cfg.nt, "step range out of bounds");
        assert!(
            matches!(exec.schedule, Schedule::SpaceBlocked { .. }),
            "checkpointed stepping requires the spatially blocked schedule"
        );
        exec.validate();
        if k0 == 0 {
            crate::operator::record_backend_run(exec.kernel.resolve());
            self.reset();
        }
        let spec = exec.spaceblock_spec();
        let blocks = spec.blocks(self.shape());
        let classic = exec.sparse == SparseMode::Classic;
        for k in k0..k1 {
            let this: &Acoustic = self;
            tempest_par::for_each(exec.policy, &blocks, |b| {
                this.step_region(k, b, exec.sparse, exec.kernel)
            });
            if classic {
                this.classic_after_step(k);
            }
        }
    }

    /// Bitwise checkpoint of the wavefield ring, taken while quiescent
    /// (between [`run_range`](Self::run_range) segments). Covers the ring
    /// only: receiver traces keep accumulating, so a restore-and-replay of
    /// recorded steps would add their trace contributions twice.
    pub fn checkpoint(&mut self) -> RingCheckpoint {
        self.ring.checkpoint()
    }

    /// Restore a [`checkpoint`](Self::checkpoint) taken on this propagator —
    /// or on any propagator of identical ring geometry (same shape, radius
    /// and alignment), which is how checkpointed RTM re-materialises forward
    /// state on a receiver-free twin without double-accumulating traces.
    pub fn restore_checkpoint(&mut self, cp: &RingCheckpoint) {
        self.ring.restore(cp);
    }

    /// Interior copy of the wavefield after timestep `k` (ring level
    /// `k + 2`), taken while quiescent between [`run_range`](Self::run_range)
    /// segments. Bitwise-identical to the snapshot
    /// [`run_recording`](Self::run_recording) would have stored at the same
    /// step, so segment-wise stepping can reproduce a recorded history
    /// exactly.
    pub fn field_after(&mut self, k: usize) -> Array3<f32> {
        self.ring.interior_copy(k + 2)
    }

    /// Interior copy of a time level while quiescent (between sweeps).
    fn snapshot_level(&self, t: usize) -> Array3<f32> {
        // SAFETY: called between sweeps on the coordinating thread; no
        // concurrent mutation of any ring level.
        let lvl = unsafe { self.ring.level(t) };
        let shape = self.shape();
        let mut out = Array3::from_shape(shape);
        for x in 0..shape.nx {
            for y in 0..shape.ny {
                let base = self.ring.idx(x, y, 0);
                out.pencil_mut(x, y)
                    .copy_from_slice(&lvl[base..base + shape.nz]);
            }
        }
        out
    }

    /// Classic per-timestep sparse operators (Listing 1), run between dense
    /// sweeps of the space-blocked schedule.
    fn classic_after_step(&self, k: usize) {
        let _fp = FlushDenormals::new();
        let sw = obs::start(obs::Phase::Sparse);
        let _sp = obs::trace::span(obs::trace::SpanKind::Sparse, obs::trace::SpanArgs::step(k));
        let mut injections = 0u64;
        let mut gathers = 0u64;
        // Source injection into the freshly computed level k+2.
        for (st, &a) in self.src.stencils.iter().zip(self.src.amps_at(k)) {
            for (c, w) in st.nonzero() {
                // SAFETY: runs on one thread between sweeps.
                let un = unsafe { self.ring.pencil_mut(k + 2, c[0], c[1]) };
                // Group (w·a) first: bitwise-identical to the fused path,
                // which multiplies c3 by the precomputed w·a product.
                un[c[2]] += self.c3.get(c[0], c[1], c[2]) * (w * a);
                injections += 1;
            }
        }
        // Receiver interpolation from level k+2.
        if let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) {
            let u = unsafe { self.ring.level(k + 2) };
            for (r, st) in rec.stencils.iter().enumerate() {
                let mut acc = 0.0f32;
                for (c, w) in st.nonzero() {
                    acc += w * u[self.ring.idx(c[0], c[1], c[2])];
                    gathers += 1;
                }
                trace.add(k, r, acc);
            }
        }
        obs::add(obs::Counter::SourceInjections, injections);
        obs::add(obs::Counter::ReceiverGathers, gathers);
        sw.stop();
    }

    // -- incremental recomputation ------------------------------------------

    /// Per-source change signatures: a digest of everything that shapes the
    /// source's injections (position, interpolation stencil, wavelet column)
    /// plus the xy bounding box of its footprint, in source-index order.
    fn source_sigs(&self) -> Vec<SourceSig> {
        let coords = self.src.points.coords();
        (0..self.src.points.len())
            .map(|s| {
                let mut h = DefaultHasher::new();
                for &c in &coords[s] {
                    h.write_u32(c.to_bits());
                }
                let (mut x0, mut x1, mut y0, mut y1) = (usize::MAX, 0usize, usize::MAX, 0usize);
                for (c, w) in self.src.stencils[s].nonzero() {
                    h.write_usize(c[0]);
                    h.write_usize(c[1]);
                    h.write_usize(c[2]);
                    h.write_u32(w.to_bits());
                    x0 = x0.min(c[0]);
                    x1 = x1.max(c[0] + 1);
                    y0 = y0.min(c[1]);
                    y1 = y1.max(c[1] + 1);
                }
                for t in 0..self.cfg.nt {
                    h.write_u32(self.src.wavelets.get(t, s).to_bits());
                }
                if x0 == usize::MAX {
                    (x0, x1, y0, y1) = (0, 0, 0, 0);
                }
                SourceSig {
                    digest: h.finish(),
                    rect: DirtyRect { x0, x1, y0, y1 },
                }
            })
            .collect()
    }

    /// Digest of the receiver layout (positions + interpolation stencils).
    /// Tracked separately from the session key: receivers are read-only
    /// gathers, so a changed receiver set dirties zero stencil tiles —
    /// restored tiles replay their gathers against the *current* bundle.
    fn receiver_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        if let Some(rec) = self.rec.as_ref() {
            h.write_u8(1);
            for c in rec.points.coords() {
                for &v in c {
                    h.write_u32(v.to_bits());
                }
            }
            for st in &rec.stencils {
                for (c, w) in st.nonzero() {
                    h.write_usize(c[0]);
                    h.write_usize(c[1]);
                    h.write_usize(c[2]);
                    h.write_u32(w.to_bits());
                }
            }
        }
        h.finish()
    }

    /// Session key: everything that (besides the sparse layout tracked by
    /// the per-run delta) determines the wavefield bit-for-bit — the
    /// coefficient volumes (model + damping + dt²), FD weights, schedule
    /// geometry and sparse path, plus the caller's shot identity. The kernel
    /// backend is deliberately *excluded*: every backend is bitwise-identical
    /// (PR 8's oracle), so cached tiles stay valid across a backend switch.
    fn session_key(&self, plan_geometry: u64, sparse: SparseMode, shot_key: u64) -> u64 {
        let mut h = DefaultHasher::new();
        let shape = self.shape();
        h.write_usize(shape.nx);
        h.write_usize(shape.ny);
        h.write_usize(shape.nz);
        h.write_usize(self.cfg.space_order);
        h.write_usize(self.cfg.nt);
        h.write_u32(self.cfg.dt.to_bits());
        h.write_u32(self.cfg.f0.to_bits());
        for arr in [&self.c1, &self.c2, &self.c3] {
            for &v in arr.as_slice() {
                h.write_u32(v.to_bits());
            }
        }
        for ws in [&self.wx, &self.wy, &self.wz] {
            for &v in ws.iter() {
                h.write_u32(v.to_bits());
            }
        }
        h.write_u32(self.center.to_bits());
        h.write_usize(self.radius);
        h.write_u8(sparse as u8);
        h.write_u64(plan_geometry);
        h.write_u64(shot_key);
        h.finish()
    }

    /// Per-node content masks: for each plan node, a digest (in source-index
    /// order) of the sources whose footprint intersects the node's slabs.
    /// Folded into the cache key so a stale payload can never satisfy a
    /// lookup after its local sources changed.
    fn node_masks(plan: &TilePlan, sigs: &[SourceSig]) -> Vec<u64> {
        plan.slabs
            .iter()
            .map(|slabs| {
                let mut h = DefaultHasher::new();
                for (i, sig) in sigs.iter().enumerate() {
                    if slabs.iter().any(|s| sig.rect.overlaps(&s.range)) {
                        h.write_usize(i);
                        h.write_u64(sig.digest);
                    }
                }
                h.finish()
            })
            .collect()
    }

    /// Snapshot the output a tile node just wrote: for each slab, the
    /// `(x, y)` pencils of ring level `vt + 2` over the slab range.
    ///
    /// SAFETY: called from the node's own dataflow task after its step
    /// calls, before its successors are released — it reads exactly the
    /// cells this node wrote, which no other in-flight tile may touch.
    fn capture_tile(&self, slabs: &[Slab]) -> TilePayload {
        let payload = slabs
            .iter()
            .map(|slab| {
                let r = slab.range;
                let nz = r.z1 - r.z0;
                let lvl = unsafe { self.ring.level(slab.vt + 2) };
                let mut data = Vec::with_capacity(r.len());
                for x in r.x0..r.x1 {
                    for y in r.y0..r.y1 {
                        let base = self.ring.idx(x, y, r.z0);
                        data.extend_from_slice(&lvl[base..base + nz]);
                    }
                }
                SlabPayload { slab: *slab, data }
            })
            .collect();
        TilePayload { slabs: payload }
    }

    /// Restore a cached tile output in place of recomputing it: write the
    /// payload pencils back to the ring (bit-for-bit what the step calls
    /// would have produced), then replay the node's receiver gathers against
    /// the current receiver bundle in the exact compute order (slabs in
    /// ascending `vt`, blocks in `split_xy` order, x then y), reading the
    /// gathered values from the payload. Counts `ReceiverGathers` like the
    /// fused path; stencil/injection counters stay untouched — no such work
    /// happens.
    fn restore_tile(
        &self,
        payload: &TilePayload,
        block_x: usize,
        block_y: usize,
        mode: SparseMode,
    ) {
        for sp in &payload.slabs {
            let r = sp.slab.range;
            let nz = r.z1 - r.z0;
            let mut off = 0;
            for x in r.x0..r.x1 {
                for y in r.y0..r.y1 {
                    // SAFETY: this node's task owns these cells at this
                    // level, exactly as the step calls it replaces would.
                    let un = unsafe { self.ring.pencil_mut(sp.slab.vt + 2, x, y) };
                    un[r.z0..r.z1].copy_from_slice(&sp.data[off..off + nz]);
                    off += nz;
                }
            }
        }
        let (Some(rec), Some(trace)) = (self.rec.as_ref(), self.trace.as_ref()) else {
            return;
        };
        // The cold solve gathered inside `step_region`'s FP mode; the replay
        // must round `w · v` the same way to stay bit-for-bit.
        let _fp = FlushDenormals::new();
        let mut gathers = 0u64;
        for sp in &payload.slabs {
            let k = sp.slab.vt;
            let r = sp.slab.range;
            for b in r.split_xy(block_x, block_y) {
                for x in b.x0..b.x1 {
                    for y in b.y0..b.y1 {
                        match mode {
                            SparseMode::Fused => {
                                let rm = rec.pre.rm_pencil(x, y);
                                let rid = rec.pre.rid_pencil(x, y);
                                for z in b.z0..b.z1 {
                                    if rm[z] != 0 {
                                        let v = sp.pencil(x, y)[z - r.z0];
                                        let contribs = rec.pre.contributions(rid[z] as usize);
                                        gathers += contribs.len() as u64;
                                        for &(rr, w) in contribs {
                                            trace.add(k, rr as usize, w * v);
                                        }
                                    }
                                }
                            }
                            SparseMode::FusedCompressed => {
                                for (z, id) in rec.comp.entries(x, y) {
                                    if z >= b.z0 && z < b.z1 {
                                        let v = sp.pencil(x, y)[z - r.z0];
                                        let contribs = rec.pre.contributions(id);
                                        gathers += contribs.len() as u64;
                                        for &(rr, w) in contribs {
                                            trace.add(k, rr as usize, w * v);
                                        }
                                    }
                                }
                            }
                            SparseMode::Classic => unreachable!("mapped away by run_incremental"),
                        }
                    }
                }
            }
        }
        obs::add(obs::Counter::ReceiverGathers, gathers);
    }

    /// Run the simulation incrementally against `cache`: diff the sparse
    /// layout against the cache's last completed run of the same session,
    /// mark the delta's causal cone over the tile graph, restore every clean
    /// cached tile bit-for-bit and recompute only the rest. The result —
    /// wavefield *and* (per-thread-cap) traces — is bitwise-identical to a
    /// cold full run; only the work differs.
    ///
    /// `shot_key` distinguishes otherwise-identical solves sharing one cache
    /// (e.g. the survey engine passes the shot index). `SparseMode::Classic`
    /// is mapped to `FusedCompressed` (bitwise-identical wavefield; classic
    /// per-timestep operators have no per-tile identity to cache). With the
    /// cache disabled (`TEMPEST_CACHE_MB=0`) this falls back to the plain
    /// [`run`](WaveSolver::run) path, bit-for-bit pre-cache behaviour.
    pub fn run_incremental(
        &mut self,
        exec: &Execution,
        cache: &TileCache,
        shot_key: u64,
    ) -> IncrementalReport {
        let mut ex = *exec;
        if ex.sparse == SparseMode::Classic {
            ex.sparse = SparseMode::FusedCompressed;
        }
        assert!(
            ex.supports_incremental(),
            "schedule `{}` has no tile plan; incremental recomputation needs \
             SpaceBlocked, WavefrontDataflow or Diamond",
            ex.schedule_label()
        );
        ex.validate();
        if !cache.enabled() {
            let stats = self.run(exec);
            return IncrementalReport {
                stats,
                total_tiles: 0,
                reused: 0,
                recomputed: 0,
                cold: true,
            };
        }
        let shape = self.shape();
        let nt = self.cfg.nt;
        let plan = match ex.schedule {
            Schedule::SpaceBlocked { block_x, block_y } => {
                TilePlan::spaceblocked(shape, nt, block_x, block_y, self.radius)
            }
            Schedule::WavefrontDataflow { .. } => {
                TilePlan::wavefront(shape, nt, &ex.wavefront_spec(self.radius, 1), self.radius)
            }
            Schedule::Diamond { .. } => {
                TilePlan::diamond(shape, nt, &ex.diamond_spec(self.radius, 1), self.radius)
            }
            _ => unreachable!("supports_incremental checked above"),
        };
        let sigs = self.source_sigs();
        let rec_digest = self.receiver_digest();
        let session = self.session_key(plan.geometry, ex.sparse, shot_key);
        let masks = Self::node_masks(&plan, &sigs);
        let delta = cache.begin_run(session, &sigs, rec_digest);
        let cold = delta.is_none();
        let dirty = match &delta {
            Some(d) => dirty_cone(&plan, &d.rects),
            None => vec![true; plan.len()],
        };
        let mut restores: Vec<Option<Arc<TilePayload>>> = Vec::with_capacity(plan.len());
        let mut restore_ok = Vec::with_capacity(plan.len());
        for (i, (&d, &mask)) in dirty.iter().zip(&masks).enumerate() {
            let p = if d {
                None
            } else {
                cache.lookup(session, i as u32, mask)
            };
            restore_ok.push(p.is_some());
            restores.push(p);
        }
        crate::operator::record_backend_run(ex.kernel.resolve());
        self.reset();
        let started = Instant::now();
        let this: &Acoustic = self;
        let outcome = execute_incremental(
            &plan,
            ex.policy,
            &restore_ok,
            |vt, region| this.step_region(vt, region, ex.sparse, ex.kernel),
            |i| {
                let p = restores[i].as_deref().expect("restore without payload");
                this.restore_tile(p, plan.block_x, plan.block_y, ex.sparse);
            },
            |i| {
                let p = this.capture_tile(&plan.slabs[i]);
                cache.insert(session, i as u32, masks[i], p);
            },
        );
        let stats = RunStats::new(started.elapsed(), nt, shape);
        cache.finish_run(session, sigs, rec_digest);
        IncrementalReport {
            stats,
            total_tiles: outcome.total,
            reused: outcome.reused,
            recomputed: outcome.recomputed,
            cold,
        }
    }
}

/// What one [`Acoustic::run_incremental`] solve did: timing plus the exact
/// reuse tally (`reused + recomputed == total_tiles` whenever the cache was
/// enabled — the counts mirror the `TilesReused` / `TilesRecomputed`
/// counters but are recorded unconditionally, so tests can assert them
/// without the obs feature).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalReport {
    /// Timing/throughput of the run.
    pub stats: RunStats,
    /// Tile nodes the plan enumerated (0 on the disabled-cache fallback).
    pub total_tiles: usize,
    /// Nodes restored from cache.
    pub reused: usize,
    /// Nodes recomputed.
    pub recomputed: usize,
    /// True when no completed prior run was available (or the cache is
    /// disabled) and everything ran from scratch.
    pub cold: bool,
}

impl IncrementalReport {
    /// Fraction of tiles served from cache, in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        if self.total_tiles == 0 {
            0.0
        } else {
            self.reused as f64 / self.total_tiles as f64
        }
    }
}

impl WaveSolver for Acoustic {
    fn name(&self) -> &'static str {
        "acoustic"
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
        let this: &Acoustic = self;
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
        self.ring.interior_copy(t)
    }

    fn trace(&self) -> Option<Array2<f32>> {
        self.trace.as_ref().map(|t| t.to_array())
    }

    fn flops_per_point(&self) -> f64 {
        acoustic_cost(self.cfg.space_order).flops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EquationKind;
    use tempest_grid::Domain;

    fn small_setup(so: usize, nt: usize) -> Acoustic {
        let domain = Domain::uniform(Shape::cube(24), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, so, EquationKind::Acoustic, 2000.0, 100.0)
            .with_nt(nt)
            .with_f0(25.0)
            .with_boundary(4, 0.3);
        let src = SparsePoints::single_center(&domain, 0.4);
        let rec = SparsePoints::receiver_line(&domain, 5, 0.25);
        Acoustic::new(&model, cfg, src, Some(rec))
    }

    #[test]
    fn wave_propagates_and_stays_stable() {
        let mut a = small_setup(4, 30);
        a.run(&Execution::baseline());
        let f = a.final_field();
        let m = f.max_abs();
        assert!(m > 0.0, "wavefield must be excited");
        assert!(m.is_finite() && m < 1e6, "CFL-stable run must stay bounded");
        // The trace records a non-trivial signal.
        let tr = a.trace().unwrap();
        let tmax = tr.as_slice().iter().fold(0.0f32, |s, &v| s.max(v.abs()));
        assert!(tmax > 0.0);
    }

    #[test]
    fn wavefront_matches_baseline_bitwise_single_source() {
        for so in [4usize, 8] {
            let mut a = small_setup(so, 16);
            a.run(&Execution::baseline().sequential());
            let base = a.final_field();

            let mut exec = Execution::wavefront_default().sequential();
            exec.schedule = Schedule::Wavefront {
                tile_x: 8,
                tile_y: 8,
                tile_t: 4,
                block_x: 4,
                block_y: 4,
            };
            a.run(&exec);
            let wf = a.final_field();
            assert!(
                base.bit_equal(&wf),
                "so={so}: WTB must be bitwise identical, max diff {}",
                base.max_abs_diff(&wf)
            );
        }
    }

    #[test]
    fn diagonal_matches_baseline_bitwise() {
        for so in [4usize, 8] {
            let mut a = small_setup(so, 16);
            a.run(&Execution::baseline().sequential());
            let base = a.final_field();

            let mut exec = Execution::wavefront_diagonal_default().sequential();
            exec.schedule = Schedule::WavefrontDiagonal {
                tile_x: 8,
                tile_y: 8,
                tile_t: 4,
                block_x: 4,
                block_y: 4,
            };
            a.run(&exec);
            let dg = a.final_field();
            assert!(
                base.bit_equal(&dg),
                "so={so}: diagonal WTB must be bitwise identical, max diff {}",
                base.max_abs_diff(&dg)
            );
        }
    }

    #[test]
    fn diagonal_parallel_matches_sequential_bitwise() {
        let mut a = small_setup(4, 12);
        let mut exec = Execution::wavefront_diagonal_default().sequential();
        exec.schedule = Schedule::WavefrontDiagonal {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 4,
            block_y: 4,
        };
        a.run(&exec);
        let seq = a.final_field();
        exec.policy = tempest_par::Policy::Parallel;
        a.run(&exec);
        let par = a.final_field();
        assert!(
            seq.bit_equal(&par),
            "concurrent diagonal tiles must not change the wavefield, max diff {}",
            seq.max_abs_diff(&par)
        );
    }

    #[test]
    fn dataflow_matches_diagonal_bitwise_across_policies() {
        // Tentpole acceptance: the dependency-driven executor must reproduce
        // the diagonal-barrier executor bit-for-bit under every policy,
        // including capped worker counts that force stealing imbalance.
        use tempest_par::Policy;
        for so in [4usize, 8] {
            let mut a = small_setup(so, 16);
            let mut dg = Execution::wavefront_diagonal_default().sequential();
            dg.schedule = Schedule::WavefrontDiagonal {
                tile_x: 8,
                tile_y: 8,
                tile_t: 4,
                block_x: 4,
                block_y: 4,
            };
            a.run(&dg);
            let want = a.final_field();
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
                    tile_t: 4,
                    block_x: 4,
                    block_y: 4,
                };
                df.policy = pol;
                a.run(&df);
                let got = a.final_field();
                assert!(
                    want.bit_equal(&got),
                    "so={so} policy={pol:?}: dataflow must match diagonal bitwise, max diff {}",
                    want.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn dataflow_fused_sparse_modes_agree_bitwise() {
        // Fused source/receiver work must land on the correct vt regardless
        // of the order in which workers claim ready tiles.
        let mut a = small_setup(4, 12);
        let mut e1 = Execution::wavefront_dataflow_default();
        e1.schedule = Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 8,
            block_y: 8,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        a.run(&e1);
        let f1 = a.final_field();
        a.run(&e2);
        let f2 = a.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under dataflow executor");
    }

    #[test]
    fn dataflow_tile_t_one_degrades_to_spaceblocked_bitwise() {
        // tile_t = 1: the dependency graph links consecutive timesteps only,
        // so the schedule must reduce to per-timestep spatial blocking.
        let mut a = small_setup(4, 10);
        let mut sb = Execution::baseline().sequential();
        sb.schedule = Schedule::SpaceBlocked {
            block_x: 4,
            block_y: 4,
        };
        sb.sparse = SparseMode::Fused;
        a.run(&sb);
        let base = a.final_field();
        let mut df = Execution::wavefront_dataflow_default();
        df.schedule = Schedule::WavefrontDataflow {
            tile_x: 8,
            tile_y: 8,
            tile_t: 1,
            block_x: 4,
            block_y: 4,
        };
        df.sparse = SparseMode::Fused;
        df.policy = tempest_par::Policy::Capped { threads: 2 };
        a.run(&df);
        let f = a.final_field();
        assert!(
            base.bit_equal(&f),
            "tile_t=1 dataflow must equal space blocking, max diff {}",
            base.max_abs_diff(&f)
        );
    }

    #[test]
    fn diamond_matches_dataflow_bitwise_across_policies() {
        // Tentpole acceptance: the diamond schedule must reproduce the
        // dataflow executor bit-for-bit under every policy. Width 24 at
        // tile_t 3 gives slope 4, legal for both space orders (radii 2, 4).
        use crate::operator::DiamondAxis;
        use tempest_par::Policy;
        for so in [4usize, 8] {
            let mut a = small_setup(so, 16);
            let mut df = Execution::wavefront_dataflow_default().sequential();
            df.schedule = Schedule::WavefrontDataflow {
                tile_x: 8,
                tile_y: 8,
                tile_t: 4,
                block_x: 4,
                block_y: 4,
            };
            a.run(&df);
            let want = a.final_field();
            for axis in [DiamondAxis::X, DiamondAxis::Y] {
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
                        axis,
                        block_x: 4,
                        block_y: 4,
                    };
                    dm.policy = pol;
                    a.run(&dm);
                    let got = a.final_field();
                    assert!(
                        want.bit_equal(&got),
                        "so={so} axis={axis:?} policy={pol:?}: diamond must match \
                         dataflow bitwise, max diff {}",
                        want.max_abs_diff(&got)
                    );
                }
            }
        }
    }

    #[test]
    fn diamond_fused_sparse_modes_agree_bitwise() {
        // Fused source/receiver work clipped to diamond extents must land on
        // the correct vt regardless of tile claim order.
        use crate::operator::DiamondAxis;
        let mut a = small_setup(4, 12);
        let mut e1 = Execution::diamond_default();
        e1.schedule = Schedule::Diamond {
            width: 24,
            tile_t: 3,
            tile_c: 8,
            axis: DiamondAxis::X,
            block_x: 8,
            block_y: 8,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        a.run(&e1);
        let f1 = a.final_field();
        a.run(&e2);
        let f2 = a.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under diamond executor");
    }

    #[test]
    fn diamond_tile_t_one_degrades_to_spaceblocked_bitwise() {
        // tile_t = 1: diamonds flatten to width-wide strips linked across
        // consecutive timesteps — per-timestep spatial blocking.
        use crate::operator::DiamondAxis;
        let mut a = small_setup(4, 10);
        let mut sb = Execution::baseline().sequential();
        sb.schedule = Schedule::SpaceBlocked {
            block_x: 4,
            block_y: 4,
        };
        sb.sparse = SparseMode::Fused;
        a.run(&sb);
        let base = a.final_field();
        let mut dm = Execution::diamond_default();
        dm.schedule = Schedule::Diamond {
            width: 8,
            tile_t: 1,
            tile_c: 8,
            axis: DiamondAxis::Y,
            block_x: 4,
            block_y: 4,
        };
        dm.sparse = SparseMode::Fused;
        dm.policy = tempest_par::Policy::Capped { threads: 2 };
        a.run(&dm);
        let f = a.final_field();
        assert!(
            base.bit_equal(&f),
            "tile_t=1 diamond must equal space blocking, max diff {}",
            base.max_abs_diff(&f)
        );
    }

    #[test]
    #[should_panic(expected = "Fig. 4b")]
    fn classic_sparse_under_diamond_panics() {
        let mut a = small_setup(4, 8);
        let mut e = Execution::diamond_default();
        e.sparse = SparseMode::Classic;
        a.run(&e);
    }

    #[test]
    fn diagonal_fused_sparse_modes_agree_bitwise() {
        // Fused source/receiver work must land on the correct vt regardless
        // of which tile of a diagonal reaches a pencil.
        let mut a = small_setup(4, 12);
        let mut e1 = Execution::wavefront_diagonal_default().sequential();
        e1.schedule = Schedule::WavefrontDiagonal {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 8,
            block_y: 8,
        };
        e1.policy = tempest_par::Policy::Parallel;
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        a.run(&e1);
        let f1 = a.final_field();
        a.run(&e2);
        let f2 = a.final_field();
        assert!(f1.bit_equal(&f2), "Listing 4 vs 5 under diagonal executor");
    }

    #[test]
    fn diagonal_tile_t_one_degrades_to_spaceblocked_bitwise() {
        // tile_t = 1: every diagonal pass is one slab per tile at a single
        // vt — the schedule is per-timestep spatial blocking.
        let mut a = small_setup(4, 10);
        let mut sb = Execution::baseline().sequential();
        sb.schedule = Schedule::SpaceBlocked {
            block_x: 4,
            block_y: 4,
        };
        sb.sparse = SparseMode::Fused;
        a.run(&sb);
        let base = a.final_field();
        let mut dg = Execution::wavefront_diagonal_default().sequential();
        dg.schedule = Schedule::WavefrontDiagonal {
            tile_x: 8,
            tile_y: 8,
            tile_t: 1,
            block_x: 4,
            block_y: 4,
        };
        dg.sparse = SparseMode::Fused;
        a.run(&dg);
        let f = a.final_field();
        assert!(
            base.bit_equal(&f),
            "tile_t=1 diagonal must equal space blocking, max diff {}",
            base.max_abs_diff(&f)
        );
    }

    #[test]
    fn skewed_only_spec_under_diagonal_degrades_to_spaceblocked_bitwise() {
        // One spatial tile covering the whole skewed domain (skewed_only):
        // every slab is a full-grid sweep, so the diagonal executor must
        // reproduce the spatially blocked result exactly.
        let n = 24;
        let (tile_t, so) = (4usize, 4usize);
        let skew = so / 2;
        let mut a = small_setup(so, 12);
        let mut sb = Execution::baseline().sequential();
        sb.schedule = Schedule::SpaceBlocked {
            block_x: 8,
            block_y: 8,
        };
        sb.sparse = SparseMode::Fused;
        a.run(&sb);
        let base = a.final_field();
        let spec = tempest_tiling::WavefrontSpec::skewed_only(
            Shape::cube(n),
            tile_t,
            skew,
            8,
            8,
        );
        let mut dg = Execution::wavefront_diagonal_default().sequential();
        dg.schedule = Schedule::WavefrontDiagonal {
            tile_x: spec.tile_x,
            tile_y: spec.tile_y,
            tile_t,
            block_x: 8,
            block_y: 8,
        };
        dg.sparse = SparseMode::Fused;
        a.run(&dg);
        let f = a.final_field();
        assert!(
            base.bit_equal(&f),
            "skewed-only diagonal must equal space blocking, max diff {}",
            base.max_abs_diff(&f)
        );
    }

    #[test]
    fn fused_uncompressed_matches_compressed_bitwise() {
        let mut a = small_setup(4, 12);
        let mut e1 = Execution::wavefront_default().sequential();
        e1.schedule = Schedule::Wavefront {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 8,
            block_y: 8,
        };
        let mut e2 = e1;
        e1.sparse = SparseMode::Fused;
        e2.sparse = SparseMode::FusedCompressed;
        a.run(&e1);
        let f1 = a.final_field();
        let t1 = a.trace().unwrap();
        a.run(&e2);
        let f2 = a.final_field();
        let t2 = a.trace().unwrap();
        assert!(f1.bit_equal(&f2), "Listing 4 vs Listing 5 must agree");
        for t in 0..t1.dims()[0] {
            for r in 0..t1.dims()[1] {
                assert_eq!(t1.get(t, r).to_bits(), t2.get(t, r).to_bits());
            }
        }
    }

    #[test]
    fn traces_agree_between_schedules() {
        let mut a = small_setup(4, 20);
        a.run(&Execution::baseline().sequential());
        let t_base = a.trace().unwrap();
        let mut exec = Execution::wavefront_default().sequential();
        exec.schedule = Schedule::Wavefront {
            tile_x: 12,
            tile_y: 12,
            tile_t: 5,
            block_x: 6,
            block_y: 6,
        };
        a.run(&exec);
        let t_wf = a.trace().unwrap();
        // Diagonal executor, parallel: trace accumulation order may differ
        // (atomic adds), so compare with the same tolerance.
        exec.schedule = Schedule::WavefrontDiagonal {
            tile_x: 12,
            tile_y: 12,
            tile_t: 5,
            block_x: 6,
            block_y: 6,
        };
        exec.policy = tempest_par::Policy::Parallel;
        a.run(&exec);
        let t_dg = a.trace().unwrap();
        let scale = t_base
            .as_slice()
            .iter()
            .fold(0.0f32, |s, &v| s.max(v.abs()))
            .max(1e-20);
        for t in 0..t_base.dims()[0] {
            for r in 0..t_base.dims()[1] {
                let d = (t_base.get(t, r) - t_wf.get(t, r)).abs();
                assert!(
                    d <= 1e-4 * scale,
                    "trace[{t}][{r}]: {} vs {}",
                    t_base.get(t, r),
                    t_wf.get(t, r)
                );
                let d = (t_base.get(t, r) - t_dg.get(t, r)).abs();
                assert!(
                    d <= 1e-4 * scale,
                    "diag trace[{t}][{r}]: {} vs {}",
                    t_base.get(t, r),
                    t_dg.get(t, r)
                );
            }
        }
    }

    #[test]
    fn multi_source_agreement_within_tolerance() {
        let domain = Domain::uniform(Shape::cube(20), 10.0);
        let model = Model::two_layer(domain, 1800.0, 2500.0, 0.5);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2500.0, 60.0)
            .with_nt(14)
            .with_f0(25.0);
        // Sources dense enough to share affected grid points.
        let src = SparsePoints::dense_layout(&domain, 8, 0.5);
        let mut a = Acoustic::new(&model, cfg, src, None);
        a.run(&Execution::baseline().sequential());
        let base = a.final_field();
        let mut exec = Execution::wavefront_default().sequential();
        exec.schedule = Schedule::Wavefront {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 8,
            block_y: 8,
        };
        a.run(&exec);
        let wf = a.final_field();
        let diff = base.max_abs_diff(&wf);
        let scale = base.max_abs().max(1e-20);
        assert!(diff <= 1e-4 * scale, "rel diff {}", diff / scale);

        // Diagonal execution with the same tile geometry is bitwise equal
        // to slab-ordered wave-front execution even with sources dense
        // enough that neighbouring tiles share affected pencils.
        exec.sparse = SparseMode::FusedCompressed;
        a.run(&exec);
        let wf = a.final_field();
        exec.schedule = Schedule::WavefrontDiagonal {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 8,
            block_y: 8,
        };
        exec.policy = tempest_par::Policy::Parallel;
        a.run(&exec);
        let dg = a.final_field();
        assert!(
            wf.bit_equal(&dg),
            "diagonal multi-source must be bitwise, max diff {}",
            wf.max_abs_diff(&dg)
        );
    }

    #[test]
    fn damping_reduces_boundary_energy() {
        let domain = Domain::uniform(Shape::cube(20), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let mk = |damp: f32| {
            let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 100.0)
                .with_nt(60)
                .with_f0(30.0)
                .with_boundary(if damp > 0.0 { 6 } else { 0 }, damp);
            Acoustic::new(
                &model,
                cfg,
                SparsePoints::single_center(&domain, 0.3),
                None,
            )
        };
        let mut free = mk(0.0);
        free.run(&Execution::baseline().sequential());
        let e_free = free.final_field().norm_l2();
        let mut damped = mk(0.5);
        damped.run(&Execution::baseline().sequential());
        let e_damped = damped.final_field().norm_l2();
        assert!(
            e_damped < e_free,
            "sponge must absorb energy: {e_damped} !< {e_free}"
        );
    }

    #[test]
    fn repeated_runs_are_reproducible() {
        let mut a = small_setup(4, 10);
        let e = Execution::baseline().sequential();
        a.run(&e);
        let f1 = a.final_field();
        a.run(&e);
        let f2 = a.final_field();
        assert!(f1.bit_equal(&f2), "run() must reset state");
    }

    #[test]
    fn run_recording_snapshots_are_consistent() {
        let mut a = small_setup(4, 12);
        let snaps = a.run_recording(&Execution::baseline().sequential(), 3);
        assert_eq!(snaps.len(), 4, "12 steps / every 3");
        // Last snapshot is the final field.
        let final_field = a.final_field();
        assert!(snaps[3].bit_equal(&final_field));
        // Snapshots differ over time (the wave moves).
        assert!(snaps[0].max_abs_diff(&snaps[3]) > 0.0);
        // And a plain run reproduces the same final state.
        a.run(&Execution::baseline().sequential());
        assert!(a.final_field().bit_equal(&final_field));
    }

    #[test]
    fn custom_wavelets_equal_ricker_when_identical() {
        let domain = Domain::uniform(Shape::cube(16), 10.0);
        let model = Model::homogeneous(domain, 2000.0);
        let cfg = SimConfig::new(domain, 4, EquationKind::Acoustic, 2000.0, 40.0)
            .with_nt(10)
            .with_f0(25.0);
        let src = SparsePoints::single_center(&domain, 0.4);
        let mut a = Acoustic::new(&model, cfg.clone(), src.clone(), None);
        a.run(&Execution::baseline().sequential());
        let fa = a.final_field();
        // Same wavelet supplied explicitly.
        let wl = tempest_sparse::ricker(25.0, cfg.dt, 10);
        let wm = tempest_sparse::wavelet::wavelet_matrix(&wl, 1);
        let mut b = Acoustic::new_with_wavelets(&model, cfg, src, wm, None);
        b.run(&Execution::baseline().sequential());
        assert!(fa.bit_equal(&b.final_field()));
    }

    #[test]
    #[should_panic(expected = "Fig. 4b")]
    fn classic_sparse_under_wavefront_panics() {
        let mut a = small_setup(4, 8);
        let mut e = Execution::wavefront_default();
        e.sparse = SparseMode::Classic;
        a.run(&e);
    }

    #[test]
    fn wavefront_parallel_matches_sequential() {
        let mut a = small_setup(4, 12);
        let mut exec = Execution::wavefront_default().sequential();
        exec.schedule = Schedule::Wavefront {
            tile_x: 8,
            tile_y: 8,
            tile_t: 4,
            block_x: 4,
            block_y: 4,
        };
        a.run(&exec);
        let seq = a.final_field();
        exec.policy = tempest_par::Policy::Parallel;
        a.run(&exec);
        let par = a.final_field();
        assert!(seq.bit_equal(&par), "block parallelism must not change results");
    }
}
