//! The high-level execution API: which schedule, which sparse-operator
//! path, how parallel — and the throughput statistics of a run (the
//! GPoints/s metric of the paper's Fig. 9).

use std::time::Duration;

use tempest_grid::{Array2, Array3, Range3, Shape};
use tempest_obs as obs;
use tempest_par::Policy;
use tempest_stencil::Backend;
use tempest_tiling::{
    execute_plan, spaceblock, wavefront, DiamondSpec, SpaceBlockSpec, TilePlan, WavefrontSpec,
};

pub use tempest_tiling::DiamondAxis;

/// How the off-grid sparse operators execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SparseMode {
    /// Per-timestep non-affine loops after the dense sweep (Listing 1).
    /// Only legal under [`Schedule::SpaceBlocked`] — under temporal blocking
    /// it would inject/measure at wrong space-time coordinates (Fig. 4b).
    Classic,
    /// Precomputed, grid-aligned, fused into the loop nest; the `z2` loop
    /// scans the full pencil against the binary mask (Listing 4).
    Fused,
    /// Fused with the compressed `nnz_mask` / `Sp_SID` iteration space
    /// (Listing 5) — the paper's recommended configuration.
    FusedCompressed,
}

/// Which dense-kernel backend computes the stencil updates.
///
/// All backends are bitwise-identical by construction (asserted by the
/// kernel-equivalence and kernel-backends test suites): each one replicates
/// the scalar per-point accumulation order exactly — no reassociation, no
/// FMA contraction — so the selector changes throughput, never a single
/// output bit. Override precedence when a run starts: an explicit variant
/// here (the `--kernel` flag) beats the `TEMPEST_KERNEL` environment
/// variable, which beats CPU-feature detection; see
/// `tempest_stencil::backend` for the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Runtime dispatch (the default): `TEMPEST_KERNEL` if set and
    /// runnable, else the best detected backend (AVX2 where available,
    /// portable otherwise).
    #[default]
    Auto,
    /// Per-point kernels (`tempest_stencil::kernels`): one bounds-checked
    /// call per grid point, vectorisation left to the compiler.
    Scalar,
    /// Whole-row pencil kernels (`tempest_stencil::simd`): per-offset slice
    /// windows hoist every bounds check out of the inner loop, which LLVM
    /// vectorises to 8-wide lanes on any target.
    Portable,
    /// Explicit AVX2 intrinsics (`tempest_stencil::avx2`): unaligned
    /// 256-bit loads, unfused multiply-add. Falls back to the detected best
    /// backend on hosts without AVX2.
    Avx2,
}

impl KernelPath {
    /// Resolve this selection to a concrete runnable backend, applying the
    /// documented precedence. `Auto` consults the process-wide dispatcher
    /// (`TEMPEST_KERNEL`, then CPU detection); a concrete variant is
    /// honoured when the host can run it and falls back to the detected
    /// best otherwise (never panics, never selects an unrunnable backend).
    pub fn resolve(self) -> Backend {
        match self {
            KernelPath::Auto => tempest_stencil::backend::default_backend(),
            KernelPath::Scalar => Backend::Scalar,
            KernelPath::Portable => Backend::Portable,
            KernelPath::Avx2 => {
                if Backend::Avx2.available() {
                    Backend::Avx2
                } else {
                    tempest_stencil::backend::detect_best()
                }
            }
        }
    }

    /// Parse a `--kernel` / `TEMPEST_KERNEL`-style name. Accepts the
    /// backend names (`scalar`, `portable`, `avx2`) and `auto`; rejects
    /// anything else.
    pub fn parse(name: &str) -> Option<KernelPath> {
        let s = name.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Some(KernelPath::Auto);
        }
        Backend::parse(s).map(KernelPath::from)
    }

    /// Stable lowercase label (`auto`, `scalar`, `portable`, `avx2`).
    pub fn label(self) -> &'static str {
        match self {
            KernelPath::Auto => "auto",
            KernelPath::Scalar => "scalar",
            KernelPath::Portable => "portable",
            KernelPath::Avx2 => "avx2",
        }
    }
}

impl From<Backend> for KernelPath {
    fn from(b: Backend) -> Self {
        match b {
            Backend::Scalar => KernelPath::Scalar,
            Backend::Portable => KernelPath::Portable,
            Backend::Avx2 => KernelPath::Avx2,
        }
    }
}

/// Record which backend serves a starting run: exactly one
/// `Counter::Backend*` bump per `run`/`run_recording`/`run_range` entry
/// (no-op without the `obs` feature). The propagators call this after
/// resolving `Execution::kernel`, so `Auto` runs record the backend they
/// actually dispatched to — the "which backend am I running?" signal.
pub(crate) fn record_backend_run(b: Backend) {
    obs::add(
        match b {
            Backend::Scalar => obs::Counter::BackendScalar,
            Backend::Portable => obs::Counter::BackendPortable,
            Backend::Avx2 => obs::Counter::BackendAvx2,
        },
        1,
    );
}

/// Which loop schedule traverses the space-time domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Per-timestep spatial blocking (the baseline of Fig. 9).
    SpaceBlocked {
        /// Block extent along x.
        block_x: usize,
        /// Block extent along y.
        block_y: usize,
    },
    /// Wave-front temporal blocking (§II.B). `tile_t` is in *timesteps*
    /// (multi-phase propagators convert to virtual steps internally); the
    /// skew is chosen by the propagator from its dependency radius.
    Wavefront {
        /// Spatial tile extent along x (Table I `tile_x`).
        tile_x: usize,
        /// Spatial tile extent along y (Table I `tile_y`).
        tile_y: usize,
        /// Temporal tile height in timesteps.
        tile_t: usize,
        /// Intra-slab block extent along x (Table I `block_x`).
        block_x: usize,
        /// Intra-slab block extent along y (Table I `block_y`).
        block_y: usize,
    },
    /// Wave-front temporal blocking with dependency-driven (dataflow) tile
    /// execution: same parameters and identical (bitwise) results as
    /// [`Schedule::Wavefront`], but each space-time tile carries an atomic
    /// counter of its true predecessors and workers steal freshly-ready
    /// tiles from per-worker deques — no barriers at all inside a sweep,
    /// just one join at its end. Soundness of the tile plan is certified by
    /// `tempest_tiling::legality::check_plan`.
    WavefrontDataflow {
        /// Spatial tile extent along x (Table I `tile_x`).
        tile_x: usize,
        /// Spatial tile extent along y (Table I `tile_y`).
        tile_y: usize,
        /// Temporal tile height in timesteps.
        tile_t: usize,
        /// Intra-slab block extent along x (Table I `block_x`).
        block_x: usize,
        /// Intra-slab block extent along y (Table I `block_y`).
        block_y: usize,
    },
    /// Diamond (multicore wavefront diamond, Malas et al. arXiv:1410.3060)
    /// temporal blocking: time × one chosen space `axis` tile into diamonds
    /// of base `width`, and a skewed wave-front of `tile_c`-wide windows
    /// advances along the other horizontal axis. Tiles run on the dataflow
    /// executor's dependency-counted substrate; results are bitwise
    /// identical to the wavefront family. Legality requires
    /// `width ≥ 2·radius·tile_t·phases` (diamond slope at least the stencil
    /// radius per virtual step), certified by
    /// `tempest_tiling::legality::check_plan`.
    Diamond {
        /// Diamond base width along the diamond axis (must be a multiple of
        /// `2·tile_t·phases`).
        width: usize,
        /// Temporal tile height in timesteps.
        tile_t: usize,
        /// Cross-axis window extent.
        tile_c: usize,
        /// Which horizontal axis the diamonds tile.
        axis: DiamondAxis,
        /// Intra-slab block extent along x.
        block_x: usize,
        /// Intra-slab block extent along y.
        block_y: usize,
    },
}

impl Schedule {
    /// Temporal reuse factor for the streaming-traffic roofline model: the
    /// number of timesteps a temporal tile keeps wavefields cache-resident
    /// (`tile_t`), or 1 for the per-timestep baseline. Feeds
    /// `KernelCost::bytes_streaming_temporal` when placing a schedule on
    /// the roofline (paper Fig. 11).
    pub fn temporal_reuse(&self) -> usize {
        match *self {
            Schedule::SpaceBlocked { .. } => 1,
            Schedule::Wavefront { tile_t, .. }
            | Schedule::WavefrontDataflow { tile_t, .. }
            | Schedule::Diamond { tile_t, .. } => tile_t.max(1),
        }
    }
}

/// A complete execution configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// The loop schedule.
    pub schedule: Schedule,
    /// The sparse-operator path.
    pub sparse: SparseMode,
    /// Thread policy for independent blocks.
    pub policy: Policy,
    /// The dense-kernel backend selection (resolved to a concrete backend
    /// when the run starts; `Auto` = runtime dispatch).
    pub kernel: KernelPath,
}

impl Execution {
    /// The paper's baseline: spatially blocked, vectorised, classic sparse
    /// operators between timesteps.
    pub fn baseline() -> Self {
        Execution {
            schedule: Schedule::SpaceBlocked {
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::Classic,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        }
    }

    /// Wave-front temporal blocking with the paper's most common tuned
    /// shape (Table I: tile 64×64, block 8×8) and a moderate temporal
    /// height.
    pub fn wavefront_default() -> Self {
        Execution {
            schedule: Schedule::Wavefront {
                tile_x: 64,
                tile_y: 64,
                tile_t: 8,
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        }
    }

    /// Like [`wavefront_default`](Self::wavefront_default) but with the
    /// dependency-driven (dataflow) tile executor.
    pub fn wavefront_dataflow_default() -> Self {
        Execution {
            schedule: Schedule::WavefrontDataflow {
                tile_x: 64,
                tile_y: 64,
                tile_t: 8,
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        }
    }

    /// Diamond temporal blocking with a shape matching the wavefront
    /// defaults: width 64 (slope 4 at `tile_t` 8), cross windows 64 wide,
    /// diamonds along x, 8×8 intra-slab blocks.
    pub fn diamond_default() -> Self {
        Execution {
            schedule: Schedule::Diamond {
                width: 64,
                tile_t: 8,
                tile_c: 64,
                axis: DiamondAxis::X,
                block_x: 8,
                block_y: 8,
            },
            sparse: SparseMode::FusedCompressed,
            policy: Policy::default(),
            kernel: KernelPath::default(),
        }
    }

    /// Force sequential execution (reproducible timings on shared machines).
    pub fn sequential(mut self) -> Self {
        self.policy = Policy::Sequential;
        self
    }

    /// Select the scalar per-point kernels (the reference path, kept for
    /// ablation and equivalence testing).
    pub fn scalar_kernels(mut self) -> Self {
        self.kernel = KernelPath::Scalar;
        self
    }

    /// Select an explicit kernel backend (or `Auto` for runtime dispatch).
    pub fn with_kernel(mut self, kernel: KernelPath) -> Self {
        self.kernel = kernel;
        self
    }

    /// Convert to the tiling crate's spec given a per-virtual-step skew and
    /// phase count. Panics if the schedule is not one of the wavefront
    /// variants (both of which share the same tile geometry).
    pub fn wavefront_spec(&self, skew: usize, phases: usize) -> WavefrontSpec {
        match self.schedule {
            Schedule::Wavefront {
                tile_x,
                tile_y,
                tile_t,
                block_x,
                block_y,
            }
            | Schedule::WavefrontDataflow {
                tile_x,
                tile_y,
                tile_t,
                block_x,
                block_y,
            } => WavefrontSpec::new(
                tile_x,
                tile_y,
                (tile_t * phases).max(1),
                skew,
                block_x,
                block_y,
            ),
            _ => panic!("not a wavefront schedule"),
        }
    }

    /// Convert to the tiling crate's diamond spec given the stencil radius
    /// and phase count. The diamond slope is `width / (2·tile_t·phases)`;
    /// legality (slope ≥ radius per virtual step) requires
    /// `width ≥ 2·radius·tile_t·phases`. Panics if the schedule is not
    /// `Diamond` or the width violates that bound.
    pub fn diamond_spec(&self, radius: usize, phases: usize) -> DiamondSpec {
        match self.schedule {
            Schedule::Diamond {
                width,
                tile_t,
                tile_c,
                axis,
                block_x,
                block_y,
            } => {
                let tv = (tile_t * phases).max(1);
                assert!(
                    width % (2 * tv) == 0 && width / (2 * tv) >= radius.max(1),
                    "diamond width {width} is illegal for radius {radius} at tile_t {tile_t} \
                     × {phases} phase(s): the width must be a multiple of 2·tile_t·phases \
                     = {} with slope width/(2·tile_t·phases) ≥ radius, i.e. width ≥ {}",
                    2 * tv,
                    2 * radius.max(1) * tv,
                );
                DiamondSpec::new(tv, width / (2 * tv), tile_c, radius, block_x, block_y, axis)
            }
            _ => panic!("not a diamond schedule"),
        }
    }

    /// Convert to the tiling crate's space-block spec. Panics if the
    /// schedule is not `SpaceBlocked`.
    pub fn spaceblock_spec(&self) -> SpaceBlockSpec {
        match self.schedule {
            Schedule::SpaceBlocked { block_x, block_y } => SpaceBlockSpec::new(block_x, block_y),
            _ => panic!("not a space-blocked schedule"),
        }
    }

    /// Short human label of the schedule, used in profile reports.
    pub fn schedule_label(&self) -> String {
        match self.schedule {
            Schedule::SpaceBlocked { block_x, block_y } => {
                format!("spaceblocked {block_x}x{block_y}")
            }
            Schedule::Wavefront {
                tile_x,
                tile_y,
                tile_t,
                block_x,
                block_y,
            } => format!("wavefront {tile_x}x{tile_y} t{tile_t} / {block_x}x{block_y}"),
            Schedule::WavefrontDataflow {
                tile_x,
                tile_y,
                tile_t,
                block_x,
                block_y,
            } => format!("wavefront-dflow {tile_x}x{tile_y} t{tile_t} / {block_x}x{block_y}"),
            Schedule::Diamond {
                width,
                tile_t,
                tile_c,
                axis,
                block_x,
                block_y,
            } => format!(
                "diamond-{} w{width} t{tile_t} c{tile_c} / {block_x}x{block_y}",
                axis.name()
            ),
        }
    }

    /// Whether this execution's schedule can run on the incremental tile
    /// plan ([`Acoustic::run_incremental`](crate::Acoustic::run_incremental)),
    /// i.e. whether [`plan`](Self::plan) returns one. The slab-ordered
    /// wavefront executor has no per-tile node identity to cache against.
    pub fn supports_incremental(&self) -> bool {
        !matches!(self.schedule, Schedule::Wavefront { .. })
    }

    /// The tile plan of one sweep of `nvt` virtual steps under this
    /// schedule, for a stencil of dependency `radius` with `phases` virtual
    /// steps per timestep: the wavefront dataflow or diamond graph, or the
    /// space-blocked schedule mapped onto its `tile_t = 1` wavefront
    /// degeneration. `None` for the slab-ordered wavefront, which runs
    /// between barriers rather than as a plan.
    pub fn plan(&self, shape: Shape, nvt: usize, radius: usize, phases: usize) -> Option<TilePlan> {
        match self.schedule {
            Schedule::SpaceBlocked { block_x, block_y } => {
                Some(TilePlan::spaceblocked(shape, nvt, block_x, block_y, radius))
            }
            Schedule::Wavefront { .. } => None,
            Schedule::WavefrontDataflow { .. } => Some(TilePlan::wavefront(
                shape,
                nvt,
                &self.wavefront_spec(radius, phases),
                radius,
            )),
            Schedule::Diamond { .. } => Some(TilePlan::diamond(
                shape,
                nvt,
                &self.diamond_spec(radius, phases),
                radius,
            )),
        }
    }

    /// Run one sweep of `nvt` virtual steps under this schedule — the one
    /// schedule dispatch every propagator's `run` goes through.
    ///
    /// `step(vt, region)` computes virtual step `vt` over `region`;
    /// `after_step(vt)` runs on the calling thread after every virtual step
    /// of the space-blocked schedule (where the classic sparse operators
    /// live) and never under the temporally blocked ones, which
    /// [`validate`](Self::validate) restricts to fused sparse operators.
    /// Spatial blocking and the slab-ordered wavefront run between barriers;
    /// the dataflow and diamond schedules build their [`plan`](Self::plan)
    /// and run it with `tempest_tiling::execute_plan`.
    pub fn drive<S, A>(
        &self,
        shape: Shape,
        nvt: usize,
        radius: usize,
        phases: usize,
        step: S,
        after_step: A,
    ) where
        S: Fn(usize, &Range3) + Sync + Send,
        A: FnMut(usize),
    {
        match self.schedule {
            Schedule::SpaceBlocked { .. } => spaceblock::execute(
                shape,
                nvt,
                self.spaceblock_spec(),
                self.policy,
                step,
                after_step,
            ),
            Schedule::Wavefront { .. } => wavefront::execute(
                shape,
                nvt,
                &self.wavefront_spec(radius, phases),
                self.policy,
                step,
            ),
            Schedule::WavefrontDataflow { .. } | Schedule::Diamond { .. } => {
                let plan = self
                    .plan(shape, nvt, radius, phases)
                    .expect("tile-plan schedule");
                execute_plan(&plan, self.policy, &[], step, |_| {}, |_| {});
            }
        }
    }

    /// Check schedule/sparse compatibility; panics on the Fig. 4b hazard.
    pub fn validate(&self) {
        if matches!(
            self.schedule,
            Schedule::Wavefront { .. }
                | Schedule::WavefrontDataflow { .. }
                | Schedule::Diamond { .. }
        ) && self.sparse == SparseMode::Classic
        {
            panic!(
                "classic (per-timestep) sparse operators are illegal under wave-front \
                 temporal blocking: source injection would precede/miss stencil updates \
                 of blocks at different timesteps (paper Fig. 4b). Use SparseMode::Fused \
                 or SparseMode::FusedCompressed (the precomputation scheme of §II.A)."
            );
        }
    }
}

/// Timing and throughput of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Wall-clock time of the time loop (excludes setup/precompute).
    pub elapsed: Duration,
    /// Timesteps executed.
    pub nt: usize,
    /// Grid points per timestep.
    pub grid_points: usize,
    /// Throughput in giga point-updates per second (Fig. 9's metric).
    pub gpoints_per_s: f64,
}

impl RunStats {
    /// Compute throughput from a measured run.
    pub fn new(elapsed: Duration, nt: usize, shape: Shape) -> Self {
        let updates = (nt as f64) * (shape.len() as f64);
        let secs = elapsed.as_secs_f64().max(1e-12);
        RunStats {
            elapsed,
            nt,
            grid_points: shape.len(),
            gpoints_per_s: updates / secs / 1e9,
        }
    }

    /// Achieved GFLOP/s given a per-point-update FLOP count.
    pub fn gflops(&self, flops_per_point: f64) -> f64 {
        self.gpoints_per_s * flops_per_point
    }
}

/// Common interface of the three wave propagators.
pub trait WaveSolver {
    /// Propagator name ("acoustic", "tti", "elastic").
    fn name(&self) -> &'static str;

    /// Grid shape.
    fn shape(&self) -> Shape;

    /// Number of timesteps.
    fn num_timesteps(&self) -> usize;

    /// Space order of the discretisation.
    fn space_order(&self) -> usize;

    /// Run the full simulation (resets state first) and return throughput.
    fn run(&mut self, exec: &Execution) -> RunStats;

    /// Run with telemetry: resets the observability counters, runs, and
    /// returns the aggregated [`obs::Profile`] alongside the stats plus a
    /// [`obs::RunMeta`] ready for rendering/serialisation. With the `obs`
    /// feature off (or `TEMPEST_PROFILE` unset) the profile is empty and the
    /// run costs the same as [`run`](Self::run).
    fn run_profiled(&mut self, exec: &Execution) -> (RunStats, obs::Profile, obs::RunMeta) {
        let (stats, profile, _trace, meta) = self.run_traced(exec);
        (stats, profile, meta)
    }

    /// Like [`run_profiled`](Self::run_profiled), additionally returning the
    /// event-level [`obs::trace::Trace`] of the run (empty unless the `obs`
    /// feature is compiled in *and* tracing is on via `TEMPEST_TRACE` /
    /// `obs::trace::set_enabled`). Both telemetry layers are reset before
    /// the run, so the returned profile/trace cover exactly this run.
    #[allow(clippy::type_complexity)]
    fn run_traced(
        &mut self,
        exec: &Execution,
    ) -> (RunStats, obs::Profile, obs::trace::Trace, obs::RunMeta) {
        obs::reset();
        obs::trace::reset();
        let stats = self.run(exec);
        let profile = obs::snapshot();
        let trace = obs::trace::snapshot();
        let meta = obs::RunMeta::new(
            &format!("{}-so{}", self.name(), self.space_order()),
            &exec.schedule_label(),
            stats.nt,
            stats.grid_points as u64,
            stats.elapsed.as_secs_f64(),
        );
        (stats, profile, trace, meta)
    }

    /// Snapshot of the representative final wavefield (pressure for
    /// acoustic/TTI, vz for elastic) — the object equivalence tests compare.
    fn final_field(&mut self) -> Array3<f32>;

    /// Receiver data recorded by the last run, if receivers were attached.
    fn trace(&self) -> Option<Array2<f32>>;

    /// FLOPs per point-update (roofline model input).
    fn flops_per_point(&self) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_is_spaceblocked_classic() {
        let e = Execution::baseline();
        assert!(matches!(e.schedule, Schedule::SpaceBlocked { .. }));
        assert_eq!(e.sparse, SparseMode::Classic);
        e.validate();
    }

    #[test]
    fn wavefront_default_is_fused_compressed() {
        let e = Execution::wavefront_default();
        assert_eq!(e.sparse, SparseMode::FusedCompressed);
        e.validate();
        let spec = e.wavefront_spec(2, 1);
        assert_eq!(spec.skew, 2);
        assert_eq!(spec.tile_t, 8);
        // Two-phase propagators double the virtual tile height.
        assert_eq!(e.wavefront_spec(2, 2).tile_t, 16);
    }

    #[test]
    #[should_panic(expected = "Fig. 4b")]
    fn classic_under_wavefront_is_rejected() {
        let mut e = Execution::wavefront_default();
        e.sparse = SparseMode::Classic;
        e.validate();
    }

    #[test]
    fn wavefront_dataflow_shares_tile_geometry() {
        let e = Execution::wavefront_dataflow_default();
        e.validate();
        assert_eq!(e.sparse, SparseMode::FusedCompressed);
        let spec = e.wavefront_spec(2, 1);
        assert_eq!(spec, Execution::wavefront_default().wavefront_spec(2, 1));
        assert_eq!(e.wavefront_spec(4, 2).tile_t, 16);
        assert_eq!(e.schedule_label(), "wavefront-dflow 64x64 t8 / 8x8");
    }

    #[test]
    #[should_panic(expected = "Fig. 4b")]
    fn classic_under_wavefront_dataflow_is_rejected() {
        let mut e = Execution::wavefront_dataflow_default();
        e.sparse = SparseMode::Classic;
        e.validate();
    }

    #[test]
    fn diamond_default_spec_conversion() {
        let e = Execution::diamond_default();
        e.validate();
        assert_eq!(e.sparse, SparseMode::FusedCompressed);
        assert_eq!(e.schedule_label(), "diamond-x w64 t8 c64 / 8x8");
        // Single-phase: slope = 64 / (2·8) = 4, legal up to radius 4.
        let spec = e.diamond_spec(2, 1);
        assert_eq!(spec.tile_t, 8);
        assert_eq!(spec.slope, 4);
        assert_eq!(spec.cross_skew, 2);
        assert_eq!(spec.width(), 64);
        // Two-phase: virtual tile height 16, slope 2.
        let spec2 = e.diamond_spec(2, 2);
        assert_eq!(spec2.tile_t, 16);
        assert_eq!(spec2.slope, 2);
    }

    #[test]
    #[should_panic(expected = "width ≥ 64")]
    fn diamond_spec_rejects_shallow_slope() {
        // radius 8 needs width ≥ 2·8·4·1 = 64, but width is 32.
        let e = Execution {
            schedule: Schedule::Diamond {
                width: 32,
                tile_t: 4,
                tile_c: 16,
                axis: DiamondAxis::X,
                block_x: 8,
                block_y: 8,
            },
            ..Execution::diamond_default()
        };
        let _ = e.diamond_spec(8, 1);
    }

    #[test]
    #[should_panic(expected = "multiple of 2·tile_t·phases")]
    fn diamond_spec_rejects_indivisible_width() {
        // 48 is not a multiple of 2·8·2 = 32.
        let e = Execution {
            schedule: Schedule::Diamond {
                width: 48,
                tile_t: 8,
                tile_c: 16,
                axis: DiamondAxis::Y,
                block_x: 8,
                block_y: 8,
            },
            ..Execution::diamond_default()
        };
        let _ = e.diamond_spec(1, 2);
    }

    #[test]
    #[should_panic(expected = "Fig. 4b")]
    fn classic_under_diamond_is_rejected() {
        let mut e = Execution::diamond_default();
        e.sparse = SparseMode::Classic;
        e.validate();
    }

    #[test]
    #[should_panic(expected = "not a diamond")]
    fn diamond_spec_conversion_checks_kind() {
        let _ = Execution::wavefront_default().diamond_spec(2, 1);
    }

    #[test]
    fn every_schedule_but_slab_ordered_has_a_plan() {
        let shape = Shape::cube(16);
        let slab = Execution::wavefront_default();
        assert!(slab.plan(shape, 4, 2, 1).is_none());
        assert!(!slab.supports_incremental());
        for e in [
            Execution::baseline(),
            Execution::wavefront_dataflow_default(),
            Execution::diamond_default(),
        ] {
            let plan = e.plan(shape, 4, 2, 1).expect("every schedule but Wavefront has a plan");
            assert!(!plan.is_empty());
            assert_eq!(plan.nvt, 4);
            assert!(e.supports_incremental());
        }
    }

    #[test]
    fn stats_throughput() {
        let s = RunStats::new(Duration::from_secs(2), 100, Shape::cube(100));
        // 100 steps × 1e6 points / 2 s = 5e7 pts/s = 0.05 GPts/s
        assert!((s.gpoints_per_s - 0.05).abs() < 1e-9);
        assert!((s.gflops(40.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_override() {
        let e = Execution::baseline().sequential();
        assert_eq!(e.policy, Policy::Sequential);
    }

    #[test]
    #[should_panic(expected = "not a wavefront")]
    fn spec_conversion_checks_kind() {
        let _ = Execution::baseline().wavefront_spec(1, 1);
    }
}
