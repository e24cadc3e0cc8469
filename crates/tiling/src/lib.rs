//! # tempest-tiling
//!
//! Loop-schedule engine: how the space-time iteration domain of an explicit
//! stencil propagator is traversed.
//!
//! The paper contrasts two schedules (§I.A, Fig. 4):
//!
//! * **Spatial blocking** ([`spaceblock`]): each timestep sweeps the whole
//!   grid, decomposed into cache-sized `(block_x, block_y)` × full-`z`
//!   blocks that may run in parallel. Sparse operators can run between
//!   timesteps — no dependency hazards (Fig. 4a). This is the
//!   highly-optimised baseline the paper compares against.
//!
//! * **Wave-front temporal blocking** ([`wavefront`], §II.B): the space-time
//!   domain splits into parallelogram tiles of `tile_t` timesteps skewed by
//!   the dependency radius per step; inside a tile, slabs advance through
//!   time while their working set is cache-resident. Applying off-grid
//!   sparse operators naively under this schedule is *incorrect* (Fig. 4b) —
//!   the precomputation scheme in `tempest-sparse` is what makes it legal.
//!
//! Both schedules drive an abstract *step function* `step(vt, region)`:
//! "compute virtual timestep `vt` for `region`". Multi-phase propagators
//! (elastic velocity–stress updates two field groups per timestep, the
//! second reading same-timestep values of the first — Fig. 8b) map each
//! phase to its own virtual step, which automatically widens the skew.
//!
//! Every dependency-driven sweep is first built as a [`TilePlan`]
//! ([`plan`]): per-node slabs plus the exact tile dependency edges. One
//! executor, [`execute_plan`], runs any plan on dependency counters and
//! per-worker stealing deques with a single join per sweep, and one checker,
//! [`legality::check_plan`], certifies any plan. Three schedules produce
//! plans: the wave-front dataflow schedule ([`wavefront::tile_graph`],
//! [`wavefront::execute_dataflow`]); the diamond schedule ([`diamond`], MWD,
//! Malas et al. arXiv:1410.3060), which tiles time × one chosen space axis
//! into diamonds and runs a skewed wave-front along the other axis; and the
//! space-blocked schedule mapped onto its `tile_t = 1` wave-front
//! degeneration ([`TilePlan::spaceblocked`]). Two barrier schedules remain
//! outside the plan: spatial blocking ([`spaceblock::execute`]) and the
//! slab-ordered wave-front ([`wavefront::execute`]), which parallelises the
//! blocks of one slab between barriers. All of them produce
//! bitwise-identical wavefields.
//!
//! [`incremental`] layers differential recomputation over the plan: a
//! dirty-cone pass ([`dirty_cone`]) that marks the causal cone of a
//! [`RunDelta`] between two runs, and a bounded [`TileCache`] of per-tile
//! outputs, so [`execute_plan`] with a restore mask restores clean tiles
//! bit-for-bit and recomputes only the cone.
//!
//! [`legality`] replays any slab sequence against the stencil's radius and
//! the circular time-buffer depth ([`legality::check_schedule`]), and
//! [`autotune()`](autotune()) sweeps tile/block shapes (§IV.C, Table I).

pub mod autotune;
pub mod diamond;
pub mod incremental;
pub mod legality;
pub mod plan;
pub mod spaceblock;
pub mod wavefront;

pub use autotune::{
    autotune, autotune_measured, spaceblock_candidates, with_dataflow_variants,
    with_diamond_variants, Candidate, MeasuredResult, Measurement, TuneResult,
};
pub use diamond::{DiamondAxis, DiamondSpec, DiamondTile};
pub use incremental::{
    cache_mb_from, dirty_cone, dirty_cone_oracle, CacheStats, DirtyRect, RunDelta, SlabPayload,
    SourceSig, TileCache, TilePayload, DEFAULT_CACHE_MB,
};
pub use plan::{execute_plan, TilePlan};
pub use spaceblock::SpaceBlockSpec;
pub use wavefront::{Slab, Tile, WavefrontSpec};
