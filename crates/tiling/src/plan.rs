//! The tile plan IR and its one executor.
//!
//! Every dependency-driven sweep — the wavefront dataflow schedule, the
//! diamond schedule and the space-blocked schedule's `tile_t = 1`
//! degeneration — is first turned into a [`TilePlan`]: per-node slab lists
//! (ascending `vt`) plus the exact predecessor/successor edges of the tile
//! graph. [`execute_plan`] then runs any plan on the dependency-counted,
//! work-stealing `tempest_par::run_dataflow` substrate, and
//! [`crate::legality::check_plan`] certifies any plan against the replay
//! oracle. The incremental machinery ([`crate::incremental`]) marks cones
//! over the same edges and restores cached nodes through the same executor,
//! so a plain run is simply an [`execute_plan`] call with nothing to restore.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use tempest_grid::{Range3, Shape};
use tempest_obs as obs;
use tempest_obs::trace::SpanArgs;
use tempest_par::Policy;

use crate::diamond::{diamond_slab, diamond_tile_graph, DiamondSpec};
use crate::wavefront::{tile_graph, tile_slab, Slab, WavefrontSpec};

/// A schedule-agnostic snapshot of one sweep's tile structure: per-node
/// slabs in ascending `vt` plus the exact dependency edges. Execution,
/// legality checking, cone marking and caching all work on this one shape,
/// so they compose with every schedule that can produce a tile graph.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// Per-node slabs, ascending `vt`.
    pub slabs: Vec<Vec<Slab>>,
    /// Per-node trace coordinates, recorded on the node's `Tile` span:
    /// `(diagonal, xt, yt)` for wavefront nodes, `(row, k, ct)` for diamond
    /// nodes, plus the node's virtual-step range `[t0, t1)`.
    pub spans: Vec<SpanArgs>,
    /// `preds[i]` — nodes whose outputs node `i` reads (sorted, deduped).
    pub preds: Vec<Vec<u32>>,
    /// `succs[i]` — nodes reading node `i`'s output (the cone edges).
    pub succs: Vec<Vec<u32>>,
    /// Intra-slab block extent along x.
    pub block_x: usize,
    /// Intra-slab block extent along y.
    pub block_y: usize,
    /// Virtual steps of the sweep.
    pub nvt: usize,
    /// Digest of the schedule geometry (kind, spec, shape, nvt, radius) —
    /// folded into cache session keys so plans with different tilings never
    /// share entries.
    pub geometry: u64,
}

fn succs_of(preds: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); preds.len()];
    for (ia, ps) in preds.iter().enumerate() {
        for &ib in ps {
            succs[ib as usize].push(ia as u32);
        }
    }
    succs
}

fn hash_u64(parts: &[u64]) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

impl TilePlan {
    /// Plan of a wavefront-dataflow sweep: nodes and edges from
    /// [`tile_graph`], slabs from [`tile_slab`].
    pub fn wavefront(shape: Shape, nvt: usize, spec: &WavefrontSpec, radius: usize) -> Self {
        let (tiles, preds) = tile_graph(shape, nvt, spec, radius);
        let slabs = tiles
            .iter()
            .map(|t| {
                (t.t0..t.t1)
                    .filter_map(|vt| tile_slab(shape, spec, t, vt))
                    .collect()
            })
            .collect();
        let spans = tiles
            .iter()
            .map(|t| SpanArgs::tile(t.diagonal(), t.xt, t.yt, t.t0, t.t1))
            .collect();
        let geometry = hash_u64(&[
            1,
            shape.nx as u64,
            shape.ny as u64,
            shape.nz as u64,
            nvt as u64,
            radius as u64,
            spec.tile_x as u64,
            spec.tile_y as u64,
            spec.tile_t as u64,
            spec.skew as u64,
            spec.block_x as u64,
            spec.block_y as u64,
        ]);
        TilePlan {
            slabs,
            spans,
            succs: succs_of(&preds),
            preds,
            block_x: spec.block_x,
            block_y: spec.block_y,
            nvt,
            geometry,
        }
    }

    /// Plan of a diamond sweep: nodes and edges from
    /// [`diamond_tile_graph`], slabs from [`diamond_slab`].
    pub fn diamond(shape: Shape, nvt: usize, spec: &DiamondSpec, radius: usize) -> Self {
        let (tiles, preds) = diamond_tile_graph(shape, nvt, spec, radius);
        let slabs = tiles
            .iter()
            .map(|t| {
                (t.t0..t.t1)
                    .filter_map(|vt| diamond_slab(shape, spec, t, vt))
                    .collect()
            })
            .collect();
        let spans = tiles
            .iter()
            .map(|t| SpanArgs::tile(t.row, t.k, t.ct, t.t0, t.t1))
            .collect();
        let geometry = hash_u64(&[
            2,
            shape.nx as u64,
            shape.ny as u64,
            shape.nz as u64,
            nvt as u64,
            radius as u64,
            spec.tile_t as u64,
            spec.slope as u64,
            spec.tile_c as u64,
            spec.cross_skew as u64,
            spec.block_x as u64,
            spec.block_y as u64,
            spec.axis as u64,
        ]);
        TilePlan {
            slabs,
            spans,
            succs: succs_of(&preds),
            preds,
            block_x: spec.block_x,
            block_y: spec.block_y,
            nvt,
            geometry,
        }
    }

    /// Plan of the space-blocked schedule, mapped onto its exact `tile_t=1`
    /// wavefront degeneration: one node per `(vt, block)`, with skew-free
    /// slabs (at tile height 1 no skew ever applies) and the same block
    /// decomposition as `spaceblock::execute`. The per-slab step calls are
    /// identical to the plain schedule's, so the wavefield is bitwise
    /// identical — only the inter-step barrier is replaced by the exact
    /// dependency edges.
    pub fn spaceblocked(
        shape: Shape,
        nvt: usize,
        block_x: usize,
        block_y: usize,
        radius: usize,
    ) -> Self {
        let spec = WavefrontSpec::new(block_x, block_y, 1, radius.max(1), block_x, block_y);
        let mut plan = Self::wavefront(shape, nvt, &spec, radius);
        // Distinguish the mapping from a genuine tile_t=1 wavefront run.
        plan.geometry = hash_u64(&[3, plan.geometry]);
        plan
    }

    /// Grid cells node `i` writes, summed over its slabs — what its cached
    /// payload holds per wavefield level, known before the node runs.
    pub(crate) fn node_cells(&self, i: usize) -> usize {
        self.slabs[i].iter().map(|s| s.range.len()).sum()
    }

    /// Number of tile nodes.
    pub fn len(&self) -> usize {
        self.slabs.len()
    }

    /// Whether the plan has no nodes (`nvt == 0`).
    pub fn is_empty(&self) -> bool {
        self.slabs.is_empty()
    }
}

/// Run one sweep over `plan` on the dataflow substrate.
///
/// Each node carries an atomic counter of unfinished predecessors; finishing
/// a node decrements its successors and pushes freshly-ready nodes onto
/// per-worker stealing deques, and the only global synchronisation is one
/// join at the end of the sweep.
///
/// * `restore_ok` — one flag per node: `true` restores the node instead of
///   computing it. Empty means nothing to restore (a plain run).
/// * `step(vt, region)` — compute `region` at virtual step `vt`. A computed
///   node runs its slabs in ascending `vt`, each cut into
///   `(block_x, block_y)` blocks, so every z-pencil is computed whole at
///   each step and the wavefield is bitwise identical to every other legal
///   schedule.
/// * `restore(i)` — write node `i`'s cached output into the wavefield (and
///   replay its read-only side effects, e.g. receiver gathers). Runs at the
///   node's position in the dependency order, so downstream readers observe
///   restored values exactly as they would computed ones.
/// * `after_compute(i)` — runs after node `i` is computed and before its
///   successors are released (e.g. a cache capture).
///
/// Restored and computed nodes alike execute as dataflow tasks, so the
/// scheduling counters (`ParTasks`, `DataflowReady`) do not depend on how
/// much was restored.
pub fn execute_plan<S, R, C>(
    plan: &TilePlan,
    policy: Policy,
    restore_ok: &[bool],
    step: S,
    restore: R,
    after_compute: C,
) where
    S: Fn(usize, &Range3) + Sync + Send,
    R: Fn(usize) + Sync + Send,
    C: Fn(usize) + Sync + Send,
{
    assert!(
        restore_ok.is_empty() || restore_ok.len() == plan.len(),
        "restore mask/plan mismatch"
    );
    let graph = tempest_par::DepGraph::from_preds(&plan.preds);
    // One caller-side phase/span for the whole sweep.
    let sw = obs::start(obs::Phase::Dataflow);
    let _dsp = obs::trace::span(
        obs::trace::SpanKind::Dataflow,
        SpanArgs {
            t0: 0,
            t1: plan.nvt as i32,
            ..Default::default()
        },
    );
    tempest_par::run_dataflow(policy, &graph, |i| {
        if restore_ok.get(i) == Some(&true) {
            let _sp = obs::trace::span(obs::trace::SpanKind::CacheRestore, plan.spans[i]);
            restore(i);
        } else {
            let _sp = obs::trace::span(obs::trace::SpanKind::Tile, plan.spans[i]);
            for slab in &plan.slabs[i] {
                for b in slab.range.split_xy(plan.block_x, plan.block_y) {
                    step(slab.vt, &b);
                }
            }
            after_compute(i);
            obs::add(obs::Counter::WavefrontTiles, 1);
        }
    });
    sw.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diamond::DiamondAxis;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn wf_plan() -> TilePlan {
        TilePlan::wavefront(
            Shape::new(23, 17, 4),
            11,
            &WavefrontSpec::new(8, 8, 4, 2, 4, 4),
            2,
        )
    }

    #[test]
    fn plan_edges_are_consistent() {
        let plan = wf_plan();
        assert!(!plan.is_empty());
        assert_eq!(plan.spans.len(), plan.len());
        for (i, ps) in plan.preds.iter().enumerate() {
            for &p in ps {
                assert!(
                    plan.succs[p as usize].contains(&(i as u32)),
                    "succ list of {p} misses {i}"
                );
            }
        }
        let nedges: usize = plan.preds.iter().map(Vec::len).sum();
        assert_eq!(nedges, plan.succs.iter().map(Vec::len).sum::<usize>());
    }

    #[test]
    fn spaceblocked_plan_has_one_node_per_step_and_block() {
        let shape = Shape::new(16, 16, 3);
        let plan = TilePlan::spaceblocked(shape, 4, 8, 8, 2);
        assert_eq!(plan.len(), 4 * 4); // 4 steps × 2×2 blocks
        for slabs in &plan.slabs {
            assert_eq!(slabs.len(), 1);
        }
        // Skew-free: every slab is exactly one (8, 8) block.
        for slabs in &plan.slabs {
            let r = &slabs[0].range;
            assert_eq!((r.x1 - r.x0, r.y1 - r.y0), (8, 8));
        }
    }

    #[test]
    fn spans_carry_tile_coordinates() {
        let shape = Shape::new(23, 17, 4);
        let spec = WavefrontSpec::new(8, 8, 4, 2, 4, 4);
        let plan = TilePlan::wavefront(shape, 11, &spec, 2);
        let (tiles, _) = tile_graph(shape, 11, &spec, 2);
        for (t, a) in tiles.iter().zip(&plan.spans) {
            assert_eq!(*a, SpanArgs::tile(t.xt + t.yt, t.xt, t.yt, t.t0, t.t1));
        }
        let dspec = DiamondSpec::new(3, 2, 8, 2, 4, 4, DiamondAxis::Y);
        let plan = TilePlan::diamond(shape, 11, &dspec, 2);
        let (tiles, _) = diamond_tile_graph(shape, 11, &dspec, 2);
        for (t, a) in tiles.iter().zip(&plan.spans) {
            assert_eq!(*a, SpanArgs::tile(t.row, t.k, t.ct, t.t0, t.t1));
        }
    }

    #[test]
    fn execute_plan_counts_are_exact() {
        let plan = wf_plan();
        let n = plan.len();
        let restore_ok: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let expected_reused = restore_ok.iter().filter(|&&b| b).count();
        let stepped = AtomicUsize::new(0);
        let restored = AtomicUsize::new(0);
        let captured = AtomicUsize::new(0);
        execute_plan(
            &plan,
            Policy::Sequential,
            &restore_ok,
            |_vt, b| {
                stepped.fetch_add(b.len(), Ordering::Relaxed);
            },
            |_i| {
                restored.fetch_add(1, Ordering::Relaxed);
            },
            |_i| {
                captured.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(restored.into_inner(), expected_reused);
        assert_eq!(captured.into_inner(), n - expected_reused);
        assert!(stepped.into_inner() > 0);
    }

    #[test]
    fn plain_run_covers_every_point_once_per_step() {
        let shape = Shape::new(20, 14, 3);
        let plans = [
            TilePlan::wavefront(shape, 7, &WavefrontSpec::new(8, 8, 3, 2, 3, 4), 2),
            TilePlan::diamond(
                shape,
                7,
                &DiamondSpec::new(3, 2, 8, 2, 3, 4, DiamondAxis::X),
                2,
            ),
            TilePlan::spaceblocked(shape, 7, 8, 4, 2),
        ];
        for plan in &plans {
            for policy in [
                Policy::Sequential,
                Policy::Parallel,
                Policy::Capped { threads: 2 },
            ] {
                let total = AtomicUsize::new(0);
                let computed = AtomicUsize::new(0);
                execute_plan(
                    plan,
                    policy,
                    &[],
                    |_vt, b| {
                        total.fetch_add(b.len(), Ordering::Relaxed);
                    },
                    |_| unreachable!("a plain run restores nothing"),
                    |_| {
                        computed.fetch_add(1, Ordering::Relaxed);
                    },
                );
                assert_eq!(computed.into_inner(), plan.len());
                assert_eq!(total.into_inner(), 7 * shape.len());
            }
        }
    }

    #[test]
    fn diamond_plan_never_steps_a_point_before_its_halo() {
        // Dynamic check of the flow-dependence rule under the parallel
        // executor: when a block advances to step vt, every point in its
        // radius-dilated halo must have completed vt − 1.
        let shape = Shape::new(23, 17, 2);
        let spec = DiamondSpec::new(4, 2, 8, 2, 4, 4, DiamondAxis::X);
        let radius = 2usize;
        let nvt = 11;
        let plan = TilePlan::diamond(shape, nvt, &spec, radius);
        let progress = std::sync::Mutex::new(vec![vec![-1i64; shape.ny]; shape.nx]);
        execute_plan(
            &plan,
            Policy::Parallel,
            &[],
            |vt, b| {
                let mut g = progress.lock().unwrap();
                let want = vt as i64 - 1;
                for x in b.x0.saturating_sub(radius)..(b.x1 + radius).min(shape.nx) {
                    for y in b.y0.saturating_sub(radius)..(b.y1 + radius).min(shape.ny) {
                        assert!(g[x][y] >= want, "halo ({x},{y}) at {} < {want}", g[x][y]);
                    }
                }
                for x in b.x0..b.x1 {
                    for y in b.y0..b.y1 {
                        assert_eq!(g[x][y], want, "write point ({x},{y})");
                        g[x][y] = vt as i64;
                    }
                }
            },
            |_| {},
            |_| {},
        );
        let g = progress.lock().unwrap();
        for col in g.iter() {
            for &v in col {
                assert_eq!(v, nvt as i64 - 1);
            }
        }
    }
}
