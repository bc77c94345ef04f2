//! Incremental replanning: edit tracking and plan-diff
//! application over the first-fit-decreasing placement engine.
//!
//! The cold planner ([`crate::sched::placement::place_with_splitting`])
//! rebuilds the whole plan from scratch on every [`super::rebalance::SchedEvent`]:
//! walk the scene, sort 100k workloads, re-pack, re-materialize the
//! assignment — ~18 ms at 100k nodes, which full-rate event streams
//! (camera churn, EWMA cost drift) cannot sustain. [`PlanState`] makes
//! the plan *persistent* instead: the sorted workload queue, the chosen
//! service per queue position and periodic ledger checkpoints all
//! survive between events, so a replan only re-runs the engine from the
//! first queue position an edit could have affected and emits a
//! [`PlanDiff`] naming exactly the workloads whose placement changed.
//!
//! **Exactness.** The incremental replay is not an approximation: after
//! every replan the stored assignment is bit-identical to what a cold
//! `place_with_splitting` of the current queue against the current
//! capacity basis would produce (pinned by `tests/sched_parity.rs` and
//! `tests/proptest_sched.rs`). Three properties make that cheap:
//!
//! 1. *Prefix stability.* The queue is kept sorted by the engine's
//!    `(render weight desc, id asc)` key — a strict total order — so an
//!    edit at queue position `p` cannot change any decision before `p`:
//!    first-fit-decreasing consumes the queue in order and the ledger
//!    trajectory over `[0, p)` is untouched.
//! 2. *Content-determined ledger order.* The keep-sorted ledger's slot
//!    order is a pure function of slot contents (`(polygons desc,
//!    service asc)` over unique service ids), so the exact mid-plan
//!    ledger at any position can be reconstructed from a stored
//!    *contents* snapshot: restore the nearest checkpoint at or before
//!    `p`, re-apply the recorded debits of the positions between, sort
//!    once.
//! 3. *Recorded decisions are replay-free.* Positions before `p` carry
//!    their chosen service in the queue itself, so catch-up is a debit
//!    per item — no fitting, no searching, no allocation.
//!
//! **When to replan.** A pass replans exactly when no plan exists yet or
//! something is dirty ([`PlanState::is_dirty`]); a clean state is left
//! alone. [`PlanState::force_full_replay`] re-derives every placement on
//! the next replan.

use crate::capacity::Headroom;
use crate::ids::RenderServiceId;
use crate::sched::placement::{Ledger, PlaceError};
use rave_scene::{EditStamp, NodeCost, NodeId};

/// Ledger checkpoint spacing, in queue positions. Catch-up replays at
/// most this many recorded debits before live fitting resumes; the
/// checkpoint store costs `slots × (len / CHECKPOINT_EVERY)` headrooms
/// (~100 KB at 100k nodes × 64 services).
const CHECKPOINT_EVERY: usize = 1024;

/// `replay_from` sentinel: nothing to replay.
const CLEAN: usize = usize::MAX;

/// One planned workload: a queue entry in `(render weight desc, id asc)`
/// order carrying its current placement. `svc` is `None` only for units
/// added since the last replay.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanItem {
    id: NodeId,
    cost: NodeCost,
    svc: Option<RenderServiceId>,
}

/// The engine's queue ordering key — identical to the sort in
/// `place_with_splitting` (strict total order: ids are unique).
fn item_key(cost: &NodeCost, id: NodeId) -> (std::cmp::Reverse<u64>, NodeId) {
    (std::cmp::Reverse(cost.render_weight()), id)
}

/// What one replan changed — the minimal migration set. Workloads whose
/// recomputed placement equals their current one emit nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanDiff {
    /// `(workload, old service, new service)` — `old` is `None` for
    /// workloads placed for the first time.
    pub moved: Vec<(NodeId, Option<RenderServiceId>, RenderServiceId)>,
    /// Workloads that left the plan, with the service that held them.
    pub dropped: Vec<(NodeId, RenderServiceId)>,
    /// Spatial splits performed to make things fit.
    pub splits: u32,
    /// Queue positions the engine actually re-fit (the "affected slice"
    /// — observability for the incremental-vs-full story).
    pub replayed: usize,
    /// True when the replay covered the whole queue (capacity basis
    /// change or forced full replay).
    pub full_replay: bool,
}

impl PlanDiff {
    pub fn is_empty(&self) -> bool {
        self.moved.is_empty() && self.dropped.is_empty()
    }
}

/// The persistent placement: capacity basis, sorted workload queue with
/// per-position placements, periodic ledger checkpoints, and the drops
/// pending since the last replan. Owned per data service by the world's
/// scheduler state ([`crate::world::SchedState`]).
#[derive(Debug, Clone, Default)]
pub struct PlanState {
    /// Capacity basis of the current plan, sorted by service id.
    caps: Vec<(RenderServiceId, Headroom)>,
    /// The planned workloads in engine order, each carrying its chosen
    /// service.
    queue: Vec<PlanItem>,
    /// id → queued cost mirror of `queue`. Edits and journal-read lookups
    /// resolve here in O(1) instead of scanning the queue — at 100k
    /// workloads those scans, one per dirtied node per event, would
    /// dominate the whole replay.
    index: std::collections::HashMap<NodeId, NodeCost>,
    /// `checkpoints[k]` is the exact ledger state before queue position
    /// `k * CHECKPOINT_EVERY` was fit. `checkpoints[0]` is the pristine
    /// basis ledger.
    checkpoints: Vec<Ledger>,
    /// First queue position whose placement is in question ([`CLEAN`]
    /// when the stored plan is exact).
    replay_from: usize,
    /// Workloads that left the plan while dirty (removed from the scene
    /// or no longer eligible), with the service that held them — emitted
    /// as `PlanDiff::dropped` on the next replan.
    drops: Vec<(NodeId, RenderServiceId)>,
    /// Total polygon demand of the queue — the feasibility pre-check's
    /// numerator, maintained here so the incremental path never has to
    /// re-walk the scene for a total.
    total_polygons: u64,
    /// Total texture demand of the queue: when every service's basis
    /// texture room covers it, the texture axis can never bind and the
    /// replay uses the O(1) first-slot fit.
    total_texture: u64,
    planned: bool,
    /// Where `plan_incremental` last read the scene's edit journal — of
    /// no tree until it has.
    pub(crate) scene_seen: EditStamp,
}

impl PlanState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Has a full plan ever been built? Until then every query is empty.
    pub fn is_planned(&self) -> bool {
        self.planned
    }

    /// Number of planned workloads.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total polygon demand of the planned queue.
    pub fn total_polygons(&self) -> u64 {
        self.total_polygons
    }

    /// Total texture demand of the planned queue.
    pub fn total_texture(&self) -> u64 {
        self.total_texture
    }

    /// The service currently holding `id`, if planned.
    pub fn assignment(&self, id: NodeId) -> Option<RenderServiceId> {
        let cost = self.cost_in_queue(id)?;
        let pos = self.position_of(&cost, id)?;
        self.queue[pos].svc
    }

    /// The full assignment in [`crate::sched::placement::PlacementOutcome`]
    /// shape: per-service `(workloads, total cost)`, ordered by service
    /// id. O(n log n) — materialization for adapters and tests, not the
    /// replay path.
    pub fn assignments(&self) -> Vec<(RenderServiceId, Vec<NodeId>, NodeCost)> {
        let mut by_svc: std::collections::BTreeMap<RenderServiceId, (Vec<NodeId>, NodeCost)> =
            std::collections::BTreeMap::new();
        for item in &self.queue {
            if let Some(svc) = item.svc {
                let entry = by_svc.entry(svc).or_default();
                entry.0.push(item.id);
                entry.1 += item.cost;
            }
        }
        by_svc.into_iter().map(|(svc, (nodes, cost))| (svc, nodes, cost)).collect()
    }

    /// Install a new capacity basis. Unchanged bases are detected by
    /// comparison and dirty nothing, so drivers can re-interrogate and
    /// call this every tick. Any change invalidates the whole trajectory
    /// (slot order is global): the next replan replays from position 0 —
    /// still skipping the scene walk, the sort and the assignment
    /// rebuild that dominate a cold plan.
    pub fn note_caps(&mut self, caps: &[(RenderServiceId, Headroom)]) {
        let mut sorted = caps.to_vec();
        sorted.sort_by_key(|c| c.0);
        if sorted == self.caps {
            return;
        }
        self.caps = sorted;
        self.checkpoints.clear();
        self.checkpoints.push(Ledger::from_caps(&self.caps, true));
        self.replay_from = 0;
    }

    /// Record one workload edit: `cost` is the unit's current eligible
    /// cost, `None` if it left the scene (or is no longer eligible).
    /// Touches that change nothing are free. The queue is edited eagerly
    /// (binary search + memmove); the *placements* stay stale until the
    /// next [`PlanState::replan`].
    pub fn note_unit(&mut self, id: NodeId, cost: Option<NodeCost>) {
        let old = self.cost_in_queue(id);
        match (old, cost) {
            (None, None) => {}
            (Some(o), Some(n)) if o == n => {}
            (Some(o), Some(n)) => {
                let old_pos = self.position_of(&o, id).expect("queued unit has a position");
                let item = self.queue.remove(old_pos);
                let new_pos = self.lower_bound(item_key(&n, id));
                self.queue.insert(new_pos, PlanItem { id, cost: n, svc: item.svc });
                self.index.insert(id, n);
                self.total_polygons = self.total_polygons - o.polygons + n.polygons;
                self.total_texture = self.total_texture - o.texture_bytes + n.texture_bytes;
                self.mark_replay(old_pos.min(new_pos));
            }
            (None, Some(n)) => {
                let pos = self.lower_bound(item_key(&n, id));
                self.queue.insert(pos, PlanItem { id, cost: n, svc: None });
                self.index.insert(id, n);
                self.total_polygons += n.polygons;
                self.total_texture += n.texture_bytes;
                self.mark_replay(pos);
            }
            (Some(o), None) => {
                let pos = self.position_of(&o, id).expect("queued unit has a position");
                let item = self.queue.remove(pos);
                self.index.remove(&id);
                if let Some(svc) = item.svc {
                    self.drops.push((id, svc));
                }
                self.total_polygons -= o.polygons;
                self.total_texture -= o.texture_bytes;
                self.mark_replay(pos);
            }
        }
    }

    /// Distrust every stored placement: the next replan re-fits the whole
    /// queue from the basis ledger (equivalent to a cold pack of the
    /// current queue).
    pub fn force_full_replay(&mut self) {
        if self.planned {
            self.replay_from = 0;
        }
    }

    /// Is there anything to replan?
    pub fn is_dirty(&self) -> bool {
        self.replay_from != CLEAN || !self.drops.is_empty()
    }

    /// Replace the plan wholesale: fresh workload set, fresh capacity
    /// basis, full pack — the cold path, used for the first plan and
    /// after the scene read `Everything`. Still diffs against the previous
    /// assignment so callers migrate only what actually changed.
    pub fn full_rebuild(
        &mut self,
        units: Vec<(NodeId, NodeCost)>,
        caps: &[(RenderServiceId, Headroom)],
        splitter: impl FnMut(NodeId) -> Option<[(NodeId, NodeCost); 2]>,
    ) -> Result<PlanDiff, PlaceError> {
        // Carry the old placements over by id so the replay's diff is
        // exact; whatever is left afterwards was dropped.
        let old_queue = std::mem::take(&mut self.queue);
        let mut old: std::collections::BTreeMap<NodeId, RenderServiceId> =
            old_queue.into_iter().filter_map(|it| Some((it.id, it.svc?))).collect();

        let mut queue: Vec<PlanItem> =
            units.into_iter().map(|(id, cost)| PlanItem { id, cost, svc: None }).collect();
        queue.sort_unstable_by_key(|it| item_key(&it.cost, it.id));
        for item in &mut queue {
            item.svc = old.remove(&item.id);
        }
        self.drops.extend(old);
        self.queue = queue;
        self.index = self.queue.iter().map(|it| (it.id, it.cost)).collect();
        self.total_polygons = self.queue.iter().map(|it| it.cost.polygons).sum();
        self.total_texture = self.queue.iter().map(|it| it.cost.texture_bytes).sum();
        let mut caps = caps.to_vec();
        caps.sort_by_key(|c| c.0);
        self.caps = caps;
        self.checkpoints.clear();
        self.checkpoints.push(Ledger::from_caps(&self.caps, true));
        self.replay_from = 0;
        self.planned = true;
        self.replan(splitter)
    }

    /// Re-establish an exact plan by replaying the engine from the first
    /// affected queue position, returning the minimal diff. A clean
    /// state returns an empty diff without touching the ledger. On
    /// [`PlaceError`] the state stays dirty (with the consistent prefix
    /// retained) so a later replan — after recruiting capacity — can
    /// resume.
    pub fn replan(
        &mut self,
        mut splitter: impl FnMut(NodeId) -> Option<[(NodeId, NodeCost); 2]>,
    ) -> Result<PlanDiff, PlaceError> {
        assert!(self.planned, "replan() before any full_rebuild()");
        // Unit-removal drops are drained up front; split-parent drops
        // accrue into `diff.dropped` during the replay. The two stay
        // separate until the epilogue: a drained id that re-entered the
        // queue reconciles into a *move* from its pre-drop holder, which
        // the split compaction must not mistake for a phantom.
        let mut drained = std::mem::take(&mut self.drops);
        let mut diff = PlanDiff { full_replay: self.replay_from == 0, ..PlanDiff::default() };
        if self.replay_from == CLEAN {
            diff.dropped = drained;
            return Ok(diff);
        }
        // Clamp into checkpoint coverage: replaying *earlier* than
        // strictly necessary is always sound (recomputed choices match
        // the stored ones and emit no diff), and keeps the checkpoint
        // store dense.
        let mut p =
            self.replay_from.min(self.queue.len()).min(self.checkpoints.len() * CHECKPOINT_EVERY);
        // Every placement this call writes sits at a queue position >= the
        // entry point (splits only ever restart at or after the split
        // position), so an error can roll the whole call back by
        // re-marking replay from here.
        let entry_p = p;
        'pass: loop {
            // Restore the exact mid-plan ledger at position p: nearest
            // checkpoint at or before p, plus the recorded debits of the
            // positions between, then one sort (order is a pure function
            // of contents).
            let ck = (p / CHECKPOINT_EVERY).min(self.checkpoints.len() - 1);
            self.checkpoints.truncate(ck + 1);
            let mut ledger = self.checkpoints[ck].clone();
            for i in ck * CHECKPOINT_EVERY..p {
                let item = &self.queue[i];
                ledger.replay_debit(item.svc.expect("prefix is placed"), &item.cost);
            }
            ledger.restore_order();
            // When every service's basis texture room covers the whole
            // queue demand, the texture axis can never bind and first-fit
            // degenerates to "does the most spacious slot fit" — O(1).
            let texture_unbound =
                self.caps.iter().all(|&(_, h)| h.texture_bytes >= self.total_texture);
            let mut i = p;
            while i < self.queue.len() {
                if i.is_multiple_of(CHECKPOINT_EVERY)
                    && i / CHECKPOINT_EVERY == self.checkpoints.len()
                {
                    self.checkpoints.push(ledger.clone());
                }
                let cost = self.queue[i].cost;
                let chosen =
                    if texture_unbound { ledger.fit_poly_fast(&cost) } else { ledger.fit(&cost) };
                match chosen {
                    Some(svc) => {
                        let item = &mut self.queue[i];
                        if item.svc != Some(svc) {
                            diff.moved.push((item.id, item.svc, svc));
                        }
                        item.svc = Some(svc);
                        i += 1;
                    }
                    None => {
                        let id = self.queue[i].id;
                        match splitter(id) {
                            Some(children) => {
                                diff.splits += 1;
                                let parent = self.queue.remove(i);
                                self.index.remove(&parent.id);
                                if let Some(svc) = parent.svc {
                                    diff.dropped.push((parent.id, svc));
                                }
                                self.total_polygons -= parent.cost.polygons;
                                self.total_texture -= parent.cost.texture_bytes;
                                // Insert the halves at their *sorted*
                                // positions (not the cold engine's
                                // front-of-queue requeue): the stored
                                // plan must equal a cold pack of the
                                // final post-split queue, and children
                                // weigh no more than their parent, so
                                // they land at or after position i.
                                let mut restart = i;
                                for (cid, ccost) in children {
                                    if ccost.is_zero() {
                                        // Matches the eligibility filter:
                                        // a cold plan of the final scene
                                        // would not queue a zero-cost
                                        // node.
                                        continue;
                                    }
                                    let pos = self.lower_bound(item_key(&ccost, cid));
                                    self.queue
                                        .insert(pos, PlanItem { id: cid, cost: ccost, svc: None });
                                    self.index.insert(cid, ccost);
                                    self.total_polygons += ccost.polygons;
                                    self.total_texture += ccost.texture_bytes;
                                    restart = restart.min(pos);
                                }
                                diff.replayed += i.saturating_sub(p);
                                p = restart;
                                continue 'pass;
                            }
                            None => {
                                // The caller applies nothing on error, so
                                // the stored plan must keep describing the
                                // world: un-apply every placement this
                                // call wrote (first-seen old value wins —
                                // split restarts can touch an item twice)
                                // and leave the whole call dirty.
                                let mut committed: std::collections::HashMap<
                                    NodeId,
                                    Option<RenderServiceId>,
                                > = std::collections::HashMap::new();
                                for &(mid, old, _) in &diff.moved {
                                    committed.entry(mid).or_insert(old);
                                }
                                if !committed.is_empty() {
                                    for item in &mut self.queue {
                                        if let Some(&old) = committed.get(&item.id) {
                                            item.svc = old;
                                        }
                                    }
                                }
                                self.replay_from = entry_p;
                                drained.append(&mut diff.dropped);
                                self.drops = drained;
                                return Err(PlaceError::Indivisible {
                                    item: id,
                                    polygons: cost.polygons,
                                    largest_headroom: ledger.largest_poly_headroom(),
                                });
                            }
                        }
                    }
                }
            }
            diff.replayed += i.saturating_sub(p);
            break;
        }
        if diff.splits > 0 {
            // A split restart re-replays positions it already placed this
            // call, so the raw diff can name a workload twice (or name a
            // child that was placed and then itself re-split — a
            // placement the caller never saw). Compact to one entry per
            // workload: first-seen old, last-seen new, no-ops and
            // never-committed phantoms dropped.
            let mut compact: std::collections::BTreeMap<
                NodeId,
                (Option<RenderServiceId>, RenderServiceId),
            > = std::collections::BTreeMap::new();
            for &(id, old, new) in &diff.moved {
                compact.entry(id).and_modify(|e| e.1 = new).or_insert((old, new));
            }
            // A workload dropped by a split only concerns the caller at
            // its *committed* placement: cancel drops of children that
            // never committed, and address the rest at their committed
            // home.
            let mut retained = Vec::with_capacity(diff.dropped.len());
            for (id, svc) in diff.dropped.drain(..) {
                match compact.remove(&id) {
                    Some((None, _)) => {}
                    Some((Some(home), _)) => retained.push((id, home)),
                    None => retained.push((id, svc)),
                }
            }
            diff.dropped = retained;
            diff.moved = compact
                .into_iter()
                .filter(|&(_, (old, new))| old != Some(new))
                .map(|(id, (old, new))| (id, old, new))
                .collect();
        }
        if !drained.is_empty() {
            // A workload removed and re-added between replans (same id)
            // is a move from its pre-drop holder, not a drop plus a
            // fresh placement: fold the drained drop into the move's
            // `old` side so the diff applies order-independently, and a
            // same-home round trip vanishes as a no-op.
            let mut prior: std::collections::BTreeMap<NodeId, RenderServiceId> =
                drained.into_iter().collect();
            diff.moved.retain_mut(|m| {
                if m.1.is_none() {
                    m.1 = prior.remove(&m.0);
                }
                m.1 != Some(m.2)
            });
            diff.dropped.extend(prior);
        }
        self.replay_from = CLEAN;
        Ok(diff)
    }

    /// The cost `id` is queued under, if any.
    fn cost_in_queue(&self, id: NodeId) -> Option<NodeCost> {
        self.index.get(&id).copied()
    }

    /// Exact position of a queued `(cost, id)` via binary search.
    fn position_of(&self, cost: &NodeCost, id: NodeId) -> Option<usize> {
        let pos = self.lower_bound(item_key(cost, id));
        (pos < self.queue.len() && self.queue[pos].id == id).then_some(pos)
    }

    fn lower_bound(&self, key: (std::cmp::Reverse<u64>, NodeId)) -> usize {
        self.queue.partition_point(|it| item_key(&it.cost, it.id) < key)
    }

    fn mark_replay(&mut self, pos: usize) {
        self.replay_from = self.replay_from.min(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::placement::place_with_splitting;

    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn caps(spec: &[(u64, u64)]) -> Vec<(RenderServiceId, Headroom)> {
        spec.iter()
            .map(|&(id, polys)| {
                (RenderServiceId(id), Headroom { polygons: polys, texture_bytes: 1 << 40 })
            })
            .collect()
    }

    fn units(n: usize, seed: u64) -> Vec<(NodeId, NodeCost)> {
        let mut s = seed;
        (0..n)
            .map(|i| {
                (
                    NodeId(i as u64 + 1),
                    NodeCost {
                        polygons: 1 + lcg(&mut s) % 500,
                        points: lcg(&mut s) % 100,
                        texture_bytes: lcg(&mut s) % 1000,
                        ..NodeCost::ZERO
                    },
                )
            })
            .collect()
    }

    fn cold(
        units: &[(NodeId, NodeCost)],
        basis: &[(RenderServiceId, Headroom)],
    ) -> Vec<(RenderServiceId, Vec<NodeId>, NodeCost)> {
        let mut ledger = Ledger::from_caps(basis, true);
        place_with_splitting(&mut ledger, units.to_vec(), |_| None).unwrap().assignments
    }

    fn assignment_map(
        assignments: &[(RenderServiceId, Vec<NodeId>, NodeCost)],
    ) -> std::collections::BTreeMap<NodeId, RenderServiceId> {
        assignments.iter().flat_map(|(svc, nodes, _)| nodes.iter().map(|&n| (n, *svc))).collect()
    }

    #[test]
    fn full_rebuild_matches_the_cold_engine() {
        let basis = caps(&[(1, 40_000), (2, 30_000), (3, 25_000), (4, 20_000)]);
        let us = units(400, 7);
        let mut state = PlanState::new();
        let diff = state.full_rebuild(us.clone(), &basis, |_| None).unwrap();
        assert_eq!(state.assignments(), cold(&us, &basis));
        assert_eq!(diff.moved.len(), us.len(), "every unit placed for the first time");
        assert!(diff.moved.iter().all(|&(_, old, _)| old.is_none()));
        assert!(diff.dropped.is_empty());
        assert!(diff.full_replay);
        assert!(!state.is_dirty());
    }

    #[test]
    fn localized_edit_replays_a_suffix_and_stays_exact() {
        let basis = caps(&[(1, 500_000), (2, 400_000), (3, 300_000)]);
        let mut us = units(3000, 11);
        let mut state = PlanState::new();
        state.full_rebuild(us.clone(), &basis, |_| None).unwrap();
        let before = assignment_map(&state.assignments());

        // Shrink a light tail workload: everything before its queue
        // position is provably unaffected.
        let victim = us.iter().min_by_key(|(id, c)| (c.render_weight(), *id)).unwrap().0;
        let new_cost = NodeCost { polygons: 1, ..NodeCost::ZERO };
        us.iter_mut().find(|(id, _)| *id == victim).unwrap().1 = new_cost;
        state.note_unit(victim, Some(new_cost));
        assert!(state.is_dirty());
        let diff = state.replan(|_| None).unwrap();

        assert!(!diff.full_replay);
        assert!(
            diff.replayed < us.len() / 2,
            "tail edit replayed {} of {} positions",
            diff.replayed,
            us.len()
        );
        assert_eq!(state.assignments(), cold(&us, &basis));
        // The diff is exactly the delta between the two assignment maps.
        let mut patched = before.clone();
        for &(id, old, new) in &diff.moved {
            assert_eq!(patched.insert(id, new), old, "diff old-value mismatch for {id:?}");
        }
        for (id, _) in &diff.dropped {
            patched.remove(id);
        }
        assert_eq!(patched, assignment_map(&state.assignments()));
    }

    #[test]
    fn capacity_change_is_a_full_replay_but_exact() {
        let basis = caps(&[(1, 200_000), (2, 200_000)]);
        let us = units(300, 3);
        let mut state = PlanState::new();
        state.full_rebuild(us.clone(), &basis, |_| None).unwrap();
        let before = assignment_map(&state.assignments());

        let shrunk = caps(&[(1, 50_000), (2, 200_000)]);
        state.note_caps(&shrunk);
        assert!(state.is_dirty());
        let diff = state.replan(|_| None).unwrap();
        assert!(diff.full_replay);
        assert_eq!(state.assignments(), cold(&us, &shrunk));
        let mut patched = before;
        for &(id, _, new) in &diff.moved {
            patched.insert(id, new);
        }
        assert_eq!(patched, assignment_map(&state.assignments()));
        // Re-noting identical caps accrues nothing.
        state.note_caps(&shrunk);
        assert!(!state.is_dirty());
    }

    #[test]
    fn removals_drop_and_inserts_place() {
        let basis = caps(&[(1, 50_000), (2, 50_000)]);
        let mut us = units(200, 5);
        let mut state = PlanState::new();
        state.full_rebuild(us.clone(), &basis, |_| None).unwrap();

        let gone = us[17].0;
        let held = state.assignment(gone).unwrap();
        us.retain(|(id, _)| *id != gone);
        state.note_unit(gone, None);
        let newcomer = (NodeId(9_999), NodeCost::polygons(777));
        us.push(newcomer);
        state.note_unit(newcomer.0, Some(newcomer.1));

        let diff = state.replan(|_| None).unwrap();
        assert!(diff.dropped.contains(&(gone, held)));
        assert!(diff.moved.iter().any(|&(id, old, _)| id == newcomer.0 && old.is_none()));
        assert_eq!(state.assignments(), cold(&us, &basis));
        assert_eq!(state.assignment(gone), None);
    }

    #[test]
    fn a_pass_replans_exactly_when_something_is_dirty() {
        use crate::distribution::plan_incremental;
        use rave_math::Vec3;
        use rave_scene::{MeshData, NodeKind, SceneTree};
        use std::sync::Arc;

        let mesh = |tris: usize| {
            let triangle = vec![Vec3::ZERO, Vec3::X, Vec3::Y];
            NodeKind::Mesh(Arc::new(MeshData::new(triangle, vec![[0, 1, 2]; tris])))
        };
        let mut scene = SceneTree::new();
        let root = scene.root();
        let ids: Vec<NodeId> =
            (0..40).map(|i| scene.add_node(root, format!("m{i}"), mesh(10 + i)).unwrap()).collect();
        let mut basis = caps(&[(1, 1_000), (2, 1_000)]);
        let mut state = PlanState::new();
        plan_incremental(&mut scene, &basis, &mut state, 0.0).unwrap().expect("first pass plans");

        // A clean state is left alone: no replan, no checkpoint touched.
        let checkpoints = format!("{:?}", state.checkpoints);
        assert_eq!(plan_incremental(&mut scene, &basis, &mut state, 0.0), Ok(None));
        assert_eq!(format!("{:?}", state.checkpoints), checkpoints);

        // One polygon more on one mesh replans.
        scene.node_mut(ids[7]).unwrap().set_kind(mesh(18));
        let diff = plan_incremental(&mut scene, &basis, &mut state, 0.0).unwrap();
        assert!(diff.expect("an edit replans").replayed > 0);
        assert!(!state.is_dirty());

        // One polygon less on one service replays the whole queue.
        basis[0].1.polygons -= 1;
        let diff = plan_incremental(&mut scene, &basis, &mut state, 0.0).unwrap();
        let diff = diff.expect("a basis change replans");
        assert!(diff.full_replay);
        assert_eq!(diff.replayed, state.len());
    }

    #[test]
    fn split_during_replay_matches_cold_plan_of_the_final_state() {
        let basis = caps(&[(1, 60), (2, 60)]);
        let big = (NodeId(10), NodeCost::polygons(100));
        let small = (NodeId(20), NodeCost::polygons(10));
        let splitter = |id: NodeId| {
            (id == NodeId(10)).then(|| {
                [(NodeId(11), NodeCost::polygons(50)), (NodeId(12), NodeCost::polygons(50))]
            })
        };
        let mut state = PlanState::new();
        let diff = state.full_rebuild(vec![big, small], &basis, splitter).unwrap();
        assert_eq!(diff.splits, 1);
        // The parent never committed anywhere, so its drop is cancelled.
        assert!(diff.dropped.is_empty());
        let final_units =
            vec![(NodeId(11), NodeCost::polygons(50)), (NodeId(12), NodeCost::polygons(50)), small];
        assert_eq!(state.assignments(), cold(&final_units, &basis));
        assert_eq!(state.assignment(NodeId(10)), None);
    }

    #[test]
    fn place_error_rolls_the_call_back_and_resumes_later() {
        let basis = caps(&[(1, 1_000)]);
        let us = vec![(NodeId(1), NodeCost::polygons(900)), (NodeId(2), NodeCost::polygons(400))];
        let mut state = PlanState::new();
        let err = state.full_rebuild(us, &basis, |_| None).unwrap_err();
        assert!(matches!(err, PlaceError::Indivisible { item: NodeId(2), .. }));
        // Nothing committed: the stored plan still describes a world with
        // no placements at all.
        assert_eq!(state.assignment(NodeId(1)), None);
        assert!(state.is_dirty());

        // Capacity arrives; the resumed replan places everything.
        state.note_caps(&caps(&[(1, 1_000), (2, 500)]));
        let diff = state.replan(|_| None).unwrap();
        assert_eq!(diff.moved.len(), 2);
        assert_eq!(
            state.assignments(),
            cold(
                &[(NodeId(1), NodeCost::polygons(900)), (NodeId(2), NodeCost::polygons(400))],
                &caps(&[(1, 1_000), (2, 500)])
            )
        );
    }

    #[test]
    fn checkpointed_replay_crosses_checkpoint_boundaries_exactly() {
        // Enough units to span several checkpoints; edit near the tail so
        // the replay must restore from a late checkpoint.
        let basis = caps(&[(1, u64::MAX / 8), (2, u64::MAX / 8), (3, u64::MAX / 8)]);
        let mut us = units(CHECKPOINT_EVERY * 3 + 100, 21);
        let mut state = PlanState::new();
        state.full_rebuild(us.clone(), &basis, |_| None).unwrap();

        let victim = us.iter().min_by_key(|(id, c)| (c.render_weight(), *id)).unwrap().0;
        let new_cost = NodeCost { polygons: 2, ..NodeCost::ZERO };
        us.iter_mut().find(|(id, _)| *id == victim).unwrap().1 = new_cost;
        state.note_unit(victim, Some(new_cost));
        let diff = state.replan(|_| None).unwrap();
        assert!(diff.replayed <= CHECKPOINT_EVERY + 100 + 1, "replayed {}", diff.replayed);
        assert_eq!(state.assignments(), cold(&us, &basis));
    }
}
