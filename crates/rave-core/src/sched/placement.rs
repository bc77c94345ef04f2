//! The placement engine: capacity-aware first-fit-decreasing bin-packing
//! with spatial splitting, over a headroom ledger built from interrogated
//! [`CapacityReport`]s. Dataset distribution, migration shedding,
//! failover re-planning and tile/volume participant ranking all make
//! their choices here; the rebalance event path records each of its with
//! the candidates [`Ledger::slot_states`] lists, as a `SchedDecision` trace
//! row.

use crate::capacity::{CapacityReport, Headroom};
use crate::ids::RenderServiceId;
use rave_scene::{NodeCost, NodeId};
use std::collections::VecDeque;

/// One candidate service's remaining room in the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    pub service: RenderServiceId,
    pub room: Headroom,
}

/// Remaining headroom per candidate service. Ordered most-spacious first
/// (polygon headroom descending, service id ascending as the tiebreak);
/// `keep_sorted` re-establishes that order after every debit — the
/// distribution planner's policy — while migration-style ledgers keep
/// their initial order.
#[derive(Debug, Clone)]
pub struct Ledger {
    slots: Vec<Slot>,
    keep_sorted: bool,
    /// A recruit was `push`ed since the last full sort, so the tail is
    /// out of order and the next successful fit must re-sort everything
    /// (exactly what the historical full re-sort after every debit did).
    /// While false, a debit only moves the one slot whose key shrank.
    stale_tail: bool,
}

impl Ledger {
    pub fn from_reports(reports: &[CapacityReport], keep_sorted: bool) -> Self {
        let slots =
            reports.iter().map(|r| Slot { service: r.service, room: r.headroom() }).collect();
        let mut ledger = Self { slots, keep_sorted, stale_tail: false };
        ledger.sort();
        ledger
    }

    /// Build from an explicit per-service headroom basis — the
    /// incremental planner's capacity snapshot, which carries no host
    /// strings or fps telemetry. Produces exactly the ledger
    /// [`Ledger::from_reports`] would for reports with these headrooms.
    pub fn from_caps(caps: &[(RenderServiceId, Headroom)], keep_sorted: bool) -> Self {
        let slots = caps.iter().map(|&(service, room)| Slot { service, room }).collect();
        let mut ledger = Self { slots, keep_sorted, stale_tail: false };
        ledger.sort();
        ledger
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn sort(&mut self) {
        self.slots
            .sort_by(|a, b| b.room.polygons.cmp(&a.room.polygons).then(a.service.cmp(&b.service)));
    }

    /// Re-establish ledger order after debiting `slots[idx]`. Only that
    /// slot's key shrank, so it can only move towards the tail: binary
    /// search its new position among the (still sorted) slots after it
    /// and rotate it into place — O(log s) + the move distance, instead
    /// of the O(s log s) full re-sort. Ties resolve exactly as the
    /// stable full sort did: equal keys keep the debited slot first.
    fn resift(&mut self, idx: usize) {
        let key = |s: &Slot| (std::cmp::Reverse(s.room.polygons), s.service);
        let k = key(&self.slots[idx]);
        let shift = self.slots[idx + 1..].partition_point(|s| key(s) < k);
        self.slots[idx..=idx + shift].rotate_left(1);
    }

    /// Append a late-arriving candidate (a recruit) without disturbing
    /// the existing order.
    pub fn push(&mut self, service: RenderServiceId, room: Headroom) {
        self.slots.push(Slot { service, room });
        self.stale_tail = true;
    }

    /// The biggest single-service polygon headroom (the `IndivisibleNode`
    /// refusal's explanatory number).
    pub fn largest_poly_headroom(&self) -> u64 {
        self.slots.iter().map(|s| s.room.polygons).max().unwrap_or(0)
    }

    /// First-fit: the first slot (in ledger order) whose remaining room
    /// covers `cost` on both capacity axes takes it and is debited.
    pub fn fit(&mut self, cost: &NodeCost) -> Option<RenderServiceId> {
        let idx = self.slots.iter().position(|s| s.room.fits(cost))?;
        self.slots[idx].room.debit(cost);
        let svc = self.slots[idx].service;
        if self.keep_sorted {
            if self.stale_tail {
                self.sort();
                self.stale_tail = false;
            } else {
                self.resift(idx);
            }
        }
        Some(svc)
    }

    /// Replay a recorded debit against slot *contents* without touching
    /// the order — checkpoint catch-up in the incremental planner, which
    /// restores order once with [`Ledger::restore_order`] after the whole
    /// prefix is re-applied. Sound because the keep-sorted order is a
    /// pure function of slot contents: the `(polygons desc, service asc)`
    /// key is a strict total order (service ids are unique), so sorting
    /// the caught-up contents reproduces exactly the order the original
    /// fit-by-fit resifts maintained.
    pub(crate) fn replay_debit(&mut self, service: RenderServiceId, cost: &NodeCost) {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.service == service)
            .expect("recorded placement names a live slot");
        slot.room.debit(cost);
    }

    /// Re-establish the canonical keep-sorted order after a run of
    /// [`Ledger::replay_debit`]s.
    pub(crate) fn restore_order(&mut self) {
        self.sort();
        self.stale_tail = false;
    }

    /// First-fit when the texture axis provably cannot bind (every
    /// slot's remaining texture room covers the whole remaining demand):
    /// the slots are sorted by polygon room descending, so the *first*
    /// slot either fits or nothing does — no scan. Callers must only use
    /// this under that precondition and with `keep_sorted`; the decision
    /// and resulting state are then identical to [`Ledger::fit`].
    pub(crate) fn fit_poly_fast(&mut self, cost: &NodeCost) -> Option<RenderServiceId> {
        debug_assert!(self.keep_sorted && !self.stale_tail);
        let first = self.slots.first_mut()?;
        if first.room.polygons < cost.polygons {
            return None;
        }
        first.room.debit(cost);
        let svc = first.service;
        self.resift(0);
        Some(svc)
    }

    /// Slot order snapshot `(service, polygon room)`: the candidates a
    /// `SchedDecision` trace row lists, and what property tests pin the
    /// incremental resift against a naive re-sort by.
    pub fn slot_states(&self) -> Vec<(RenderServiceId, u64)> {
        self.slots.iter().map(|s| (s.service, s.room.polygons)).collect()
    }
}

/// Why the engine could not place everything.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// A single unsplittable item exceeds every candidate's room.
    Indivisible { item: NodeId, polygons: u64, largest_headroom: u64 },
}

/// What a full placement pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementOutcome {
    /// Per-service `(nodes, total cost)`, ordered by service id.
    pub assignments: Vec<(RenderServiceId, Vec<NodeId>, NodeCost)>,
    /// Spatial splits performed to make things fit.
    pub splits: u32,
}

/// First-fit-decreasing with spatial splitting: items are ordered largest
/// render weight first (id ascending as tiebreak), each goes to the first
/// ledger slot that fits, and an item nothing can hold is split via
/// `splitter` — larger half requeued first — or the pass fails with
/// [`PlaceError::Indivisible`].
///
/// This is exactly the pre-refactor `plan_distribution` packing loop,
/// extracted so migration and failover re-plans flow through the same
/// code — with the queue held in a `VecDeque` so the front pop and the
/// front re-queue of split halves are O(1) instead of shifting the whole
/// remaining queue (the pre-refactor `Vec::remove(0)`/`insert(0)` made
/// large plans quadratic). The pop order is bit-identical: a `VecDeque`
/// preserves FIFO order exactly, including split halves jumping the
/// queue ahead of possibly-heavier items behind them — which is why this
/// is not a weight-keyed heap.
pub fn place_with_splitting(
    ledger: &mut Ledger,
    queue: Vec<(NodeId, NodeCost)>,
    splitter: impl FnMut(NodeId) -> Option<[(NodeId, NodeCost); 2]>,
) -> Result<PlacementOutcome, PlaceError> {
    let mut sorted = queue;
    let mut splitter = splitter;
    // Unstable sort is safe: the (weight desc, id asc) key is a strict
    // total order — ids are unique — so no equal elements exist for
    // instability to reorder.
    sorted
        .sort_unstable_by(|a, b| b.1.render_weight().cmp(&a.1.render_weight()).then(a.0.cmp(&b.0)));
    let mut queue: VecDeque<(NodeId, NodeCost)> = sorted.into();
    let mut assignments: std::collections::BTreeMap<RenderServiceId, (Vec<NodeId>, NodeCost)> =
        std::collections::BTreeMap::new();
    let mut splits = 0u32;

    while let Some((id, cost)) = queue.pop_front() {
        match ledger.fit(&cost) {
            Some(svc) => {
                let entry = assignments.entry(svc).or_default();
                entry.0.push(id);
                entry.1 += cost;
            }
            None => match splitter(id) {
                Some([(a, ca), (b, cb)]) => {
                    splits += 1;
                    // Push the larger half first (still decreasing-ish).
                    if ca.render_weight() >= cb.render_weight() {
                        queue.push_front((b, cb));
                        queue.push_front((a, ca));
                    } else {
                        queue.push_front((a, ca));
                        queue.push_front((b, cb));
                    }
                }
                None => {
                    return Err(PlaceError::Indivisible {
                        item: id,
                        polygons: cost.polygons,
                        largest_headroom: ledger.largest_poly_headroom(),
                    });
                }
            },
        }
    }

    Ok(PlacementOutcome {
        assignments: assignments
            .into_iter()
            .map(|(service, (nodes, cost))| (service, nodes, cost))
            .collect(),
        splits,
    })
}

/// Rank assisting services strongest-first by advertised headroom,
/// dropping those that can contribute nothing (zero headroom) and
/// truncating to `cap` participants. This is the tile planner's
/// participant-selection primitive, shared with volume placement.
///
/// When far more helpers report in than `cap` admits, selecting the
/// top-`cap` with `select_nth_unstable_by_key` and sorting only that
/// slice is O(n + cap log cap) instead of sorting the whole roster.
/// Ties are resolved exactly as the historical stable sort did: the key
/// includes each helper's filtered input index, which is the total order
/// a stable sort on `Reverse(weight)` alone induces.
pub fn rank_helpers(helpers: &[CapacityReport], cap: usize) -> Vec<&CapacityReport> {
    let mut ordered: Vec<(usize, &CapacityReport)> =
        helpers.iter().filter(|r| r.headroom_weight() > 0).enumerate().collect();
    let key = |&(idx, r): &(usize, &CapacityReport)| (std::cmp::Reverse(r.headroom_weight()), idx);
    if cap == 0 {
        return Vec::new();
    }
    if ordered.len() > cap {
        ordered.select_nth_unstable_by_key(cap - 1, key);
        ordered.truncate(cap);
    }
    ordered.sort_unstable_by_key(key);
    ordered.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: u64, polys: u64) -> CapacityReport {
        CapacityReport {
            service: RenderServiceId(id),
            host: format!("h{id}"),
            polys_per_sec: 1e7,
            poly_headroom: polys,
            texture_headroom: u64::MAX,
            volume_hw: false,
            assigned: NodeCost::ZERO,
            rolling_fps: None,
        }
    }

    fn polys(n: u64) -> NodeCost {
        NodeCost { polygons: n, ..NodeCost::ZERO }
    }

    #[test]
    fn ledger_orders_most_spacious_first() {
        let mut ledger =
            Ledger::from_reports(&[report(1, 100), report(2, 500), report(3, 500)], true);
        // Ties break by id ascending; biggest headroom wins.
        assert_eq!(ledger.fit(&polys(10)), Some(RenderServiceId(2)));
        assert_eq!(ledger.largest_poly_headroom(), 500);
    }

    #[test]
    fn keep_sorted_reorders_after_debit() {
        let mut sorted = Ledger::from_reports(&[report(1, 500), report(2, 400)], true);
        assert_eq!(sorted.fit(&polys(300)), Some(RenderServiceId(1)));
        // 1 now holds 200 < 400: service 2 takes the next item.
        assert_eq!(sorted.fit(&polys(300)), Some(RenderServiceId(2)));

        let mut fixed = Ledger::from_reports(&[report(1, 500), report(2, 400)], false);
        assert_eq!(fixed.fit(&polys(300)), Some(RenderServiceId(1)));
        // Without resorting, 1 (200 left) is still first but cannot fit.
        assert_eq!(fixed.fit(&polys(300)), Some(RenderServiceId(2)));
        assert_eq!(fixed.fit(&polys(150)), Some(RenderServiceId(1)));
    }

    #[test]
    fn slot_states_list_the_candidates_a_fit_considers() {
        let mut ledger = Ledger::from_reports(&[report(1, 100), report(2, 50)], true);
        let (rs1, rs2) = (RenderServiceId(1), RenderServiceId(2));
        assert_eq!(ledger.slot_states(), vec![(rs1, 100), (rs2, 50)]);
        assert_eq!(ledger.fit(&polys(80)), Some(rs1));
        assert_eq!(ledger.slot_states(), vec![(rs2, 50), (rs1, 20)]);
        assert_eq!(ledger.fit(&polys(500)), None);
    }

    #[test]
    fn place_with_splitting_splits_until_it_fits() {
        let mut ledger = Ledger::from_reports(&[report(1, 60), report(2, 60)], true);
        // One 100-poly item, splittable in halves down to single polys.
        let out = place_with_splitting(&mut ledger, vec![(NodeId(10), polys(100))], |id| {
            let half = NodeId(id.0 * 2);
            let other = NodeId(id.0 * 2 + 1);
            Some([(half, polys(50)), (other, polys(50))])
        })
        .unwrap();
        assert_eq!(out.splits, 1);
        let placed: u64 = out.assignments.iter().map(|(_, _, c)| c.polygons).sum();
        assert_eq!(placed, 100);
    }

    #[test]
    fn place_with_splitting_reports_indivisible() {
        let mut ledger = Ledger::from_reports(&[report(1, 60)], true);
        let err =
            place_with_splitting(&mut ledger, vec![(NodeId(1), polys(100))], |_| None).unwrap_err();
        assert_eq!(
            err,
            PlaceError::Indivisible { item: NodeId(1), polygons: 100, largest_headroom: 60 }
        );
    }

    #[test]
    fn rank_helpers_drops_dead_and_truncates() {
        let helpers = [report(1, 0), report(2, 10), report(3, 500), report(4, 50)];
        let ranked = rank_helpers(&helpers, 2);
        let ids: Vec<u64> = ranked.iter().map(|r| r.service.0).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn rank_helpers_preserves_input_order_for_ties() {
        // Equal-weight helpers must rank in input order (the historical
        // stable sort's behavior), including across the truncation cut.
        let helpers = [
            report(9, 50),
            report(3, 50),
            report(7, 100),
            report(5, 50),
            report(1, 50),
            report(8, 100),
        ];
        // Reference: stable sort + truncate.
        let reference = |cap: usize| {
            let mut ordered: Vec<&CapacityReport> =
                helpers.iter().filter(|r| r.headroom_weight() > 0).collect();
            ordered.sort_by_key(|r| std::cmp::Reverse(r.headroom_weight()));
            ordered.truncate(cap);
            ordered.iter().map(|r| r.service.0).collect::<Vec<u64>>()
        };
        for cap in 0..=helpers.len() + 1 {
            let ids: Vec<u64> = rank_helpers(&helpers, cap).iter().map(|r| r.service.0).collect();
            assert_eq!(ids, reference(cap), "cap {cap}");
        }
        // The tie-break is input position, not service id: 9 before 3.
        let full: Vec<u64> = rank_helpers(&helpers, 6).iter().map(|r| r.service.0).collect();
        assert_eq!(full, vec![7, 8, 9, 3, 5, 1]);
    }

    #[test]
    fn ledger_incremental_resift_matches_full_resort() {
        // Drive two ledgers through the same debit sequence: one via the
        // production `fit` (incremental resift), one re-sorted from
        // scratch after every debit. Slot order must stay identical,
        // including ties (equal keys keep the debited slot first, exactly
        // as a stable full sort does).
        let reports: Vec<CapacityReport> = [(1u64, 100u64), (2, 100), (3, 80), (4, 100), (5, 60)]
            .iter()
            .map(|&(id, p)| report(id, p))
            .collect();
        let mut fast = Ledger::from_reports(&reports, true);
        let mut slow: Vec<(u64, u64)> =
            reports.iter().map(|r| (r.service.0, r.poly_headroom)).collect();
        slow.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let costs = [40u64, 40, 5, 100, 20, 30, 1, 1, 60];
        for &c in &costs {
            let cost = polys(c);
            let picked = fast.fit(&cost).map(|s| s.0);
            let idx = slow.iter().position(|&(_, p)| c <= p);
            let expect = idx.map(|i| {
                slow[i].1 -= c;
                let svc = slow[i].0;
                slow.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                svc
            });
            assert_eq!(picked, expect, "cost {c}");
            let fast_order: Vec<(u64, u64)> =
                fast.slots.iter().map(|s| (s.service.0, s.room.polygons)).collect();
            assert_eq!(fast_order, slow, "slot order diverged after cost {c}");
        }
    }

    #[test]
    fn ledger_push_resorts_on_next_fit() {
        // A recruit appended via `push` lands at the tail; the next
        // successful fit must scan in that order (sorted prefix, then the
        // tail) and then restore full sorted order — the historical
        // behavior of re-sorting after every debit.
        let mut ledger = Ledger::from_reports(&[report(1, 50), report(2, 40)], true);
        ledger.push(RenderServiceId(3), Headroom { polygons: 100, texture_bytes: 1 << 40 });
        // 60 only fits the recruit even though it sits after smaller slots.
        assert_eq!(ledger.fit(&polys(60)), Some(RenderServiceId(3)));
        // The post-fit sort put the recruit's remaining 40 among the rest:
        // order is (1,50), (2,40), (3,40) — service id breaks the tie.
        let order: Vec<(u64, u64)> =
            ledger.slots.iter().map(|s| (s.service.0, s.room.polygons)).collect();
        assert_eq!(order, vec![(1, 50), (2, 40), (3, 40)]);
        // Subsequent fits use the incremental path again.
        assert_eq!(ledger.fit(&polys(45)), Some(RenderServiceId(1)));
        let order: Vec<(u64, u64)> =
            ledger.slots.iter().map(|s| (s.service.0, s.room.polygons)).collect();
        assert_eq!(order, vec![(2, 40), (3, 40), (1, 5)]);
    }
}
