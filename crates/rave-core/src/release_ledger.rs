//! The data service's release ledger: which render services still hold,
//! in their cache, the payload of a master node they handed on (§3.2.7's
//! migrations, in the single-hop form of a network data cache: the data is
//! cached once, near its consumer). A move back to such a service sends
//! the records it holds as a header, not as their payload.
//!
//! The data service decides every move, so it can mirror each service's
//! cache without a message: a donor caches what it releases while that
//! fits the texture memory it has left, the receiver of a node re-attaches
//! its cached copy, and an edit of the node's payload in the master
//! outdates every copy. The layout is flat — one entry per master node,
//! indexed by node id, holding a bitmask of up to [`MAX_SERVICES`] services
//! — because the move path runs hundreds of times a round: DESIGN §5.16
//! measures a hashed and a per-node-list layout against it.

use crate::ids::RenderServiceId;
use rave_scene::{Dirt, EditClass, EditStamp, NodeId, SceneTree};
use rave_sim::SimTime;

/// What a transfer costs at least: the header every record set carries.
pub const HEADER_BYTES: u64 = 256;

/// Services the ledger numbers. A service past them is never cached: it
/// pays the full charge, as every service did before the ledger.
pub const MAX_SERVICES: usize = 64;

/// Node ids the ledger keeps entries for. Ids are allocated densely by the
/// master; a node with an id past this (an id chosen by a client) is never
/// cached, so a stray id cannot size the table.
const MAX_NODES: u64 = 1 << 22;

/// One master node.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Bit `i`: the service numbered `i` caches the node's current payload.
    holders: u64,
    /// The payload's bytes, as the master costed it when the first holder
    /// was booked; an edit of the payload empties the entry first.
    bytes: u64,
    /// When the node's last move lands. A cached copy counts only from
    /// then on: a node still in flight is never served from the ledger.
    lands_at: SimTime,
}

const EMPTY: Entry = Entry { holders: 0, bytes: 0, lands_at: SimTime::ZERO };

/// A data service's record of released payloads (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReleaseLedger {
    /// By node id.
    entries: Vec<Entry>,
    /// By bit: the service numbered so, `None` once it left.
    services: Vec<Option<RenderServiceId>>,
    /// By bit: the bytes that service caches.
    cached: Vec<u64>,
    /// How far the master's edit journal has been read.
    seen: EditStamp,
}

impl ReleaseLedger {
    /// Read the master's edit journal past the last read: a node whose
    /// payload or place changed is cached nowhere any more, and a journal
    /// that cannot say what changed empties the ledger.
    pub(crate) fn sync(&mut self, scene: &mut SceneTree) {
        let dirt = scene.changes_since(self.seen, &[EditClass::Structure, EditClass::Payload]);
        self.seen = scene.edit_stamp();
        match dirt {
            Dirt::Clean => {}
            Dirt::Nodes(ids) => {
                for id in ids {
                    self.clear(id);
                }
            }
            Dirt::Everything => {
                self.entries.clear();
                self.cached.iter_mut().for_each(|bytes| *bytes = 0);
            }
        }
    }

    /// `service`'s bit, numbering it if it has none and a bit is free.
    pub(crate) fn bit(&mut self, service: RenderServiceId) -> Option<u32> {
        if let Some(bit) = self.services.iter().position(|&s| s == Some(service)) {
            return Some(bit as u32);
        }
        let bit = match self.services.iter().position(Option::is_none) {
            Some(free) => free,
            None if self.services.len() < MAX_SERVICES => {
                self.services.push(None);
                self.cached.push(0);
                self.services.len() - 1
            }
            None => return None,
        };
        self.services[bit] = Some(service);
        Some(bit as u32)
    }

    /// A service that left: it caches nothing, and its bit is free.
    pub(crate) fn forget(&mut self, service: RenderServiceId) {
        let Some(bit) = self.services.iter().position(|&s| s == Some(service)) else { return };
        let mask = !(1u64 << bit);
        self.entries.iter_mut().for_each(|e| e.holders &= mask);
        self.services[bit] = None;
        self.cached[bit] = 0;
    }

    /// How many of `records` the service numbered `bit` caches at `now`,
    /// and their bytes.
    pub(crate) fn held(
        &self,
        records: impl Iterator<Item = NodeId>,
        bit: u32,
        now: SimTime,
    ) -> (u64, u64) {
        records
            .filter_map(|id| self.entries.get(id.0 as usize))
            .filter(|e| e.holders & (1 << bit) != 0 && now >= e.lands_at)
            .fold((0, 0), |(count, bytes), e| (count + 1, bytes + e.bytes))
    }

    /// Book one move of `records` (each with its bytes) landing at
    /// `lands_at`: the receiver numbered `to` holds them live from now on,
    /// so its cached copies go; the donor, `(bit, room)`, caches each one
    /// whose bytes still fit under `room`, the texture memory it has left.
    pub(crate) fn book(
        &mut self,
        records: impl Iterator<Item = (NodeId, u64)>,
        from: Option<(u32, u64)>,
        to: Option<u32>,
        lands_at: SimTime,
    ) {
        for (id, bytes) in records {
            if id.0 >= MAX_NODES {
                continue;
            }
            let at = id.0 as usize;
            if at >= self.entries.len() {
                self.entries.resize(at + 1, EMPTY);
            }
            let entry = &mut self.entries[at];
            entry.lands_at = lands_at;
            if let Some(bit) = to {
                if entry.holders & (1 << bit) != 0 {
                    entry.holders &= !(1 << bit);
                    self.cached[bit as usize] -= entry.bytes;
                }
            }
            let Some((bit, room)) = from else { continue };
            if entry.holders == 0 {
                entry.bytes = bytes;
            }
            let cached = &mut self.cached[bit as usize];
            if entry.holders & (1 << bit) == 0 && *cached + entry.bytes <= room {
                entry.holders |= 1 << bit;
                *cached += entry.bytes;
            }
        }
    }

    /// `id` is cached nowhere.
    fn clear(&mut self, id: NodeId) {
        let Some(entry) = self.entries.get_mut(id.0 as usize) else { return };
        let mut holders = std::mem::take(&mut entry.holders);
        while holders != 0 {
            self.cached[holders.trailing_zeros() as usize] -= entry.bytes;
            holders &= holders - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_service::MoveTotals;
    use crate::ids::DataServiceId;
    use crate::sched::rebalance::MoveBatch;
    use crate::world::{RaveSim, RaveWorld};
    use crate::RaveConfig;
    use rave_math::Vec3;
    use rave_scene::{InterestSet, MeshData, NodeKind};
    use rave_sim::Simulation;
    use std::sync::Arc;

    /// `tris` copies of one triangle over `texture_bytes` of texture.
    fn mesh(tris: usize, texture_bytes: u64) -> NodeKind {
        NodeKind::Mesh(Arc::new(MeshData {
            positions: vec![Vec3::ZERO, Vec3::X, Vec3::Y],
            normals: vec![],
            colors: vec![],
            triangles: vec![[0, 1, 2]; tris],
            texture_bytes,
        }))
    }

    /// A data service on `adrenochrome`, one live subscriber holding
    /// nothing on each of `hosts`, and one node of `kind` under the root.
    fn world(
        hosts: &[&str],
        kind: NodeKind,
    ) -> (RaveSim, DataServiceId, Vec<RenderServiceId>, NodeId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 7));
        let ds = sim.world.spawn_data_service("adrenochrome", "sess");
        let services = hosts
            .iter()
            .map(|host| {
                let rs = sim.world.spawn_render_service(host);
                sim.world.data_mut(ds).subscribe_live(rs, InterestSet::subtrees([]));
                sim.world.render_mut(rs).interest = InterestSet::subtrees([]);
                rs
            })
            .collect();
        let scene = &mut sim.world.data_mut(ds).scene;
        let node = scene.add_node(scene.root(), "m", kind).unwrap();
        (sim, ds, services, node)
    }

    /// One batch moving `node` from `from` to `to`, decided now and landed
    /// unless `land` is false. Returns the bytes it put on the wire.
    fn move_node(
        sim: &mut RaveSim,
        ds: DataServiceId,
        node: NodeId,
        (from, to): (Option<RenderServiceId>, RenderServiceId),
        land: bool,
    ) -> u64 {
        let hosts = (sim.world.data(ds).host.clone(), sim.world.render(to).host.clone());
        let sent = |sim: &mut RaveSim| sim.world.channel(&hosts.0, &hosts.1).bytes_sent();
        let before = sent(sim);
        let cost = sim.world.data(ds).scene.subtree_cost(node);
        MoveBatch::new(ds).move_node(sim, node, from, to, &cost).unwrap();
        if land {
            sim.run();
        }
        sent(sim) - before
    }

    #[test]
    fn a_move_back_to_a_former_holder_is_charged_a_header() {
        let (mut sim, ds, rs, node) = world(&["desktop", "tower"], mesh(2_000, 0));
        let bytes = sim.world.data(ds).scene.subtree_cost(node).data_bytes;
        assert_eq!(move_node(&mut sim, ds, node, (None, rs[0]), true), bytes);
        assert_eq!(move_node(&mut sim, ds, node, (Some(rs[0]), rs[1]), true), bytes);
        assert_eq!(move_node(&mut sim, ds, node, (Some(rs[1]), rs[0]), true), HEADER_BYTES);
        // And on again: the receiver's cached copy went live, the donor's
        // is the one cached now.
        assert_eq!(move_node(&mut sim, ds, node, (Some(rs[0]), rs[1]), true), HEADER_BYTES);
        let totals = MoveTotals {
            moves: 4,
            payloads_cached: 2,
            payload_bytes_saved: 2 * (bytes - HEADER_BYTES),
        };
        assert_eq!(sim.world.data(ds).moves, totals);
        for (service, holds) in [(rs[0], false), (rs[1], true)] {
            assert_eq!(sim.world.render(service).scene.contains(node), holds);
        }
    }

    #[test]
    fn a_payload_edit_outdates_every_cached_copy() {
        let (mut sim, ds, rs, node) = world(&["desktop", "tower"], mesh(2_000, 0));
        move_node(&mut sim, ds, node, (None, rs[0]), true);
        move_node(&mut sim, ds, node, (Some(rs[0]), rs[1]), true);
        sim.world.data_mut(ds).scene.node_mut(node).unwrap().set_kind(mesh(3_000, 0));
        let bytes = sim.world.data(ds).scene.subtree_cost(node).data_bytes;
        assert_eq!(move_node(&mut sim, ds, node, (Some(rs[1]), rs[0]), true), bytes);
        assert_eq!(sim.world.data(ds).moves.payloads_cached, 0);
    }

    #[test]
    fn a_node_in_flight_is_not_served_from_the_cache() {
        let (mut sim, ds, rs, node) = world(&["desktop", "tower"], mesh(2_000, 0));
        let bytes = sim.world.data(ds).scene.subtree_cost(node).data_bytes;
        move_node(&mut sim, ds, node, (None, rs[0]), true);
        move_node(&mut sim, ds, node, (Some(rs[0]), rs[1]), false);
        assert_eq!(move_node(&mut sim, ds, node, (Some(rs[1]), rs[0]), true), bytes);
    }

    #[test]
    fn a_service_that_left_caches_nothing() {
        let (mut sim, ds, rs, node) = world(&["desktop", "tower"], mesh(2_000, 0));
        let bytes = sim.world.data(ds).scene.subtree_cost(node).data_bytes;
        move_node(&mut sim, ds, node, (None, rs[0]), true);
        move_node(&mut sim, ds, node, (Some(rs[0]), rs[1]), true);
        let data = sim.world.data_mut(ds);
        assert!(data.unsubscribe(rs[0]));
        assert_eq!(data.ledger.services, [None, Some(rs[1])], "its bit is free");
        assert!(data.ledger.entries.iter().all(|e| e.holders & 1 == 0));
        assert_eq!(data.ledger.cached[0], 0);
        data.subscribe_live(rs[0], InterestSet::subtrees([]));
        assert_eq!(move_node(&mut sim, ds, node, (Some(rs[1]), rs[0]), true), bytes);
    }

    /// A 32 MB laptop holding a 31 MB texture has 1 MB left: it does not
    /// cache the texture it releases, while a light node it does.
    #[test]
    fn a_machine_caches_only_what_fits_its_texture_memory() {
        for (texture, cached) in [(31 << 20, false), (1 << 20, true)] {
            let (mut sim, ds, rs, node) = world(&["laptop", "tower"], mesh(100, texture));
            assert_eq!(sim.world.render(rs[0]).machine.texture_memory, 32 << 20);
            let bytes = sim.world.data(ds).scene.subtree_cost(node).data_bytes;
            move_node(&mut sim, ds, node, (None, rs[0]), true);
            move_node(&mut sim, ds, node, (Some(rs[0]), rs[1]), true);
            let back = move_node(&mut sim, ds, node, (Some(rs[1]), rs[0]), true);
            assert_eq!(back, if cached { HEADER_BYTES } else { bytes }, "{texture} B of texture");
        }
    }

    #[test]
    fn a_service_past_the_numbering_is_never_cached() {
        let mut ledger = ReleaseLedger::default();
        for i in 0..MAX_SERVICES as u64 {
            assert_eq!(ledger.bit(RenderServiceId(i)), Some(i as u32));
        }
        assert_eq!(ledger.bit(RenderServiceId(99)), None);
        ledger.forget(RenderServiceId(5));
        assert_eq!(ledger.bit(RenderServiceId(99)), Some(5), "a freed bit is reused");
    }
}
