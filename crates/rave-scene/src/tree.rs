//! The scene tree proper: a flat generational arena with a hot/cold
//! data split.
//!
//! # Storage layout
//!
//! The paper's automatic distribution walks the scene constantly — the
//! planner costs and partitions it, interest management expands closures
//! over it, render services replay it. Up to 100k nodes the old
//! `BTreeMap<NodeId, Node>` held up; beyond that every traversal step was
//! a pointer chase that dragged node names, geometry handles and audit
//! versions through cache for no reason. Storage is now two parallel
//! slot-indexed arrays:
//!
//! - **hot** (`HotNode`): everything a traversal touches — intrusive
//!   topology links (parent / first–last child / prev–next sibling), the
//!   local transform, the node's own content cost, the one-byte
//!   [`KindTag`], and the slot generation;
//! - **cold** (`ColdNode`): everything it must not — the name, the full
//!   [`NodeKind`] payload, and the conflict-resolution version.
//!
//! A third slot-indexed array, `bounds`, keeps each node's own content box
//! ([`NodeKind::local_bounds`]) the way the hot array keeps the own-cost:
//! both are functions of the payload alone, written where the payload is
//! written, so neither [`SceneTree::world_bounds`] nor the renderer's tile
//! cull scans a vertex to bound a node whose payload did not change. A
//! box costs a pass over the payload's points where a cost is two field
//! reads, so the array exists only from the first time someone asks a
//! tree for bounds: a data service's tree, or a replica that never
//! renders, pays nothing for it.
//!
//! Slots of removed nodes go on a free list and are reused under a bumped
//! generation, so the arena stays dense under churn and stale internal
//! handles can never alias a recycled slot. External identity is still
//! [`NodeId`] — the u64 the data service allocates, never reuses, and
//! writes into every wire message — mapped to its slot by an O(1)
//! integer-keyed index. Wire bytes, JSON serde shape and id allocation
//! semantics are exactly the pre-arena ones (pinned by
//! `tests/wire_fixture.rs`).
//!
//! # Derived caches
//!
//! Two lazily built caches (invalidated by `&mut self` edits, rebuilt
//! once on the next `&self` query, shareable across rayon workers):
//!
//! - `FlatCache`: the pre-order slot sequence plus, per slot, its
//!   position and subtree length. Pre-order puts every subtree in one
//!   contiguous run, so [`SceneTree::descendants_iter`] is a slice walk —
//!   no stack, no hashing, no per-step branching — and `iter_nodes`' id
//!   order is one sorted slot list. One O(n) pass over hot data builds
//!   all of it.
//! - subtree costs: a dense per-slot `Vec<NodeCost>` aggregated in one
//!   reverse-pre-order pass (children before parents) over hot data
//!   only. This replaces the old `Mutex<HashMap>` cost index; kind edits
//!   invalidate costs but keep the structure cache, and
//!   [`SceneTree::set_transform`] deliberately invalidates neither (the
//!   per-frame motion stream must never force a rebuild — pinned by a
//!   regression test below).

use crate::camera::CameraParams;
use crate::cost::NodeCost;
use crate::node::{Interaction, KindTag, Node, NodeId, NodeKind, Transform};
use rave_math::{Aabb, Mat4, Vec3};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Sentinel for "no slot" in the intrusive topology links.
const NIL: u32 = u32::MAX;

/// Per-traversal node state. ~128 bytes, fetched sequentially by every
/// walk; nothing here owns an allocation.
#[derive(Debug, Clone)]
struct HotNode {
    id: NodeId,
    parent: u32,
    first_child: u32,
    last_child: u32,
    prev_sibling: u32,
    next_sibling: u32,
    child_count: u32,
    /// Bumped every time the slot is freed; an internal handle minted
    /// under an older generation can never alias the reused slot.
    generation: u32,
    alive: bool,
    tag: KindTag,
    transform: Transform,
    /// The node's *own* content cost (`NodeKind::cost()`), cached here so
    /// the subtree-cost rebuild never touches the cold payload.
    cost: NodeCost,
}

/// Cold per-node state: touched by lookups and edits, never by
/// traversal, costing or culling walks.
#[derive(Debug, Clone)]
struct ColdNode {
    name: String,
    kind: NodeKind,
    version: u64,
}

impl ColdNode {
    /// A freed slot's cold state: payload dropped, allocations released.
    fn vacant() -> Self {
        Self { name: String::new(), kind: NodeKind::Group, version: 0 }
    }
}

/// A node's own content box in its local frame, kept per slot so that no
/// walk re-derives it from the payload's vertices. Like [`HotNode::cost`]
/// a function of the cold payload alone, written wherever that is (once
/// the tree has been asked for bounds at all).
#[derive(Debug, Clone, Copy)]
struct PayloadBounds {
    /// [`NodeKind::local_bounds`], bit for bit.
    local: Aabb,
    /// `local` is a finite box and, for a mesh or a point cloud, no
    /// coordinate behind it is NaN (`Aabb::from_points` drops a NaN, so
    /// the box alone cannot tell): the box bounds every point a draw will
    /// transform. False for the empty box (a group, no points at all).
    finite: bool,
}

impl PayloadBounds {
    fn of(kind: &NodeKind) -> Self {
        let local = kind.local_bounds();
        let all_finite = |points: &[Vec3]| {
            points.iter().all(|p| p.x.is_finite() && p.y.is_finite() && p.z.is_finite())
        };
        let finite = all_finite(&[local.min, local.max])
            && match kind {
                NodeKind::Mesh(m) => all_finite(&m.positions),
                NodeKind::PointCloud(c) => all_finite(&c.points),
                _ => true,
            };
        Self { local, finite }
    }

    /// Bitwise equality: a volume with NaN spacing or a camera at a NaN
    /// position has a NaN box, which `==` would call stale against itself.
    fn same_bits(&self, other: &Self) -> bool {
        let bits = |b: &Self| {
            let (lo, hi) = (b.local.min, b.local.max);
            ([lo.x, lo.y, lo.z, hi.x, hi.y, hi.z].map(f32::to_bits), b.finite)
        };
        bits(self) == bits(other)
    }
}

/// Which render-visible state of which tree: equal stamps mean a render of
/// the tree reads exactly what it read when the first stamp was taken
/// ([`SceneTree::edit_stamp`]). It is also a position in that tree's edit
/// journal — the cursor [`SceneTree::changes_since`] reads from. Opaque;
/// only `==` means anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditStamp {
    /// Process-unique identity of the tree value, new for every `new`,
    /// `clone` and decode: a tree assigned over another (`rs.scene =
    /// replica`) must not pass for it because their edit counts coincide.
    tree: u64,
    /// Edits made to that tree so far: the position of its newest one.
    edits: u64,
}

impl Default for EditStamp {
    /// The stamp of no tree: where a reader that has read nothing starts.
    fn default() -> Self {
        Self { tree: u64::MAX, edits: 0 }
    }
}

/// Multiply-shift hasher for the id→slot index: `NodeId` keys are
/// sequentially allocated u64s, so one odd-constant multiply mixes them
/// better than SipHash at a fraction of the cost.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdIndex = HashMap<NodeId, u32, BuildHasherDefault<IdHasher>>;

/// The structure cache: pre-order as one flat slot array. A subtree is a
/// contiguous range of `preorder`, so every traversal is a slice walk.
#[derive(Debug)]
struct FlatCache {
    /// Live slots in pre-order from the root (children in insertion
    /// order) — the exact order the old `Descendants` stack produced.
    preorder: Vec<u32>,
    /// Per slot: index into `preorder` (`NIL` for dead slots).
    pos: Vec<u32>,
    /// Per slot: number of pre-order entries in the slot's subtree
    /// (itself included).
    subtree_len: Vec<u32>,
    /// Live slots sorted by id — `iter_nodes`' deterministic order (the
    /// old `BTreeMap` iteration order).
    id_order: Vec<u32>,
}

/// What a journalled edit did to the node it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditClass {
    /// Inserted, removed or reparented: pre-order positions moved.
    Structure,
    /// Handed out by [`SceneTree::node_mut`]: its name, kind (and with it
    /// its own cost and plan eligibility) or version may have been written.
    Payload,
    /// A pose write ([`SceneTree::set_transform`],
    /// [`SceneTree::set_camera_pose`]): its transform and version, and a
    /// camera's or an avatar's camera. Takes no cache: neither structure
    /// nor [`NodeCost`] depends on a pose.
    Pose,
}

/// What [`SceneTree::changes_since`] found past a reader's position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dirt {
    /// No edit of the asked-for classes.
    Clean,
    /// Exactly these nodes were touched (sorted, deduplicated). A listed
    /// id may no longer exist (it was removed) — consumers re-resolve
    /// each id against the tree.
    Nodes(Vec<NodeId>),
    /// The journal cannot answer for that position: assume every node
    /// changed and re-derive with a full walk.
    Everything,
}

/// Entries each of the journal's two tails retains. A reader further
/// behind than this would gain nothing from an enumeration over a full
/// re-walk.
const JOURNAL_CAP: usize = 512;

/// The tree's edit journal: its identity, its edit count, and bounded
/// tails of `(position, node, class)` entries any number of readers read
/// by position. Pose entries keep a tail of their own, so the per-tick
/// motion stream never pushes a structure or payload entry out. Like the
/// caches, derived data: never serialized, never compared, new for every
/// clone.
#[derive(Debug)]
struct Journal {
    /// What [`SceneTree::edit_stamp`] hands out; `head.edits` is the
    /// position of the newest edit.
    head: EditStamp,
    /// `Structure` and `Payload` entries.
    edits: Tail,
    /// `Pose` entries.
    poses: Tail,
}

#[derive(Debug)]
struct Tail {
    /// Every entry noted past this position is still in `entries`: the
    /// position recording began at (the first read, or
    /// [`SceneTree::record_edits`] — a tree nobody reads stores nothing),
    /// later that of the newest entry dropped. `u64::MAX` until then,
    /// which no reader's position reaches.
    complete_from: u64,
    entries: VecDeque<(u64, NodeId, EditClass)>,
}

impl Tail {
    fn new() -> Self {
        Self { complete_from: u64::MAX, entries: VecDeque::new() }
    }

    fn note(&mut self, position: u64, id: NodeId, class: EditClass) {
        if self.entries.len() == JOURNAL_CAP {
            let (dropped, ..) = self.entries.pop_front().expect("the cap is not zero");
            self.complete_from = dropped;
        }
        self.entries.push_back((position, id, class));
    }

    /// The ids of entries of `classes` past `since`, appended to `ids`.
    fn read(&self, since: u64, classes: &[EditClass], ids: &mut Vec<NodeId>) {
        ids.extend(
            self.entries
                .iter()
                .rev()
                .take_while(|&&(position, ..)| position > since)
                .filter(|(.., class)| classes.contains(class))
                .map(|&(_, id, _)| id),
        );
    }
}

impl Journal {
    /// The journal of a new tree value, under an identity of its own.
    fn fresh() -> Self {
        static NEXT_TREE: AtomicU64 = AtomicU64::new(0);
        // Relaxed: the number only has to be unique; it publishes nothing.
        let tree = NEXT_TREE.fetch_add(1, Ordering::Relaxed);
        Self { head: EditStamp { tree, edits: 0 }, edits: Tail::new(), poses: Tail::new() }
    }

    /// Is anybody reading? Both tails start recording together.
    #[inline]
    fn recording(&self) -> bool {
        self.edits.complete_from != u64::MAX
    }

    /// Out of line: an edit of a tree nobody reads (each replica of a
    /// large session) pays one branch for the journal, not the push.
    #[inline(never)]
    fn note(&mut self, id: NodeId, class: EditClass) {
        let position = self.head.edits;
        match class {
            EditClass::Pose => self.poses.note(position, id, class),
            EditClass::Structure | EditClass::Payload => self.edits.note(position, id, class),
        }
    }

    fn read(&self, since: EditStamp, classes: &[EditClass]) -> Dirt {
        let wants_poses = classes.contains(&EditClass::Pose);
        let complete = since.tree == self.head.tree
            && since.edits >= self.edits.complete_from
            && (!wants_poses || since.edits >= self.poses.complete_from);
        if !complete {
            return Dirt::Everything;
        }
        let mut ids = Vec::new();
        self.edits.read(since.edits, classes, &mut ids);
        if wants_poses {
            self.poses.read(since.edits, classes, &mut ids);
        }
        if ids.is_empty() {
            return Dirt::Clean;
        }
        ids.sort_unstable();
        ids.dedup();
        Dirt::Nodes(ids)
    }
}

/// A subtree in flight to a replica (§3.2.5: the subset plus "the parent
/// nodes to orientate" it), when it joins (§5.5) and when work migrates to
/// it (§3.2.7): detached [`Node`] records, parents first, where a
/// standalone [`SceneTree`] would carry arenas, an id index, a journal and
/// caches. Made by [`SceneTree::extract_parcel`], taken in by
/// [`SceneTree::adopt_parcel`]; a bootstrap marshals [`Parcel::nodes`].
#[derive(Debug, Clone, PartialEq)]
pub struct Parcel {
    /// The source root's record: its own if the cut takes the root, else
    /// the fresh tree's `Group` stub named `root` with the source root's
    /// transform. Never inserted: records under it go under the receiver's.
    root: Node,
    /// The rest of the closure, in whole-tree pre-order.
    records: Vec<Node>,
}

impl Parcel {
    /// Records carried below the root: orientation chains and subtrees.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Every record, the root's first: the closure in whole-tree pre-order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        std::iter::once(&self.root).chain(&self.records)
    }
}

/// A scene tree: a rooted hierarchy of typed nodes over a flat
/// generational arena (see the module docs for the layout).
pub struct SceneTree {
    hot: Vec<HotNode>,
    cold: Vec<ColdNode>,
    /// Per slot, the payload's own bounds (see [`PayloadBounds`]; a dead
    /// slot's entry means nothing). Built whole by the first bounds query,
    /// from then on patched by every payload write — never invalidated,
    /// never rebuilt.
    bounds: OnceLock<Vec<PayloadBounds>>,
    /// Freed slots available for reuse (generation already bumped).
    free: Vec<u32>,
    /// Live node count (`hot.len()` minus freed slots).
    live: usize,
    /// Live presence nodes ([`KindTag::is_presence`]), kept exactly where
    /// a slot's tag is written: [`SceneTree::alloc_slot`], the free in
    /// [`SceneTree::remove`] and a kind-touching [`NodeMut`]'s drop.
    presence: u32,
    /// The sum of every live node's own cost, kept exactly at the same
    /// three sites as `presence`: [`SceneTree::total_cost`] without a walk.
    total: NodeCost,
    index: IdIndex,
    root: NodeId,
    root_slot: u32,
    next_id: u64,
    /// Derived data only — never serialized, never compared. Rebuilt at
    /// most once per structural edit on the next `&self` query.
    structure: OnceLock<Box<FlatCache>>,
    /// Per-slot subtree-cost aggregates; invalidated by structural *and*
    /// kind edits, exempt from transform updates.
    costs: OnceLock<Vec<NodeCost>>,
    /// Identity, edit count and the per-node record of edits
    /// ([`SceneTree::edit_stamp`], [`SceneTree::changes_since`]).
    journal: Journal,
}

impl std::fmt::Debug for SceneTree {
    /// Logical state only (nodes in id order, root, allocator), not the
    /// arena internals: two trees that compare equal print identically
    /// regardless of slot layout, free-list history or cache warmth.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SceneTree")
            .field("nodes", &self.iter_nodes().map(|n| n.to_node()).collect::<Vec<_>>())
            .field("root", &self.root)
            .field("next_id", &self.next_id)
            .finish()
    }
}

impl Clone for SceneTree {
    /// Clones start with cold caches: the copy rebuilds on first query
    /// rather than duplicating (and having to trust) the source's.
    fn clone(&self) -> Self {
        Self {
            hot: self.hot.clone(),
            cold: self.cold.clone(),
            bounds: self.bounds.clone(),
            free: self.free.clone(),
            live: self.live,
            presence: self.presence,
            total: self.total,
            index: self.index.clone(),
            root: self.root,
            root_slot: self.root_slot,
            next_id: self.next_id,
            structure: OnceLock::new(),
            costs: OnceLock::new(),
            // A copy is another tree: edits to it are not edits to the
            // source, and no reader of the source has read it.
            journal: Journal::fresh(),
        }
    }
}

impl PartialEq for SceneTree {
    fn eq(&self, other: &Self) -> bool {
        if self.root != other.root || self.next_id != other.next_id || self.live != other.live {
            return false;
        }
        // Same node set, same per-node state, same children order —
        // exactly what the old `BTreeMap<NodeId, Node>` equality checked.
        // Slot layout is deliberately NOT compared: two trees that took
        // different edit paths to the same logical state are equal.
        self.iter_nodes().zip(other.iter_nodes()).all(|(a, b)| {
            a.id() == b.id()
                && a.name() == b.name()
                && a.transform() == b.transform()
                && a.kind() == b.kind()
                && a.version() == b.version()
                && a.parent() == b.parent()
                && a.children().eq(b.children())
        })
    }
}

// Manual serde impls: the wire shape is exactly what the derive produced
// for the pre-arena struct — a map of `nodes` (id-keyed `BTreeMap` of
// detached `Node` records), `root` and `next_id`. Deserialized trees
// start with cold caches.
impl Serialize for SceneTree {
    fn to_value(&self) -> serde::Value {
        let nodes: BTreeMap<NodeId, Node> =
            self.iter_nodes().map(|n| (n.id(), n.to_node())).collect();
        serde::Value::Map(vec![
            ("nodes".into(), nodes.to_value()),
            ("root".into(), self.root.to_value()),
            ("next_id".into(), self.next_id.to_value()),
        ])
    }
}

impl Deserialize for SceneTree {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = serde::expect_map(v, "SceneTree")?;
        let nodes: BTreeMap<NodeId, Node> = serde::de_field(m, "nodes", "SceneTree")?;
        let root: NodeId = serde::de_field(m, "root", "SceneTree")?;
        let next_id: u64 = serde::de_field(m, "next_id", "SceneTree")?;
        Self::from_parts(nodes, root, next_id)
            .map_err(|what| serde::DeError::new(format!("SceneTree: {what}")))
    }
}

impl Default for SceneTree {
    fn default() -> Self {
        Self::new()
    }
}

impl SceneTree {
    pub fn new() -> Self {
        let root = NodeId(0);
        let mut tree = Self {
            hot: Vec::new(),
            cold: Vec::new(),
            bounds: OnceLock::new(),
            free: Vec::new(),
            live: 0,
            presence: 0,
            total: NodeCost::ZERO,
            index: IdIndex::default(),
            root,
            root_slot: 0,
            next_id: 1,
            structure: OnceLock::new(),
            costs: OnceLock::new(),
            journal: Journal::fresh(),
        };
        tree.root_slot = tree.alloc_slot(root, NIL, "root", NodeKind::Group);
        tree
    }

    /// Pre-size the arena for `n` nodes (bulk scene builds).
    pub fn with_capacity(n: usize) -> Self {
        let mut t = Self::new();
        t.reserve(n.saturating_sub(1));
        t
    }

    /// Reserve arena room for `additional` more nodes.
    pub fn reserve(&mut self, additional: usize) {
        self.hot.reserve(additional);
        self.cold.reserve(additional);
        self.index.reserve(additional);
    }

    // ---- slot plumbing --------------------------------------------------

    #[inline]
    fn slot(&self, id: NodeId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    /// Allocate a slot (reusing the free list) and link nothing: the
    /// caller wires topology.
    fn alloc_slot(
        &mut self,
        id: NodeId,
        parent: u32,
        name: impl Into<String>,
        kind: NodeKind,
    ) -> u32 {
        let cost = kind.cost();
        let tag = kind.tag();
        let cold = ColdNode { name: name.into(), kind, version: 0 };
        let slot = match self.free.pop() {
            Some(s) => {
                let gen = self.hot[s as usize].generation;
                self.hot[s as usize] = HotNode {
                    id,
                    parent,
                    first_child: NIL,
                    last_child: NIL,
                    prev_sibling: NIL,
                    next_sibling: NIL,
                    child_count: 0,
                    generation: gen,
                    alive: true,
                    tag,
                    transform: Transform::IDENTITY,
                    cost,
                };
                self.cold[s as usize] = cold;
                s
            }
            None => {
                let s = self.hot.len() as u32;
                self.hot.push(HotNode {
                    id,
                    parent,
                    first_child: NIL,
                    last_child: NIL,
                    prev_sibling: NIL,
                    next_sibling: NIL,
                    child_count: 0,
                    generation: 0,
                    alive: true,
                    tag,
                    transform: Transform::IDENTITY,
                    cost,
                });
                self.cold.push(cold);
                s
            }
        };
        self.refresh_kept_bounds(slot);
        self.index.insert(id, slot);
        self.live += 1;
        self.presence += u32::from(tag.is_presence());
        self.total += cost;
        slot
    }

    /// Append `child` as the last child of `parent` (insertion order is
    /// sibling-link order).
    fn link_last_child(&mut self, parent: u32, child: u32) {
        let prev_last = self.hot[parent as usize].last_child;
        self.hot[child as usize].prev_sibling = prev_last;
        self.hot[child as usize].next_sibling = NIL;
        self.hot[child as usize].parent = parent;
        if prev_last == NIL {
            self.hot[parent as usize].first_child = child;
        } else {
            self.hot[prev_last as usize].next_sibling = child;
        }
        self.hot[parent as usize].last_child = child;
        self.hot[parent as usize].child_count += 1;
    }

    /// Detach `child` from its parent's sibling chain.
    fn unlink_child(&mut self, child: u32) {
        let (parent, prev, next) = {
            let h = &self.hot[child as usize];
            (h.parent, h.prev_sibling, h.next_sibling)
        };
        if prev == NIL {
            self.hot[parent as usize].first_child = next;
        } else {
            self.hot[prev as usize].next_sibling = next;
        }
        if next == NIL {
            self.hot[parent as usize].last_child = prev;
        } else {
            self.hot[next as usize].prev_sibling = prev;
        }
        self.hot[parent as usize].child_count -= 1;
        let h = &mut self.hot[child as usize];
        h.prev_sibling = NIL;
        h.next_sibling = NIL;
    }

    /// The kept payload bounds, built on first use: one pass over every
    /// payload, the last this tree makes unasked.
    fn kept_bounds(&self) -> &[PayloadBounds] {
        self.bounds.get_or_init(|| self.cold.iter().map(|c| PayloadBounds::of(&c.kind)).collect())
    }

    /// `slot`'s payload was written (a node allocated into it, or its kind
    /// touched): bring its kept box up to date, if boxes are being kept.
    fn refresh_kept_bounds(&mut self, slot: u32) {
        if let Some(kept) = self.bounds.get_mut() {
            let bounds = PayloadBounds::of(&self.cold[slot as usize].kind);
            match kept.get_mut(slot as usize) {
                Some(entry) => *entry = bounds,
                None => {
                    debug_assert_eq!(kept.len(), slot as usize, "slots are allocated densely");
                    kept.push(bounds);
                }
            }
        }
    }

    /// The one way an edit becomes known: every `&mut self` path that
    /// writes a link, a payload or a pose calls this once per node it
    /// names, and nothing else writes the caches, the journal or the
    /// position. `Structure` takes both caches, `Payload` the cost cache,
    /// `Pose` neither (no cache depends on a pose, so the motion stream
    /// never forces a rebuild); each leaves an entry once somebody reads.
    #[inline]
    fn edited(&mut self, id: NodeId, class: EditClass) {
        self.journal.head.edits += 1;
        match class {
            EditClass::Structure => {
                self.costs.take();
                self.structure.take();
            }
            EditClass::Payload => {
                self.costs.take();
            }
            EditClass::Pose => {}
        }
        if self.journal.recording() {
            self.journal.note(id, class);
        }
    }

    /// The structure cache, built on first use after an edit: one O(n)
    /// pass over hot data produces pre-order, per-slot positions,
    /// subtree lengths and the id-sorted order.
    fn flat(&self) -> &FlatCache {
        self.structure.get_or_init(|| {
            let n = self.hot.len();
            let mut preorder = Vec::with_capacity(self.live);
            let mut pos = vec![NIL; n];
            let mut subtree_len = vec![0u32; n];
            let mut stack = Vec::with_capacity(64);
            stack.push(self.root_slot);
            while let Some(s) = stack.pop() {
                pos[s as usize] = preorder.len() as u32;
                preorder.push(s);
                subtree_len[s as usize] = 1;
                // Push children last→first so the first child pops first
                // (the old Descendants stack order).
                let mut c = self.hot[s as usize].last_child;
                while c != NIL {
                    stack.push(c);
                    c = self.hot[c as usize].prev_sibling;
                }
            }
            // Children precede parents in reverse pre-order, so one
            // reverse sweep finalizes every subtree length.
            for &s in preorder.iter().rev() {
                let p = self.hot[s as usize].parent;
                if p != NIL {
                    subtree_len[p as usize] += subtree_len[s as usize];
                }
            }
            let mut id_order = preorder.clone();
            id_order.sort_unstable_by_key(|&s| self.hot[s as usize].id);
            Box::new(FlatCache { preorder, pos, subtree_len, id_order })
        })
    }

    /// The subtree-cost cache: own costs seeded from the hot array, then
    /// one reverse-pre-order sweep adds children into parents.
    fn cost_cache(&self) -> &[NodeCost] {
        self.costs.get_or_init(|| {
            let flat = self.flat();
            let mut agg = vec![NodeCost::ZERO; self.hot.len()];
            for &s in &flat.preorder {
                agg[s as usize] = self.hot[s as usize].cost;
            }
            for &s in flat.preorder.iter().rev() {
                let p = self.hot[s as usize].parent;
                if p != NIL {
                    let c = agg[s as usize];
                    agg[p as usize] += c;
                }
            }
            agg
        })
    }

    // ---- queries --------------------------------------------------------

    pub fn root(&self) -> NodeId {
        self.root
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live <= 1
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// Does any live node carry a camera or an avatar? O(1): a tree
    /// without one refuses every pose update unread
    /// ([`crate::SceneUpdate::try_apply`]).
    pub fn holds_presence(&self) -> bool {
        self.presence > 0
    }

    pub fn node(&self, id: NodeId) -> Option<NodeRef<'_>> {
        self.slot(id).map(|slot| NodeRef { tree: self, slot })
    }

    /// Mutable access to one node's editable state. Conservatively
    /// invalidates the cost cache (the caller may rewrite the node's
    /// kind, e.g. `split_node` demoting a mesh to a Group); the
    /// structure cache survives.
    pub fn node_mut(&mut self, id: NodeId) -> Option<NodeMut<'_>> {
        let slot = self.slot(id)?;
        // At hand-out: every setter of the view (kind, transform) is
        // behind this call.
        self.edited(id, EditClass::Payload);
        Some(NodeMut { tree: self, slot, kind_touched: false })
    }

    /// Every node in id order (the old map's deterministic iteration
    /// order — render services on different "machines" must walk the
    /// same scene in the same order for compositing to be reproducible).
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeRef<'_>> + '_ {
        self.flat().id_order.iter().map(move |&slot| NodeRef { tree: self, slot })
    }

    /// The id the allocator would hand out next. Snapshots persist this so
    /// a recovered tree never re-issues an id burned by a removed node.
    pub fn id_allocator_state(&self) -> u64 {
        self.next_id
    }

    /// Move the allocator up to `next_id` (never back): a delta checkpoint
    /// carries the allocator state ids handed out since its base left.
    pub(crate) fn restore_id_allocator(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// Reassemble a tree from detached records — the snapshot/serde decode
    /// path. Children order comes from each record's `children` list (the
    /// wire-authoritative order); the records' structural claims are
    /// verified (root present, every child link matched by a parent link,
    /// no unreachable nodes), since arena assembly would otherwise turn a
    /// corrupt snapshot into silent node loss.
    pub(crate) fn from_parts(
        nodes: BTreeMap<NodeId, Node>,
        root: NodeId,
        next_id: u64,
    ) -> Result<Self, &'static str> {
        let Some(root_rec) = nodes.get(&root) else { return Err("root node missing") };
        let mut tree = Self {
            hot: Vec::with_capacity(nodes.len()),
            cold: Vec::with_capacity(nodes.len()),
            bounds: OnceLock::new(),
            free: Vec::new(),
            live: 0,
            presence: 0,
            total: NodeCost::ZERO,
            index: IdIndex::default(),
            root,
            root_slot: 0,
            next_id,
            structure: OnceLock::new(),
            costs: OnceLock::new(),
            journal: Journal::fresh(),
        };
        tree.index.reserve(nodes.len());
        tree.root_slot = tree.alloc_slot(root, NIL, root_rec.name.clone(), root_rec.kind.clone());
        tree.hot[tree.root_slot as usize].transform = root_rec.transform;
        tree.cold[tree.root_slot as usize].version = root_rec.version;
        // Pre-order DFS over the records' children lists: parents are
        // always materialized before their children.
        let mut stack: Vec<(NodeId, u32)> =
            root_rec.children.iter().rev().map(|&c| (c, tree.root_slot)).collect();
        while let Some((id, parent_slot)) = stack.pop() {
            let rec = nodes.get(&id).ok_or("child link to missing node")?;
            if rec.parent != Some(self_id(&tree, parent_slot)) {
                return Err("child/parent link mismatch");
            }
            if tree.index.contains_key(&id) {
                return Err("node reachable twice (cycle or duplicate child link)");
            }
            let slot = tree.alloc_slot(id, parent_slot, rec.name.clone(), rec.kind.clone());
            tree.link_last_child(parent_slot, slot);
            tree.hot[slot as usize].transform = rec.transform;
            tree.cold[slot as usize].version = rec.version;
            for &c in rec.children.iter().rev() {
                stack.push((c, slot));
            }
        }
        if tree.live != nodes.len() {
            return Err("unreachable nodes in record set");
        }
        if tree.next_id <= nodes.keys().next_back().map_or(0, |id| id.0) {
            // Tolerate (don't reject) a stale allocator: advance past the
            // largest live id exactly as `insert_with_id` would.
            tree.next_id = nodes.keys().next_back().unwrap().0 + 1;
        }
        Ok(tree)
    }

    /// Allocate the next id without inserting — the data service allocates
    /// ids before broadcasting `AddNode` updates.
    pub fn allocate_id(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Insert a new child of `parent`. Returns the id.
    pub fn add_node(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        kind: NodeKind,
    ) -> Result<NodeId, TreeError> {
        let id = self.allocate_id();
        self.insert_with_id(id, parent, name, kind)?;
        Ok(id)
    }

    /// Insert a node under a caller-supplied id (the replication path:
    /// render services apply `AddNode` updates that carry the data
    /// service's id). Fails if the id is taken or the parent is missing.
    pub fn insert_with_id(
        &mut self,
        id: NodeId,
        parent: NodeId,
        name: impl Into<String>,
        kind: NodeKind,
    ) -> Result<(), TreeError> {
        if self.contains(id) {
            return Err(TreeError::DuplicateId(id));
        }
        let Some(parent_slot) = self.slot(parent) else {
            return Err(TreeError::MissingNode(parent));
        };
        self.insert_under(id, parent_slot, name, kind);
        Ok(())
    }

    /// [`SceneTree::insert_with_id`] past its checks: `id` is free and
    /// `parent_slot` is live. Returns the new node's slot.
    fn insert_under(
        &mut self,
        id: NodeId,
        parent_slot: u32,
        name: impl Into<String>,
        kind: NodeKind,
    ) -> u32 {
        let slot = self.alloc_slot(id, parent_slot, name, kind);
        self.link_last_child(parent_slot, slot);
        self.next_id = self.next_id.max(id.0 + 1);
        self.edited(id, EditClass::Structure);
        slot
    }

    /// Remove a node and its whole subtree. Removing the root is rejected.
    /// Returns the removed ids (subtree in last-child-first DFS order,
    /// matching the pre-arena implementation).
    pub fn remove(&mut self, id: NodeId) -> Result<Vec<NodeId>, TreeError> {
        if id == self.root {
            return Err(TreeError::CannotRemoveRoot);
        }
        let Some(slot) = self.slot(id) else {
            return Err(TreeError::MissingNode(id));
        };
        self.unlink_child(slot);
        let mut removed = Vec::new();
        let mut stack = vec![slot];
        while let Some(s) = stack.pop() {
            let h = &self.hot[s as usize];
            removed.push(h.id);
            // Push first→last so the last child pops first — the order the
            // old `stack.extend(children)` produced.
            let mut c = h.first_child;
            while c != NIL {
                stack.push(c);
                c = self.hot[c as usize].next_sibling;
            }
            self.index.remove(&self.hot[s as usize].id);
            let h = &mut self.hot[s as usize];
            self.presence -= u32::from(h.tag.is_presence());
            self.total = self.total - h.cost;
            h.alive = false;
            h.generation = h.generation.wrapping_add(1);
            h.first_child = NIL;
            h.last_child = NIL;
            h.child_count = 0;
            self.cold[s as usize] = ColdNode::vacant();
            self.free.push(s);
        }
        self.live -= removed.len();
        for &id in &removed {
            self.edited(id, EditClass::Structure);
        }
        Ok(removed)
    }

    /// Move a subtree under a new parent, appended as its last child.
    /// O(1) link surgery in the arena (plus one ancestor walk for the
    /// cycle check); the subtree keeps every id, transform and version.
    pub fn reparent(&mut self, id: NodeId, new_parent: NodeId) -> Result<(), TreeError> {
        if id == self.root {
            return Err(TreeError::CannotReparentRoot);
        }
        let Some(slot) = self.slot(id) else {
            return Err(TreeError::MissingNode(id));
        };
        let Some(parent_slot) = self.slot(new_parent) else {
            return Err(TreeError::MissingNode(new_parent));
        };
        // Reject moves into the node's own subtree (including itself).
        let mut cur = parent_slot;
        while cur != NIL {
            if cur == slot {
                return Err(TreeError::WouldCreateCycle(id));
            }
            cur = self.hot[cur as usize].parent;
        }
        if self.hot[slot as usize].parent != parent_slot {
            self.unlink_child(slot);
            self.link_last_child(parent_slot, slot);
        } else {
            // Same parent: move to the end of the sibling order.
            self.unlink_child(slot);
            self.link_last_child(parent_slot, slot);
        }
        // The node's own cost is unchanged; readers tracking subtree
        // membership still want to hear about it.
        self.edited(id, EditClass::Structure);
        Ok(())
    }

    /// Pre-order traversal from `start` (inclusive), children in insertion
    /// order.
    pub fn descendants(&self, start: NodeId) -> Vec<NodeId> {
        self.descendants_iter(start).map(|n| n.id()).collect()
    }

    /// Iterator form of [`SceneTree::descendants`]: same pre-order, same
    /// children-in-insertion-order, yielding [`NodeRef`]s. A subtree is a
    /// contiguous range of the cached pre-order, so this is a slice walk
    /// over dense `u32`s — no DFS stack, no per-step lookups.
    pub fn descendants_iter(&self, start: NodeId) -> Descendants<'_> {
        let slots: &[u32] = match self.slot(start) {
            Some(s) => {
                let flat = self.flat();
                let p = flat.pos[s as usize] as usize;
                let len = flat.subtree_len[s as usize] as usize;
                &flat.preorder[p..p + len]
            }
            None => &[],
        };
        Descendants { tree: self, slots: slots.iter() }
    }

    /// Ancestors from the node's parent up to and including the root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let Some(mut cur) = self.slot(id) else { return out };
        loop {
            let p = self.hot[cur as usize].parent;
            if p == NIL {
                break;
            }
            out.push(self.hot[p as usize].id);
            cur = p;
        }
        out
    }

    /// The composed local-to-world matrix for a node.
    pub fn world_transform(&self, id: NodeId) -> Mat4 {
        let mut chain = Vec::new();
        let mut cur = match self.slot(id) {
            Some(s) => s,
            None => return Mat4::IDENTITY,
        };
        loop {
            chain.push(self.hot[cur as usize].transform.matrix());
            let p = self.hot[cur as usize].parent;
            if p == NIL {
                break;
            }
            cur = p;
        }
        chain.into_iter().rev().fold(Mat4::IDENTITY, |acc, m| acc * m)
    }

    /// World-space bounds of a subtree: the union, in pre-order, of every
    /// node's kept content box under its world transform. No payload is
    /// read (past the tree's first bounds query, which builds the boxes).
    pub fn world_bounds(&self, id: NodeId) -> Aabb {
        let kept = self.kept_bounds();
        let mut b = Aabb::EMPTY;
        for n in self.descendants_iter(id) {
            let local = kept[n.slot as usize].local;
            if !local.is_empty() {
                b = b.union(&local.transformed(&self.world_transform(n.id())));
            }
        }
        b
    }

    /// Aggregate cost of a subtree (§3.2.7's "how much data are contained
    /// in a given set of nodes").
    ///
    /// Served from the dense cost cache: the first query after an edit
    /// aggregates every node in one O(n) reverse-pre-order pass over hot
    /// data; queries until the next edit are two array reads. An unknown
    /// id costs [`NodeCost::ZERO`], exactly as the uncached walk summed an
    /// empty traversal.
    pub fn subtree_cost(&self, id: NodeId) -> NodeCost {
        match self.slot(id) {
            Some(s) => self.cost_cache()[s as usize],
            None => NodeCost::ZERO,
        }
    }

    /// Total cost of the whole scene: a field read, not the cost cache —
    /// asking whether a replica holds anything rebuilds nothing.
    pub fn total_cost(&self) -> NodeCost {
        self.total
    }

    /// Slash-separated path from the root, e.g. `/galleon/hull`.
    pub fn path_of(&self, id: NodeId) -> Option<String> {
        if id == self.root {
            return Some("/".into());
        }
        let mut parts = Vec::new();
        let mut cur = self.slot(id)?;
        while cur != self.root_slot {
            parts.push(self.cold[cur as usize].name.as_str());
            cur = self.hot[cur as usize].parent;
            if cur == NIL {
                break;
            }
        }
        parts.reverse();
        Some(format!("/{}", parts.join("/")))
    }

    /// Look a node up by slash path (first match wins among same-named
    /// siblings).
    pub fn find_by_path(&self, path: &str) -> Option<NodeId> {
        let mut cur = self.root_slot;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            let mut c = self.hot[cur as usize].first_child;
            loop {
                if c == NIL {
                    return None;
                }
                if self.cold[c as usize].name == part {
                    break;
                }
                c = self.hot[c as usize].next_sibling;
            }
            cur = c;
        }
        Some(self.hot[cur as usize].id)
    }

    /// Every node id whose kind matches `pred`, in deterministic
    /// (pre-order) order.
    pub fn find_all(&self, mut pred: impl FnMut(NodeRef<'_>) -> bool) -> Vec<NodeId> {
        self.descendants_iter(self.root).filter(|n| pred(*n)).map(|n| n.id()).collect()
    }

    /// The closure of `roots` (see [`SceneTree::extract_parcel`]) as a
    /// standalone tree: a fresh tree with this tree's allocator state and
    /// root transform that adopts the parcel. Kept for `benchmark/`,
    /// `rave_core::bootstrap::snapshot_for` and tests.
    pub fn extract_subset(&self, roots: &[NodeId]) -> SceneTree {
        let parcel = self.extract_parcel(roots);
        let mut out = SceneTree::with_capacity(parcel.len() + 1);
        out.next_id = self.next_id;
        out.hot[out.root_slot as usize].transform = parcel.root.transform;
        out.adopt_parcel(&parcel);
        out
    }

    /// Merge another tree's nodes into this one, preserving ids: the whole
    /// of `subset` adopted as one parcel, its root mapping to this root.
    /// Kept for `benchmark/`'s shadows and tests; the system ships parcels.
    pub fn merge_subset(&mut self, subset: &SceneTree) {
        self.adopt_parcel(&subset.extract_parcel(&[subset.root()]));
    }

    /// Cut the closure of `roots` out as a [`Parcel`]: the one place a
    /// subtree is gathered to leave this tree. The closure is "a subset of
    /// the scene tree, including the parent nodes to orientate the scene
    /// subset in the world" (§3.2.5): the roots' subtrees, and their
    /// ancestors with name, transform and version but no content unless a
    /// requested subtree holds them too. Nested and repeated roots are
    /// taken once, ids this tree does not hold skipped; records come in
    /// whole-tree pre-order.
    ///
    /// One root (every migration, and a bootstrap of the whole scene or of
    /// one subtree) walks the parent links up and the sibling links down:
    /// no cache is built or read, and a leaf costs its chain. Several roots
    /// are ordered by the cached pre-order positions, so a k-node closure
    /// costs O(k log k) whatever the size of the scene.
    pub fn extract_parcel(&self, roots: &[NodeId]) -> Parcel {
        let record = |slot: u32, orientation_only: bool| {
            let (h, c) = (&self.hot[slot as usize], &self.cold[slot as usize]);
            Node {
                id: h.id,
                name: c.name.clone(),
                transform: h.transform,
                kind: if orientation_only { NodeKind::Group } else { c.kind.clone() },
                children: Vec::new(),
                parent: (h.parent != NIL).then(|| self.hot[h.parent as usize].id),
                version: c.version,
            }
        };
        let root = if roots.contains(&self.root) {
            record(self.root_slot, false)
        } else {
            let transform = self.hot[self.root_slot as usize].transform;
            Node { transform, ..Node::new(self.root, "root", NodeKind::Group) }
        };
        let mut records = Vec::new();
        if let [one] = roots {
            let Some(top) = self.slot(*one) else { return Parcel { root, records } };
            let mut up = self.hot[top as usize].parent;
            while up != NIL && up != self.root_slot {
                records.push(record(up, true));
                up = self.hot[up as usize].parent;
            }
            records.reverse();
            // Pre-order over the links: down to the first child, else on to
            // the next sibling of the nearest ancestor (below `top`) with one.
            let mut at = top;
            loop {
                if at != self.root_slot {
                    records.push(record(at, false));
                }
                let mut next = self.hot[at as usize].first_child;
                while next == NIL && at != top {
                    next = self.hot[at as usize].next_sibling;
                    if next == NIL {
                        at = self.hot[at as usize].parent;
                    }
                }
                if next == NIL {
                    break;
                }
                at = next;
            }
        } else {
            let flat = self.flat();
            // (pre-order position, orientation-only?) per closure slot. A
            // node inside a requested subtree sorts before its own
            // orientation-only duplicate, so the dedup keeps its content.
            let mut closure: Vec<(u32, bool)> = Vec::new();
            for &r in roots {
                let Some(s) = self.slot(r) else { continue };
                let p = flat.pos[s as usize];
                closure.extend((p..p + flat.subtree_len[s as usize]).map(|pos| (pos, false)));
                let mut up = self.hot[s as usize].parent;
                while up != NIL {
                    closure.push((flat.pos[up as usize], true));
                    up = self.hot[up as usize].parent;
                }
            }
            closure.sort_unstable();
            closure.dedup_by_key(|&mut (pos, _)| pos);
            records.reserve(closure.len());
            let slots = closure.into_iter().map(|(pos, o)| (flat.preorder[pos as usize], o));
            records.extend(slots.filter(|&(s, _)| s != self.root_slot).map(|(s, o)| record(s, o)));
        }
        Parcel { root, records }
    }

    /// Take a [`Parcel`] in: the one place foreign records enter a tree. A
    /// node already here keeps its local state — the chain a replica
    /// already holds, or a subtree it was sent before; a record whose
    /// parent is not here is skipped (an orphaned branch: its parent was
    /// never replicated, and what hangs below it is skipped for the same
    /// reason in turn); the rest go in through the same insert as
    /// [`SceneTree::insert_with_id`], so the edit journal and the stamp
    /// move as that insert moves them.
    pub fn adopt_parcel(&mut self, parcel: &Parcel) {
        for rec in &parcel.records {
            if self.contains(rec.id) {
                continue;
            }
            let parent = rec.parent.filter(|&p| p != parcel.root.id).unwrap_or(self.root);
            let Some(parent_slot) = self.slot(parent) else { continue };
            let slot = self.insert_under(rec.id, parent_slot, rec.name.as_str(), rec.kind.clone());
            self.hot[slot as usize].transform = rec.transform;
            self.cold[slot as usize].version = rec.version;
        }
    }

    /// Structural invariant check, used by property tests and debug
    /// assertions: the id index is a bijection onto live slots, sibling
    /// links are doubly consistent, every child's parent link matches,
    /// the free list covers exactly the dead slots, and every live node
    /// is reachable from the root.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.contains(self.root) {
            return Err("root missing".into());
        }
        if self.slot(self.root) != Some(self.root_slot) {
            return Err("root slot mapping broken".into());
        }
        let alive_count = self.hot.iter().filter(|h| h.alive).count();
        if alive_count != self.live {
            return Err(format!("live count {} but {} alive slots", self.live, alive_count));
        }
        let presence = self.hot.iter().filter(|h| h.alive && h.tag.is_presence()).count();
        if presence != self.presence as usize {
            return Err(format!("presence count {} but {presence} presence nodes", self.presence));
        }
        let summed = self.subtree_cost(self.root);
        if summed != self.total {
            return Err(format!("running total {:?} but the nodes sum to {summed:?}", self.total));
        }
        if self.index.len() != self.live {
            return Err(format!("index has {} entries for {} live", self.index.len(), self.live));
        }
        if self.free.len() != self.hot.len() - self.live {
            return Err(format!(
                "free list {} != {} dead slots",
                self.free.len(),
                self.hot.len() - self.live
            ));
        }
        for (&id, &slot) in &self.index {
            let h = self.hot.get(slot as usize).ok_or("index points past arena")?;
            if !h.alive || h.id != id {
                return Err(format!("index entry {id} -> slot {slot} stale"));
            }
        }
        for &f in &self.free {
            if self.hot.get(f as usize).is_none_or(|h| h.alive) {
                return Err(format!("free-list slot {f} is alive"));
            }
        }
        let reachable = self.descendants(self.root);
        if reachable.len() != self.live {
            return Err(format!("orphaned nodes: {} reachable of {}", reachable.len(), self.live));
        }
        for (s, h) in self.hot.iter().enumerate() {
            if !h.alive {
                continue;
            }
            let s = s as u32;
            // Walk the child chain, checking both link directions and the
            // cached count.
            let mut count = 0;
            let mut prev = NIL;
            let mut c = h.first_child;
            while c != NIL {
                let ch = self.hot.get(c as usize).ok_or("child link past arena")?;
                if !ch.alive {
                    return Err(format!("dangling child slot {c} of {}", h.id));
                }
                if ch.parent != s {
                    return Err(format!("child {} parent link mismatch", ch.id));
                }
                if ch.prev_sibling != prev {
                    return Err(format!("sibling back-link broken at {}", ch.id));
                }
                count += 1;
                prev = c;
                c = ch.next_sibling;
            }
            if h.last_child != prev {
                return Err(format!("last_child stale on {}", h.id));
            }
            if h.child_count != count {
                return Err(format!("child_count {} != {} on {}", h.child_count, count, h.id));
            }
            // Hot mirrors of cold state must agree.
            if h.tag != self.cold[s as usize].kind.tag() {
                return Err(format!("hot tag stale on {}", h.id));
            }
            if h.cost != self.cold[s as usize].kind.cost() {
                return Err(format!("hot cost stale on {}", h.id));
            }
            if let Some(kept) = self.bounds.get() {
                let fresh = PayloadBounds::of(&self.cold[s as usize].kind);
                if !kept.get(s as usize).is_some_and(|b| b.same_bits(&fresh)) {
                    return Err(format!("bounds stale on {}", h.id));
                }
            }
        }
        Ok(())
    }

    /// Convenience: set a node's transform, bumping its version. Returns
    /// false if the node does not exist.
    ///
    /// Deliberately bypasses [`SceneTree::node_mut`]: transforms affect
    /// neither structure nor [`NodeCost`], so both caches stay valid —
    /// avatar and camera motion (the per-frame update stream) never
    /// forces a rebuild. It does move the [`EditStamp`] (a render sees it)
    /// and leaves a [`EditClass::Pose`] entry (a delta checkpoint reads it).
    pub fn set_transform(&mut self, id: NodeId, t: Transform) -> bool {
        match self.slot(id) {
            Some(s) => {
                self.hot[s as usize].transform = t;
                self.cold[s as usize].version += 1;
                self.edited(id, EditClass::Pose);
                true
            }
            None => false,
        }
    }

    /// Pose write: move the camera a `Camera` or `Avatar` node carries and
    /// mirror the pose into the node's transform (so observers see the
    /// avatar move), bumping its version. Anything else is refused with
    /// nothing written.
    ///
    /// Like [`SceneTree::set_transform`] it bypasses
    /// [`SceneTree::node_mut`]: a camera's or an avatar's
    /// [`NodeKind::cost`] does not depend on its pose, so the cost cache
    /// stays warm and the journal gets only a [`EditClass::Pose`] entry —
    /// the per-tick `CameraMoved` stream never forces a replan to rebuild.
    /// It does move the [`EditStamp`], and the kept bounds follow (a
    /// `Camera`'s box sits at its position).
    pub fn set_camera_pose(&mut self, id: NodeId, camera: CameraParams) -> Result<(), TreeError> {
        let s = self.slot(id).ok_or(TreeError::MissingNode(id))?;
        match &mut self.cold[s as usize].kind {
            NodeKind::Camera(c) => *c = camera,
            NodeKind::Avatar(a) => a.camera = camera,
            other => return Err(TreeError::NoPose { id, found: other.kind_name() }),
        }
        let t = &mut self.hot[s as usize].transform;
        t.translation = camera.position;
        t.rotation = camera.orientation;
        self.cold[s as usize].version += 1;
        self.refresh_kept_bounds(s);
        self.edited(id, EditClass::Pose);
        Ok(())
    }

    // ---- edit stamp and journal -----------------------------------------

    /// Which render-visible state of which tree this is. While two stamps
    /// taken from a `SceneTree` value compare equal, nothing a render reads
    /// — topology, transforms, payloads — changed in between: every `&mut
    /// self` method that writes one of them moves the stamp
    /// ([`SceneTree::node_mut`] conservatively, when the view is handed
    /// out), and a clone or a decoded tree starts under an identity of its
    /// own. Unequal stamps promise nothing: a no-op edit moves it too.
    pub fn edit_stamp(&self) -> EditStamp {
        self.journal.head
    }

    /// Which nodes did edits of `classes` name since `since` was taken?
    /// The reader keeps its own position — the stamp it took at its last
    /// read — so any number of readers follow one tree, each at its own
    /// pace, and none changes what another reads. [`Dirt::Everything`]
    /// whenever the journal cannot vouch for that position: a stamp of
    /// another tree value (a clone, a decoded copy, a tree assigned over
    /// this one), one older than the oldest of the `JOURNAL_CAP` entries
    /// kept (structure and payload entries share one tail, pose entries
    /// keep their own, so asking for `Pose` also needs the pose tail to
    /// reach back), or one from before the tree's first read, which is
    /// what starts the recording. [`SceneTree::recorded_since`] is the
    /// same read through `&self`.
    pub fn changes_since(&mut self, since: EditStamp, classes: &[EditClass]) -> Dirt {
        let dirt = self.journal.read(since, classes);
        self.record_edits();
        dirt
    }

    /// [`SceneTree::changes_since`] without starting the recording: a
    /// reader that holds only `&self` (the store, at a checkpoint) reads
    /// [`Dirt::Everything`] until somebody — its owner, through
    /// [`SceneTree::record_edits`] — has started it.
    pub fn recorded_since(&self, since: EditStamp, classes: &[EditClass]) -> Dirt {
        self.journal.read(since, classes)
    }

    /// Start the journal recording, if it has not: from here on every edit
    /// leaves an entry, and a stamp taken now can be read from.
    pub fn record_edits(&mut self) {
        let journal = &mut self.journal;
        if !journal.recording() {
            journal.edits.complete_from = journal.head.edits;
            journal.poses.complete_from = journal.head.edits;
        }
    }

    /// A node's subtree as its contiguous pre-order slice: `(pos, len)`
    /// with every descendant (itself included) at positions
    /// `[pos, pos + len)`. This is the interval an interest subscription
    /// on the node occupies in the flat pre-order, the basis of the
    /// inverted interest index. Positions are only stable until the next
    /// structural edit.
    pub fn preorder_interval(&self, id: NodeId) -> Option<(u32, u32)> {
        let s = self.slot(id)?;
        let flat = self.flat();
        Some((flat.pos[s as usize], flat.subtree_len[s as usize]))
    }

    // ---- test-only cache instrumentation --------------------------------

    /// Is the subtree-cost cache currently built? (Regression pins for
    /// the invalidation contract; not part of the public API surface.)
    #[doc(hidden)]
    pub fn cost_cache_is_warm(&self) -> bool {
        self.costs.get().is_some()
    }

    /// Is the structure cache currently built?
    #[doc(hidden)]
    pub fn structure_cache_is_warm(&self) -> bool {
        self.structure.get().is_some()
    }
}

fn self_id(tree: &SceneTree, slot: u32) -> NodeId {
    tree.hot[slot as usize].id
}

// ---- node views --------------------------------------------------------

/// Shared view of one live node. Copy-cheap (a tree pointer and a slot);
/// field reads resolve into the hot or cold array as appropriate, so a
/// traversal that never asks for a name or payload never loads one.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    tree: &'a SceneTree,
    slot: u32,
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("id", &self.id())
            .field("name", &self.name())
            .field("kind", &self.kind_tag())
            .finish()
    }
}

impl<'a> NodeRef<'a> {
    #[inline]
    fn hot(&self) -> &'a HotNode {
        &self.tree.hot[self.slot as usize]
    }

    #[inline]
    fn cold(&self) -> &'a ColdNode {
        &self.tree.cold[self.slot as usize]
    }

    #[inline]
    pub fn id(&self) -> NodeId {
        self.hot().id
    }

    #[inline]
    pub fn parent(&self) -> Option<NodeId> {
        let p = self.hot().parent;
        (p != NIL).then(|| self.tree.hot[p as usize].id)
    }

    #[inline]
    pub fn transform(&self) -> Transform {
        self.hot().transform
    }

    /// The node's own content cost (children excluded) — hot-array read,
    /// no payload access.
    #[inline]
    pub fn own_cost(&self) -> NodeCost {
        self.hot().cost
    }

    /// The payload-free kind discriminant — hot-array read.
    #[inline]
    pub fn kind_tag(&self) -> KindTag {
        self.hot().tag
    }

    /// The node's own content box, [`NodeKind::local_bounds`] bit for bit,
    /// kept with the tree: no payload access, no pass over vertices.
    #[inline]
    pub fn local_bounds(&self) -> Aabb {
        self.tree.kept_bounds()[self.slot as usize].local
    }

    /// [`NodeRef::local_bounds`] when it is a finite box and no coordinate
    /// of the mesh or point cloud behind it is NaN or infinite — a box
    /// every point of the payload is inside of. `None` otherwise (the
    /// empty box of a group or of a mesh without vertices is not finite).
    #[inline]
    pub fn finite_local_bounds(&self) -> Option<Aabb> {
        let kept = &self.tree.kept_bounds()[self.slot as usize];
        kept.finite.then_some(kept.local)
    }

    #[inline]
    pub fn child_count(&self) -> usize {
        self.hot().child_count as usize
    }

    /// The node's children in insertion order. Double-ended (the
    /// renderer's DFS pushes children reversed) and exact-size.
    pub fn children(&self) -> Children<'a> {
        let h = self.hot();
        Children {
            tree: self.tree,
            front: h.first_child,
            back: h.last_child,
            remaining: h.child_count as usize,
        }
    }

    #[inline]
    pub fn name(&self) -> &'a str {
        &self.cold().name
    }

    #[inline]
    pub fn kind(&self) -> &'a NodeKind {
        &self.cold().kind
    }

    #[inline]
    pub fn version(&self) -> u64 {
        self.cold().version
    }

    /// Interrogate the node for its supported interactions (§5.2) — tag
    /// dispatch only, no payload access, no allocation.
    pub fn supported_interactions(&self) -> &'static [Interaction] {
        self.kind_tag().supported_interactions()
    }

    /// Materialize a detached [`Node`] record (the serde/wire shape).
    /// Payloads are `Arc`-shared, so this is cheap even for geometry.
    pub fn to_node(&self) -> Node {
        let cold = self.cold();
        Node {
            id: self.id(),
            name: cold.name.clone(),
            transform: self.transform(),
            kind: cold.kind.clone(),
            children: self.children().collect(),
            parent: self.parent(),
            version: cold.version,
        }
    }
}

/// Iterator over a node's children (insertion order), walking the
/// intrusive sibling links in the hot array.
#[derive(Clone)]
pub struct Children<'a> {
    tree: &'a SceneTree,
    front: u32,
    back: u32,
    remaining: usize,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        let s = self.front;
        self.remaining -= 1;
        self.front = self.tree.hot[s as usize].next_sibling;
        Some(self.tree.hot[s as usize].id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for Children<'_> {
    fn next_back(&mut self) -> Option<NodeId> {
        if self.remaining == 0 {
            return None;
        }
        let s = self.back;
        self.remaining -= 1;
        self.back = self.tree.hot[s as usize].prev_sibling;
        Some(self.tree.hot[s as usize].id)
    }
}

impl ExactSizeIterator for Children<'_> {}

/// Mutable view of one live node's editable state (name, kind, version,
/// transform). Created by [`SceneTree::node_mut`]; if the kind is
/// touched, the hot mirrors (tag, own cost) and the kept bounds are
/// refreshed when the view drops.
pub struct NodeMut<'a> {
    tree: &'a mut SceneTree,
    slot: u32,
    kind_touched: bool,
}

impl NodeMut<'_> {
    pub fn id(&self) -> NodeId {
        self.tree.hot[self.slot as usize].id
    }

    pub fn name(&self) -> &str {
        &self.tree.cold[self.slot as usize].name
    }

    pub fn kind(&self) -> &NodeKind {
        &self.tree.cold[self.slot as usize].kind
    }

    pub fn version(&self) -> u64 {
        self.tree.cold[self.slot as usize].version
    }

    pub fn transform(&self) -> Transform {
        self.tree.hot[self.slot as usize].transform
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.tree.cold[self.slot as usize].name = name.into();
    }

    /// Replace the content payload. The hot tag/cost mirrors refresh when
    /// this view drops.
    pub fn set_kind(&mut self, kind: NodeKind) {
        self.tree.cold[self.slot as usize].kind = kind;
        self.kind_touched = true;
    }

    /// In-place payload mutation (camera pose updates, avatar metadata).
    pub fn kind_mut(&mut self) -> &mut NodeKind {
        self.kind_touched = true;
        &mut self.tree.cold[self.slot as usize].kind
    }

    /// Set the transform without bumping the version (subset extraction
    /// and merge copy versions verbatim).
    pub fn set_transform(&mut self, t: Transform) {
        self.tree.hot[self.slot as usize].transform = t;
    }

    pub fn transform_mut(&mut self) -> &mut Transform {
        &mut self.tree.hot[self.slot as usize].transform
    }

    pub fn bump_version(&mut self) {
        self.tree.cold[self.slot as usize].version += 1;
    }

    pub fn set_version(&mut self, v: u64) {
        self.tree.cold[self.slot as usize].version = v;
    }
}

impl Drop for NodeMut<'_> {
    fn drop(&mut self) {
        if self.kind_touched {
            let kind = &self.tree.cold[self.slot as usize].kind;
            let (tag, cost) = (kind.tag(), kind.cost());
            let h = &mut self.tree.hot[self.slot as usize];
            self.tree.presence -= u32::from(h.tag.is_presence());
            self.tree.presence += u32::from(tag.is_presence());
            self.tree.total = self.tree.total - h.cost + cost;
            h.tag = tag;
            h.cost = cost;
            self.tree.refresh_kept_bounds(self.slot);
        }
    }
}

/// Pre-order subtree traversal as a slice walk over the cached flat
/// order. Created by [`SceneTree::descendants_iter`].
pub struct Descendants<'a> {
    tree: &'a SceneTree,
    slots: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = NodeRef<'a>;

    #[inline]
    fn next(&mut self) -> Option<NodeRef<'a>> {
        self.slots.next().map(|&slot| NodeRef { tree: self.tree, slot })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }
}

impl ExactSizeIterator for Descendants<'_> {}

/// Errors from structural tree edits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    MissingNode(NodeId),
    DuplicateId(NodeId),
    CannotRemoveRoot,
    CannotReparentRoot,
    /// Reparenting a node under its own descendant (or itself).
    WouldCreateCycle(NodeId),
    /// A pose write to a node that is neither a camera nor an avatar.
    NoPose {
        id: NodeId,
        found: &'static str,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::MissingNode(id) => write!(f, "node {id} does not exist"),
            TreeError::DuplicateId(id) => write!(f, "node {id} already exists"),
            TreeError::CannotRemoveRoot => write!(f, "the root node cannot be removed"),
            TreeError::CannotReparentRoot => write!(f, "the root node cannot be reparented"),
            TreeError::WouldCreateCycle(id) => {
                write!(f, "reparenting {id} into its own subtree would create a cycle")
            }
            TreeError::NoPose { id, found } => {
                write!(f, "node {id} is a {found}: it carries no camera pose")
            }
        }
    }
}

impl std::error::Error for TreeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::MeshData;
    use rave_math::Vec3;
    use std::sync::Arc;

    fn tri_mesh() -> NodeKind {
        NodeKind::Mesh(Arc::new(MeshData::new(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]])))
    }

    #[test]
    fn new_tree_has_root_only() {
        let t = SceneTree::new();
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert!(t.contains(t.root()));
        t.check_invariants().unwrap();
    }

    #[test]
    fn add_and_find_by_path() {
        let mut t = SceneTree::new();
        let g = t.add_node(t.root(), "galleon", NodeKind::Group).unwrap();
        let h = t.add_node(g, "hull", tri_mesh()).unwrap();
        assert_eq!(t.find_by_path("/galleon/hull"), Some(h));
        assert_eq!(t.find_by_path("/galleon"), Some(g));
        assert_eq!(t.find_by_path("/nope"), None);
        assert_eq!(t.path_of(h).unwrap(), "/galleon/hull");
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_subtree_removes_descendants() {
        let mut t = SceneTree::new();
        let g = t.add_node(t.root(), "g", NodeKind::Group).unwrap();
        let c1 = t.add_node(g, "c1", tri_mesh()).unwrap();
        let c2 = t.add_node(g, "c2", tri_mesh()).unwrap();
        let removed = t.remove(g).unwrap();
        assert_eq!(removed.len(), 3);
        assert!(!t.contains(g) && !t.contains(c1) && !t.contains(c2));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn cannot_remove_root() {
        let mut t = SceneTree::new();
        assert_eq!(t.remove(t.root()), Err(TreeError::CannotRemoveRoot));
    }

    #[test]
    fn remove_missing_errors() {
        let mut t = SceneTree::new();
        assert!(matches!(t.remove(NodeId(99)), Err(TreeError::MissingNode(_))));
    }

    #[test]
    fn ids_never_reused_after_removal() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        t.remove(a).unwrap();
        let b = t.add_node(t.root(), "b", NodeKind::Group).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn slots_are_reused_under_new_generations() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let slot_a = t.slot(a).unwrap();
        let gen_a = t.hot[slot_a as usize].generation;
        t.remove(a).unwrap();
        let b = t.add_node(t.root(), "b", NodeKind::Group).unwrap();
        let slot_b = t.slot(b).unwrap();
        assert_eq!(slot_a, slot_b, "freed slot is recycled");
        assert!(t.hot[slot_b as usize].generation > gen_a, "generation bumped");
        assert_eq!(t.hot.len(), 2, "arena stays dense under churn");
        t.check_invariants().unwrap();
    }

    #[test]
    fn world_transform_composes_down_the_chain() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(a, "b", NodeKind::Group).unwrap();
        t.set_transform(a, Transform::from_translation(Vec3::new(1.0, 0.0, 0.0)));
        t.set_transform(b, Transform::from_translation(Vec3::new(0.0, 2.0, 0.0)));
        let p = t.world_transform(b).transform_point(Vec3::ZERO);
        assert_eq!(p, Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn world_bounds_include_transforms() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", tri_mesh()).unwrap();
        t.set_transform(a, Transform::from_translation(Vec3::new(10.0, 0.0, 0.0)));
        let b = t.world_bounds(t.root());
        assert!(b.contains(Vec3::new(10.5, 0.5, 0.0)));
        assert!(!b.contains(Vec3::ZERO));
    }

    #[test]
    fn subtree_cost_aggregates() {
        let mut t = SceneTree::new();
        let g = t.add_node(t.root(), "g", NodeKind::Group).unwrap();
        t.add_node(g, "m1", tri_mesh()).unwrap();
        t.add_node(g, "m2", tri_mesh()).unwrap();
        assert_eq!(t.subtree_cost(g).polygons, 2);
        assert_eq!(t.total_cost().polygons, 2);
    }

    #[test]
    fn descendants_preorder_deterministic() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(t.root(), "b", NodeKind::Group).unwrap();
        let a1 = t.add_node(a, "a1", NodeKind::Group).unwrap();
        assert_eq!(t.descendants(t.root()), vec![t.root(), a, a1, b]);
    }

    #[test]
    fn ancestors_to_root() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(a, "b", NodeKind::Group).unwrap();
        assert_eq!(t.ancestors(b), vec![a, t.root()]);
        assert!(t.ancestors(t.root()).is_empty());
    }

    #[test]
    fn extract_subset_keeps_ids_transforms_and_strips_foreign_content() {
        let mut t = SceneTree::new();
        let g = t.add_node(t.root(), "g", tri_mesh()).unwrap(); // ancestor WITH content
        t.set_transform(g, Transform::from_translation(Vec3::new(5.0, 0.0, 0.0)));
        let m = t.add_node(g, "m", tri_mesh()).unwrap();
        t.add_node(t.root(), "other", tri_mesh()).unwrap();
        let sub = t.extract_subset(&[m]);
        sub.check_invariants().unwrap();
        assert!(sub.contains(m));
        assert!(sub.contains(g));
        // Ancestor content stripped — only orientation kept.
        assert!(matches!(sub.node(g).unwrap().kind(), NodeKind::Group));
        assert_eq!(sub.node(g).unwrap().transform().translation, Vec3::new(5.0, 0.0, 0.0));
        // The requested subtree keeps its payload.
        assert!(matches!(sub.node(m).unwrap().kind(), NodeKind::Mesh(_)));
        // Cost of the subset is just the subtree's.
        assert_eq!(sub.total_cost().polygons, 1);
        // World transform identical in both trees.
        let p0 = t.world_transform(m).transform_point(Vec3::ZERO);
        let p1 = sub.world_transform(m).transform_point(Vec3::ZERO);
        assert_eq!(p0, p1);
    }

    #[test]
    fn merge_subset_adds_missing_keeps_existing() {
        let mut master = SceneTree::new();
        let a = master.add_node(master.root(), "a", tri_mesh()).unwrap();
        let b = master.add_node(master.root(), "b", tri_mesh()).unwrap();
        let subset_a = master.extract_subset(&[a]);
        let subset_b = master.extract_subset(&[b]);

        let mut replica = SceneTree::new();
        replica.merge_subset(&subset_a);
        assert!(replica.contains(a) && !replica.contains(b));
        // Locally mutate a, then merge b: a's local state survives.
        replica.set_transform(a, Transform::from_translation(Vec3::new(9.0, 0.0, 0.0)));
        replica.merge_subset(&subset_b);
        assert!(replica.contains(b));
        assert_eq!(
            replica.node(a).unwrap().transform().translation,
            Vec3::new(9.0, 0.0, 0.0),
            "existing node untouched by merge"
        );
        replica.check_invariants().unwrap();
        // Merging again is a no-op.
        let before = replica.len();
        replica.merge_subset(&subset_b);
        assert_eq!(replica.len(), before);
    }

    /// A parcel carries exactly the closure of its roots, parents before
    /// children; adopting it keeps whatever the receiver already holds, and
    /// a single-root cut builds no cache.
    #[test]
    fn a_parcel_carries_the_closure_and_adopting_keeps_local_state() {
        let mut t = SceneTree::new();
        let g = t.add_node(t.root(), "g", tri_mesh()).unwrap(); // ancestor WITH content
        t.set_transform(g, Transform::from_translation(Vec3::new(5.0, 0.0, 0.0)));
        let m = t.add_node(g, "m", tri_mesh()).unwrap();
        let leaf = t.add_node(m, "leaf", tri_mesh()).unwrap();
        let twin = t.add_node(m, "twin", NodeKind::Group).unwrap();
        let other = t.add_node(t.root(), "other", tri_mesh()).unwrap();
        t.set_transform(leaf, Transform::from_translation(Vec3::Y));

        // Receivers: empty; holding the chain with local state of its own;
        // holding part of the subtree; holding a node whose parent it lacks
        // the record for (`leaf` under its root, `m` absent: no orphan).
        let empty = SceneTree::new();
        let mut chain = SceneTree::new();
        chain.insert_with_id(g, chain.root(), "mine", NodeKind::Group).unwrap();
        chain.set_transform(g, Transform::from_translation(Vec3::X));
        let mut part = chain.clone();
        part.insert_with_id(m, g, "m", NodeKind::Group).unwrap();
        part.insert_with_id(twin, m, "twin", tri_mesh()).unwrap();
        let mut stray = SceneTree::new();
        stray.insert_with_id(leaf, stray.root(), "leaf", NodeKind::Group).unwrap();

        let dead = NodeId(999);
        let sets: [&[NodeId]; 9] = [
            &[t.root()],
            &[g],
            &[m],
            &[leaf],
            &[twin],
            &[other],
            &[dead],
            &[leaf, g, leaf],
            &[twin, other, dead],
        ];
        for roots in sets {
            let parcel = t.extract_parcel(roots);
            let mut seen = vec![t.root()];
            for n in parcel.nodes().skip(1) {
                assert!(seen.contains(&n.parent.unwrap()), "{roots:?}: {} after its parent", n.id);
                seen.push(n.id);
            }
            seen.sort_unstable();
            // The closure: the roots' subtrees and their ancestors, once.
            let mut closure = vec![t.root()];
            for &r in roots {
                closure.extend(t.descendants(r).into_iter().chain(t.ancestors(r)));
            }
            closure.sort_unstable();
            closure.dedup();
            assert_eq!(seen, closure, "{roots:?}");
            assert_eq!(parcel.is_empty(), roots == [dead]);
            let root = parcel.nodes().next().unwrap();
            assert_eq!(root.name, "root");
            assert_eq!(root.transform, t.node(t.root()).unwrap().transform());
            for receiver in [&empty, &chain, &part, &stray] {
                let mut adopted = receiver.clone();
                adopted.adopt_parcel(&parcel);
                adopted.check_invariants().unwrap();
                for n in receiver.iter_nodes() {
                    let kept = adopted.node(n.id()).unwrap();
                    assert_eq!((kept.name(), kept.kind()), (n.name(), n.kind()), "{roots:?}");
                    assert_eq!(kept.transform(), n.transform(), "{roots:?}");
                }
            }
        }
        // Local state survives, foreign content on the chain does not travel.
        let mut held = chain.clone();
        held.adopt_parcel(&t.extract_parcel(&[leaf]));
        assert_eq!(held.node(g).unwrap().name(), "mine");
        assert_eq!(held.node(g).unwrap().transform().translation, Vec3::X);
        assert_eq!(held.total_cost().polygons, 1, "only `leaf` brought content");
        assert!(matches!(held.node(m).unwrap().kind(), NodeKind::Group));

        let cold = t.clone();
        cold.extract_parcel(&[leaf]);
        cold.extract_parcel(&[g]);
        cold.extract_parcel(&[cold.root()]);
        assert!(!cold.structure_cache_is_warm() && !cold.cost_cache_is_warm());
    }

    #[test]
    fn insert_with_duplicate_id_rejected() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        assert_eq!(
            t.insert_with_id(a, t.root(), "dup", NodeKind::Group),
            Err(TreeError::DuplicateId(a))
        );
    }

    #[test]
    fn find_all_filters() {
        let mut t = SceneTree::new();
        t.add_node(t.root(), "m", tri_mesh()).unwrap();
        t.add_node(t.root(), "g", NodeKind::Group).unwrap();
        let meshes = t.find_all(|n| matches!(n.kind(), NodeKind::Mesh(_)));
        assert_eq!(meshes.len(), 1);
    }

    #[test]
    fn descendants_iter_matches_descendants() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(t.root(), "b", tri_mesh()).unwrap();
        let a1 = t.add_node(a, "a1", tri_mesh()).unwrap();
        let a2 = t.add_node(a, "a2", NodeKind::Group).unwrap();
        t.add_node(a2, "a2x", tri_mesh()).unwrap();
        for start in [t.root(), a, b, a1, a2, NodeId(999)] {
            let eager = t.descendants(start);
            let lazy: Vec<NodeId> = t.descendants_iter(start).map(|n| n.id()).collect();
            assert_eq!(eager, lazy, "start {start:?}");
        }
    }

    #[test]
    fn cost_index_tracks_adds_removes_and_kind_changes() {
        let mut t = SceneTree::new();
        let g = t.add_node(t.root(), "g", NodeKind::Group).unwrap();
        let m1 = t.add_node(g, "m1", tri_mesh()).unwrap();
        assert_eq!(t.total_cost().polygons, 1);
        // Add after a cached query: cache must refresh.
        let m2 = t.add_node(g, "m2", tri_mesh()).unwrap();
        assert_eq!(t.subtree_cost(g).polygons, 2);
        // Remove.
        t.remove(m1).unwrap();
        assert_eq!(t.total_cost().polygons, 1);
        // Kind change through node_mut (the split_node pattern).
        t.node_mut(m2).unwrap().set_kind(NodeKind::Group);
        assert_eq!(t.total_cost().polygons, 0);
        // Missing nodes cost zero, as the uncached walk did.
        assert_eq!(t.subtree_cost(NodeId(999)), NodeCost::ZERO);
    }

    #[test]
    fn cost_index_survives_transform_updates_and_clone() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", tri_mesh()).unwrap();
        assert_eq!(t.total_cost().polygons, 1);
        // set_transform must not perturb cost results (and, by design,
        // does not invalidate the cache).
        t.set_transform(a, Transform::from_translation(Vec3::new(1.0, 0.0, 0.0)));
        assert_eq!(t.total_cost().polygons, 1);
        // Clones answer independently and correctly.
        let mut c = t.clone();
        assert_eq!(c.total_cost().polygons, 1);
        c.remove(a).unwrap();
        assert_eq!(c.total_cost().polygons, 0);
        assert_eq!(t.total_cost().polygons, 1, "source unaffected by clone's edit");
    }

    /// Regression pin for the documented contract: `set_transform` is
    /// deliberately exempt from cost invalidation (the per-frame avatar/
    /// camera motion stream must never force an O(n) rebuild), while
    /// `node_mut` — which may rewrite the kind — must invalidate. The
    /// arena port keeps both behaviors observable via the test-only
    /// cache probes.
    #[test]
    fn set_transform_is_exempt_from_cost_invalidation() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", tri_mesh()).unwrap();
        assert_eq!(t.subtree_cost(t.root()).polygons, 1); // warm the cost cache
        assert!(t.cost_cache_is_warm());
        assert!(t.structure_cache_is_warm());

        // The exemption: transform motion leaves both caches warm.
        t.set_transform(a, Transform::from_translation(Vec3::new(2.0, 0.0, 0.0)));
        assert!(t.cost_cache_is_warm(), "set_transform must NOT invalidate the cost cache");
        assert!(t.structure_cache_is_warm(), "set_transform must NOT invalidate structure");
        assert_eq!(t.total_cost().polygons, 1);

        // The counterpart: node_mut (potential kind rewrite) invalidates
        // costs but not structure…
        t.node_mut(a).unwrap().set_kind(NodeKind::Group);
        assert!(!t.cost_cache_is_warm(), "node_mut must invalidate the cost cache");
        assert!(t.structure_cache_is_warm(), "kind edits keep the structure cache");
        assert_eq!(t.total_cost().polygons, 0);

        // …and structural edits invalidate both.
        t.add_node(t.root(), "b", tri_mesh()).unwrap();
        assert!(!t.structure_cache_is_warm(), "structural edits invalidate structure");
        assert!(!t.cost_cache_is_warm());
        assert_eq!(t.total_cost().polygons, 1);
    }

    const ALL: &[EditClass] = &[EditClass::Structure, EditClass::Payload];

    /// One read of a reader that keeps its position in `seen`.
    fn read(t: &mut SceneTree, seen: &mut EditStamp, classes: &[EditClass]) -> Dirt {
        let dirt = t.changes_since(*seen, classes);
        *seen = t.edit_stamp();
        dirt
    }

    #[test]
    fn the_journal_tracks_the_invalidation_contract() {
        let mut t = SceneTree::new();
        // A reader that has read nothing: everything is dirty.
        let mut seen = EditStamp::default();
        assert_eq!(read(&mut t, &mut seen, ALL), Dirt::Everything);
        assert_eq!(read(&mut t, &mut seen, ALL), Dirt::Clean, "nothing since that read");

        let a = t.add_node(t.root(), "a", tri_mesh()).unwrap();
        let b = t.add_node(t.root(), "b", tri_mesh()).unwrap();
        assert_eq!(read(&mut t, &mut seen, ALL), Dirt::Nodes(vec![a, b]));

        // set_transform is a pose entry: exempt from the structure and
        // payload reads, exactly like the cost cache.
        t.set_transform(a, Transform::from_translation(Vec3::new(1.0, 0.0, 0.0)));
        assert_ne!(t.edit_stamp(), seen, "a render must see the move");
        assert_eq!(t.changes_since(seen, &[EditClass::Pose]), Dirt::Nodes(vec![a]));
        assert_eq!(read(&mut t, &mut seen, ALL), Dirt::Clean, "set_transform must not dirty costs");

        // node_mut touches are recorded and deduplicated, under their class.
        t.node_mut(a).unwrap().bump_version();
        t.node_mut(a).unwrap().bump_version();
        assert_eq!(t.changes_since(seen, &[EditClass::Structure]), Dirt::Clean);
        assert_eq!(t.changes_since(seen, &[EditClass::Payload]), Dirt::Nodes(vec![a]));
        assert_eq!(read(&mut t, &mut seen, ALL), Dirt::Nodes(vec![a]));

        // A subtree removal reports every removed id.
        let c = t.add_node(b, "c", tri_mesh()).unwrap();
        read(&mut t, &mut seen, ALL);
        t.remove(b).unwrap();
        assert_eq!(read(&mut t, &mut seen, ALL), Dirt::Nodes(vec![b, c]));
    }

    /// A position is the reader's own: a second reader, reading at another
    /// pace or other classes, sees every edit since *its* last read.
    #[test]
    fn one_reader_never_changes_what_another_reads() {
        let mut t = SceneTree::new();
        let (mut planner, mut index) = (EditStamp::default(), EditStamp::default());
        read(&mut t, &mut planner, ALL);
        read(&mut t, &mut index, &[EditClass::Structure]);
        let a = t.add_node(t.root(), "a", tri_mesh()).unwrap();
        assert_eq!(read(&mut t, &mut planner, ALL), Dirt::Nodes(vec![a]));
        let b = t.add_node(t.root(), "b", tri_mesh()).unwrap();
        t.node_mut(b).unwrap().set_kind(NodeKind::Group);
        assert_eq!(read(&mut t, &mut planner, ALL), Dirt::Nodes(vec![b]));
        assert_eq!(read(&mut t, &mut planner, ALL), Dirt::Clean);
        assert_eq!(read(&mut t, &mut index, &[EditClass::Structure]), Dirt::Nodes(vec![a, b]));
    }

    #[test]
    fn a_reader_too_far_behind_reads_everything() {
        let mut t = SceneTree::new();
        let (mut behind, mut exact) = (EditStamp::default(), EditStamp::default());
        read(&mut t, &mut behind, ALL);
        let first = t.add_node(t.root(), "first", NodeKind::Group).unwrap();
        read(&mut t, &mut exact, ALL);
        let mut last = first;
        for i in 0..JOURNAL_CAP {
            last = t.add_node(t.root(), format!("n{i}"), NodeKind::Group).unwrap();
        }
        // The cap counts entries: `JOURNAL_CAP` of them are all retained,
        // one more and the oldest is gone.
        assert!(
            matches!(t.changes_since(exact, ALL), Dirt::Nodes(ids) if ids.len() == JOURNAL_CAP)
        );
        assert_eq!(read(&mut t, &mut behind, ALL), Dirt::Everything);
        // Having caught up, it enumerates again.
        t.node_mut(last).unwrap().bump_version();
        assert_eq!(read(&mut t, &mut behind, ALL), Dirt::Nodes(vec![last]));
        assert_eq!(t.journal.edits.entries.len(), JOURNAL_CAP, "the journal is bounded");
    }

    #[test]
    fn a_stamp_of_another_tree_reads_everything() {
        let mut t = SceneTree::new();
        let mut seen = EditStamp::default();
        t.add_node(t.root(), "a", tri_mesh()).unwrap();
        read(&mut t, &mut seen, ALL);
        let mut copy = t.clone();
        assert_eq!(copy.changes_since(seen, ALL), Dirt::Everything);
        assert_eq!(copy.changes_since(seen, ALL), Dirt::Everything, "however often it asks");
        assert_eq!(t.changes_since(seen, ALL), Dirt::Clean, "the source is untouched");
        // A tree nobody reads stores nothing, and a stamp from before the
        // first read cannot be answered for.
        let mut unread = SceneTree::new();
        let early = unread.edit_stamp();
        unread.add_node(unread.root(), "a", tri_mesh()).unwrap();
        assert!(unread.journal.edits.entries.is_empty());
        assert_eq!(unread.changes_since(early, ALL), Dirt::Everything);
    }

    /// A pose entry takes no cache — a camera move must not drop the
    /// master's cost cache — and the pose stream keeps a tail of its own:
    /// a storm of moves pushes no structure or payload entry out, while a
    /// pose reader that far behind reads everything.
    #[test]
    fn pose_entries_drop_no_cache_and_push_no_other_entry_out() {
        let mut t = SceneTree::new();
        let cam = t.add_node(t.root(), "cam", NodeKind::Camera(CameraParams::default())).unwrap();
        let mut seen = EditStamp::default();
        read(&mut t, &mut seen, ALL);
        t.subtree_cost(t.root());
        let moved = CameraParams::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y);
        t.set_camera_pose(cam, moved).unwrap();
        assert!(t.cost_cache_is_warm() && t.structure_cache_is_warm());
        assert_eq!(t.recorded_since(seen, &[EditClass::Pose]), Dirt::Nodes(vec![cam]));

        t.node_mut(cam).unwrap().bump_version();
        t.subtree_cost(t.root());
        for _ in 0..JOURNAL_CAP {
            t.set_transform(cam, Transform::IDENTITY);
        }
        assert!(t.cost_cache_is_warm(), "the pose storm rebuilt nothing");
        assert_eq!(t.recorded_since(seen, ALL), Dirt::Nodes(vec![cam]), "payload entry kept");
        assert_eq!(t.recorded_since(seen, &[EditClass::Pose]), Dirt::Everything);
        assert_eq!(t.journal.poses.entries.len(), JOURNAL_CAP, "the pose tail is bounded");
    }

    /// `recorded_since` reads what `changes_since` reads but never starts
    /// the recording; `record_edits` does.
    #[test]
    fn a_shared_read_waits_for_the_owner_to_start_recording() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let early = t.edit_stamp();
        t.set_transform(a, Transform::IDENTITY);
        assert_eq!(t.recorded_since(early, &[EditClass::Pose]), Dirt::Everything);
        t.record_edits();
        let armed = t.edit_stamp();
        t.set_transform(a, Transform::IDENTITY);
        assert_eq!(t.recorded_since(early, &[EditClass::Pose]), Dirt::Everything);
        assert_eq!(t.recorded_since(armed, &[EditClass::Pose]), Dirt::Nodes(vec![a]));
        assert_eq!(t.changes_since(armed, &[EditClass::Pose]), Dirt::Nodes(vec![a]));
    }

    /// The edit hook's whole contract, one row per public mutator: every
    /// `&mut self` method that writes node state moves the stamp, whether
    /// or not the write changed anything, takes the caches its class says
    /// and leaves the journal entry its class says; reads, the id
    /// allocator and refused edits do none of it.
    #[test]
    fn every_edit_a_render_can_see_moves_the_edit_stamp() {
        use EditClass::{Payload, Pose, Structure};
        let mut t = SceneTree::new();
        let root = t.root();
        t.changes_since(EditStamp::default(), ALL);
        // (what, the edit and the nodes it names, its journal class)
        let row = |t: &mut SceneTree,
                   what: &str,
                   edit: &mut dyn FnMut(&mut SceneTree) -> NodeId,
                   class: EditClass| {
            t.subtree_cost(t.root());
            assert!(t.structure_cache_is_warm() && t.cost_cache_is_warm());
            let before = t.edit_stamp();
            let named = edit(t);
            assert_ne!(t.edit_stamp(), before, "{what} must move the stamp");
            assert_eq!(t.structure_cache_is_warm(), class != Structure, "{what}: structure");
            assert_eq!(t.cost_cache_is_warm(), class == Pose, "{what}: cost cache");
            for asked in [Structure, Payload, Pose] {
                let want = if class == asked { Dirt::Nodes(vec![named]) } else { Dirt::Clean };
                assert_eq!(t.changes_since(before, &[asked]), want, "{what}: {asked:?} entries");
            }
            named
        };
        let a =
            row(&mut t, "add_node", &mut |t| t.add_node(root, "a", tri_mesh()).unwrap(), Structure);
        let id = t.allocate_id();
        row(
            &mut t,
            "insert_with_id",
            &mut |t| t.insert_with_id(id, root, "b", NodeKind::Group).map(|()| id).unwrap(),
            Structure,
        );
        let shift = Transform::from_translation(Vec3::X);
        row(&mut t, "set_transform", &mut |t| (t.set_transform(a, shift), a).1, Pose);
        row(
            &mut t,
            "set_transform to the value it has",
            &mut |t| (t.set_transform(a, shift), a).1,
            Pose,
        );
        row(&mut t, "reparent", &mut |t| t.reparent(a, id).map(|()| a).unwrap(), Structure);
        row(
            &mut t,
            "reparent to the same parent",
            &mut |t| t.reparent(a, id).map(|()| a).unwrap(),
            Structure,
        );
        let mut view = |what: &str, write: &dyn Fn(&mut NodeMut<'_>)| {
            row(&mut t, what, &mut |t| (write(&mut t.node_mut(a).unwrap()), a).1, Payload);
        };
        view("set_kind", &|n| n.set_kind(NodeKind::Group));
        view("kind_mut", &|n| *n.kind_mut() = tri_mesh());
        view("transform_mut", &|n| n.transform_mut().translation = Vec3::Y);
        view("NodeMut::set_transform", &|n| n.set_transform(Transform::IDENTITY));
        view("node_mut, conservatively", &|n| n.set_name("renamed"));
        let mut other = SceneTree::new();
        let far = NodeId(77);
        other.insert_with_id(far, other.root(), "far", tri_mesh()).unwrap();
        row(&mut t, "merge_subset", &mut |t| (t.merge_subset(&other), far).1, Structure);
        row(&mut t, "remove", &mut |t| t.remove(far).map(|_| far).unwrap(), Structure);
        let parcel = other.extract_parcel(&[far]);
        row(&mut t, "adopt_parcel", &mut |t| (t.adopt_parcel(&parcel), far).1, Structure);
        t.remove(far).unwrap();
        let cam = t.add_node(root, "cam", NodeKind::Camera(CameraParams::default())).unwrap();
        row(
            &mut t,
            "set_camera_pose",
            &mut |t| t.set_camera_pose(cam, CameraParams::default()).map(|()| cam).unwrap(),
            Pose,
        );

        // What must not move it, or no frame would ever be reused.
        let before = t.edit_stamp();
        t.world_bounds(root);
        t.total_cost();
        t.descendants(root);
        t.check_invariants().unwrap();
        t.changes_since(before, ALL);
        t.changes_since(EditStamp::default(), ALL);
        t.allocate_id();
        t.reserve(8);
        t.merge_subset(&SceneTree::new());
        t.adopt_parcel(&t.extract_parcel(&[a]));
        t.adopt_parcel(&t.extract_parcel(&[NodeId(999)]));
        assert!(t.remove(NodeId(999)).is_err());
        assert!(t.reparent(id, a).is_err());
        assert!(t.insert_with_id(a, root, "dup", NodeKind::Group).is_err());
        assert!(!t.set_transform(NodeId(999), Transform::IDENTITY));
        assert!(t.set_camera_pose(a, CameraParams::default()).is_err());
        assert!(t.node_mut(NodeId(999)).is_none());
        assert_eq!(t.edit_stamp(), before);
        assert_eq!(t.changes_since(before, ALL), Dirt::Clean);
        assert!(t.structure_cache_is_warm() && t.cost_cache_is_warm());
    }

    /// Two trees never share a stamp, however equal they are: a clone, a
    /// decoded copy and a second fresh tree each start under an identity
    /// of their own, and `==` does not look at it.
    #[test]
    fn a_copy_is_another_tree_to_the_edit_stamp() {
        let mut t = SceneTree::new();
        t.add_node(t.root(), "a", tri_mesh()).unwrap();
        let copy = t.clone();
        let json = serde_json::to_string(&t).unwrap();
        let decoded: SceneTree = serde_json::from_str(&json).unwrap();
        let wired = crate::wire::decode_tree(&crate::wire::encode_tree(&t)).unwrap();
        for (other, what) in [(&copy, "clone"), (&decoded, "serde"), (&wired, "wire")] {
            assert_eq!(other, &t, "{what} is an equal tree");
            assert_ne!(other.edit_stamp(), t.edit_stamp(), "{what} is not the same tree");
        }
        // One edit each: the counters coincide, the stamps do not.
        let (mut x, mut y) = (SceneTree::new(), SceneTree::new());
        x.add_node(x.root(), "n", NodeKind::Group).unwrap();
        y.add_node(y.root(), "n", NodeKind::Group).unwrap();
        assert_eq!(x, y);
        assert_ne!(x.edit_stamp(), y.edit_stamp());
        // A moved tree is the same tree.
        let stamp = x.edit_stamp();
        let moved = x;
        assert_eq!(moved.edit_stamp(), stamp);
    }

    /// The kept content box is `NodeKind::local_bounds` of the payload the
    /// node holds now, through every way a payload gets into a slot.
    #[test]
    fn kept_bounds_follow_the_payload() {
        let mesh_at = |x: f32| {
            let at = Vec3::new(x, 0.0, 0.0);
            NodeKind::Mesh(Arc::new(MeshData::new(
                vec![at, at + Vec3::X, at + Vec3::Y],
                vec![[0, 1, 2]],
            )))
        };
        let kept = |t: &SceneTree, id: NodeId| t.node(id).unwrap().local_bounds();
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", mesh_at(0.0)).unwrap();
        assert_eq!(kept(&t, a), mesh_at(0.0).local_bounds());
        assert_eq!(t.node(a).unwrap().finite_local_bounds(), Some(kept(&t, a)));
        assert!(kept(&t, t.root()).is_empty());
        assert_eq!(t.node(t.root()).unwrap().finite_local_bounds(), None);

        t.node_mut(a).unwrap().set_kind(mesh_at(5.0));
        assert_eq!(kept(&t, a), mesh_at(5.0).local_bounds());
        *t.node_mut(a).unwrap().kind_mut() = mesh_at(-3.0);
        assert_eq!(kept(&t, a), mesh_at(-3.0).local_bounds());
        assert_eq!(t.world_bounds(t.root()), mesh_at(-3.0).local_bounds());

        // A recycled slot holds the new node's box, not the old one's.
        t.remove(a).unwrap();
        let b = t.add_node(t.root(), "b", mesh_at(9.0)).unwrap();
        assert_eq!(t.slot(b), Some(1), "slot reused");
        assert_eq!(kept(&t, b), mesh_at(9.0).local_bounds());

        let copy = t.clone();
        let merged = {
            let mut m = SceneTree::new();
            m.merge_subset(&t.extract_subset(&[b]));
            m
        };
        let wired = crate::wire::decode_tree(&crate::wire::encode_tree(&t)).unwrap();
        for tree in [&t, &copy, &merged, &wired] {
            assert_eq!(kept(tree, b), mesh_at(9.0).local_bounds());
            tree.check_invariants().unwrap();
        }

        // A stale box is what `check_invariants` exists to name.
        let mut broken = t.clone();
        broken.bounds.get_mut().expect("boxes are kept once asked for")[1].local = Aabb::EMPTY;
        assert_eq!(broken.check_invariants(), Err(format!("bounds stale on {b}")));
    }

    /// No box is computed for a tree nobody asks for bounds; from the
    /// first query on every payload write keeps its slot's box right.
    #[test]
    fn boxes_are_kept_from_the_first_query_on() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", tri_mesh()).unwrap();
        t.node_mut(a).unwrap().set_kind(tri_mesh());
        t.total_cost();
        t.check_invariants().unwrap();
        assert!(t.bounds.get().is_none(), "edits and cost queries build no box");
        assert!(t.clone().bounds.get().is_none());

        assert!(!t.world_bounds(t.root()).is_empty());
        let b = t.add_node(a, "b", tri_mesh()).unwrap();
        t.node_mut(a).unwrap().set_kind(NodeKind::Group);
        t.remove(b).unwrap();
        t.set_transform(a, Transform::from_translation(Vec3::X));
        assert!(t.world_bounds(t.root()).is_empty(), "the mesh is gone");
        assert_eq!(t.bounds.get().unwrap().len(), t.hot.len());
        assert!(t.clone().bounds.get().is_some(), "cloned with the tree");
        t.check_invariants().unwrap();
    }

    /// `finite_local_bounds` refuses a payload a NaN hides in — the box
    /// alone cannot tell, `Aabb::from_points` drops it — and NaN boxes do
    /// not read as stale.
    #[test]
    fn non_finite_payloads_keep_their_box_and_lose_the_finite_flag() {
        let mesh = |points: Vec<Vec3>| NodeKind::Mesh(Arc::new(MeshData::new(points, vec![])));
        let mut t = SceneTree::new();
        let root = t.root();
        let hidden = t
            .add_node(root, "nan", mesh(vec![Vec3::ZERO, Vec3::new(f32::NAN, 1.0, 1.0), Vec3::ONE]))
            .unwrap();
        let node = t.node(hidden).unwrap();
        assert_eq!(node.local_bounds(), Aabb::new(Vec3::ZERO, Vec3::ONE), "the NaN is dropped");
        assert_eq!(node.finite_local_bounds(), None);
        let inf = t.add_node(root, "inf", mesh(vec![Vec3::ZERO, Vec3::splat(f32::INFINITY)]));
        assert_eq!(t.node(inf.unwrap()).unwrap().finite_local_bounds(), None);
        let none = t.add_node(root, "empty", mesh(vec![])).unwrap();
        assert_eq!(t.node(none).unwrap().finite_local_bounds(), None);
        let camera = crate::CameraParams {
            position: Vec3::new(f32::NAN, 0.0, 0.0),
            ..crate::CameraParams::default()
        };
        let cam = t.add_node(root, "cam", NodeKind::Camera(camera)).unwrap();
        assert!(t.node(cam).unwrap().local_bounds().min.x.is_nan());
        assert_eq!(t.node(cam).unwrap().finite_local_bounds(), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn reparent_moves_subtree_and_preserves_state() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(t.root(), "b", NodeKind::Group).unwrap();
        let m = t.add_node(a, "m", tri_mesh()).unwrap();
        let leaf = t.add_node(m, "leaf", NodeKind::Group).unwrap();
        t.set_transform(m, Transform::from_translation(Vec3::new(3.0, 0.0, 0.0)));
        let version = t.node(m).unwrap().version();

        t.reparent(m, b).unwrap();
        t.check_invariants().unwrap();
        assert_eq!(t.node(m).unwrap().parent(), Some(b));
        assert_eq!(t.path_of(leaf).unwrap(), "/b/m/leaf");
        assert_eq!(t.node(m).unwrap().transform().translation, Vec3::new(3.0, 0.0, 0.0));
        assert_eq!(t.node(m).unwrap().version(), version, "reparent keeps versions");
        assert_eq!(t.subtree_cost(a), NodeCost::ZERO, "cost follows the move");
        assert_eq!(t.subtree_cost(b).polygons, 1);
        // Pre-order reflects the move.
        assert_eq!(t.descendants(t.root()), vec![t.root(), a, b, m, leaf]);
    }

    #[test]
    fn reparent_rejects_cycles_and_root() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(a, "b", NodeKind::Group).unwrap();
        assert_eq!(t.reparent(t.root(), a), Err(TreeError::CannotReparentRoot));
        assert_eq!(t.reparent(a, b), Err(TreeError::WouldCreateCycle(a)));
        assert_eq!(t.reparent(a, a), Err(TreeError::WouldCreateCycle(a)));
        assert!(matches!(t.reparent(NodeId(99), a), Err(TreeError::MissingNode(_))));
        assert!(matches!(t.reparent(a, NodeId(99)), Err(TreeError::MissingNode(_))));
        t.check_invariants().unwrap();
    }

    #[test]
    fn reparent_to_same_parent_moves_to_last() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(t.root(), "b", NodeKind::Group).unwrap();
        t.reparent(a, t.root()).unwrap();
        let children: Vec<NodeId> = t.node(t.root()).unwrap().children().collect();
        assert_eq!(children, vec![b, a]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn iter_nodes_is_id_ordered_even_after_churn() {
        let mut t = SceneTree::new();
        let a = t.add_node(t.root(), "a", NodeKind::Group).unwrap();
        let b = t.add_node(t.root(), "b", NodeKind::Group).unwrap();
        t.remove(a).unwrap();
        // Reuses a's slot: arena order now differs from id order.
        let c = t.add_node(b, "c", NodeKind::Group).unwrap();
        let ids: Vec<NodeId> = t.iter_nodes().map(|n| n.id()).collect();
        assert_eq!(ids, vec![t.root(), b, c]);
    }

    #[test]
    fn children_iterator_is_double_ended_and_exact() {
        let mut t = SceneTree::new();
        let ids: Vec<NodeId> = (0..5)
            .map(|i| t.add_node(t.root(), format!("c{i}"), NodeKind::Group).unwrap())
            .collect();
        let root = t.node(t.root()).unwrap();
        assert_eq!(root.child_count(), 5);
        assert_eq!(root.children().len(), 5);
        let fwd: Vec<NodeId> = root.children().collect();
        assert_eq!(fwd, ids);
        let mut rev: Vec<NodeId> = root.children().rev().collect();
        rev.reverse();
        assert_eq!(rev, ids);
        // Meet-in-the-middle.
        let mut it = root.children();
        assert_eq!(it.next(), Some(ids[0]));
        assert_eq!(it.next_back(), Some(ids[4]));
        assert_eq!(it.next(), Some(ids[1]));
        assert_eq!(it.next_back(), Some(ids[3]));
        assert_eq!(it.next(), Some(ids[2]));
        assert_eq!(it.next(), None);
        assert_eq!(it.next_back(), None);
    }
}
