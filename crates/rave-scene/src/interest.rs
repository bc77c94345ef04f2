//! Interest sets.
//!
//! "To distribute the dataset, the data server requires sections of the
//! dataset to be marked as being of interest to a render service — this
//! render service must be updated if the data service receives any changes
//! to this subset of the data" (§3.2.5).

use crate::node::NodeId;
use crate::tree::{Dirt, SceneTree};
use crate::update::SceneUpdate;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::hash::BuildHasherDefault;

/// Keyed by the sequential ids the data service allocates, like the
/// tree's own id index: one multiply mixes them.
type IdMap<V> = HashMap<NodeId, V, BuildHasherDefault<crate::tree::IdHasher>>;

/// The set of subtree roots a render service has subscribed to. What the
/// subscription covers — the roots' subtrees plus, for orientation, their
/// ancestor chains (§3.2.5) — is read off the tree when asked
/// ([`InterestSet::contains`]), so a set is never out of step with the
/// scene and a root that changes hands costs one set edit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InterestSet {
    /// Subtree roots of interest.
    roots: BTreeSet<NodeId>,
    /// Whether this set subscribes to *everything* (a full replica, the
    /// common case for a render service that holds the whole scene).
    all: bool,
}

impl InterestSet {
    /// Interest in the entire scene.
    pub fn everything() -> Self {
        Self { all: true, ..Self::default() }
    }

    /// Interest in the given subtree roots.
    pub fn subtrees(roots: impl IntoIterator<Item = NodeId>) -> Self {
        Self { roots: roots.into_iter().collect(), ..Self::default() }
    }

    pub fn is_everything(&self) -> bool {
        self.all
    }

    pub fn roots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.roots.iter().copied()
    }

    /// Returns whether the root was new to the set.
    pub fn add_root(&mut self, id: NodeId) -> bool {
        self.roots.insert(id)
    }

    pub fn remove_root(&mut self, id: NodeId) -> bool {
        self.roots.remove(&id)
    }

    /// Is `id` a node of `tree` the subscription covers: inside a root's
    /// subtree (a root itself included), or an ancestor of a root? Costs
    /// the node's depth, and for an inner node one interval test per root.
    pub fn contains(&self, id: NodeId, tree: &SceneTree) -> bool {
        if self.holds_content(id, tree) {
            return true;
        }
        // Only an inner node orients a root: a leaf answers without the
        // pre-order cache, which a removal just invalidated.
        if tree.node(id).is_none_or(|n| n.child_count() == 0) {
            return false;
        }
        let Some((pos, len)) = tree.preorder_interval(id) else { return false };
        let inside = pos..pos + len;
        self.roots
            .iter()
            .any(|r| tree.preorder_interval(*r).is_some_and(|(at, _)| inside.contains(&at)))
    }

    /// Does the subscription hold `id` of `tree` as content, not only to
    /// orient a root: is it everything, or is `id` inside a root's subtree
    /// (a root itself included)? Costs the node's depth.
    pub fn holds_content(&self, id: NodeId, tree: &SceneTree) -> bool {
        self.all || self.holds_inside(id, tree)
    }

    /// Is a root of this set `id` or one of its ancestors in `tree`?
    /// Costs the node's depth.
    fn holds_inside(&self, id: NodeId, tree: &SceneTree) -> bool {
        tree.lineage(id).any(|n| self.roots.contains(&n))
    }

    /// Should `update` be delivered to the subscriber holding this set,
    /// judged against `tree` as it stands? The data service asks it of the
    /// master just before the update's own commit, so a removal is judged
    /// while its target is still there.
    ///
    /// An `AddNode` reaches the subscriptions that will hold the new node:
    /// those with a root at or above its *parent*, and those that already
    /// list the new id as a root. A subscriber that holds the parent only
    /// to orient a root is not sent it: its interest closure never holds
    /// such a node. Everything else is judged by its target
    /// ([`InterestSet::contains`]), and an update of a node the tree does
    /// not hold is delivered (a replica must not silently diverge). A
    /// camera or an avatar is routed as any other node: a full replica
    /// holds every collaborator (§3.2.4), a subset replica the ones inside
    /// its subtrees and those that orient a root.
    pub fn relevant(&self, update: &SceneUpdate, tree: &SceneTree) -> bool {
        if self.all {
            return true;
        }
        match update {
            SceneUpdate::AddNode { parent, id, .. } => {
                self.roots.contains(id) || self.holds_inside(*parent, tree)
            }
            // An unknown target is delivered conservatively.
            other => !tree.contains(other.target()) || self.contains(other.target(), tree),
        }
    }
}

/// Who an update reaches, as [`InterestIndex::matches`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reach {
    /// Every subscriber: an update to a target the tree does not hold, or
    /// any update when every subscriber is a full replica. Nothing is
    /// listed.
    Everyone,
    /// The slots listed, ascending (possibly none).
    Slots,
}

/// A subscriber's dense handle inside an [`InterestIndex`]: slots are
/// assigned `0..n` in the iteration order of the interest sets passed to
/// [`InterestIndex::rebuild`], and stay valid until the next rebuild.
pub type SubSlot = u32;

/// One unique interest root shared by every subscriber that listed it.
#[derive(Debug, Clone)]
struct RootEntry {
    root: NodeId,
    /// Subscriber slots holding this root (each at most once: roots are a
    /// set per subscriber).
    subs: Vec<SubSlot>,
    /// The root's ancestor chain (bottom-up, root excluded) as of the
    /// last rebuild/repair — keyed by stable ids, so it is only recomputed
    /// when a structural edit touched the root or one of these ancestors.
    chain: Vec<NodeId>,
}

/// The inverted interest index: instead of asking every subscriber's
/// [`InterestSet`] whether one update is relevant (O(subscribers) probes
/// per update), index the subscriptions once and ask which
/// subscribers one update reaches — O(depth + matches) per update.
///
/// Layout: subscribers with `everything` interest live in a bitset;
/// subtree interests are a hash-map from root id to the slots that list
/// it, probed once per node on the walk from the update's point up to the
/// scene root (a point lies in subtree(r) exactly when r is on its
/// lineage); ancestor-of-root interest ("the parent nodes to orientate the
/// scene subset", §3.2.5) is a hash-map from ancestor id to subscriber
/// slots. Nothing is keyed by pre-order position, so a structural edit
/// costs the index no rebuild of the tree's structure cache, however many
/// are routed between commits. Decisions are bit-for-bit those of
/// [`InterestSet::relevant`] — proptest-pinned in
/// `tests/proptest_interest.rs`.
///
/// Maintenance is incremental: the owner reads the tree's `Structure`
/// edits since its last read ([`SceneTree::changes_since`]) into
/// [`InterestIndex::repair`], which recomputes only the ancestor chains
/// the dirty ids could have changed; and a subscriber that gains or drops
/// one root (a migration) is one [`InterestIndex::add_root`] /
/// [`InterestIndex::remove_root`], which touch that root's entry and the
/// slot lists along its chain and renumber nobody. Only a change of the
/// subscriber population needs a rebuild.
#[derive(Debug, Clone, Default)]
pub struct InterestIndex {
    n_subs: usize,
    /// Bitset of subscribers with `all` interest.
    everything: Vec<u64>,
    /// How many subscribers are in `everything`: when all are, every
    /// update reaches everyone.
    n_everything: usize,
    roots: Vec<RootEntry>,
    /// Root id → its entry in `roots`.
    entry_of: IdMap<u32>,
    /// Ancestor id → subscriber slots owed the node because it orients
    /// one of their interest roots, ascending, each with the number of
    /// (root, chain) pairs that owe it: a root changing hands finds its
    /// slot by bisection however many roots share the ancestor.
    ancestor_subs: IdMap<Vec<(SubSlot, u32)>>,
    /// Match accumulator reused across queries.
    scratch: Vec<u64>,
}

impl InterestIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribers indexed by the last [`InterestIndex::rebuild`].
    pub fn n_subs(&self) -> usize {
        self.n_subs
    }

    /// Re-index from scratch: slot `i` is the `i`-th set of `sets`. Call
    /// when the subscriber population or any set's roots changed; for
    /// structural scene edits [`InterestIndex::repair`] is the cheap path.
    pub fn rebuild<'a>(
        &mut self,
        tree: &SceneTree,
        sets: impl IntoIterator<Item = &'a InterestSet>,
    ) {
        self.roots.clear();
        self.everything.clear();
        self.entry_of.clear();
        self.n_everything = 0;
        let mut n = 0usize;
        for (i, set) in sets.into_iter().enumerate() {
            let slot = i as SubSlot;
            n = i + 1;
            self.everything.resize(n.div_ceil(64), 0);
            if set.is_everything() {
                mark(&mut self.everything, std::iter::once(slot));
                self.n_everything += 1;
                continue;
            }
            for root in set.roots() {
                let e = *self.entry_of.entry(root).or_insert_with(|| {
                    self.roots.push(RootEntry { root, subs: Vec::new(), chain: Vec::new() });
                    (self.roots.len() - 1) as u32
                });
                self.roots[e as usize].subs.push(slot);
            }
        }
        self.n_subs = n;
        for e in &mut self.roots {
            e.chain = tree.ancestors(e.root);
        }
        self.rebuild_ancestor_map();
    }

    /// Fold a batch of structural edits into the index: a root's ancestor
    /// chain is recomputed only if the batch touched the root or a node of
    /// its recorded chain — sufficient, because an edit moving node `x` moves
    /// exactly `subtree(x)`, and root `r ∈ subtree(x)` iff `x` is `r` or
    /// on `r`'s chain as recorded before the edit.
    pub fn repair(&mut self, tree: &SceneTree, dirt: &Dirt) {
        let dirty_ids: &[NodeId] = match dirt {
            Dirt::Clean => return,
            Dirt::Nodes(ids) => ids,
            Dirt::Everything => &[],
        };
        let all = matches!(dirt, Dirt::Everything);
        let mut chains_changed = false;
        for e in &mut self.roots {
            let affected = all
                || dirty_ids.binary_search(&e.root).is_ok()
                || e.chain.iter().any(|a| dirty_ids.binary_search(a).is_ok());
            if !affected {
                continue;
            }
            let chain = tree.ancestors(e.root);
            if chain != e.chain {
                e.chain = chain;
                chains_changed = true;
            }
        }
        if chains_changed {
            self.rebuild_ancestor_map();
        }
    }

    fn holds_everything(&self, sub: SubSlot) -> bool {
        is_set(&self.everything, sub)
    }

    /// Subscriber `sub` added `root` to its interest roots
    /// ([`InterestSet::add_root`] returned true): index it as a rebuild
    /// over the edited sets would, with every slot number where it is. The
    /// root's entry gains the slot, and each ancestor on the entry's chain
    /// one occurrence of it; a root new to the index gains its entry (chain
    /// read off `tree` as it stands). An `everything` subscriber is indexed
    /// by its bit alone, as in a rebuild.
    pub fn add_root(&mut self, tree: &SceneTree, sub: SubSlot, root: NodeId) {
        debug_assert!((sub as usize) < self.n_subs, "slot {sub} of {}", self.n_subs);
        if self.holds_everything(sub) {
            return;
        }
        let e = match self.entry_of.get(&root) {
            Some(&e) => e as usize,
            None => {
                let e = self.roots.len();
                self.roots.push(RootEntry { root, subs: Vec::new(), chain: tree.ancestors(root) });
                self.entry_of.insert(root, e as u32);
                e
            }
        };
        let entry = &mut self.roots[e];
        if entry.subs.contains(&sub) {
            return; // roots are a set per subscriber
        }
        entry.subs.push(sub);
        for &a in &entry.chain {
            let owed = self.ancestor_subs.entry(a).or_default();
            match owed.binary_search_by_key(&sub, |&(s, _)| s) {
                Ok(at) => owed[at].1 += 1,
                Err(at) => owed.insert(at, (sub, 1)),
            }
        }
    }

    /// Subscriber `sub` dropped `root` from its interest roots
    /// ([`InterestSet::remove_root`] returned true): the inverse of
    /// [`InterestIndex::add_root`]. An entry nobody holds any more leaves
    /// the index.
    pub fn remove_root(&mut self, sub: SubSlot, root: NodeId) {
        if self.holds_everything(sub) {
            return;
        }
        let Some(&e) = self.entry_of.get(&root) else { return };
        let entry = &mut self.roots[e as usize];
        let Some(at) = entry.subs.iter().position(|&s| s == sub) else { return };
        entry.subs.swap_remove(at);
        for a in &entry.chain {
            let owed = self.ancestor_subs.get_mut(a).expect("every chain node has its list");
            let at = owed.binary_search_by_key(&sub, |&(s, _)| s).expect("counted once per entry");
            owed[at].1 -= 1;
            if owed[at].1 == 0 {
                owed.remove(at);
            }
        }
        if entry.subs.is_empty() {
            self.entry_of.remove(&root);
            self.roots.swap_remove(e as usize);
            if let Some(moved) = self.roots.get(e as usize) {
                self.entry_of.insert(moved.root, e);
            }
        }
    }

    /// Which subscribers must `update` reach, judged against `tree` as it
    /// stands? Any update while every subscriber is a full replica, and an
    /// update to an unknown target, reach [`Reach::Everyone`], reported
    /// without listing anyone; otherwise `out` is filled with the matching
    /// slots in ascending order ([`Reach::Slots`]): the `everything`
    /// subscribers, the holders of every root on the walk from the point up
    /// to the scene root, and then, for an `AddNode` (whose point is its
    /// parent), the holders of the new id as a root, for anything else
    /// (whose point is its target) the subscribers the target orients.
    /// Decision per slot is identical to [`InterestSet::relevant`]. With no
    /// subscribers nothing is reached.
    pub fn matches(
        &mut self,
        update: &SceneUpdate,
        tree: &SceneTree,
        out: &mut Vec<SubSlot>,
    ) -> Reach {
        out.clear();
        if self.n_subs == 0 {
            return Reach::Slots;
        }
        if self.n_everything == self.n_subs {
            return Reach::Everyone; // every subscriber is a full replica
        }
        let (point, added) = match update {
            SceneUpdate::AddNode { parent, id, .. } => (*parent, Some(*id)),
            other if tree.contains(other.target()) => (other.target(), None),
            _ => return Reach::Everyone, // unknown target
        };
        let Self { everything, roots, entry_of, ancestor_subs, scratch, .. } = self;
        scratch.clear();
        scratch.extend_from_slice(everything);
        let holders = |root: NodeId| entry_of.get(&root).map(|&e| &roots[e as usize].subs);
        for subs in tree.lineage(point).filter_map(holders) {
            mark(scratch, subs.iter().copied());
        }
        match added {
            Some(id) => mark(scratch, holders(id).into_iter().flatten().copied()),
            None => mark(scratch, ancestor_subs.get(&point).into_iter().flatten().map(|p| p.0)),
        }
        for (w, &bits) in scratch.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(w as u32 * 64 + b);
                bits &= bits - 1;
            }
        }
        Reach::Slots
    }

    fn rebuild_ancestor_map(&mut self) {
        self.ancestor_subs.clear();
        for e in &self.roots {
            for &a in &e.chain {
                self.ancestor_subs.entry(a).or_default().extend(e.subs.iter().map(|&s| (s, 1)));
            }
        }
        for owed in self.ancestor_subs.values_mut() {
            owed.sort_unstable();
            owed.dedup_by(|next, kept| {
                let same = next.0 == kept.0;
                kept.1 += if same { next.1 } else { 0 };
                same
            });
        }
    }
}

/// Is `slot`'s bit set in `bits`?
fn is_set(bits: &[u64], slot: SubSlot) -> bool {
    bits.get((slot / 64) as usize).is_some_and(|w| w >> (slot % 64) & 1 == 1)
}

/// Set each slot's bit in `bits`.
fn mark(bits: &mut [u64], slots: impl Iterator<Item = SubSlot>) {
    for s in slots {
        bits[(s / 64) as usize] |= 1u64 << (s % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeKind, Transform};
    use crate::tree::{EditClass, EditStamp};

    /// One read of an index owner: the structural edits since `seen`,
    /// which moves up to now.
    fn structure_dirt(tree: &mut SceneTree, seen: &mut EditStamp) -> Dirt {
        let dirt = tree.changes_since(*seen, &[EditClass::Structure]);
        *seen = tree.edit_stamp();
        dirt
    }

    fn build_tree() -> (SceneTree, NodeId, NodeId, NodeId) {
        let mut t = SceneTree::new();
        let left = t.add_node(t.root(), "left", NodeKind::Group).unwrap();
        let leaf = t.add_node(left, "leaf", NodeKind::Group).unwrap();
        let right = t.add_node(t.root(), "right", NodeKind::Group).unwrap();
        (t, left, leaf, right)
    }

    #[test]
    fn everything_is_relevant() {
        let (tree, left, ..) = build_tree();
        let set = InterestSet::everything();
        let u = SceneUpdate::SetName { id: left, name: "x".into() };
        assert!(set.relevant(&u, &tree));
    }

    #[test]
    fn subtree_updates_relevant_descendant_and_ancestor() {
        let (tree, left, leaf, right) = build_tree();
        let set = InterestSet::subtrees([left]);
        // Descendant of interest root.
        assert!(set.relevant(&SceneUpdate::SetName { id: leaf, name: "x".into() }, &tree));
        // Ancestor (root) transform orients the subset — relevant.
        assert!(set.relevant(
            &SceneUpdate::SetTransform { id: tree.root(), transform: Transform::IDENTITY },
            &tree
        ));
        // Unrelated sibling subtree — not relevant.
        assert!(!set.relevant(&SceneUpdate::SetName { id: right, name: "x".into() }, &tree));
    }

    #[test]
    fn add_node_judged_by_parent() {
        let (tree, left, _, right) = build_tree();
        let set = InterestSet::subtrees([left]);
        let inside = SceneUpdate::AddNode {
            id: NodeId(99),
            parent: left,
            name: "n".into(),
            kind: NodeKind::Group,
        };
        let outside = SceneUpdate::AddNode {
            id: NodeId(100),
            parent: right,
            name: "n".into(),
            kind: NodeKind::Group,
        };
        assert!(set.relevant(&inside, &tree));
        assert!(!set.relevant(&outside, &tree));
    }

    /// A node added under a group the set holds only to orient a root is
    /// outside the set's closure: not sent. One whose id the set already
    /// lists as a root is inside it, wherever it hangs.
    #[test]
    fn an_add_reaches_the_sets_that_will_hold_the_new_node() {
        let (tree, left, leaf, right) = build_tree();
        let add = |id, parent| SceneUpdate::AddNode {
            id: NodeId(id),
            parent,
            name: "n".into(),
            kind: NodeKind::Group,
        };
        let set = InterestSet::subtrees([leaf, NodeId(77)]);
        assert!(set.contains(left, &tree), "`left` orients `leaf`");
        assert!(!set.relevant(&add(99, left), &tree));
        assert!(!set.relevant(&add(99, tree.root()), &tree));
        assert!(set.relevant(&add(99, leaf), &tree));
        assert!(set.relevant(&add(77, right), &tree), "a listed root arrives");
    }

    #[test]
    fn unknown_target_delivered_conservatively() {
        let (tree, left, ..) = build_tree();
        let set = InterestSet::subtrees([left]);
        let u = SceneUpdate::RemoveNode { id: NodeId(1234) };
        assert!(set.relevant(&u, &tree));
    }

    #[test]
    fn add_remove_roots() {
        let (tree, left, _, right) = build_tree();
        let mut set = InterestSet::subtrees([left]);
        assert!(set.add_root(right) && !set.add_root(right));
        assert!(set.contains(right, &tree));
        assert!(set.remove_root(right));
        assert!(!set.remove_root(right));
        assert!(!set.contains(right, &tree));
    }

    // ---- inverted index -------------------------------------------------

    /// The oracle: every subscriber asked in turn.
    fn naive(sets: &[InterestSet], u: &SceneUpdate, tree: &SceneTree) -> Vec<u32> {
        let relevant = |(i, s): (usize, &InterestSet)| s.relevant(u, tree).then_some(i as u32);
        sets.iter().enumerate().filter_map(relevant).collect()
    }

    /// The index's answer with [`Reach::Everyone`] spelled out.
    fn indexed(ix: &mut InterestIndex, u: &SceneUpdate, tree: &SceneTree) -> Vec<u32> {
        let mut out = Vec::new();
        if ix.matches(u, tree, &mut out) == Reach::Everyone {
            out.extend(0..ix.n_subs() as u32);
        }
        out
    }

    #[test]
    fn index_matches_naive_scan() {
        let (tree, left, leaf, right) = build_tree();
        let pending = NodeId(tree.id_allocator_state());
        let sets = [
            InterestSet::everything(),
            InterestSet::subtrees([left]),
            InterestSet::subtrees([right]),
            InterestSet::subtrees([leaf]),
            InterestSet::subtrees([left, right]),
            InterestSet::subtrees([pending, leaf]),
        ];
        let mut ix = InterestIndex::new();
        ix.rebuild(&tree, sets.iter());
        let add = |id, parent| SceneUpdate::AddNode {
            id,
            parent,
            name: "n".into(),
            kind: NodeKind::Group,
        };
        let updates = [
            SceneUpdate::SetName { id: left, name: "l".into() },
            SceneUpdate::SetName { id: leaf, name: "f".into() },
            SceneUpdate::SetName { id: right, name: "r".into() },
            SceneUpdate::SetTransform { id: tree.root(), transform: Transform::IDENTITY },
            SceneUpdate::RemoveNode { id: NodeId(999) }, // unknown: everyone
            SceneUpdate::RemoveNode { id: leaf },
            add(NodeId(50), leaf),
            // Under a group `leaf`'s subscribers hold only for orientation.
            add(NodeId(51), left),
            add(NodeId(52), tree.root()),
            // A root a subscriber lists before the tree holds it.
            add(pending, right),
            add(pending, NodeId(999)),
        ];
        for u in &updates {
            assert_eq!(indexed(&mut ix, u, &tree), naive(&sets, u, &tree), "update {u:?}");
        }
        assert_eq!(indexed(&mut ix, &updates[7], &tree), vec![0, 1, 4], "not `leaf`'s");
        assert_eq!(indexed(&mut ix, &updates[9], &tree), vec![0, 2, 4, 5]);
    }

    /// A population of full replicas is reached as [`Reach::Everyone`] by
    /// any update, listed nowhere; one subset subscriber among them turns
    /// every update but one to an unknown target into [`Reach::Slots`]. A
    /// camera or an avatar is routed as any other node: its join and its
    /// poses reach a subset whose root is above it, and not one that only
    /// holds the chain it hangs off.
    #[test]
    fn an_all_full_population_is_everyone_and_presence_routes_as_any_node() {
        let (mut tree, left, leaf, right) = build_tree();
        let info = crate::node::AvatarInfo {
            label: "u".into(),
            color: rave_math::Vec3::X,
            camera: Default::default(),
        };
        let av = tree.add_node(leaf, "av", NodeKind::Avatar(info.clone())).unwrap();
        let cam = tree.add_node(tree.root(), "cam", NodeKind::Camera(Default::default())).unwrap();
        let pose = |id| SceneUpdate::CameraMoved { id, camera: Default::default() };
        let join = |parent| SceneUpdate::AddNode {
            id: NodeId(50),
            parent,
            name: "j".into(),
            kind: NodeKind::Avatar(info.clone()),
        };
        let probes = [
            pose(av),
            pose(cam),
            join(leaf),
            join(tree.root()),
            SceneUpdate::SetName { id: right, name: "r".into() },
            SceneUpdate::RemoveNode { id: left },
            SceneUpdate::SetName { id: NodeId(999), name: "ghost".into() },
        ];
        let full = [InterestSet::everything(), InterestSet::everything()];
        let mut ix = InterestIndex::new();
        ix.rebuild(&tree, full.iter());
        let mut out = vec![7];
        for u in &probes {
            assert_eq!(ix.matches(u, &tree, &mut out), Reach::Everyone, "{u:?}");
            assert!(out.is_empty(), "everyone is reported, not listed");
        }
        let mixed = [
            InterestSet::everything(),
            InterestSet::subtrees([left]),
            InterestSet::subtrees([right]),
            InterestSet::subtrees([leaf]),
        ];
        ix.rebuild(&tree, mixed.iter());
        for u in &probes[..6] {
            assert_eq!(ix.matches(u, &tree, &mut out), Reach::Slots, "{u:?}");
            assert_eq!(indexed(&mut ix, u, &tree), naive(&mixed, u, &tree), "{u:?}");
        }
        assert_eq!(ix.matches(&probes[6], &tree, &mut out), Reach::Everyone, "unknown");
        assert_eq!(indexed(&mut ix, &pose(av), &tree), vec![0, 1, 3], "the avatar's holders");
        assert_eq!(indexed(&mut ix, &join(leaf), &tree), vec![0, 1, 3]);
        assert_eq!(indexed(&mut ix, &pose(cam), &tree), vec![0], "the full replica alone");
        assert_eq!(indexed(&mut ix, &join(tree.root()), &tree), vec![0]);
    }

    #[test]
    fn index_repair_follows_structural_edits() {
        let (mut tree, left, leaf, right) = build_tree();
        let sets = [
            InterestSet::subtrees([left]),
            InterestSet::subtrees([right]),
            InterestSet::everything(),
        ];
        let mut ix = InterestIndex::new();
        let mut seen = EditStamp::default();
        structure_dirt(&mut tree, &mut seen);
        ix.rebuild(&tree, sets.iter());
        // Grow the subscribed subtree, move `leaf` across to `right`,
        // remove `left` entirely — repairing from dirt after each edit.
        let grown = tree.add_node(left, "grown", NodeKind::Group).unwrap();
        let dirt = structure_dirt(&mut tree, &mut seen);
        ix.repair(&tree, &dirt);
        let u = SceneUpdate::SetName { id: grown, name: "g".into() };
        assert_eq!(indexed(&mut ix, &u, &tree), naive(&sets, &u, &tree));

        tree.reparent(leaf, right).unwrap();
        let dirt = structure_dirt(&mut tree, &mut seen);
        ix.repair(&tree, &dirt);
        let u = SceneUpdate::SetName { id: leaf, name: "f".into() };
        assert_eq!(indexed(&mut ix, &u, &tree), naive(&sets, &u, &tree));

        tree.remove(left).unwrap();
        let dirt = structure_dirt(&mut tree, &mut seen);
        ix.repair(&tree, &dirt);
        // The removed root matches nothing but unknown-target updates now
        // go to everyone — exactly like the naive scan.
        let u = SceneUpdate::SetName { id: grown, name: "x".into() };
        assert_eq!(indexed(&mut ix, &u, &tree), naive(&sets, &u, &tree));
        let u = SceneUpdate::SetName { id: leaf, name: "y".into() };
        assert_eq!(indexed(&mut ix, &u, &tree), naive(&sets, &u, &tree));
    }

    /// Edit the sets and patch the index root by root: every probe must be
    /// answered as an index rebuilt from the edited sets answers it.
    #[test]
    fn a_patched_index_routes_as_a_rebuilt_one() {
        let (mut tree, left, leaf, right) = build_tree();
        let deep = tree.add_node(leaf, "deep", NodeKind::Group).unwrap();
        let mut sets = vec![
            InterestSet::subtrees([left]),
            InterestSet::subtrees([]),
            InterestSet::everything(),
            InterestSet::subtrees([right, leaf]),
        ];
        let mut ix = InterestIndex::new();
        ix.rebuild(&tree, sets.iter());
        let probes = |tree: &SceneTree| -> Vec<SceneUpdate> {
            let mut ids = tree.descendants(tree.root());
            ids.push(NodeId(999));
            ids.into_iter().map(|id| SceneUpdate::SetName { id, name: "p".into() }).collect()
        };
        let check = |ix: &mut InterestIndex, sets: &[InterestSet], tree: &SceneTree| {
            let mut fresh = InterestIndex::new();
            fresh.rebuild(tree, sets);
            for u in probes(tree) {
                assert_eq!(indexed(ix, &u, tree), indexed(&mut fresh, &u, tree), "{u:?}");
            }
        };
        let give = |ix: &mut InterestIndex, sets: &mut [InterestSet], t: &SceneTree, sub, root| {
            if sets[sub as usize].add_root(root) {
                ix.add_root(t, sub, root);
            }
        };
        let take = |ix: &mut InterestIndex, sets: &mut [InterestSet], sub, root| {
            if sets[sub as usize].remove_root(root) {
                ix.remove_root(sub, root);
            }
        };
        // A move: `left` from slot 0 to slot 1, its entry never empty.
        give(&mut ix, &mut sets, &tree, 1, left);
        take(&mut ix, &mut sets, 0, left);
        check(&mut ix, &sets, &tree);
        // A root new to the index, held twice (the second add is a no-op),
        // then by nobody: its entry comes and goes.
        give(&mut ix, &mut sets, &tree, 0, deep);
        give(&mut ix, &mut sets, &tree, 0, deep);
        check(&mut ix, &sets, &tree);
        take(&mut ix, &mut sets, 0, deep);
        take(&mut ix, &mut sets, 0, deep);
        check(&mut ix, &sets, &tree);
        // The last entry leaving moves nothing; one in the middle moves the
        // last into its place.
        take(&mut ix, &mut sets, 3, right);
        check(&mut ix, &sets, &tree);
        // An `everything` subscriber's roots are not indexed, either way.
        give(&mut ix, &mut sets, &tree, 2, right);
        check(&mut ix, &sets, &tree);
        take(&mut ix, &mut sets, 2, right);
        check(&mut ix, &sets, &tree);
        // A root the tree does not hold yet: indexed when it arrives.
        let later = NodeId(tree.id_allocator_state());
        give(&mut ix, &mut sets, &tree, 1, later);
        check(&mut ix, &sets, &tree);
        let mut seen = EditStamp::default();
        structure_dirt(&mut tree, &mut seen);
        tree.insert_with_id(later, right, "later", NodeKind::Group).unwrap();
        let dirt = structure_dirt(&mut tree, &mut seen);
        ix.repair(&tree, &dirt);
        check(&mut ix, &sets, &tree);
        assert_eq!(ix.n_subs(), 4, "nobody was renumbered");
    }

    #[test]
    fn index_repair_recomputes_ancestor_chains() {
        // Reparenting a subscribed root under a new ancestor must reroute
        // that ancestor's orientation updates to the subscriber.
        let mut tree = SceneTree::new();
        let a = tree.add_node(tree.root(), "a", NodeKind::Group).unwrap();
        let b = tree.add_node(tree.root(), "b", NodeKind::Group).unwrap();
        let x = tree.add_node(a, "x", NodeKind::Group).unwrap();
        let sets = [InterestSet::subtrees([x])];
        let mut ix = InterestIndex::new();
        let mut seen = EditStamp::default();
        structure_dirt(&mut tree, &mut seen);
        ix.rebuild(&tree, sets.iter());
        let u_a = SceneUpdate::SetName { id: a, name: "a2".into() };
        let u_b = SceneUpdate::SetName { id: b, name: "b2".into() };
        assert_eq!(indexed(&mut ix, &u_a, &tree), vec![0], "old ancestor relevant");
        assert_eq!(indexed(&mut ix, &u_b, &tree), Vec::<u32>::new());

        tree.reparent(x, b).unwrap();
        let dirt = structure_dirt(&mut tree, &mut seen);
        ix.repair(&tree, &dirt);
        assert_eq!(indexed(&mut ix, &u_a, &tree), naive(&sets, &u_a, &tree));
        assert_eq!(indexed(&mut ix, &u_b, &tree), naive(&sets, &u_b, &tree));
        assert_eq!(indexed(&mut ix, &u_b, &tree), vec![0], "new ancestor now relevant");
    }
}
