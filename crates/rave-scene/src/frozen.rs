//! The scene methods the end-to-end benchmark (`benchmark/`) still names.
//! That yardstick is frozen so it can judge the changes around it; nothing
//! else calls these, and the system moves subtrees as parcels
//! ([`SceneTree::extract_parcel`], [`SceneTree::adopt_parcel`]). They
//! leave when the yardstick is refreshed. Each is `#[deprecated]`, so
//! clippy's `-D warnings` rejects any other caller.
//!
//! A child of `tree` (declared there), so the bodies read the arena's
//! fields as they did where they were written.

#![allow(deprecated)]

use crate::interest::InterestSet;
use crate::node::NodeId;
use crate::tree::SceneTree;

#[doc(hidden)]
impl SceneTree {
    /// The closure of `roots` (see [`SceneTree::extract_parcel`]) as a
    /// standalone tree: a fresh tree with this tree's allocator state and
    /// root transform that adopts the parcel.
    #[deprecated(
        note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
    )]
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
    #[deprecated(
        note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
    )]
    pub fn merge_subset(&mut self, subset: &SceneTree) {
        self.adopt_parcel(&subset.extract_parcel(&[subset.root()]));
    }
}

#[doc(hidden)]
impl InterestSet {
    /// Does nothing: a set keeps no closure to recompute (it did once).
    #[deprecated(
        note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
    )]
    pub fn refresh(&mut self, _tree: &SceneTree) {}
}
