//! The RAVE scene tree and its update protocol.
//!
//! The data service stores "data ... in the form of a scene tree; nodes of
//! the tree may contain various types of data, such as voxels, point clouds
//! or polygons" (§3.1.1). This crate provides:
//!
//! - the tree itself ([`tree::SceneTree`]) with typed content nodes,
//!   per-node transforms, world-space bounds and cost aggregation;
//! - the *update* protocol ([`update::SceneUpdate`]) that the data service
//!   multicasts to render services and records as an audit trail;
//! - the **audit trail** ([`audit::AuditTrail`]), the recent tail of a
//!   session's log that joining replicas catch up from (§5.5);
//! - **interest sets** ([`interest::InterestSet`]) marking which scene
//!   subsets a render service must be kept up to date on (§3.2.5);
//! - the **introspective marshal counts** ([`introspect::MarshalStats`]):
//!   the interface checks, field visits and bytes the paper's
//!   Java-introspection bottleneck (§5.5) is priced from, in closed form;
//! - a compact **binary wire codec** ([`wire`]) for updates, audit
//!   entries and whole-tree snapshots — the payload format of the
//!   `rave-store` write-ahead log and checkpoint files.

pub mod audit;
pub mod camera;
pub mod cost;
pub mod geometry;
pub mod interest;
pub mod introspect;
pub mod node;
pub mod tree;
pub mod update;
pub mod wire;

pub use audit::AuditEntry;
pub use audit::AuditTrail;
pub use camera::CameraParams;
pub use cost::NodeCost;
pub use geometry::{MeshData, PointCloudData, VolumeData};
pub use interest::{InterestIndex, InterestSet, Reach, SubSlot};
pub use node::{AvatarInfo, Interaction, KindTag, Node, NodeId, NodeKind, Transform};
pub use tree::{
    Children, Descendants, Dirt, EditClass, EditStamp, NodeMut, NodeRef, Parcel, SceneTree,
    TreeError,
};
pub use update::{SceneUpdate, StampedUpdate, UpdateError};
pub use wire::WireError;
