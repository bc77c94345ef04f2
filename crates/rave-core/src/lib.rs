//! RAVE — the Resource-Aware Visualization Environment (SC2004),
//! reproduced in Rust.
//!
//! This crate is the paper's contribution proper, assembled from the
//! substrate crates:
//!
//! | Paper concept (section) | Module |
//! |---|---|
//! | Data service (§3.1.1) | [`data_service`] |
//! | Render service (§3.1.2) | [`render_service`] |
//! | Thin client (§3.1.3) | [`thin_client`] |
//! | Capacity interrogation (§3.2.5) | [`capacity`] |
//! | Dataset distribution (§3.2.5) | [`distribution`] |
//! | Framebuffer/tile distribution (§3.2.5) | [`tiles`] |
//! | Unified workload scheduler (§3.2.5, §3.2.7) | [`sched`] |
//! | Workload migration (§3.2.7) | [`migration`] |
//! | What a migration need not resend (§3.2.7) | [`release_ledger`] |
//! | Collaboration & avatars (§3.2.4, §5.2) | [`collaboration`] |
//! | GUI: pick/select/drag + interrogation menus (§5.2) | [`gui`] |
//! | Bootstrap with update overlap (§5.5) | [`bootstrap`] |
//! | Compressed frame streaming (§5.1, §6) | [`frame_stream`] |
//! | The assembled world (testbed, §4.4) | [`world`] |
//! | Distributed volume rendering (§6) | [`volume_dist`] |
//! | Computational steering / remote bridge (§5.2) | [`steering`] |
//! | Data-service mirroring & failover: WAL log shipping to a warm standby (§6) | [`replica`] |
//! | Durable session store & crash recovery (§3.1.1) | [`data_service`] over `rave_store` |
//!
//! Everything runs inside a `rave_sim::Simulation<RaveWorld>`: service
//! logic executes immediately (it is ordinary Rust), while *durations* —
//! network transfers, SOAP marshalling, rendering — are charged to the
//! virtual clock through the cost models of the substrate crates.

pub mod bootstrap;
pub mod capacity;
pub mod collaboration;
pub mod config;
pub mod data_service;
mod delivery;
pub mod distribution;
pub mod frame_stream;
pub mod gui;
pub mod ids;
pub mod migration;
pub mod release_ledger;
pub mod render_service;
pub mod replica;
pub mod sched;
pub mod steering;
pub mod thin_client;
pub mod tiles;
pub mod trace;
pub mod volume_dist;
pub mod world;

pub use capacity::CapacityReport;
pub use config::RaveConfig;
pub use data_service::StorePersistence;
pub use ids::{ClientId, DataServiceId, RenderServiceId};
pub use world::{RaveSim, RaveWorld};
