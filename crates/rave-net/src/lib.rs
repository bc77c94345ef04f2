//! Simulated heterogeneous networking.
//!
//! The paper's testbed spans 100 Mbit ethernet (service ↔ service) and an
//! 11 Mbit/s 802.11b wireless hop to the PDA whose bandwidth "is
//! proportional to signal quality" (§5.1). This crate models:
//!
//! - [`link::LinkSpec`] — bandwidth/latency/efficiency of one medium,
//!   calibrated so a 120 kB frame crosses the wireless link in ≈0.2 s
//!   (Table 2's image-receipt column) and ≈5 fps of 200×200 frames
//!   saturate it at ≈580 kB/s (§5.1);
//! - [`topology::Network`] — named hosts on named segments with per-pair
//!   links, answering "how long does `n` bytes take from A to B";
//! - [`channel::Channel`] — a serializing send queue over a link
//!   (back-to-back frames queue behind each other, which is what turns
//!   link bandwidth into the PDA's frame-rate ceiling);
//! - [`multicast`] — data-service fan-out that charges each network
//!   segment once, "using network bandwidth-saving techniques such as
//!   multicasting" (§3.1.2).

pub mod channel;
#[doc(hidden)]
mod frozen;
pub mod link;
pub mod multicast;
pub mod topology;

pub use channel::Channel;
#[doc(hidden)]
#[allow(deprecated)]
pub use frozen::{multicast_deliver, MulticastDelivery};
pub use link::LinkSpec;
pub use multicast::{unicast_cost, Fanout, FanoutCost, LinkClass};
pub use topology::{HostId, Network};
