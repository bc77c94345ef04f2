//! Discrete-event simulation kernel.
//!
//! The paper's evaluation reports wall-clock timings measured on 2004
//! hardware (SGI Onyx, Sun V880z, a Zaurus PDA) and physical networks
//! (11 Mbit/s 802.11b, 100 Mbit ethernet). None of that hardware exists
//! here, so every experiment that reports *time* runs on this kernel's
//! virtual clock instead: services charge model-derived durations for
//! compute (rendering, SOAP marshalling) and transfers, and the event queue
//! advances time deterministically.
//!
//! Design notes:
//! - Events are `FnOnce(&mut Simulation<W>)` closures over a user world `W`,
//!   so handlers can both mutate the world and schedule follow-up events.
//! - Ties at the same timestamp are broken by insertion order (a strictly
//!   monotone sequence number), which makes runs bit-reproducible.
//! - Randomness comes from [`rng::SimRng`], a SplitMix64 generator seeded
//!   per experiment; no global or OS entropy is ever consulted.

pub mod engine;
pub mod metrics;
pub mod rng;
pub mod time;

pub use engine::{EventId, Simulation};
pub use metrics::{Histogram, Occupancy};
pub use rng::SimRng;
pub use time::SimTime;
