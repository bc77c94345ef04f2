//! The entry points the end-to-end benchmark (`benchmark/`) still names.
//! That yardstick is frozen so it can judge the changes around it; nothing
//! else calls these. Each is re-exported at the path `benchmark/` imports
//! and leaves when the yardstick is refreshed. Each is `#[deprecated]`, so
//! clippy's `-D warnings` rejects any other caller. The live paths:
//!
//! - a replica is a fresh tree that adopts the master's parcel
//!   ([`rave_scene::SceneTree::extract_parcel`], as a bootstrap builds one);
//! - a store directory is read back by [`rave_store::recover()`];
//! - a subscription needs no refresh: every write to one schedules its own
//!   index rebuild;
//! - a rebalance runs the detectors of [`crate::sched::rebalance`] and
//!   hands their events to `process_events` or `incremental_replan`.

#![allow(deprecated)]

use crate::data_service::DataService;
use rave_scene::{InterestSet, NodeId, SceneTree};
use rave_store::Recovery;
use std::io;
use std::path::Path;

/// The closure a bootstrap ships, as a standalone tree: the master's clone
/// or [`SceneTree::extract_subset`].
#[deprecated(
    note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
)]
pub fn snapshot_for(scene: &SceneTree, interest: &InterestSet) -> SceneTree {
    if interest.is_everything() {
        scene.clone()
    } else {
        let roots: Vec<NodeId> = interest.roots().collect();
        scene.extract_subset(&roots)
    }
}

/// The name `benchmark/` recovers a store directory by.
#[deprecated(
    note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
)]
#[derive(Debug)]
pub struct StorePersistence;

impl StorePersistence {
    /// [`rave_store::recover()`]: the latest snapshot plus the WAL tail past it.
    pub fn recover(dir: impl AsRef<Path>) -> io::Result<Recovery> {
        rave_store::recover(dir.as_ref())
    }
}

#[doc(hidden)]
impl DataService {
    /// Schedule an index rebuild. Nothing needs one: every write to the
    /// subscriptions schedules its own. (The name is from when each
    /// interest set also kept a closure this recomputed.)
    #[deprecated(
        note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
    )]
    pub fn refresh_interests(&mut self) {
        self.index_stale = true;
    }
}

/// Workload migration (§3.2.7) under its old entry points: each runs the
/// detectors and the event handlers of [`crate::sched::rebalance`].
pub mod migration {
    use crate::ids::DataServiceId;
    use crate::sched::rebalance::{
        detect_cost_drift, detect_overload, detect_underload, incremental_replan, process_events,
        IncrementalOutcome, SchedEvent,
    };
    use crate::world::RaveSim;

    pub use crate::sched::rebalance::MigrationOutcome;

    /// Handle the death of the data service itself — the last single point
    /// of failure. The event flows through the same rebalance engine as
    /// every other trigger: a warm standby (log-shipping link, see
    /// [`crate::replica`]) is promoted in place; without one the service is
    /// rebuilt cold from its durable store, and with neither the session is
    /// refused as lost.
    #[deprecated(
        note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
    )]
    pub fn handle_data_service_failure(sim: &mut RaveSim, dead: DataServiceId) -> MigrationOutcome {
        process_events(sim, dead, &[SchedEvent::DataFailure { service: dead }])
    }

    /// One *incremental* rebalance pass for `ds_id`: run every detector and
    /// fold the whole event batch into the data service's persistent plan —
    /// the replay touches only the affected queue slice and emits a minimal
    /// migration diff.
    #[deprecated(
        note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
    )]
    pub fn check_and_replan_incremental(
        sim: &mut RaveSim,
        ds_id: DataServiceId,
    ) -> IncrementalOutcome {
        let mut events = detect_overload(sim, ds_id);
        events.extend(detect_underload(sim, ds_id));
        events.extend(detect_cost_drift(sim, ds_id));
        incremental_replan(sim, ds_id, &events)
    }
}
