//! The unified workload scheduler (§3.2.5, §3.2.7).
//!
//! The paper's headline contribution is *automatic* distribution of
//! rendering workloads, and the repro had grown three parallel placement
//! paths — dataset bin-packing in [`crate::distribution`], tile splitting
//! with EWMA cost feedback in [`crate::tiles`], volume bricking in
//! [`crate::volume_dist`] — plus a fourth consumer
//! ([`crate::migration`]) that re-derived overload/underload/failure
//! decisions from raw [`crate::capacity::CapacityReport`]s. This module
//! is the one placement engine all of them now flow through:
//!
//! * [`placement`] — capacity-aware first-fit-decreasing bin-packing with
//!   spatial splitting (subsuming `plan_distribution` + `split_node`),
//!   plus the candidate-ranking primitive the tile planner shares, and the
//!   considered candidates of each choice for the
//!   [`crate::trace::TraceKind::SchedDecision`] audit stream.
//! * [`feedback`] — the generalized EWMA [`feedback::ThroughputTracker`]
//!   (promoted out of `tiles.rs`) so dataset and volume placement can
//!   learn from *measured* render throughput, not just advertised
//!   polygons/sec.
//! * [`rebalance`] — every rebalance trigger (overload, underload,
//!   failure, cost drift) as one [`rebalance::SchedEvent`] stream with a
//!   single handler, so initial plans, migrations and failover re-plans
//!   all make their choices through the same ledger.
//! * [`incremental`] — the persistent [`incremental::PlanState`]: edit
//!   tracking, checkpointed plan replay and minimal
//!   [`incremental::PlanDiff`] migration sets, so steady-state event
//!   streams replan only the affected slice instead of rebuilding the
//!   whole assignment.
//!
//! **Parity guarantee**: this is a behaviour-preserving refactor at the
//! seam. For the seeded paper-testbed scenarios the adapters in
//! `distribution.rs`, `tiles.rs`, `volume_dist.rs` and `migration.rs`
//! produce plans identical to the pre-refactor implementations (pinned by
//! `tests/sched_parity.rs` and the existing unit/property suites).

pub mod feedback;
pub mod incremental;
pub mod placement;
pub mod rebalance;

pub use feedback::ThroughputTracker;
pub use incremental::{PlanDiff, PlanState};
pub use placement::{Ledger, PlaceError, PlacementOutcome};
pub use rebalance::{MigrationOutcome, SchedEvent};
