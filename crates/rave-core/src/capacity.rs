//! Capacity interrogation.
//!
//! §3.2.5: "The data service interrogates the render service for its
//! capacity (available polygons per second, texture memory, support for
//! hardware assisted volume rendering, etc.)." A [`CapacityReport`] is
//! that answer, and is the planner's only view of a service — the planner
//! never peeks at service internals.

use crate::ids::RenderServiceId;
use rave_scene::NodeCost;

/// A render service's advertised capacity at a moment in time.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityReport {
    pub service: RenderServiceId,
    pub host: String,
    /// Raw triangle throughput (tris/s).
    pub polys_per_sec: f64,
    /// Polygons the service can hold *per frame* while sustaining the
    /// configured interactive rate, minus what it already carries.
    pub poly_headroom: u64,
    /// Unused texture memory (bytes).
    pub texture_headroom: u64,
    /// Hardware-assisted volume rendering available?
    pub volume_hw: bool,
    /// Cost of the scene content currently assigned.
    pub assigned: NodeCost,
    /// Rolling measured frame rate, if the service has rendered recently.
    pub rolling_fps: Option<f64>,
}

impl CapacityReport {
    /// Scalar headroom used for ordering candidate services (most spare
    /// capacity first).
    pub fn headroom_weight(&self) -> u64 {
        self.poly_headroom
    }

    /// The report's remaining room as a debitable ledger entry.
    pub fn headroom(&self) -> Headroom {
        Headroom { polygons: self.poly_headroom, texture_bytes: self.texture_headroom }
    }
}

/// A service's remaining room on the two advertised capacity axes. Every
/// "does it fit / subtract it" check in the scheduler, migration and
/// distribution paths goes through this one type rather than re-deriving
/// the comparison from raw `(poly, tex)` tuples inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Headroom {
    pub polygons: u64,
    pub texture_bytes: u64,
}

impl Headroom {
    /// Does `cost` fit on both capacity axes?
    pub fn fits(&self, cost: &NodeCost) -> bool {
        cost.polygons <= self.polygons && cost.texture_bytes <= self.texture_bytes
    }

    /// Subtract a placed cost. One that does not fit — a dead service's
    /// share landed on a recruit anyway — empties the axis it overflows.
    pub fn debit(&mut self, cost: &NodeCost) {
        self.polygons = self.polygons.saturating_sub(cost.polygons);
        self.texture_bytes = self.texture_bytes.saturating_sub(cost.texture_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(poly: u64, tex: u64) -> CapacityReport {
        CapacityReport {
            service: RenderServiceId(1),
            host: "laptop".into(),
            polys_per_sec: 8.8e6,
            poly_headroom: poly,
            texture_headroom: tex,
            volume_hw: false,
            assigned: NodeCost::ZERO,
            rolling_fps: None,
        }
    }

    #[test]
    fn accept_requires_both_axes() {
        let room = report(1000, 500).headroom();
        assert!(room.fits(&NodeCost { polygons: 1000, texture_bytes: 500, ..NodeCost::ZERO }));
        assert!(!room.fits(&NodeCost { polygons: 1001, ..NodeCost::ZERO }));
        assert!(!room.fits(&NodeCost { texture_bytes: 501, ..NodeCost::ZERO }));
    }

    #[test]
    fn headroom_orders_candidates() {
        assert!(report(5000, 0).headroom_weight() > report(100, 0).headroom_weight());
    }

    #[test]
    fn headroom_debits_both_axes() {
        let mut room = report(1000, 500).headroom();
        let cost = NodeCost { polygons: 400, texture_bytes: 100, ..NodeCost::ZERO };
        assert!(room.fits(&cost));
        room.debit(&cost);
        assert_eq!(room, Headroom { polygons: 600, texture_bytes: 400 });
        assert!(!room.fits(&NodeCost { polygons: 601, ..NodeCost::ZERO }));
    }
}
