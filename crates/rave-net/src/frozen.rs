//! The string-keyed fan-out the end-to-end benchmark (`benchmark/`) still
//! names. That yardstick is frozen so it can judge the changes around it;
//! nothing else calls this, and the data service fans out through
//! [`Fanout`]. Each item is re-exported at the crate root, the path
//! `benchmark/` imports, and leaves when the yardstick is refreshed. Each
//! is `#[deprecated]`, so clippy's `-D warnings` rejects any other caller.

#![allow(deprecated)]

use crate::multicast::{Fanout, FanoutCost, LinkClass};
use crate::topology::Network;
use rave_sim::SimTime;

/// One multicast fan-out with per-receiver arrival times: what a data
/// service delivering one update to its matched subscribers books.
#[deprecated(
    note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
)]
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastDelivery {
    pub cost: FanoutCost,
    /// `(index into the receivers slice, arrival offset)` for every
    /// receiver whose host is known, in input order. Receivers on the
    /// sender's own host arrive at loopback transfer time (no wire
    /// transmission charged).
    pub arrivals: Vec<(usize, SimTime)>,
    /// Bytes the multicast fan-out puts on the wire (one copy per
    /// receiving segment).
    pub wire_bytes: u64,
    /// Bytes unicast would have put on the wire (one copy per receiver).
    pub unicast_wire_bytes: u64,
}

/// Deliver `bytes` from `sender` to `receivers` with multicast fan-out:
/// one transmission per distinct receiving segment (the sender's own
/// segment too: 2004 multicast rode the LAN broadcast domain), every
/// receiver on a segment served by the same copy, arrival at its own
/// transfer time. Unknown receiver hosts are skipped and counted (not
/// panicked on — `FanoutCost::skipped`). Resolves the names and runs
/// [`Fanout::deliver`]; like [`Network::link_between`] it panics on a
/// sender that is not on the network.
#[deprecated(
    note = "frozen: only benchmark/ may call this; see the module doc of frozen.rs for the live path"
)]
pub fn multicast_deliver(
    net: &Network,
    sender: &str,
    receivers: &[&str],
    bytes: u64,
) -> MulticastDelivery {
    let mut arrivals = Vec::with_capacity(receivers.len());
    let sender = net.known_host(sender);
    let cost = Fanout::default().deliver(
        net,
        sender,
        receivers.iter().map(|r| LinkClass::of(net, sender, net.host_id(r))),
        bytes,
        |i, at| arrivals.push((i, at)),
    );
    MulticastDelivery {
        wire_bytes: cost.transmissions as u64 * bytes,
        unicast_wire_bytes: cost.unicast_transmissions as u64 * bytes,
        cost,
        arrivals,
    }
}
