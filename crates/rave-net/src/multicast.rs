//! Multicast fan-out accounting.
//!
//! §3.1.2: "The data service informs the render service of any changes,
//! using network bandwidth-saving techniques such as multicasting." On a
//! shared segment one transmission reaches every subscriber; unicast
//! would cost one transmission per subscriber. This module computes both
//! so the saving is measurable.

use crate::topology::{HostId, Network};
use rave_sim::SimTime;

/// Result of a fan-out cost computation.
#[derive(Debug, Clone, PartialEq)]
pub struct FanoutCost {
    /// When each receiver gets the message (parallel per segment), as the
    /// max across receivers.
    pub completion: SimTime,
    /// Wire transmissions actually performed.
    pub transmissions: u32,
    /// Transmissions unicast would have performed (= receiver count).
    pub unicast_transmissions: u32,
    /// Receivers skipped because their host is not on the network (a
    /// subscriber raced its host's teardown); they get nothing, and a
    /// caller that must not lose them can check this is zero.
    pub skipped: u32,
}

impl FanoutCost {
    /// Fraction of unicast transmissions saved.
    pub fn saving(&self) -> f64 {
        if self.unicast_transmissions == 0 {
            return 0.0;
        }
        1.0 - self.transmissions as f64 / self.unicast_transmissions as f64
    }
}

/// One multicast fan-out with per-receiver arrival times: what a data
/// service delivering one update to its matched subscribers books.
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

/// The fan-out computation on interned ids, with the per-segment state it
/// reuses from one call to the next so a call allocates nothing.
///
/// A message's transfer time depends only on the link it crosses and its
/// size, and a multicast crosses one link per receiving segment: the time
/// is computed once per distinct receiving link (loopback, and each
/// receiving segment) and handed to every receiver behind it.
#[derive(Debug, Clone, Default)]
pub struct Fanout {
    /// By `SegId`: the call that last computed `time`, and the value.
    computed_by: Vec<u64>,
    time: Vec<SimTime>,
    call: u64,
}

impl Fanout {
    /// Deliver `bytes` from `sender` to `receivers`, calling
    /// `arrive(index, offset)` for every receiver on the network, in
    /// input order. `None` is a receiver whose host is not on the network:
    /// skipped and counted.
    pub fn deliver(
        &mut self,
        net: &Network,
        sender: HostId,
        receivers: impl IntoIterator<Item = Option<HostId>>,
        bytes: u64,
        mut arrive: impl FnMut(usize, SimTime),
    ) -> FanoutCost {
        self.call += 1;
        if self.time.len() < net.segment_count() {
            self.computed_by.resize(net.segment_count(), 0);
            self.time.resize(net.segment_count(), SimTime::ZERO);
        }
        let sender_segment = net.segment_id_of(sender);
        let mut loopback = None;
        let mut cost = FanoutCost {
            completion: SimTime::ZERO,
            transmissions: 0,
            unicast_transmissions: 0,
            skipped: 0,
        };
        for (i, r) in receivers.into_iter().enumerate() {
            let Some(r) = r else {
                cost.skipped += 1;
                continue;
            };
            if r == sender {
                // Local delivery: loopback time, no wire transmission.
                let at = *loopback.get_or_insert_with(|| net.loopback().transfer_time(bytes));
                arrive(i, at);
                continue;
            }
            let segment = net.segment_id_of(r);
            let seg = segment.index();
            cost.unicast_transmissions += 1;
            if self.computed_by[seg] != self.call {
                self.computed_by[seg] = self.call;
                let link = net.link_between_segments(sender_segment, segment);
                self.time[seg] = link.transfer_time(bytes);
                cost.transmissions += 1;
                cost.completion = cost.completion.max(self.time[seg]);
            }
            arrive(i, self.time[seg]);
        }
        cost
    }
}

/// Deliver `bytes` from `sender` to `receivers` with multicast fan-out:
/// one transmission per distinct receiving segment (the sender's own
/// segment too: 2004 multicast rode the LAN broadcast domain), every
/// receiver on a segment served by the same copy, arrival at its own
/// transfer time. Unknown receiver hosts are skipped and counted (not
/// panicked on — `FanoutCost::skipped`). Resolves the names and runs
/// [`Fanout::deliver`]; like [`Network::link_between`] it panics on a
/// sender that is not on the network.
pub fn multicast_deliver(
    net: &Network,
    sender: &str,
    receivers: &[&str],
    bytes: u64,
) -> MulticastDelivery {
    let mut arrivals = Vec::with_capacity(receivers.len());
    let cost = Fanout::default().deliver(
        net,
        net.known_host(sender),
        receivers.iter().map(|r| net.host_id(r)),
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

/// Cost of the same fan-out done with unicast sends serialized on the
/// sender's uplink (the comparison baseline).
pub fn unicast_cost(net: &Network, sender: &str, receivers: &[&str], bytes: u64) -> SimTime {
    let mut wire_free = SimTime::ZERO;
    let mut last_arrival = SimTime::ZERO;
    for r in receivers {
        if *r == sender {
            continue;
        }
        let link = net.link_between(sender, r);
        let start = wire_free;
        let done_tx = start + link.tx_time(bytes);
        wire_free = done_tx;
        last_arrival = last_arrival.max(done_tx + link.latency);
    }
    last_arrival
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_charges_once_per_segment() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "tower", "onyx", "v880z"]; // all on "lan"
        let cost = multicast_deliver(&net, "laptop", &receivers, 10_000).cost;
        assert_eq!(cost.transmissions, 1);
        assert_eq!(cost.unicast_transmissions, 4);
        assert_eq!(cost.saving(), 0.75);
    }

    #[test]
    fn cross_segment_adds_transmissions() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "zaurus"]; // lan + wlan
        let cost = multicast_deliver(&net, "laptop", &receivers, 10_000).cost;
        assert_eq!(cost.transmissions, 2);
        // Completion bounded by the slow wireless hop.
        let wireless = net.transfer_time("laptop", "zaurus", 10_000);
        assert_eq!(cost.completion, wireless);
    }

    #[test]
    fn sender_excluded_from_receivers() {
        let net = Network::paper_testbed(1.0);
        let cost = multicast_deliver(&net, "laptop", &["laptop", "desktop"], 1000).cost;
        assert_eq!(cost.unicast_transmissions, 1);
        assert_eq!(cost.transmissions, 1);
    }

    #[test]
    fn multicast_faster_than_unicast_for_many_receivers() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "tower", "onyx", "v880z", "adrenochrome"];
        let m = multicast_deliver(&net, "laptop", &receivers, 1_000_000).cost.completion;
        let u = unicast_cost(&net, "laptop", &receivers, 1_000_000);
        assert!(u.as_secs() > m.as_secs() * 3.0, "unicast {u} vs multicast {m}");
    }

    #[test]
    fn unknown_receiver_is_skipped_and_counted() {
        let net = Network::paper_testbed(1.0);
        let d = multicast_deliver(&net, "laptop", &["desktop", "ghost", "tower"], 1000);
        assert_eq!(d.cost.skipped, 1);
        assert_eq!(d.cost.unicast_transmissions, 2);
        assert_eq!(d.cost.transmissions, 1); // desktop + tower share the lan
                                             // Arrivals only for known hosts, input order preserved.
        assert_eq!(d.arrivals.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(d.wire_bytes, 1000);
        assert_eq!(d.unicast_wire_bytes, 2000);
    }

    #[test]
    fn local_receivers_ride_loopback_off_the_wire() {
        let net = Network::paper_testbed(1.0);
        let d = multicast_deliver(&net, "laptop", &["laptop", "desktop"], 1000);
        assert_eq!(d.cost.transmissions, 1, "loopback is not a wire transmission");
        assert_eq!(d.arrivals[0].1, net.transfer_time("laptop", "laptop", 1000));
        assert!(d.arrivals[1].1 > d.arrivals[0].1, "lan hop slower than loopback");
    }

    #[test]
    fn one_scratch_serves_fanouts_of_different_shape() {
        // The per-segment times of one call must not leak into the next.
        let net = Network::paper_testbed(1.0);
        let id = |h: &str| net.host_id(h);
        let laptop = id("laptop").unwrap();
        let mut fanout = Fanout::default();
        let mut run = |receivers: &[&str], bytes: u64| {
            let mut arrivals = Vec::new();
            let cost =
                fanout.deliver(&net, laptop, receivers.iter().map(|r| id(r)), bytes, |i, at| {
                    arrivals.push((i, at))
                });
            (cost, arrivals)
        };
        for (receivers, bytes) in [
            (&["desktop", "zaurus", "laptop"][..], 10_000),
            (&["zaurus"][..], 500),
            (&["tower", "ghost", "desktop"][..], 500),
            (&[][..], 1),
        ] {
            let (cost, arrivals) = run(receivers, bytes);
            let fresh = multicast_deliver(&net, "laptop", receivers, bytes);
            assert_eq!(cost, fresh.cost);
            assert_eq!(arrivals, fresh.arrivals);
        }
    }

    #[test]
    #[should_panic(expected = "unknown host ghost")]
    fn a_sender_off_the_network_panics() {
        multicast_deliver(&Network::paper_testbed(1.0), "ghost", &["desktop"], 1000);
    }

    #[test]
    fn empty_receiver_list_is_free() {
        let net = Network::paper_testbed(1.0);
        let cost = multicast_deliver(&net, "laptop", &[], 1000).cost;
        assert_eq!(cost.transmissions, 0);
        assert_eq!(cost.completion, SimTime::ZERO);
        assert_eq!(cost.saving(), 0.0);
    }
}
