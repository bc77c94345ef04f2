//! Multicast fan-out accounting.
//!
//! §3.1.2: "The data service informs the render service of any changes,
//! using network bandwidth-saving techniques such as multicasting." On a
//! shared segment one transmission reaches every subscriber; unicast
//! would cost one transmission per subscriber. This module computes both
//! so the saving is measurable.

use crate::topology::{HostId, Network, SegId};
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

/// How a fan-out from one sender reaches one receiver: not at all (its
/// host is not on the network), over loopback (the sender's own host), or
/// by its segment's copy of the transmission. What a receiver costs a
/// fan-out — its transfer time, whether it adds a transmission — depends
/// on its class alone, so a population of receivers can be kept as a
/// count per class ([`Fanout::deliver_to_classes`]).
///
/// Classes are dense per [`Network`]: every one indexes below
/// [`LinkClass::count`], and a class is valid while the network's
/// [`Network::revision`] it was taken at is current.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkClass(u32);

impl LinkClass {
    /// The receiver's host is not on the network: skipped and counted.
    pub const SKIPPED: Self = Self(0);
    /// The receiver is on the sender's own host: loopback transfer time,
    /// no wire transmission.
    pub const LOOPBACK: Self = Self(1);

    /// The class of `receiver` in a fan-out from `sender`; `None` is a
    /// receiver whose host is not on the network.
    pub fn of(net: &Network, sender: HostId, receiver: Option<HostId>) -> Self {
        match receiver {
            None => Self::SKIPPED,
            Some(r) if r == sender => Self::LOOPBACK,
            Some(r) => Self(2 + net.segment_id_of(r).0),
        }
    }

    /// How many classes `net` has: skipped, loopback and one per segment.
    pub fn count(net: &Network) -> usize {
        2 + net.segment_count()
    }

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The fan-out computation on link classes, with the per-class state it
/// reuses from one call to the next so a call allocates nothing.
///
/// A message's transfer time depends only on the link it crosses and its
/// size, and a multicast crosses one link per receiving segment: the time
/// is computed once per distinct receiving class (loopback, and each
/// receiving segment) and handed to every receiver behind it.
#[derive(Debug, Clone, Default)]
pub struct Fanout {
    /// By class index: the call that last computed `time`, and the value.
    computed_by: Vec<u64>,
    time: Vec<SimTime>,
    call: u64,
}

impl Fanout {
    /// Deliver `bytes` from `sender` to `receivers`, calling
    /// `arrive(index, offset)` for every receiver not skipped, in input
    /// order.
    pub fn deliver(
        &mut self,
        net: &Network,
        sender: HostId,
        receivers: impl IntoIterator<Item = LinkClass>,
        bytes: u64,
        mut arrive: impl FnMut(usize, SimTime),
    ) -> FanoutCost {
        let mut cost = self.begin(net);
        for (i, class) in receivers.into_iter().enumerate() {
            if let Some(at) = self.reach(net, sender, class, 1, bytes, &mut cost) {
                arrive(i, at);
            }
        }
        cost
    }

    /// Deliver `bytes` from `sender` to `counts[c]` receivers of each
    /// class `c` (by [`LinkClass::index`]), calling `arrive(class, offset)`
    /// once for every class with a receiver that is not skipped, in class
    /// order. The cost is the one [`Fanout::deliver`] books for the same
    /// receivers listed one by one.
    pub fn deliver_to_classes(
        &mut self,
        net: &Network,
        sender: HostId,
        counts: &[u32],
        bytes: u64,
        mut arrive: impl FnMut(LinkClass, SimTime),
    ) -> FanoutCost {
        let mut cost = self.begin(net);
        for (c, &n) in counts.iter().enumerate().filter(|&(_, &n)| n > 0) {
            let class = LinkClass(c as u32);
            if let Some(at) = self.reach(net, sender, class, n, bytes, &mut cost) {
                arrive(class, at);
            }
        }
        cost
    }

    fn begin(&mut self, net: &Network) -> FanoutCost {
        self.call += 1;
        let classes = LinkClass::count(net);
        if self.time.len() < classes {
            self.computed_by.resize(classes, 0);
            self.time.resize(classes, SimTime::ZERO);
        }
        FanoutCost {
            completion: SimTime::ZERO,
            transmissions: 0,
            unicast_transmissions: 0,
            skipped: 0,
        }
    }

    /// Book `n` receivers of `class` into `cost`: their arrival offset,
    /// or `None` when they are skipped.
    fn reach(
        &mut self,
        net: &Network,
        sender: HostId,
        class: LinkClass,
        n: u32,
        bytes: u64,
        cost: &mut FanoutCost,
    ) -> Option<SimTime> {
        let c = class.index();
        match class {
            LinkClass::SKIPPED => {
                cost.skipped += n;
                return None;
            }
            LinkClass::LOOPBACK => {}
            _ => cost.unicast_transmissions += n,
        }
        if self.computed_by[c] != self.call {
            self.computed_by[c] = self.call;
            self.time[c] = match class {
                LinkClass::LOOPBACK => net.loopback().transfer_time(bytes),
                LinkClass(seg) => {
                    let link = net.link_between_segments(net.segment_id_of(sender), SegId(seg - 2));
                    let time = link.transfer_time(bytes);
                    cost.transmissions += 1;
                    cost.completion = cost.completion.max(time);
                    time
                }
            };
        }
        Some(self.time[c])
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

    /// `bytes` from the host named `sender` to the hosts named, through a
    /// fresh [`Fanout`]: the cost, and `(index, arrival)` of every receiver
    /// reached, in input order.
    fn deliver(
        net: &Network,
        sender: &str,
        receivers: &[&str],
        bytes: u64,
    ) -> (FanoutCost, Vec<(usize, SimTime)>) {
        let sender = net.known_host(sender);
        let classes = receivers.iter().map(|r| LinkClass::of(net, sender, net.host_id(r)));
        let mut arrivals = Vec::new();
        let cost =
            Fanout::default().deliver(net, sender, classes, bytes, |i, at| arrivals.push((i, at)));
        (cost, arrivals)
    }

    #[test]
    fn multicast_charges_once_per_segment() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "tower", "onyx", "v880z"]; // all on "lan"
        let cost = deliver(&net, "laptop", &receivers, 10_000).0;
        assert_eq!(cost.transmissions, 1);
        assert_eq!(cost.unicast_transmissions, 4);
        assert_eq!(cost.saving(), 0.75);
    }

    #[test]
    fn cross_segment_adds_transmissions() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "zaurus"]; // lan + wlan
        let cost = deliver(&net, "laptop", &receivers, 10_000).0;
        assert_eq!(cost.transmissions, 2);
        // Completion bounded by the slow wireless hop.
        let wireless = net.transfer_time("laptop", "zaurus", 10_000);
        assert_eq!(cost.completion, wireless);
    }

    #[test]
    fn sender_excluded_from_receivers() {
        let net = Network::paper_testbed(1.0);
        let cost = deliver(&net, "laptop", &["laptop", "desktop"], 1000).0;
        assert_eq!(cost.unicast_transmissions, 1);
        assert_eq!(cost.transmissions, 1);
    }

    #[test]
    fn multicast_faster_than_unicast_for_many_receivers() {
        let net = Network::paper_testbed(1.0);
        let receivers = ["desktop", "tower", "onyx", "v880z", "adrenochrome"];
        let m = deliver(&net, "laptop", &receivers, 1_000_000).0.completion;
        let u = unicast_cost(&net, "laptop", &receivers, 1_000_000);
        assert!(u.as_secs() > m.as_secs() * 3.0, "unicast {u} vs multicast {m}");
    }

    #[test]
    fn unknown_receiver_is_skipped_and_counted() {
        let net = Network::paper_testbed(1.0);
        let (cost, arrivals) = deliver(&net, "laptop", &["desktop", "ghost", "tower"], 1000);
        assert_eq!(cost.skipped, 1);
        assert_eq!(cost.unicast_transmissions, 2);
        assert_eq!(cost.transmissions, 1); // desktop + tower share the lan
                                           // Arrivals only for known hosts, input order preserved.
        assert_eq!(arrivals.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn local_receivers_ride_loopback_off_the_wire() {
        let net = Network::paper_testbed(1.0);
        let (cost, arrivals) = deliver(&net, "laptop", &["laptop", "desktop"], 1000);
        assert_eq!(cost.transmissions, 1, "loopback is not a wire transmission");
        assert_eq!(arrivals[0].1, net.transfer_time("laptop", "laptop", 1000));
        assert!(arrivals[1].1 > arrivals[0].1, "lan hop slower than loopback");
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
            let classes = receivers.iter().map(|r| LinkClass::of(&net, laptop, id(r)));
            let cost = fanout.deliver(&net, laptop, classes, bytes, |i, at| arrivals.push((i, at)));
            (cost, arrivals)
        };
        for (receivers, bytes) in [
            (&["desktop", "zaurus", "laptop"][..], 10_000),
            (&["zaurus"][..], 500),
            (&["tower", "ghost", "desktop"][..], 500),
            (&[][..], 1),
        ] {
            let (cost, arrivals) = run(receivers, bytes);
            assert_eq!((cost, arrivals), deliver(&net, "laptop", receivers, bytes));
        }
    }

    /// Receivers counted per class cost what the same receivers listed
    /// one by one cost, and each class arrives at its receivers' time.
    #[test]
    fn counted_classes_cost_what_listed_receivers_cost() {
        let net = Network::paper_testbed(1.0);
        let laptop = net.known_host("laptop");
        let receivers = ["desktop", "ghost", "laptop", "zaurus", "tower", "ghost", "laptop"];
        let classes: Vec<LinkClass> =
            receivers.iter().map(|r| LinkClass::of(&net, laptop, net.host_id(r))).collect();
        let mut counts = vec![0; LinkClass::count(&net)];
        for class in &classes {
            counts[class.index()] += 1;
        }
        let mut fanout = Fanout::default();
        let mut listed = Vec::new();
        let one_by_one = fanout.deliver(&net, laptop, classes.iter().copied(), 4_000, |i, at| {
            listed.push((classes[i], at))
        });
        let mut per_class = Vec::new();
        let counted = fanout.deliver_to_classes(&net, laptop, &counts, 4_000, |class, at| {
            per_class.push((class, at))
        });
        assert_eq!(counted, one_by_one);
        assert_eq!((counted.transmissions, counted.unicast_transmissions), (2, 3));
        assert_eq!(counted.skipped, 2);
        listed.sort();
        listed.dedup();
        assert_eq!(per_class, listed, "one arrival per class, at its receivers' time");
        assert_eq!(
            per_class[0],
            (LinkClass::LOOPBACK, net.transfer_time("laptop", "laptop", 4_000))
        );
    }

    #[test]
    #[should_panic(expected = "unknown host ghost")]
    fn a_sender_off_the_network_panics() {
        deliver(&Network::paper_testbed(1.0), "ghost", &["desktop"], 1000);
    }

    #[test]
    fn empty_receiver_list_is_free() {
        let net = Network::paper_testbed(1.0);
        let cost = deliver(&net, "laptop", &[], 1000).0;
        assert_eq!(cost.transmissions, 0);
        assert_eq!(cost.completion, SimTime::ZERO);
        assert_eq!(cost.saving(), 0.0);
    }
}
