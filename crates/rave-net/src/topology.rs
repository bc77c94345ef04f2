//! Named hosts, segments and the links between them.

use crate::link::LinkSpec;
use rave_sim::SimTime;
use std::collections::BTreeMap;

/// A host's dense handle in one [`Network`]. Assigned when the name is
/// first added and never reused, so it stays valid across later topology
/// edits (the host's *segment* may change; see [`Network::revision`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(u32);

/// A segment's dense handle in one [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegId(pub(crate) u32);

impl SegId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A network of hosts grouped into segments (LANs). Hosts on the same
/// segment talk over the segment's intra-link; hosts on different segments
/// use the link registered for that segment pair (or the default).
///
/// Names are interned: a name → id map per kind plus `Vec` tables indexed
/// by id, so the per-message paths resolve a name once and index after.
#[derive(Debug, Clone)]
pub struct Network {
    host_ids: BTreeMap<String, HostId>,
    host_segment: Vec<SegId>, // by HostId
    seg_ids: BTreeMap<String, SegId>,
    seg_names: Vec<String>, // by SegId
    /// By SegId: the link within the segment; `None` for a segment only
    /// `link_segments` has named so far (it has no hosts yet).
    intra: Vec<Option<LinkSpec>>,
    inter: BTreeMap<(SegId, SegId), LinkSpec>, // ordered pair -> link
    default_inter: LinkSpec,
    loopback: LinkSpec,
    revision: u64,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    pub fn new() -> Self {
        Self {
            host_ids: BTreeMap::new(),
            host_segment: Vec::new(),
            seg_ids: BTreeMap::new(),
            seg_names: Vec::new(),
            intra: Vec::new(),
            inter: BTreeMap::new(),
            default_inter: LinkSpec::ethernet_100mb(),
            loopback: LinkSpec::loopback(),
            revision: 0,
        }
    }

    /// The paper's testbed topology: all servers on a 100 Mbit LAN, the
    /// PDA on a wireless segment bridged to it.
    pub fn paper_testbed(signal_quality: f64) -> Self {
        let mut n = Self::new();
        n.add_segment("lan", LinkSpec::ethernet_100mb());
        n.add_segment("wlan", LinkSpec::wireless_11mb(signal_quality));
        n.link_segments("lan", "wlan", LinkSpec::wireless_11mb(signal_quality));
        for host in ["onyx", "v880z", "laptop", "desktop", "tower", "adrenochrome"] {
            n.add_host(host, "lan");
        }
        n.add_host("zaurus", "wlan");
        n
    }

    /// Counts the topology edits made so far. Anything derived from the
    /// topology and kept (a host's segment, "this name is not a host")
    /// is valid while the revision it was derived at is still current.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    fn intern_segment(&mut self, segment: &str) -> SegId {
        if let Some(&id) = self.seg_ids.get(segment) {
            return id;
        }
        let id = SegId(self.seg_names.len() as u32);
        self.seg_ids.insert(segment.to_string(), id);
        self.seg_names.push(segment.to_string());
        self.intra.push(None);
        id
    }

    /// Add a segment, or replace the link within an existing one.
    pub fn add_segment(&mut self, segment: &str, intra_link: LinkSpec) {
        let id = self.intern_segment(segment);
        self.intra[id.index()] = Some(intra_link);
        self.revision += 1;
    }

    /// Put a host on a segment; a host already known moves there.
    pub fn add_host(&mut self, host: &str, segment: &str) {
        let seg = self.seg_ids.get(segment).copied().filter(|s| self.intra[s.index()].is_some());
        let Some(seg) = seg else {
            panic!("segment {segment} must be added before hosts join it");
        };
        match self.host_ids.get(host) {
            Some(&id) => self.host_segment[id.0 as usize] = seg,
            None => {
                self.host_ids.insert(host.to_string(), HostId(self.host_segment.len() as u32));
                self.host_segment.push(seg);
            }
        }
        self.revision += 1;
    }

    /// Register the link between two segments. Either may be named here
    /// before `add_segment` gives it an intra-link.
    pub fn link_segments(&mut self, a: &str, b: &str, link: LinkSpec) {
        let key = Self::pair_of(self.intern_segment(a), self.intern_segment(b));
        self.inter.insert(key, link);
        self.revision += 1;
    }

    pub fn set_default_inter_link(&mut self, link: LinkSpec) {
        self.default_inter = link;
        self.revision += 1;
    }

    fn pair_of(a: SegId, b: SegId) -> (SegId, SegId) {
        (a.min(b), a.max(b))
    }

    pub fn host_id(&self, host: &str) -> Option<HostId> {
        self.host_ids.get(host).copied()
    }

    /// The id of a host that must be on the network. Panics on an unknown
    /// host — a typo'd host name is a harness bug, not a runtime condition.
    pub fn known_host(&self, host: &str) -> HostId {
        self.host_id(host).unwrap_or_else(|| panic!("unknown host {host}"))
    }

    pub(crate) fn segment_id_of(&self, host: HostId) -> SegId {
        self.host_segment[host.0 as usize]
    }

    /// Segments named so far; every [`SegId`] indexes below this.
    pub(crate) fn segment_count(&self) -> usize {
        self.seg_names.len()
    }

    pub fn segment_of(&self, host: &str) -> Option<&str> {
        self.host_id(host).map(|h| self.seg_names[self.segment_id_of(h).index()].as_str())
    }

    pub fn hosts(&self) -> impl Iterator<Item = &str> {
        self.host_ids.keys().map(|s| s.as_str())
    }

    pub(crate) fn loopback(&self) -> &LinkSpec {
        &self.loopback
    }

    /// The link a message from a host on segment `a` to a *different*
    /// host on segment `b` crosses.
    pub(crate) fn link_between_segments(&self, a: SegId, b: SegId) -> &LinkSpec {
        if a == b {
            return self.intra[a.index()].as_ref().expect("hosts only join added segments");
        }
        self.inter.get(&Self::pair_of(a, b)).unwrap_or(&self.default_inter)
    }

    pub fn link_between_ids(&self, a: HostId, b: HostId) -> &LinkSpec {
        if a == b {
            return &self.loopback;
        }
        self.link_between_segments(self.segment_id_of(a), self.segment_id_of(b))
    }

    /// The link used between two hosts. Panics on unknown hosts, as
    /// [`Network::known_host`] does.
    pub fn link_between(&self, a: &str, b: &str) -> &LinkSpec {
        if a == b {
            return &self.loopback;
        }
        self.link_between_ids(self.known_host(a), self.known_host(b))
    }

    /// One-way transfer time of a single `bytes` message from `a` to `b`.
    pub fn transfer_time(&self, a: &str, b: &str, bytes: u64) -> SimTime {
        self.link_between(a, b).transfer_time(bytes)
    }

    /// Round-trip: request of `req_bytes` then reply of `resp_bytes`.
    pub fn round_trip(&self, a: &str, b: &str, req_bytes: u64, resp_bytes: u64) -> SimTime {
        self.transfer_time(a, b, req_bytes) + self.transfer_time(b, a, resp_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_has_all_hosts() {
        let n = Network::paper_testbed(1.0);
        let hosts: Vec<&str> = n.hosts().collect();
        assert!(hosts.contains(&"zaurus"));
        assert!(hosts.contains(&"laptop"));
        assert_eq!(n.segment_of("zaurus"), Some("wlan"));
        assert_eq!(n.segment_of("laptop"), Some("lan"));
    }

    #[test]
    fn same_host_uses_loopback() {
        let n = Network::paper_testbed(1.0);
        let t = n.transfer_time("laptop", "laptop", 1_000_000);
        assert!(t.as_secs() < 0.001);
    }

    #[test]
    fn lan_hosts_use_ethernet() {
        let n = Network::paper_testbed(1.0);
        assert_eq!(n.link_between("laptop", "desktop").name, "ethernet-100");
    }

    #[test]
    fn pda_uses_wireless_from_lan() {
        let n = Network::paper_testbed(1.0);
        assert_eq!(n.link_between("laptop", "zaurus").name, "wireless-11");
        // Symmetric.
        assert_eq!(n.link_between("zaurus", "laptop").name, "wireless-11");
        let t = n.transfer_time("laptop", "zaurus", 120_000).as_secs();
        assert!((t - 0.2).abs() < 0.02, "PDA frame transfer {t}");
    }

    #[test]
    #[should_panic(expected = "unknown host nonexistent")]
    fn unknown_host_panics() {
        Network::paper_testbed(1.0).link_between("laptop", "nonexistent");
    }

    #[test]
    fn unlinked_segments_fall_back_to_default() {
        let mut n = Network::new();
        n.add_segment("a", LinkSpec::ethernet_100mb());
        n.add_segment("b", LinkSpec::ethernet_100mb());
        n.add_host("h1", "a");
        n.add_host("h2", "b");
        assert_eq!(n.link_between("h1", "h2").name, "ethernet-100");
        n.set_default_inter_link(LinkSpec::ethernet_1gb());
        assert_eq!(n.link_between("h1", "h2").name, "ethernet-1000");
    }

    #[test]
    fn round_trip_sums_both_directions() {
        let n = Network::paper_testbed(1.0);
        let rt = n.round_trip("zaurus", "laptop", 100, 120_000);
        let one = n.transfer_time("zaurus", "laptop", 100);
        let two = n.transfer_time("laptop", "zaurus", 120_000);
        assert_eq!(rt, one + two);
    }

    #[test]
    #[should_panic]
    fn host_requires_existing_segment() {
        let mut n = Network::new();
        n.add_host("h", "ghost-segment");
    }

    #[test]
    fn readding_a_host_moves_it_and_keeps_its_id() {
        let mut n = Network::paper_testbed(1.0);
        let (id, rev) = (n.host_id("tower").unwrap(), n.revision());
        assert_eq!(n.link_between("laptop", "tower").name, "ethernet-100");
        n.add_host("tower", "wlan");
        assert_eq!(n.host_id("tower"), Some(id));
        assert_eq!(n.segment_of("tower"), Some("wlan"));
        assert_eq!(n.link_between("laptop", "tower").name, "wireless-11");
        assert_eq!(n.link_between_ids(id, n.host_id("zaurus").unwrap()).name, "wireless-11");
        assert_eq!(n.hosts().count(), 7, "moved, not duplicated");
        assert!(n.revision() > rev);
    }

    #[test]
    fn readding_a_segment_replaces_its_link() {
        let mut n = Network::paper_testbed(1.0);
        let rev = n.revision();
        n.add_segment("lan", LinkSpec::ethernet_1gb());
        assert_eq!(n.link_between("laptop", "desktop").name, "ethernet-1000");
        assert_eq!(n.segment_of("laptop"), Some("lan"), "its hosts stay on it");
        assert_eq!(n.link_between("laptop", "zaurus").name, "wireless-11");
        assert!(n.revision() > rev);
    }

    #[test]
    fn segments_can_be_linked_before_they_are_added() {
        let mut n = Network::new();
        n.link_segments("b", "a", LinkSpec::ethernet_1gb());
        n.add_segment("a", LinkSpec::ethernet_100mb());
        n.add_segment("b", LinkSpec::wireless_11mb(1.0));
        n.add_host("h1", "a");
        n.add_host("h2", "b");
        n.add_host("h3", "b");
        assert_eq!(n.link_between("h1", "h2").name, "ethernet-1000");
        assert_eq!(n.link_between("h2", "h1").name, "ethernet-1000");
        assert_eq!(n.link_between("h2", "h3").name, "wireless-11");
    }

    #[test]
    #[should_panic(expected = "must be added before hosts join it")]
    fn a_segment_that_was_only_linked_takes_no_hosts() {
        let mut n = Network::new();
        n.link_segments("a", "b", LinkSpec::ethernet_1gb());
        n.add_host("h", "a");
    }

    #[test]
    fn every_topology_edit_bumps_the_revision() {
        let mut n = Network::new();
        let mut last = n.revision();
        let mut bumped = |n: &Network| {
            let moved = n.revision() > last;
            last = n.revision();
            moved
        };
        n.add_segment("a", LinkSpec::ethernet_100mb());
        assert!(bumped(&n));
        n.add_host("h", "a");
        assert!(bumped(&n));
        n.link_segments("a", "b", LinkSpec::ethernet_100mb());
        assert!(bumped(&n));
        n.set_default_inter_link(LinkSpec::ethernet_1gb());
        assert!(bumped(&n));
        let _ = n.link_between("h", "h");
        assert!(!bumped(&n), "reads leave it alone");
    }
}
