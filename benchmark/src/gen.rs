//! Seeded input generators. `--seed` reaches the system only through the
//! plain data made here (camera paths, edit targets, subscriber
//! interests): the same seed gives byte-identical streams, and the
//! program under test never sees the seed itself.
//!
//! Each workload's shape — how many edits a round holds, which rounds move
//! the camera — is fixed; the seed picks *which* nodes, angles and sizes.
//! The bands are narrow on purpose: the benchmark's acceptance rule holds
//! the spread over ten seeds inside each metric's bound, so two seeds are
//! the same workload on neighbouring inputs (a camera that starts up to ten
//! orbit steps further round, 14 % higher or lower, 3 % nearer or further),
//! not two workloads. What they guard against is a change fitted to one
//! exact input sequence, not one fitted to this model seen from this side.

use rave_sim::SimRng;

/// Stream tags, so one seed feeds independent generators.
const TAG_CAMERA: u64 = 1;
const TAG_EDITS: u64 = 2;
const TAG_INTERESTS: u64 = 3;
const TAG_SCENE: u64 = 4;

fn stream(seed: u64, tag: u64) -> SimRng {
    SimRng::new(seed).fork(tag)
}

/// An orbiting camera: where it starts and how high it sits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Orbit {
    /// Start angle around the model, radians.
    pub yaw0: f32,
    /// Eye height as a share of the model's bounding radius.
    pub height: f32,
    /// Eye distance as a multiple of the bounding radius.
    pub distance: f32,
}

pub fn orbit(seed: u64) -> Orbit {
    let mut rng = stream(seed, TAG_CAMERA);
    Orbit {
        yaw0: rng.range_f64(0.0, 0.2) as f32,
        height: rng.range_f64(0.30, 0.40) as f32,
        distance: rng.range_f64(1.85, 1.95) as f32,
    }
}

/// Which helper stalls on the `n`-th stall round of `tile_wall`.
pub fn stalled_helper(seed: u64, n: u64, helpers: usize) -> usize {
    let mut rng = stream(seed, TAG_EDITS).fork(n);
    rng.below(helpers as u64) as usize
}

/// What one subscriber of `collab_fanout` wants to be kept up to date on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    Everything,
    One(usize),
    Two(usize, usize),
}

/// The subscriber population: 1 in 100 holds a full replica, the rest one
/// or two branch subtrees.
pub fn interests(seed: u64, subscribers: usize, branches: usize) -> Vec<Interest> {
    let mut rng = stream(seed, TAG_INTERESTS);
    let pick = |rng: &mut SimRng| rng.below(branches as u64) as usize;
    (0..subscribers)
        .map(|i| {
            if i % 100 == 0 {
                Interest::Everything
            } else if i % 3 == 0 {
                Interest::Two(pick(&mut rng), pick(&mut rng))
            } else {
                Interest::One(pick(&mut rng))
            }
        })
        .collect()
}

/// The one structural edit of a `collab_fanout` round. The update protocol
/// has no reparent message, so a move is a remove plus an add elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structural {
    /// Add a leaf under this branch, its name this many characters long
    /// (so update sizes, and with them wire time, differ from seed to seed).
    Add(usize, usize),
    /// Remove the oldest leaf added by the script.
    Remove,
    /// Move the oldest added leaf under this branch, renamed likewise.
    Move(usize, usize),
}

/// One round of `collab_fanout`: every participant's camera pose, the
/// scoped transforms, and the structural edit.
#[derive(Debug, Clone, PartialEq)]
pub struct CollabRound {
    pub cameras: Vec<[f32; 3]>,
    /// (leaf index, translation).
    pub transforms: Vec<(usize, [f32; 3])>,
    pub structural: Structural,
}

pub struct CollabScript {
    rng: SimRng,
    participants: usize,
    transforms: usize,
    branches: usize,
    leaves: usize,
    round: u64,
}

impl CollabScript {
    pub fn new(
        seed: u64,
        participants: usize,
        transforms: usize,
        branches: usize,
        leaves: usize,
    ) -> Self {
        Self { rng: stream(seed, TAG_EDITS), participants, transforms, branches, leaves, round: 0 }
    }
}

fn point(rng: &mut SimRng, extent: f64) -> [f32; 3] {
    [
        rng.range_f64(-extent, extent) as f32,
        rng.range_f64(-extent, extent) as f32,
        rng.range_f64(-extent, extent) as f32,
    ]
}

impl Iterator for CollabScript {
    type Item = CollabRound;

    fn next(&mut self) -> Option<CollabRound> {
        let cameras = (0..self.participants).map(|_| point(&mut self.rng, 50.0)).collect();
        let transforms = (0..self.transforms)
            .map(|_| (self.rng.below(self.leaves as u64) as usize, point(&mut self.rng, 5.0)))
            .collect();
        let branch = self.rng.below(self.branches as u64) as usize;
        let name_len = 1 + self.rng.below(64) as usize;
        // Add, move, remove in turn: the move and the remove always have
        // the leaf the add made, and the scene is the same size every third
        // round, so a later round costs what an earlier one did.
        let structural = match self.round % 3 {
            0 => Structural::Add(branch, name_len),
            1 => Structural::Move(branch, name_len),
            _ => Structural::Remove,
        };
        self.round += 1;
        Some(CollabRound { cameras, transforms, structural })
    }
}

/// Triangle counts of the `edit_storm` scene's tiny meshes. The scene is
/// the same for every seed; the seed picks the edits made to it.
pub fn mesh_sizes(nodes: usize) -> Vec<u32> {
    let mut rng = stream(0, TAG_SCENE);
    (0..nodes).map(|_| 10 + rng.below(390) as u32).collect()
}

/// One round of `edit_storm`: transforms on content nodes, and content
/// replacements that change a node's render cost.
#[derive(Debug, Clone, PartialEq)]
pub struct StormRound {
    /// (node index, translation).
    pub transforms: Vec<(usize, [f32; 3])>,
    /// (node index, new triangle count).
    pub replacements: Vec<(usize, u32)>,
}

pub struct StormScript {
    rng: SimRng,
    nodes: usize,
    transforms: usize,
    replacements: usize,
}

impl StormScript {
    pub fn new(seed: u64, nodes: usize, transforms: usize, replacements: usize) -> Self {
        Self { rng: stream(seed, TAG_EDITS), nodes, transforms, replacements }
    }
}

impl Iterator for StormScript {
    type Item = StormRound;

    fn next(&mut self) -> Option<StormRound> {
        let transforms = (0..self.transforms)
            .map(|_| (self.rng.below(self.nodes as u64) as usize, point(&mut self.rng, 5.0)))
            .collect();
        // Distinct targets: two replacements of one node in one batch would
        // make the second the only cost edit that counts.
        let mut replacements: Vec<(usize, u32)> = Vec::with_capacity(self.replacements);
        while replacements.len() < self.replacements {
            let node = self.rng.below(self.nodes as u64) as usize;
            if replacements.iter().all(|&(n, _)| n != node) {
                replacements.push((node, 10 + self.rng.below(390) as u32));
            }
        }
        Some(StormRound { transforms, replacements })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a workload draws from one seed, rendered to bytes.
    fn streams(seed: u64) -> String {
        let collab: Vec<_> = CollabScript::new(seed, 8, 24, 256, 1024).take(40).collect();
        let storm: Vec<_> = StormScript::new(seed, 500, 12, 4).take(40).collect();
        let stalls: Vec<_> = (0..8).map(|n| stalled_helper(seed, n, 3)).collect();
        format!(
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            orbit(seed),
            interests(seed, 300, 256),
            collab,
            storm,
            stalls,
            mesh_sizes(500)
        )
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        assert_eq!(streams(11).as_bytes(), streams(11).as_bytes());
        assert_ne!(streams(11), streams(12));
    }

    #[test]
    fn population_and_round_shapes_are_fixed() {
        let pop = interests(5, 2000, 256);
        assert_eq!(pop.iter().filter(|i| **i == Interest::Everything).count(), 20);
        let round = CollabScript::new(5, 8, 24, 256, 1024).next().unwrap();
        assert_eq!((round.cameras.len(), round.transforms.len()), (8, 24));
        // Every add is moved once and removed once: the scene does not grow.
        let net: i32 = CollabScript::new(5, 8, 24, 256, 1024)
            .take(30)
            .map(|r| match r.structural {
                Structural::Add(..) => 1,
                Structural::Move(..) => 0,
                Structural::Remove => -1,
            })
            .sum();
        assert_eq!(net, 0);
        let round = StormScript::new(5, 500, 12, 4).next().unwrap();
        assert_eq!((round.transforms.len(), round.replacements.len()), (12, 4));
        let mut nodes: Vec<_> = round.replacements.iter().map(|r| r.0).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 4, "replacement targets are distinct");
    }
}
