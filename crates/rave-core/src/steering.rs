//! Remote-bridge interactions / computational steering (§5.2).
//!
//! "We will later create additional interactions for special objects,
//! such as bridging objects into remote processes. An example would be to
//! exert a force on a molecule, which is displayed via RAVE but the
//! molecule's behaviour is computed remotely via a third-party simulator;
//! RAVE is used as the display and collaboration mechanism."
//!
//! This module implements that example end-to-end: a [`MoleculeSimulator`]
//! (the stand-in third-party code — a mass-spring dynamics integrator)
//! runs "on" a compute host; scene nodes are bridged to its atoms; user
//! forces travel to the simulator, integration steps run on the virtual
//! clock, and atom motion comes back as ordinary scene updates that every
//! collaborator sees.

use crate::ids::DataServiceId;
use crate::trace::TraceEvent;
use crate::world::{publish_update, RaveSim};
use rave_math::Vec3;
use rave_scene::{NodeId, SceneUpdate, Transform};
use rave_sim::SimTime;
use std::collections::BTreeMap;

/// A point mass in the simulated molecule.
#[derive(Debug, Clone)]
pub struct Atom {
    pub position: Vec3,
    pub velocity: Vec3,
    pub mass: f32,
    /// Pending user force, applied during the next step then cleared.
    pub external_force: Vec3,
}

/// A spring bond between two atoms.
#[derive(Debug, Clone, Copy)]
pub struct Bond {
    pub a: usize,
    pub b: usize,
    pub rest_length: f32,
    pub stiffness: f32,
}

/// The "third-party simulator": mass-spring molecular dynamics with
/// velocity damping, integrated by semi-implicit Euler. Deterministic.
#[derive(Debug, Clone)]
pub struct MoleculeSimulator {
    pub atoms: Vec<Atom>,
    pub bonds: Vec<Bond>,
    pub damping: f32,
    /// Integration substep.
    pub dt: f32,
    /// Wall-clock cost per (atom × substep) charged to the compute host.
    pub cost_per_atom_step: f64,
}

impl MoleculeSimulator {
    /// A small chain molecule: `n` atoms in a line, springs between
    /// neighbours.
    pub fn chain(n: usize, spacing: f32) -> Self {
        assert!(n >= 2);
        let atoms = (0..n)
            .map(|i| Atom {
                position: Vec3::new(i as f32 * spacing, 0.0, 0.0),
                velocity: Vec3::ZERO,
                mass: 1.0,
                external_force: Vec3::ZERO,
            })
            .collect();
        let bonds = (0..n - 1)
            .map(|i| Bond { a: i, b: i + 1, rest_length: spacing, stiffness: 60.0 })
            .collect();
        Self { atoms, bonds, damping: 2.0, dt: 1.0 / 120.0, cost_per_atom_step: 2.0e-6 }
    }

    /// Advance by `steps` substeps; returns the charged compute time.
    pub fn step(&mut self, steps: u32) -> SimTime {
        for _ in 0..steps {
            let mut forces = vec![Vec3::ZERO; self.atoms.len()];
            for bond in &self.bonds {
                let pa = self.atoms[bond.a].position;
                let pb = self.atoms[bond.b].position;
                let delta = pb - pa;
                let len = delta.length().max(1e-6);
                let f = delta * ((len - bond.rest_length) * bond.stiffness / len);
                forces[bond.a] += f;
                forces[bond.b] -= f;
            }
            for (atom, spring) in self.atoms.iter_mut().zip(&forces) {
                let total = *spring + atom.external_force - atom.velocity * self.damping;
                atom.velocity += total * (self.dt / atom.mass);
                atom.position += atom.velocity * self.dt;
                atom.external_force = Vec3::ZERO;
            }
        }
        SimTime::from_secs(self.atoms.len() as f64 * steps as f64 * self.cost_per_atom_step)
    }

    /// Total spring + kinetic energy (stability diagnostics for tests).
    pub fn energy(&self) -> f32 {
        let kinetic: f32 = self.atoms.iter().map(|a| 0.5 * a.mass * a.velocity.length_sq()).sum();
        let spring: f32 = self
            .bonds
            .iter()
            .map(|b| {
                let len = (self.atoms[b.b].position - self.atoms[b.a].position).length();
                0.5 * b.stiffness * (len - b.rest_length).powi(2)
            })
            .sum();
        kinetic + spring
    }
}

/// The bridge between a RAVE session and a simulator instance.
#[derive(Debug)]
pub struct SteeringBridge {
    pub data_service: DataServiceId,
    /// Host the simulator runs on (forces/positions cross this link).
    pub compute_host: String,
    pub simulator: MoleculeSimulator,
    /// atom index → bridged scene node.
    pub bindings: BTreeMap<usize, NodeId>,
}

impl SteeringBridge {
    /// Create the bridge and publish one scene node per atom (small
    /// spheres would be typical; the nodes are groups whose transform is
    /// the atom position — content is presentation-side).
    pub fn new(
        sim: &mut RaveSim,
        ds_id: DataServiceId,
        compute_host: &str,
        simulator: MoleculeSimulator,
    ) -> Self {
        let mut bindings = BTreeMap::new();
        for (i, atom) in simulator.atoms.iter().enumerate() {
            let (id, root) = {
                let ds = sim.world.data_mut(ds_id);
                (ds.scene.allocate_id(), ds.scene.root())
            };
            publish_update(
                sim,
                ds_id,
                "simulator",
                SceneUpdate::AddNode {
                    id,
                    parent: root,
                    name: format!("atom-{i}"),
                    kind: rave_scene::NodeKind::Group,
                },
            )
            .expect("atom node");
            publish_update(
                sim,
                ds_id,
                "simulator",
                SceneUpdate::SetTransform {
                    id,
                    transform: Transform::from_translation(atom.position),
                },
            )
            .expect("atom pose");
            bindings.insert(i, id);
        }
        let row = TraceEvent::SteeringBridge { host: compute_host.into(), atoms: bindings.len() };
        sim.world.trace.record(sim.now(), row);
        Self { data_service: ds_id, compute_host: compute_host.into(), simulator, bindings }
    }

    /// A user drags a bridged atom: the force crosses the wire to the
    /// simulator ("exert a force on a molecule").
    pub fn apply_force(&mut self, sim: &mut RaveSim, atom: usize, force: Vec3, user_host: &str) {
        let now = sim.now();
        let _arrival = sim.world.send_bytes(now, user_host, &self.compute_host, 64);
        if let Some(a) = self.simulator.atoms.get_mut(atom) {
            a.external_force += force;
        }
    }

    /// Run one coupled step: integrate, then publish the new atom poses
    /// through the normal update protocol (compute time + per-update wire
    /// time are charged; collaborators see the molecule move).
    pub fn step_and_publish(&mut self, sim: &mut RaveSim, substeps: u32) {
        let compute = self.simulator.step(substeps);
        // Advance the clock by the compute time before publishing.
        let target = sim.now() + compute;
        sim.schedule_at(target, |_| {});
        sim.run_until(target);
        for (i, node) in &self.bindings {
            let pos = self.simulator.atoms[*i].position;
            publish_update(
                sim,
                self.data_service,
                "simulator",
                SceneUpdate::SetTransform {
                    id: *node,
                    transform: Transform::from_translation(pos),
                },
            )
            .expect("atom update");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_scene::InterestSet;
    use rave_sim::Simulation;

    fn steering_world() -> (RaveSim, DataServiceId, crate::ids::RenderServiceId) {
        let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 88));
        let ds = sim.world.spawn_data_service("adrenochrome", "molecule");
        let rs = sim.world.spawn_render_service("laptop");
        sim.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());
        (sim, ds, rs)
    }

    #[test]
    fn simulator_relaxes_to_rest() {
        let mut m = MoleculeSimulator::chain(5, 1.0);
        // Stretch the chain.
        m.atoms[4].position.x += 0.8;
        let e0 = m.energy();
        m.step(2000);
        assert!(m.energy() < e0 * 0.01, "damped system relaxes: {} -> {}", e0, m.energy());
        // Rest lengths restored.
        for b in &m.bonds {
            let len = (m.atoms[b.b].position - m.atoms[b.a].position).length();
            assert!((len - b.rest_length).abs() < 0.05, "bond length {len}");
        }
    }

    #[test]
    fn force_moves_the_molecule() {
        let mut m = MoleculeSimulator::chain(3, 1.0);
        // Sustained pull (the user holds the drag): reapply each step —
        // external_force clears after every substep by design.
        for _ in 0..60 {
            m.atoms[0].external_force = Vec3::new(0.0, 50.0, 0.0);
            m.step(1);
        }
        assert!(m.atoms[0].position.y > 0.05, "pulled atom moves: {:?}", m.atoms[0].position);
        m.step(120);
        assert!(
            m.atoms[2].position.y.abs() > 1e-4,
            "force propagates along bonds: {:?}",
            m.atoms[2].position
        );
    }

    #[test]
    fn bridge_publishes_atoms_and_motion_reaches_replicas() {
        let (mut sim, ds, rs) = steering_world();
        let mut bridge =
            SteeringBridge::new(&mut sim, ds, "tower", MoleculeSimulator::chain(4, 1.0));
        sim.run();
        // Atoms exist on the replica.
        for node in bridge.bindings.values() {
            assert!(sim.world.render(rs).scene.contains(*node));
        }
        // User on the laptop yanks atom 0 upward; steps propagate.
        bridge.apply_force(&mut sim, 0, Vec3::new(0.0, 400.0, 0.0), "laptop");
        for _ in 0..5 {
            bridge.step_and_publish(&mut sim, 12);
        }
        sim.run();
        let node0 = bridge.bindings[&0];
        let replica_pos = sim.world.render(rs).scene.node(node0).unwrap().transform().translation;
        assert!(replica_pos.y > 0.01, "replica sees the steered motion: {replica_pos:?}");
        assert_eq!(replica_pos, bridge.simulator.atoms[0].position);
    }

    #[test]
    fn steering_charges_compute_time() {
        let (mut sim, ds, _) = steering_world();
        let mut bridge =
            SteeringBridge::new(&mut sim, ds, "tower", MoleculeSimulator::chain(10, 1.0));
        sim.run();
        let before = sim.now();
        bridge.step_and_publish(&mut sim, 120);
        let after = sim.now();
        // 10 atoms × 120 steps × 2 µs = 2.4 ms minimum.
        assert!((after - before).as_secs() >= 2.3e-3);
    }

    #[test]
    fn session_replay_includes_steered_motion() {
        // Asynchronous collaboration over a steering session: the
        // recording replays the molecule's trajectory.
        let dir = std::env::temp_dir().join(format!("rave-steer-rec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut sim, ds, _) = steering_world();
        sim.world.data_mut(ds).attach_store(&dir, Default::default()).unwrap();
        let mut bridge =
            SteeringBridge::new(&mut sim, ds, "tower", MoleculeSimulator::chain(3, 1.0));
        sim.run();
        bridge.apply_force(&mut sim, 2, Vec3::new(0.0, 0.0, 300.0), "laptop");
        bridge.step_and_publish(&mut sim, 30);
        sim.run();
        sim.world.data_mut(ds).sync_persistence().unwrap();
        let replayed = rave_store::recover(&dir).unwrap().tree;
        std::fs::remove_dir_all(&dir).unwrap();
        let node2 = bridge.bindings[&2];
        assert_eq!(
            replayed.node(node2).unwrap().transform().translation,
            bridge.simulator.atoms[2].position
        );
    }
}
