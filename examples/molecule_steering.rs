//! Computational steering through a remote bridge (§5.2's molecule
//! example): a mass-spring "molecule" integrates on a remote compute
//! host; RAVE is the display and collaboration mechanism. A user yanks an
//! atom; every collaborator watches the chain whip and settle, and the
//! whole trajectory is recorded to a store and replayable from it.
//!
//! Run with: `cargo run --release --example molecule_steering`

use rave::core::steering::{MoleculeSimulator, SteeringBridge};
use rave::core::world::RaveWorld;
use rave::core::RaveConfig;
use rave::math::Vec3;
use rave::scene::InterestSet;
use rave::sim::Simulation;
use rave::store::StoreConfig;

fn main() {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 6));
    let ds = sim.world.spawn_data_service("adrenochrome", "molecule-session");
    let recording = std::env::temp_dir().join(format!("rave-molecule-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&recording);
    sim.world.data_mut(ds).attach_store(&recording, StoreConfig::default()).unwrap();
    let rs = sim.world.spawn_render_service("laptop");
    sim.world.data_mut(ds).subscribe_live(rs, InterestSet::everything());

    // The "third-party simulator" runs on the Onyx.
    let molecule = MoleculeSimulator::chain(8, 1.0);
    println!(
        "bridging an 8-atom chain to the Onyx (k={}, damping={})",
        molecule.bonds[0].stiffness, molecule.damping
    );
    let mut bridge = SteeringBridge::new(&mut sim, ds, "onyx", molecule);
    sim.run();

    // The user grabs the last atom and pulls, then releases.
    println!("\n t(virtual)  atom7.y   atom0.y   energy");
    for frame in 0..30 {
        if frame < 8 {
            bridge.apply_force(&mut sim, 7, Vec3::new(0.0, 220.0, 0.0), "laptop");
        }
        bridge.step_and_publish(&mut sim, 8);
        sim.run();
        if frame % 3 == 0 {
            println!(
                "  {:>8}   {:+.3}    {:+.3}    {:.2}",
                sim.now(),
                bridge.simulator.atoms[7].position.y,
                bridge.simulator.atoms[0].position.y,
                bridge.simulator.energy()
            );
        }
    }

    // The replica tracked every step.
    let node7 = bridge.bindings[&7];
    let replica_pos = sim.world.render(rs).scene.node(node7).unwrap().transform().translation;
    println!("\nreplica's view of atom 7: {replica_pos:?}");
    assert_eq!(replica_pos, bridge.simulator.atoms[7].position);

    // Asynchronous collaboration: the recorded session replays bit-exact.
    sim.world.data_mut(ds).sync_persistence().unwrap();
    let replayed = rave::store::recover(&recording).unwrap();
    std::fs::remove_dir_all(&recording).unwrap();
    assert_eq!(replayed.tree.node(node7).unwrap().transform().translation, replica_pos);
    println!("recording: {} updates; replay reproduces the final pose exactly.", replayed.last_seq);
}
