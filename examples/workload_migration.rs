//! Workload distribution + migration (§3.2.5/§3.2.7) end-to-end:
//!
//! 1. A dataset too large for one render service is distributed across
//!    the testbed by capacity interrogation (splitting an oversized mesh).
//! 2. One service becomes overloaded; the data service sheds nodes to a
//!    spare service.
//! 3. With connected capacity exhausted, UDDI recruits an unconnected
//!    render service.
//!
//! Run with: `cargo run --release --example workload_migration`

use rave::core::distribution::plan_distribution;
use rave::core::migration::{check_and_migrate, check_underload_rebalance};
use rave::core::thin_client::{connect, stream_frames};
use rave::core::world::RaveWorld;
use rave::core::RaveConfig;
use rave::models::{build_with_budget, PaperModel};
use rave::scene::{InterestSet, NodeKind};
use rave::sim::{SimTime, Simulation};
use std::sync::Arc;

fn main() {
    let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 3));
    let ds = sim.world.spawn_data_service("adrenochrome", "skeleton-session");

    // A 2.8M-polygon skeleton (scaled to 600k here so the example runs in
    // a blink — the bench harness uses full size).
    let skeleton = build_with_budget(PaperModel::Skeleton, 600_000);
    {
        let scene = &mut sim.world.data_mut(ds).scene;
        let root = scene.root();
        scene.add_node(root, "skeleton", NodeKind::Mesh(Arc::new(skeleton))).unwrap();
    }

    // Two modest render services connect.
    let rs_laptop = sim.world.spawn_render_service("laptop");
    let rs_desktop = sim.world.spawn_render_service("desktop");
    for rs in [rs_laptop, rs_desktop] {
        rave::core::bootstrap::connect_render_service(&mut sim, rs, ds, InterestSet::subtrees([]));
    }
    sim.run();

    // --- 1. Distribution planning -----------------------------------
    let cfg = sim.world.config.clone();
    let reports: Vec<_> = [rs_laptop, rs_desktop]
        .iter()
        .map(|&rs| sim.world.render(rs).capacity_report(&cfg))
        .collect();
    for r in &reports {
        println!(
            "capacity of {} ({}): {} polygons headroom, {} MB texture",
            r.service,
            r.host,
            r.poly_headroom,
            r.texture_headroom >> 20
        );
    }
    let plan = {
        let mut master = sim.world.data(ds).scene.clone();
        let plan = plan_distribution(&mut master, &reports).expect("plan");
        sim.world.data_mut(ds).scene = master;
        plan
    };
    println!("\ndistribution plan ({} splits performed):", plan.splits_performed);
    for a in &plan.assignments {
        println!("  {} takes {} nodes, {} polygons", a.service, a.nodes.len(), a.cost.polygons);
    }
    // Install the plan: subscribe each service to its share.
    for a in &plan.assignments {
        let interest = InterestSet::subtrees(a.nodes.iter().copied());
        rave::core::bootstrap::connect_render_service(&mut sim, a.service, ds, interest);
    }
    sim.run();

    // --- 2. Overload -> migration -----------------------------------
    // A PDA hammers the laptop, which reports a collapsing frame rate.
    let pda = sim.world.spawn_thin_client("zaurus");
    connect(&mut sim, pda, rs_laptop);
    stream_frames(&mut sim, pda, 15);
    sim.run();
    println!(
        "\nlaptop rolling fps after streaming: {:.1}",
        sim.world.render(rs_laptop).rolling_fps().unwrap_or(f64::NAN)
    );
    let outcome = check_and_migrate(&mut sim, ds);
    sim.run();
    println!(
        "migration outcome: {} nodes moved, {} services recruited, refused={}",
        outcome.moved.len(),
        outcome.recruited.len(),
        outcome.refused
    );
    for (node, from, to) in &outcome.moved {
        println!("  node {node}: {from} -> {to}");
    }

    // --- 3. UDDI recruitment -----------------------------------------
    // Register an idle render service on the Onyx, then rebalance under
    // debounce: it should attract work.
    let rs_onyx = sim.world.spawn_render_service("onyx");
    rave::core::bootstrap::connect_render_service(&mut sim, rs_onyx, ds, InterestSet::subtrees([]));
    sim.run();
    // Let the debounce window elapse with the Onyx idle.
    check_underload_rebalance(&mut sim, ds);
    let horizon = sim.now() + SimTime::from_secs(6.0);
    sim.schedule_at(horizon, |_| {});
    sim.run();
    let rebalance = check_underload_rebalance(&mut sim, ds);
    sim.run();
    println!("\nunderload rebalance onto the Onyx: {} nodes attracted", rebalance.moved.len());
    println!("onyx now holds {} polygons", sim.world.render(rs_onyx).assigned_cost().polygons);
    let moves = sim.world.data(ds).moves;
    println!(
        "moves charged: {} subtrees, {} payloads the receiver cached ({} bytes kept off the wire)",
        moves.moves, moves.payloads_cached, moves.payload_bytes_saved
    );

    println!("\nfull event trace:\n{}", sim.world.trace.render());
}
