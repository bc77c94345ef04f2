//! Table 5: "Timings of UDDI recruitment and subsequent service
//! bootstrap".
//!
//! Paper values:
//!
//! | Model | data file | UDDI scan (full) | Service bootstrap |
//! |---|---|---|---|
//! | Galleon | 0.3 MB | 0.73 s (4.8 s) | 10.5 s |
//! | Skeletal Hand | 20 MB | 0.70 s (4.2 s) | 68.2 s |
//!
//! The service bootstrap includes the Axis factory call, the SOAP
//! subscribe, the introspective marshal of the scene (the §5.5
//! bottleneck) and the 100 Mbit transfer.

use crate::RunOpts;
use rave_core::bootstrap::connect_render_service;
use rave_core::world::RaveWorld;
use rave_core::RaveConfig;
use rave_grid::TechnicalModel;
use rave_models::{build_with_budget, PaperModel};
use rave_scene::{InterestSet, NodeKind};
use rave_sim::Simulation;
use std::sync::Arc;

#[derive(Debug, Clone)]
pub struct Row {
    pub model: PaperModel,
    pub data_bytes: u64,
    pub uddi_scan_s: f64,
    pub uddi_full_s: f64,
    pub bootstrap_s: f64,
    pub paper_scan_s: f64,
    pub paper_full_s: f64,
    pub paper_bootstrap_s: f64,
}

pub fn run(opts: &RunOpts) -> Vec<Row> {
    [(PaperModel::Galleon, 0.73, 4.8, 10.5), (PaperModel::SkeletalHand, 0.70, 4.2, 68.2)]
        .into_iter()
        .map(|(model, paper_scan, paper_full, paper_boot)| {
            // Use full polygon counts (the marshal bottleneck IS the point);
            // --quick scales down for CI.
            let budget = opts.budget(model);
            let mesh = build_with_budget(model, budget);

            let mut sim = Simulation::new(RaveWorld::paper_testbed(RaveConfig::default(), 55));
            let ds = sim.world.spawn_data_service("adrenochrome", model.name());
            let data_bytes = mesh.wire_size();
            {
                let scene = &mut sim.world.data_mut(ds).scene;
                let root = scene.root();
                scene.add_node(root, "model", NodeKind::Mesh(Arc::new(mesh))).unwrap();
            }
            // Publish a few render services so the scan has realistic result
            // counts.
            for host in ["tower", "desktop", "onyx"] {
                sim.world.spawn_render_service(host);
            }

            // UDDI timings from the cost model + live registry.
            let results =
                sim.world.registry.scan_access_points("RAVE", TechnicalModel::RenderService).len();
            let uddi_scan = sim.world.uddi_cost.scan_cost(results).as_secs();
            let uddi_full = sim.world.uddi_cost.full_bootstrap_cost(results).as_secs();

            // Service bootstrap: container instance creation + scene
            // bootstrap (SOAP + introspective marshal + transfer).
            let (_, create_cost) = sim
                .world
                .containers
                .get_mut("tower")
                .unwrap()
                .create_instance("render-factory", "bench", "adrenochrome")
                .unwrap();
            let rs = sim.world.spawn_render_service("tower");
            let t0 = sim.now();
            let timing = connect_render_service(&mut sim, rs, ds, InterestSet::everything());
            sim.run();
            let bootstrap = create_cost.as_secs() + (timing.ready_at - t0).as_secs();

            Row {
                model,
                data_bytes,
                uddi_scan_s: uddi_scan,
                uddi_full_s: uddi_full,
                bootstrap_s: bootstrap,
                paper_scan_s: paper_scan,
                paper_full_s: paper_full,
                paper_bootstrap_s: paper_boot,
            }
        })
        .collect()
}

pub fn render(rows: &[Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.name().to_string(),
                format!("{:.1} MB", r.data_bytes as f64 / 1e6),
                format!(
                    "{:.2}s ({:.2}) full {:.1}s ({:.1})",
                    r.uddi_scan_s, r.paper_scan_s, r.uddi_full_s, r.paper_full_s
                ),
                format!("{:.1}s ({:.1})", r.bootstrap_s, r.paper_bootstrap_s),
            ]
        })
        .collect();
    crate::render_table(
        "Table 5: UDDI recruitment + service bootstrap — measured (paper)",
        &["Model", "Data size", "UDDI scan (full bootstrap)", "Service bootstrap"],
        &table_rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_shape() {
        let rows = run(&RunOpts { quick: true, out_dir: "out" });
        assert_eq!(rows.len(), 2);
        // UDDI times are size-independent.
        assert!((rows[0].uddi_scan_s - rows[1].uddi_scan_s).abs() < 0.05);
        assert!((0.6..0.85).contains(&rows[0].uddi_scan_s));
        assert!((4.0..5.0).contains(&rows[0].uddi_full_s));
        // Bootstrap grows with the model.
        assert!(rows[1].bootstrap_s > rows[0].bootstrap_s);
    }

    /// The quick run's service bootstraps, bit for bit: instance creation,
    /// the SOAP handshake, the priced introspective marshal and the
    /// transfer. EXPERIMENTS' Table 5 quotes these.
    #[test]
    fn quick_bootstrap_times_are_pinned() {
        let rows = run(&RunOpts { quick: true, out_dir: "out" });
        let bits: Vec<u64> = rows.iter().map(|r| r.bootstrap_s.to_bits()).collect();
        assert_eq!(bits, [0x40242820ddbc8df8, 0x40262f789d07d998], "{rows:?}");
    }
}
