//! Data-service failover head to head, both sides the live scheduler
//! path (`handle_data_service_failure`): warm promotion of a log-shipped
//! standby (`rave_core::replica`) versus the cold path a service without
//! a standby takes — rebuilt from its durable store
//! (`bootstrap::recover_data_service`), every subscriber re-bootstrapped
//! — across scene sizes and lag settings. Both run in the same simulated
//! testbed, so "recovery time" is virtual time: every byte of replication,
//! every marshalled snapshot and every control round trip is charged
//! through the cost models. Emits `BENCH_failover.json` at the repo root.
//! `BENCH_QUICK=1` runs smaller sessions.

use bench::harness::{num, obj, quick, tmp_dir, Report};
use rave_core::migration::handle_data_service_failure;
use rave_core::replica::{establish_standby, run_log_shipping, PromotionReport};
use rave_core::trace::TraceKind;
use rave_core::world::{publish_update, RaveWorld};
use rave_core::{DataServiceId, RaveConfig, RaveSim, RenderServiceId};
use rave_scene::{InterestSet, NodeId, NodeKind, SceneUpdate};
use rave_sim::{SimTime, Simulation};
use rave_store::{StoreConfig, Wal};
use serde::Serialize;
use std::path::Path;

fn add(sim: &mut RaveSim, ds: DataServiceId, seq_hint: u64) -> NodeId {
    let id = sim.world.data_mut(ds).scene.allocate_id();
    publish_update(
        sim,
        ds,
        "bench",
        SceneUpdate::AddNode {
            id,
            parent: NodeId(0),
            name: format!("n{seq_hint}"),
            kind: NodeKind::Group,
        },
    )
    .unwrap();
    id
}

/// Session world: primary on adrenochrome logging to a store at `pdir`,
/// a live subscriber on the laptop. Small segments force rotations
/// (sealed-segment shipping); a huge checkpoint interval keeps the whole
/// WAL shippable.
fn session_world(max_lag: u64, pdir: &Path) -> (RaveSim, DataServiceId, RenderServiceId) {
    let cfg = RaveConfig { ship_max_lag: max_lag, ..Default::default() };
    let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 42));
    let primary = sim.world.spawn_data_service("adrenochrome", "sess");
    let rs = sim.world.spawn_render_service("laptop");
    sim.world.data_mut(primary).subscribe_live(rs, InterestSet::everything());
    let store_cfg =
        StoreConfig { segment_max_bytes: 4096, checkpoint_every: u64::MAX / 2, sync_writes: false };
    sim.world.data_mut(primary).attach_store(pdir, store_cfg).unwrap();
    (sim, primary, rs)
}

/// Fail `primary` through the scheduler and check the session goes on:
/// the replacement holds everything committed, the subscriber still
/// receives updates and sequence numbers continue.
fn fail_and_continue(
    sim: &mut RaveSim,
    primary: DataServiceId,
    rs: RenderServiceId,
    warm: bool,
) -> PromotionReport {
    let outcome = handle_data_service_failure(sim, primary);
    assert_eq!(outcome.promotions.len(), 1, "one failover");
    let report = outcome.promotions[0].clone();
    assert_eq!(report.warm, warm, "a linked standby promotes warm, a lone service recovers cold");
    sim.run();
    let new_ds = report.promoted;
    let before = sim.world.data(new_ds).audit.last_seq();
    let id = add(sim, new_ds, before + 1);
    sim.run();
    assert_eq!(sim.world.data(new_ds).audit.last_seq(), before + 1);
    assert!(sim.world.render(rs).scene.contains(id), "the subscriber follows the replacement");
    report
}

struct ConfigResult {
    updates: u64,
    max_lag: u64,
    warm_secs: f64,
    cold_secs: f64,
    warm_replayed: u64,
    cold_replayed: u64,
    lost_updates: u64,
}

/// Warm path: standby kept in lockstep by log shipping; recovery is the
/// promotion. Returns (virtual seconds, bytes replayed, updates lost).
fn run_warm(updates: u64, max_lag: u64) -> (f64, u64, u64) {
    let pdir = tmp_dir(&format!("failover-warm-p-{updates}-{max_lag}"));
    let sdir = tmp_dir(&format!("failover-warm-s-{updates}-{max_lag}"));
    let (mut sim, primary, rs) = session_world(max_lag, &pdir);
    let standby = sim.world.spawn_data_service("tower", "sess-standby");
    establish_standby(&mut sim, primary, standby, &pdir, &sdir).unwrap();
    let horizon = sim.now() + SimTime::from_secs(600.0);
    run_log_shipping(&mut sim, primary, horizon);
    for i in 0..updates {
        add(&mut sim, primary, i);
    }
    sim.run();

    let t0 = sim.now();
    let report = fail_and_continue(&mut sim, primary, rs, true);
    assert_eq!(report.promoted, standby);
    assert!(
        report.lost_updates <= max_lag,
        "loss bounded by the configured lag ({} > {max_lag}) at {updates} updates",
        report.lost_updates
    );
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&sdir);
    ((report.completed_at - t0).as_secs(), report.replayed_bytes, report.lost_updates)
}

/// Cold path: no standby exists at failure time; the store is read back
/// on the same host and the subscriber is re-bootstrapped from the
/// recovered scene. Returns (virtual seconds until the subscriber is
/// live again, log bytes recovery replays).
fn run_cold(updates: u64) -> (f64, u64) {
    let pdir = tmp_dir(&format!("failover-cold-{updates}"));
    let (mut sim, primary, rs) = session_world(0, &pdir);
    for i in 0..updates {
        add(&mut sim, primary, i);
    }
    sim.world.data_mut(primary).sync_persistence().unwrap();
    sim.run();
    let replayed = Wal::disk_bytes(&pdir).unwrap();

    let t0 = sim.now();
    let report = fail_and_continue(&mut sim, primary, rs, false);
    assert_eq!(
        sim.world.data(report.promoted).audit.last_seq(),
        updates + 1,
        "the store held the full trail"
    );
    let live_again =
        sim.world.trace.last_of(TraceKind::Bootstrap).expect("the subscriber re-bootstraps").at;
    let _ = std::fs::remove_dir_all(&pdir);
    ((live_again - t0).as_secs(), replayed)
}

fn main() {
    let configs: &[(u64, u64)] = if quick() {
        &[(200, 0), (600, 16)]
    } else {
        &[(500, 0), (2000, 0), (2000, 16), (2000, 64), (8000, 0)]
    };

    let mut results: Vec<ConfigResult> = Vec::new();
    for &(updates, max_lag) in configs {
        let (warm_secs, warm_replayed, lost_updates) = run_warm(updates, max_lag);
        let (cold_secs, cold_replayed) = run_cold(updates);
        println!(
            "updates={updates} lag={max_lag}: warm {:.3} ms vs cold {:.3} ms \
             ({warm_replayed} vs {cold_replayed} bytes replayed, {lost_updates} lost)",
            warm_secs * 1e3,
            cold_secs * 1e3,
        );
        results.push(ConfigResult {
            updates,
            max_lag,
            warm_secs,
            cold_secs,
            warm_replayed,
            cold_replayed,
            lost_updates,
        });
    }

    let min_speedup =
        results.iter().map(|r| r.cold_secs / r.warm_secs).fold(f64::INFINITY, f64::min);
    let max_replayed_ratio =
        results.iter().map(|r| r.warm_replayed as f64 / r.cold_replayed as f64).fold(0.0, f64::max);
    let configs: Vec<_> = results
        .iter()
        .map(|r| {
            obj([
                ("updates", r.updates.to_value()),
                ("max_lag", r.max_lag.to_value()),
                (
                    "recovery_time",
                    obj([("warm_secs", num(r.warm_secs, 6)), ("cold_secs", num(r.cold_secs, 6))]),
                ),
                (
                    "replayed_bytes",
                    obj([
                        ("warm", r.warm_replayed.to_value()),
                        ("cold", r.cold_replayed.to_value()),
                    ]),
                ),
                ("lost_updates", r.lost_updates.to_value()),
                ("speedup", num(r.cold_secs / r.warm_secs, 1)),
            ])
        })
        .collect();
    Report::new("failover")
        .set("configs", configs)
        .set("warm_vs_cold_speedup", num(min_speedup, 1))
        .set("warm_over_cold_replayed_bytes", num(max_replayed_ratio, 4))
        .write();
}
