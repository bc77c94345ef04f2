//! Distributed volume rendering (§6 future work, implemented).
//!
//! "We will extend our support and rendering services to include voxel
//! and point based methods; these will distribute across multiple render
//! services. Subset blocks of the volume can be blended, even though they
//! contain transparency, by considering their relative distance from the
//! view in the order of blending (such as Visapult)."
//!
//! The flow mirrors Visapult's: the volume is split into bricks
//! ([`rave_scene::VolumeData::split_bricks`] via the distribution
//! planner's `split_node`), each assisting render service ray-casts *its
//! brick* over the full viewport into an RGBA layer, ships it to the
//! owner, and the owner blends the layers back-to-front by brick
//! distance.

use crate::capacity::CapacityReport;
use crate::distribution::split_node;
use crate::ids::RenderServiceId;
use crate::sched::placement::rank_helpers;
use crate::trace::TraceEvent;
use crate::world::RaveSim;
use rave_math::Viewport;
use rave_render::composite::{blend_volume_layers, VolumeLayer};
use rave_render::Framebuffer;
use rave_scene::{CameraParams, NodeId, SceneTree};
use rave_sim::SimTime;

/// Split one volume node into `2^splits` bricks (in the master scene),
/// returning the brick node ids. The bricks stay children of the original
/// node, which becomes a group — structural updates the normal protocol
/// replicates.
pub fn brick_volume(scene: &mut SceneTree, volume: NodeId, splits: u32) -> Vec<NodeId> {
    let mut frontier = vec![volume];
    for _ in 0..splits {
        let mut next = Vec::new();
        for node in frontier {
            match split_node(scene, node) {
                Some((a, b)) => {
                    next.push(a);
                    next.push(b);
                }
                None => next.push(node),
            }
        }
        frontier = next;
    }
    frontier
}

/// Plan brick-to-service assignments through the scheduler's shared
/// participant ranking: the owner takes the first brick, assisting
/// services (strongest advertised headroom first, zero-headroom helpers
/// dropped) take the rest, wrapping round-robin when bricks outnumber
/// participants. With one helper and two bricks this reproduces the
/// manual `[(owner, b0), (helper, b1)]` assignment the module's tests
/// always used.
pub fn plan_volume_bricks(
    owner: RenderServiceId,
    bricks: &[NodeId],
    helpers: &[CapacityReport],
) -> Vec<(RenderServiceId, NodeId)> {
    let ranked = rank_helpers(helpers, bricks.len().saturating_sub(1));
    let participants: Vec<RenderServiceId> =
        std::iter::once(owner).chain(ranked.iter().map(|r| r.service)).collect();
    bricks
        .iter()
        .enumerate()
        .map(|(i, &brick)| (participants[i % participants.len()], brick))
        .collect()
}

/// Outcome of a distributed volume frame.
#[derive(Debug)]
pub struct VolumeFrameResult {
    pub completed_at: SimTime,
    /// Blended image (when the world produces images).
    pub image: Option<Framebuffer>,
    /// Per-brick layer arrival times.
    pub layer_arrivals: Vec<SimTime>,
    pub bricks: usize,
}

/// Render one distributed volume frame: each `(service, brick)` pair
/// ray-casts its brick; layers converge on the owner and blend in view
/// order. `cost_voxels_per_sec` is the ray-cast throughput charged to the
/// virtual clock (volume rendering was not in the paper's machine tables,
/// so the rate is a single explicit knob).
pub fn render_distributed_volume(
    sim: &mut RaveSim,
    owner: RenderServiceId,
    assignments: &[(RenderServiceId, NodeId)],
    camera: CameraParams,
    viewport: Viewport,
    cost_voxels_per_sec: f64,
) -> VolumeFrameResult {
    let t0 = sim.now();
    let produce = sim.world.config.produce_images;
    let owner_host = sim.world.render(owner).host.clone();

    let mut layers: Vec<VolumeLayer> = Vec::new();
    let mut arrivals = Vec::with_capacity(assignments.len());
    for (svc, brick) in assignments {
        let helper_host = sim.world.render(*svc).host.clone();
        // Charge: request + ray-cast + RGBA layer transfer (4 floats/px
        // quantized to 8 bytes/px on the wire).
        let req_at = if *svc == owner {
            t0
        } else {
            sim.world.send_bytes(t0, &owner_host, &helper_host, 128)
        };
        let voxels = {
            let rs = sim.world.render(*svc);
            rs.scene.node(*brick).map_or(0, |n| n.own_cost().voxels)
        };
        let cast_time = SimTime::from_secs(voxels as f64 / cost_voxels_per_sec);
        let rendered_at = req_at + cast_time;
        let arrival = if *svc == owner {
            rendered_at
        } else {
            sim.world.send_bytes(
                rendered_at,
                &helper_host,
                &owner_host,
                viewport.pixel_count() as u64 * 8,
            )
        };
        arrivals.push(arrival);
        if produce {
            let rs = sim.world.render(*svc);
            if let Some(layer) =
                rs.renderer.render_volume_layer(&rs.scene, *brick, &camera, &viewport)
            {
                layers.push(layer);
            }
        }
    }

    let completed_at = arrivals.iter().copied().fold(t0, SimTime::max);
    let image = if produce {
        let mut target = Framebuffer::new(viewport.width, viewport.height);
        blend_volume_layers(&mut target, &mut layers);
        Some(target)
    } else {
        None
    };
    let row = TraceEvent::VolumeFrame { bricks: assignments.len(), owner };
    sim.world.trace.record(completed_at, row);
    VolumeFrameResult { completed_at, image, layer_arrivals: arrivals, bricks: assignments.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::RaveWorld;
    use crate::RaveConfig;
    use rave_math::Vec3;
    use rave_scene::{NodeKind, VolumeData};
    use rave_sim::Simulation;
    use std::sync::Arc;

    /// A dense ball in a 24³ volume.
    fn ball_volume() -> VolumeData {
        let n = 24u32;
        let mut voxels = vec![0u8; (n * n * n) as usize];
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let p = Vec3::new(x as f32 - 11.5, y as f32 - 11.5, z as f32 - 11.5);
                    if p.length() < 8.0 {
                        voxels[(x + n * (y + n * z)) as usize] = 220;
                    }
                }
            }
        }
        VolumeData::new([n, n, n], Vec3::ONE, voxels)
    }

    fn volume_world() -> (RaveSim, RenderServiceId, RenderServiceId, NodeId) {
        let cfg = RaveConfig { produce_images: true, ..RaveConfig::default() };
        let mut sim = Simulation::new(RaveWorld::paper_testbed(cfg, 77));
        let owner = sim.world.spawn_render_service("v880z"); // volume_hw
        let helper = sim.world.spawn_render_service("onyx");
        let mut master = SceneTree::new();
        let root = master.root();
        let vol = master.add_node(root, "ct", NodeKind::Volume(Arc::new(ball_volume()))).unwrap();
        for rs in [owner, helper] {
            sim.world.render_mut(rs).scene = master.clone();
        }
        (sim, owner, helper, vol)
    }

    #[test]
    fn bricking_conserves_voxels() {
        let mut scene = SceneTree::new();
        let root = scene.root();
        let vol = scene.add_node(root, "v", NodeKind::Volume(Arc::new(ball_volume()))).unwrap();
        let total = scene.total_cost().voxels;
        let bricks = brick_volume(&mut scene, vol, 2);
        assert_eq!(bricks.len(), 4);
        assert_eq!(scene.total_cost().voxels, total);
        scene.check_invariants().unwrap();
        assert!(matches!(scene.node(vol).unwrap().kind(), NodeKind::Group));
    }

    #[test]
    fn distributed_blend_close_to_monolithic() {
        let (mut sim, owner, helper, vol) = volume_world();
        let cam = CameraParams::look_at(Vec3::new(12.0, 12.0, 60.0), Vec3::splat(12.0), Vec3::Y);
        let viewport = Viewport::new(48, 48);

        // Monolithic reference on the owner (single volume layer).
        let mono = {
            let rs = sim.world.render(owner);
            let layer = rs.renderer.render_volume_layer(&rs.scene, vol, &cam, &viewport).unwrap();
            let mut fb = Framebuffer::new(48, 48);
            blend_volume_layers(&mut fb, &mut [layer]);
            fb
        };

        // Brick the volume on both replicas, assign one brick each.
        let bricks = {
            let mut bricks = Vec::new();
            for rs in [owner, helper] {
                let scene = &mut sim.world.render_mut(rs).scene;
                bricks = brick_volume(scene, vol, 1);
            }
            bricks
        };
        assert_eq!(bricks.len(), 2);
        let assignments = vec![(owner, bricks[0]), (helper, bricks[1])];
        let result =
            render_distributed_volume(&mut sim, owner, &assignments, cam, viewport, 50.0e6);
        let distributed = result.image.unwrap();
        // Both show the ball; the split must not lose it.
        assert!(mono.coverage(rave_render::Rgb::BLACK) > 100);
        assert!(distributed.coverage(rave_render::Rgb::BLACK) > 100);
        // Blended result close to the monolithic one (brick-boundary
        // interpolation differs slightly; most pixels agree).
        assert!(
            distributed.diff_fraction(&mono, 40.0) < 0.15,
            "diff {}",
            distributed.diff_fraction(&mono, 40.0)
        );
    }

    #[test]
    fn planned_bricks_match_the_manual_assignment() {
        use rave_scene::NodeCost;
        let (mut sim, owner, helper, vol) = volume_world();
        let bricks = {
            let mut bricks = Vec::new();
            for rs in [owner, helper] {
                let scene = &mut sim.world.render_mut(rs).scene;
                bricks = brick_volume(scene, vol, 1);
            }
            bricks
        };
        let helper_report = CapacityReport {
            service: helper,
            host: "onyx".into(),
            polys_per_sec: 1e7,
            poly_headroom: 1000,
            texture_headroom: u64::MAX,
            volume_hw: true,
            assigned: NodeCost::ZERO,
            rolling_fps: None,
        };
        let planned = plan_volume_bricks(owner, &bricks, std::slice::from_ref(&helper_report));
        assert_eq!(planned, vec![(owner, bricks[0]), (helper, bricks[1])]);

        // A zero-headroom helper is dropped: the owner wraps around and
        // carries every brick itself.
        let dead = CapacityReport { poly_headroom: 0, ..helper_report };
        let solo = plan_volume_bricks(owner, &bricks, &[dead]);
        assert_eq!(solo, vec![(owner, bricks[0]), (owner, bricks[1])]);

        // Plan-driven render produces the same frame as the manual pair.
        let cam = CameraParams::look_at(Vec3::new(12.0, 12.0, 60.0), Vec3::splat(12.0), Vec3::Y);
        let vp = Viewport::new(48, 48);
        let via_plan =
            render_distributed_volume(&mut sim, owner, &planned, cam, vp, 50.0e6).image.unwrap();
        let manual = vec![(owner, bricks[0]), (helper, bricks[1])];
        let via_manual =
            render_distributed_volume(&mut sim, owner, &manual, cam, vp, 50.0e6).image.unwrap();
        assert_eq!(via_plan.diff_fraction(&via_manual, 0.0), 0.0);
    }

    #[test]
    fn remote_bricks_cost_wire_time() {
        let (mut sim, owner, helper, vol) = volume_world();
        sim.world.config.produce_images = false;
        let bricks = {
            let mut bricks = Vec::new();
            for rs in [owner, helper] {
                let scene = &mut sim.world.render_mut(rs).scene;
                bricks = brick_volume(scene, vol, 1);
            }
            bricks
        };
        let cam = CameraParams::default();
        let result = render_distributed_volume(
            &mut sim,
            owner,
            &[(owner, bricks[0]), (helper, bricks[1])],
            cam,
            Viewport::new(200, 200),
            50.0e6,
        );
        assert!(result.layer_arrivals[1] > result.layer_arrivals[0]);
        assert_eq!(result.completed_at, result.layer_arrivals[1]);
        assert!(result.image.is_none());
    }

    #[test]
    fn more_services_shorten_cast_time() {
        // With equal split, per-service cast time halves; wall clock
        // improves as long as transfer < cast.
        let (mut sim, owner, helper, vol) = volume_world();
        sim.world.config.produce_images = false;
        let cam = CameraParams::default();
        let slow_rate = 1.0e5; // firmly cast-bound: transfer << cast
        let single = render_distributed_volume(
            &mut sim,
            owner,
            &[(owner, vol)],
            cam,
            Viewport::new(100, 100),
            slow_rate,
        );
        let bricks = {
            let mut bricks = Vec::new();
            for rs in [owner, helper] {
                let scene = &mut sim.world.render_mut(rs).scene;
                bricks = brick_volume(scene, vol, 1);
            }
            bricks
        };
        let t1 = sim.now();
        let dual = render_distributed_volume(
            &mut sim,
            owner,
            &[(owner, bricks[0]), (helper, bricks[1])],
            cam,
            Viewport::new(100, 100),
            slow_rate,
        );
        let single_span = single.completed_at.as_secs();
        let dual_span = (dual.completed_at - t1).as_secs();
        assert!(
            dual_span < single_span * 0.75,
            "distribution helps: single {single_span} dual {dual_span}"
        );
    }
}
