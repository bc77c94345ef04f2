//! The RAVE rendering substrate: a deterministic software rasterizer plus
//! the machine cost models that stand in for the paper's 2004 GPUs.
//!
//! Two concerns, deliberately separated:
//!
//! 1. **Images** are produced by real rasterization ([`raster`],
//!    [`points`], [`volume`]) into a [`framebuffer::Framebuffer`]. Figures
//!    2/3/5 of the paper are regenerated from these actual pixels, and the
//!    tile/depth compositors ([`composite`]) operate on real buffers, so
//!    distribution correctness (seams, depth resolution) is exercised for
//!    real, not modelled.
//! 2. **Durations** come from [`machine::MachineProfile`] cost models (the
//!    render rates of the paper's testbed hardware), charged to the
//!    `rave-sim` virtual clock. Tables 2–4 derive from these.
//!
//! The renderer itself is deliberately simple — Gouraud-shaded z-buffered
//! scan conversion, point splatting, front-to-back volume ray casting —
//! i.e. feature-equivalent to the fixed-function Java3D pipeline the paper
//! used.

pub mod avatar;
pub mod composite;
pub mod framebuffer;
pub mod machine;
pub mod pick;
pub mod points;
pub mod raster;
pub mod renderer;
pub mod stereo;
mod tile_cull;
pub mod volume;

pub use framebuffer::{Framebuffer, Rgb};
pub use machine::{MachineProfile, OffscreenMode, RenderCost};
pub use renderer::{RenderStats, Renderer};
pub use stereo::{Eye, StereoRig};
