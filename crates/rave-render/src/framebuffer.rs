//! Color + depth framebuffers.
//!
//! Sizing matches the paper's arithmetic: a 200×200 framebuffer at 24
//! bits-per-pixel is exactly the "120kB for a 200x200 image" the Zaurus
//! must import (§4.4).

use rave_math::Viewport;
use std::io::Write;
use std::sync::Arc;

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rgb(pub u8, pub u8, pub u8);

impl Rgb {
    pub const BLACK: Rgb = Rgb(0, 0, 0);
    pub const WHITE: Rgb = Rgb(255, 255, 255);

    /// From float RGB in `[0, 1]`, clamped.
    pub fn from_f32(r: f32, g: f32, b: f32) -> Self {
        let q = |x: f32| (x.clamp(0.0, 1.0) * 255.0 + 0.5) as u8;
        Rgb(q(r), q(g), q(b))
    }

    /// Euclidean distance in 8-bit RGB space (seam/tear metrics).
    pub fn distance(self, o: Rgb) -> f32 {
        let d0 = self.0 as f32 - o.0 as f32;
        let d1 = self.1 as f32 - o.1 as f32;
        let d2 = self.2 as f32 - o.2 as f32;
        (d0 * d0 + d1 * d1 + d2 * d2).sqrt()
    }
}

/// A color + depth render target. Depth follows the GL convention:
/// cleared to `1.0` (far), smaller is closer.
///
/// The two planes are shared, copy-on-write storage: `clone` is two
/// reference counts, and the first write through either buffer
/// (`Framebuffer::planes_mut`, which every `&mut` entry goes through
/// once per call) copies the planes if another buffer still shares them.
/// A buffer nothing shares is written in place and keeps its allocation.
/// `==` compares pixels, whoever holds them.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    color: Arc<Vec<Rgb>>,
    depth: Arc<Vec<f32>>,
}

impl Framebuffer {
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "zero-sized framebuffer");
        let n = (width as usize) * (height as usize);
        Self { width, height, color: Arc::new(vec![Rgb::BLACK; n]), depth: Arc::new(vec![1.0; n]) }
    }

    /// Both planes for writing, this buffer's alone from here on: copied
    /// first when a clone still shares them.
    fn planes_mut(&mut self) -> (&mut [Rgb], &mut [f32]) {
        (
            Arc::make_mut(&mut self.color).as_mut_slice(),
            Arc::make_mut(&mut self.depth).as_mut_slice(),
        )
    }

    /// Whether `other` is a clone of this buffer (or this one of it) that
    /// neither has written since: the same planes, not just equal pixels.
    pub fn shares_planes_with(&self, other: &Framebuffer) -> bool {
        Arc::ptr_eq(&self.color, &other.color) && Arc::ptr_eq(&self.depth, &other.depth)
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn viewport(&self) -> Viewport {
        Viewport::new(self.width, self.height)
    }

    pub fn pixel_count(&self) -> usize {
        self.color.len()
    }

    /// Bytes of the raw 24-bpp image (what travels to a thin client).
    pub fn color_bytes(&self) -> u64 {
        self.pixel_count() as u64 * 3
    }

    pub fn clear(&mut self, c: Rgb) {
        let (color, depth) = self.planes_mut();
        color.fill(c);
        depth.fill(1.0);
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y as usize) * (self.width as usize) + x as usize
    }

    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        self.color[self.idx(x, y)]
    }

    #[inline]
    pub fn depth_at(&self, x: u32, y: u32) -> f32 {
        self.depth[self.idx(x, y)]
    }

    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Rgb, z: f32) {
        let i = self.idx(x, y);
        let (color, depth) = self.planes_mut();
        color[i] = c;
        depth[i] = z;
    }

    /// Depth-tested write: stores the fragment only if it is closer.
    /// Returns whether the write happened.
    #[inline]
    pub fn set_if_closer(&mut self, x: u32, y: u32, c: Rgb, z: f32) -> bool {
        let i = self.idx(x, y);
        if z < self.depth[i] {
            self.set(x, y, c, z);
            true
        } else {
            false
        }
    }

    /// Read-only view of the color plane, row-major.
    pub fn color_pixels(&self) -> &[Rgb] {
        &self.color
    }

    /// Read-only view of the depth plane, row-major.
    pub fn depth_pixels(&self) -> &[f32] {
        &self.depth
    }

    /// Split the buffer into at most `max_bands` horizontal row bands of
    /// near-equal height, top to bottom ([`Framebuffer::row_bands_at`]
    /// with evenly spaced cuts).
    pub fn row_bands(&mut self, max_bands: u32) -> Vec<FramebufferBand<'_>> {
        let n = max_bands.clamp(1, self.height) as u64;
        let cuts: Vec<u32> = (1..n).map(|k| (self.height as u64 * k / n) as u32).collect();
        self.row_bands_at(&cuts)
    }

    /// Split the buffer into `cuts.len() + 1` horizontal row bands, top to
    /// bottom, band `k` ending where band `k + 1` starts: at row
    /// `cuts[k]`. Each band is an exclusive mutable view over a
    /// **contiguous** region of the color and depth planes, so bands can
    /// be handed to parallel workers with no locks and no false sharing
    /// (bands never straddle a row). The union of the bands is exactly the
    /// buffer; bands never overlap and none is empty — `cuts` must be
    /// strictly increasing inside `0 < cut < height`.
    pub fn row_bands_at(&mut self, cuts: &[u32]) -> Vec<FramebufferBand<'_>> {
        let width = self.width;
        let w = width as usize;
        let height = self.height;
        let mut bands = Vec::with_capacity(cuts.len() + 1);
        let (mut color, mut depth) = self.planes_mut();
        let mut row = 0u32;
        for &end_row in cuts.iter().chain(std::iter::once(&height)) {
            assert!(row < end_row && end_row <= height, "band cuts must increase");
            let rows = end_row - row;
            let (c, crest) = color.split_at_mut(rows as usize * w);
            let (d, drest) = depth.split_at_mut(rows as usize * w);
            bands.push(FramebufferBand { y0: row, width, rows, color: c, depth: d });
            color = crest;
            depth = drest;
            row = end_row;
        }
        bands
    }

    /// The whole buffer as a single band (the serial path's view).
    pub fn as_band(&mut self) -> FramebufferBand<'_> {
        let (width, rows) = (self.width, self.height);
        let (color, depth) = self.planes_mut();
        FramebufferBand { y0: 0, width, rows, color, depth }
    }

    /// Copy `src` into this buffer with its top-left at `(dst_x, dst_y)`
    /// (tile stitching), color and depth, a row at a time. Tiles from
    /// remote services replace whatever was there, including stale local
    /// pixels — exactly the behaviour that produces Fig 5's tearing when
    /// the tile is old.
    pub fn blit(&mut self, src: &Framebuffer, dst_x: u32, dst_y: u32) {
        assert!(
            dst_x + src.width <= self.width && dst_y + src.height <= self.height,
            "blit out of bounds"
        );
        let n = src.width as usize;
        let d00 = self.idx(dst_x, dst_y);
        let stride = self.width as usize;
        let (color, depth) = self.planes_mut();
        for row in 0..src.height as usize {
            let (s0, d0) = (row * n, d00 + row * stride);
            color[d0..d0 + n].copy_from_slice(&src.color[s0..s0 + n]);
            depth[d0..d0 + n].copy_from_slice(&src.depth[s0..s0 + n]);
        }
    }

    /// Extract a sub-rectangle as its own framebuffer.
    pub fn crop(&self, vp: Viewport) -> Framebuffer {
        assert!(vp.x + vp.width <= self.width && vp.y + vp.height <= self.height);
        let mut out = Framebuffer::new(vp.width, vp.height);
        let n = vp.width as usize;
        let (color, depth) = out.planes_mut();
        for row in 0..vp.height {
            let s0 = self.idx(vp.x, vp.y + row);
            let d0 = row as usize * n;
            color[d0..d0 + n].copy_from_slice(&self.color[s0..s0 + n]);
            depth[d0..d0 + n].copy_from_slice(&self.depth[s0..s0 + n]);
        }
        out
    }

    /// Fraction of pixels that differ from `other` by more than `tol` in
    /// RGB distance. Panics on size mismatch.
    pub fn diff_fraction(&self, other: &Framebuffer, tol: f32) -> f64 {
        assert_eq!((self.width, self.height), (other.width, other.height));
        let differing = self
            .color
            .iter()
            .zip(other.color.iter())
            .filter(|(a, b)| a.distance(**b) > tol)
            .count();
        differing as f64 / self.pixel_count() as f64
    }

    /// Count of non-background (non-`bg`) pixels — coverage metric for
    /// tests ("did anything render?").
    pub fn coverage(&self, bg: Rgb) -> usize {
        self.color.iter().filter(|&&c| c != bg).count()
    }

    /// Write as binary PPM (P6) — the figure-regeneration output format.
    pub fn write_ppm<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        write!(w, "P6\n{} {}\n255\n", self.width, self.height)?;
        let mut row = Vec::with_capacity(self.width as usize * 3);
        for y in 0..self.height {
            row.clear();
            for x in 0..self.width {
                let c = self.get(x, y);
                row.extend_from_slice(&[c.0, c.1, c.2]);
            }
            w.write_all(&row)?;
        }
        Ok(())
    }

    /// Raw color bytes row-major RGB (the thin-client wire payload), in
    /// place of `out`'s contents: a caller that keeps `out` between frames
    /// pays the fixed-stride loop, which the compiler turns into wide
    /// copies, and no allocation.
    pub fn rgb_bytes_into(&self, out: &mut Vec<u8>) {
        out.resize(self.color.len() * 3, 0);
        for (dst, c) in out.chunks_exact_mut(3).zip(self.color.iter()) {
            dst.copy_from_slice(&[c.0, c.1, c.2]);
        }
    }

    /// [`rgb_bytes_into`](Self::rgb_bytes_into) a fresh vector.
    pub fn to_rgb_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.rgb_bytes_into(&mut out);
        out
    }

    /// Rebuild from raw RGB bytes (depth unknown → far).
    pub fn from_rgb_bytes(width: u32, height: u32, bytes: &[u8]) -> Option<Framebuffer> {
        if bytes.len() != (width as usize) * (height as usize) * 3 {
            return None;
        }
        let mut fb = Framebuffer::new(width, height);
        for (c, px) in fb.planes_mut().0.iter_mut().zip(bytes.chunks_exact(3)) {
            *c = Rgb(px[0], px[1], px[2]);
        }
        Some(fb)
    }
}

/// An exclusive view over a contiguous run of framebuffer rows
/// (`[y_start, y_end)`), produced by [`Framebuffer::row_bands`].
/// Coordinates passed to accessors are **framebuffer-local** (same `y`
/// you would pass to [`Framebuffer::set`]); the band translates them to
/// its own slice offsets. Out-of-band rows are a `debug_assert`, exactly
/// like out-of-range pixels on the full buffer.
#[derive(Debug)]
pub struct FramebufferBand<'a> {
    y0: u32,
    width: u32,
    rows: u32,
    color: &'a mut [Rgb],
    depth: &'a mut [f32],
}

impl FramebufferBand<'_> {
    /// First framebuffer row covered by this band.
    pub fn y_start(&self) -> u32 {
        self.y0
    }

    /// One past the last framebuffer row covered by this band.
    pub fn y_end(&self) -> u32 {
        self.y0 + self.rows
    }

    pub fn width(&self) -> u32 {
        self.width
    }

    /// Reset the band's rows, like [`Framebuffer::clear`] for the whole
    /// buffer.
    pub fn clear(&mut self, c: Rgb) {
        self.color.fill(c);
        self.depth.fill(1.0);
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        debug_assert!(x < self.width && y >= self.y0 && y < self.y0 + self.rows);
        ((y - self.y0) as usize) * (self.width as usize) + x as usize
    }

    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        self.color[self.idx(x, y)]
    }

    #[inline]
    pub fn depth_at(&self, x: u32, y: u32) -> f32 {
        self.depth[self.idx(x, y)]
    }

    #[inline]
    pub fn set(&mut self, x: u32, y: u32, c: Rgb, z: f32) {
        let i = self.idx(x, y);
        self.color[i] = c;
        self.depth[i] = z;
    }

    /// Color-only write (depth untouched) — volume blending over
    /// already-written depth.
    #[inline]
    pub fn set_color(&mut self, x: u32, y: u32, c: Rgb) {
        let i = self.idx(x, y);
        self.color[i] = c;
    }

    /// Depth-tested write, identical semantics to
    /// [`Framebuffer::set_if_closer`].
    #[inline]
    pub fn set_if_closer(&mut self, x: u32, y: u32, c: Rgb, z: f32) -> bool {
        self.set_if_closer_with(x, y, z, || c)
    }

    /// [`FramebufferBand::set_if_closer`] for a fragment whose color costs
    /// something: `color` runs only if the fragment wins the depth test.
    #[inline]
    pub fn set_if_closer_with(
        &mut self,
        x: u32,
        y: u32,
        z: f32,
        color: impl FnOnce() -> Rgb,
    ) -> bool {
        let i = self.idx(x, y);
        if z < self.depth[i] {
            self.color[i] = color();
            self.depth[i] = z;
            true
        } else {
            false
        }
    }

    /// Mutable color slice of one framebuffer row restricted to
    /// `[x0, x1)` — contiguous-copy compositing (tile stitching).
    pub fn color_row_mut(&mut self, y: u32, x0: u32, x1: u32) -> &mut [Rgb] {
        let a = self.idx(x0, y);
        &mut self.color[a..a + (x1 - x0) as usize]
    }

    /// Mutable depth slice of one framebuffer row restricted to
    /// `[x0, x1)`.
    pub fn depth_row_mut(&mut self, y: u32, x0: u32, x1: u32) -> &mut [f32] {
        let a = self.idx(x0, y);
        &mut self.depth[a..a + (x1 - x0) as usize]
    }

    /// The band's whole color and depth planes (rows `[y_start, y_end)`),
    /// for contiguous per-pixel sweeps.
    pub fn planes_mut(&mut self) -> (&mut [Rgb], &mut [f32]) {
        (&mut *self.color, &mut *self.depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizing_200x200_is_120kb() {
        let fb = Framebuffer::new(200, 200);
        assert_eq!(fb.color_bytes(), 120_000);
    }

    #[test]
    fn sizing_640x480_is_920kb() {
        // §5.1: "a 640x480 24 bits-per-pixel image (920Kb in size)".
        let fb = Framebuffer::new(640, 480);
        assert_eq!(fb.color_bytes(), 921_600);
    }

    #[test]
    fn clear_resets_color_and_depth() {
        let mut fb = Framebuffer::new(4, 4);
        fb.set(1, 1, Rgb::WHITE, 0.5);
        fb.clear(Rgb(10, 20, 30));
        assert_eq!(fb.get(1, 1), Rgb(10, 20, 30));
        assert_eq!(fb.depth_at(1, 1), 1.0);
    }

    #[test]
    fn depth_test_keeps_closer_fragment() {
        let mut fb = Framebuffer::new(2, 2);
        assert!(fb.set_if_closer(0, 0, Rgb(1, 1, 1), 0.5));
        assert!(!fb.set_if_closer(0, 0, Rgb(2, 2, 2), 0.7), "farther loses");
        assert_eq!(fb.get(0, 0), Rgb(1, 1, 1));
        assert!(fb.set_if_closer(0, 0, Rgb(3, 3, 3), 0.2), "closer wins");
        assert_eq!(fb.get(0, 0), Rgb(3, 3, 3));
    }

    #[test]
    fn blit_places_tile() {
        let mut dst = Framebuffer::new(8, 8);
        let mut src = Framebuffer::new(3, 2);
        src.set(0, 0, Rgb::WHITE, 0.1);
        src.set(2, 1, Rgb(9, 9, 9), 0.2);
        dst.blit(&src, 4, 5);
        assert_eq!(dst.get(4, 5), Rgb::WHITE);
        assert_eq!(dst.get(6, 6), Rgb(9, 9, 9));
        assert_eq!(dst.depth_at(4, 5), 0.1);
        assert_eq!(dst.get(0, 0), Rgb::BLACK);
    }

    #[test]
    #[should_panic]
    fn blit_out_of_bounds_panics() {
        let mut dst = Framebuffer::new(4, 4);
        let src = Framebuffer::new(3, 3);
        dst.blit(&src, 2, 2);
    }

    #[test]
    fn crop_blit_roundtrip() {
        let mut fb = Framebuffer::new(10, 10);
        fb.set(5, 5, Rgb(100, 0, 0), 0.4);
        let vp = Viewport::with_origin(4, 4, 3, 3);
        let tile = fb.crop(vp);
        assert_eq!(tile.get(1, 1), Rgb(100, 0, 0));
        let mut dst = Framebuffer::new(10, 10);
        dst.blit(&tile, 4, 4);
        assert_eq!(dst.get(5, 5), Rgb(100, 0, 0));
        assert_eq!(dst.depth_at(5, 5), 0.4);
    }

    #[test]
    fn diff_fraction_detects_changes() {
        let a = Framebuffer::new(10, 10);
        let mut b = Framebuffer::new(10, 10);
        assert_eq!(a.diff_fraction(&b, 0.0), 0.0);
        for x in 0..10 {
            b.set(x, 0, Rgb::WHITE, 0.1);
        }
        assert!((a.diff_fraction(&b, 0.0) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = Framebuffer::new(3, 2);
        let mut buf = Vec::new();
        fb.write_ppm(&mut buf).unwrap();
        assert!(buf.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(buf.len(), 11 + 3 * 2 * 3);
    }

    #[test]
    fn rgb_bytes_roundtrip() {
        // A width no wide copy divides, every pixel distinct.
        let (w, h) = (13u32, 5u32);
        let mut fb = Framebuffer::new(w, h);
        for i in 0..w * h {
            fb.set(i % w, i / w, Rgb(i as u8, (i * 3) as u8, 255 - i as u8), 0.3);
        }
        let bytes = fb.to_rgb_bytes();
        assert_eq!(bytes.len() as u64, fb.color_bytes());
        assert_eq!(&bytes[3 * 14..3 * 15], &[14, 42, 241], "row-major, R then G then B");
        let back = Framebuffer::from_rgb_bytes(w, h, &bytes).unwrap();
        assert_eq!(back.color_pixels(), fb.color_pixels());
        assert!(back.depth_pixels().iter().all(|&z| z == 1.0), "depth unknown: far");
        assert!(Framebuffer::from_rgb_bytes(w, h + 1, &bytes).is_none());
    }

    #[test]
    fn rgb_from_f32_clamps() {
        assert_eq!(Rgb::from_f32(2.0, -1.0, 0.5), Rgb(255, 0, 128));
    }

    #[test]
    #[should_panic]
    fn zero_size_rejected() {
        Framebuffer::new(0, 10);
    }

    #[test]
    fn row_bands_partition_rows_exactly() {
        let mut fb = Framebuffer::new(7, 11); // height not divisible
        for n in [1u32, 2, 3, 4, 11, 50] {
            let bands = fb.row_bands(n);
            assert_eq!(bands.len() as u32, n.min(11));
            let mut next = 0;
            for b in &bands {
                assert_eq!(b.y_start(), next, "bands contiguous");
                assert!(b.y_end() > b.y_start(), "no empty band");
                next = b.y_end();
            }
            assert_eq!(next, 11, "bands cover every row");
        }
    }

    #[test]
    fn row_bands_at_cuts_where_told() {
        let mut fb = Framebuffer::new(3, 10);
        let spans = |bands: Vec<FramebufferBand<'_>>| -> Vec<(u32, u32)> {
            bands.iter().map(|b| (b.y_start(), b.y_end())).collect()
        };
        assert_eq!(spans(fb.row_bands_at(&[])), [(0, 10)]);
        assert_eq!(spans(fb.row_bands_at(&[1, 2, 9])), [(0, 1), (1, 2), (2, 9), (9, 10)]);
    }

    #[test]
    #[should_panic(expected = "band cuts must increase")]
    fn row_bands_at_rejects_an_empty_band() {
        Framebuffer::new(3, 10).row_bands_at(&[4, 4]);
    }

    #[test]
    fn band_writes_land_in_parent_buffer() {
        let mut fb = Framebuffer::new(4, 6);
        {
            let mut bands = fb.row_bands(3);
            // Middle band covers rows 2..4; write via fb-local coords.
            let b = &mut bands[1];
            assert_eq!((b.y_start(), b.y_end()), (2, 4));
            b.set(1, 2, Rgb(5, 6, 7), 0.25);
            assert!(b.set_if_closer(3, 3, Rgb::WHITE, 0.5));
            assert!(!b.set_if_closer(3, 3, Rgb(1, 1, 1), 0.9), "farther loses");
            b.set_color(0, 3, Rgb(9, 9, 9));
        }
        assert_eq!(fb.get(1, 2), Rgb(5, 6, 7));
        assert_eq!(fb.depth_at(1, 2), 0.25);
        assert_eq!(fb.get(3, 3), Rgb::WHITE);
        assert_eq!(fb.get(0, 3), Rgb(9, 9, 9));
        assert_eq!(fb.depth_at(0, 3), 1.0, "set_color leaves depth alone");
    }

    #[test]
    fn as_band_is_whole_buffer() {
        let mut fb = Framebuffer::new(3, 3);
        let mut band = fb.as_band();
        assert_eq!((band.y_start(), band.y_end(), band.width()), (0, 3, 3));
        band.set(2, 2, Rgb::WHITE, 0.1);
        assert_eq!(fb.get(2, 2), Rgb::WHITE);
    }

    // ---- copy-on-write planes -------------------------------------------

    fn gradient(w: u32, h: u32) -> Framebuffer {
        let mut fb = Framebuffer::new(w, h);
        for i in 0..w * h {
            fb.set(i % w, i / w, Rgb(i as u8, 7, 255 - i as u8), i as f32 / (w * h) as f32);
        }
        fb
    }

    fn plane_ptrs(fb: &Framebuffer) -> (*const Rgb, *const f32) {
        (fb.color_pixels().as_ptr(), fb.depth_pixels().as_ptr())
    }

    #[test]
    fn a_clone_never_sees_a_later_write() {
        type Write = fn(&mut Framebuffer);
        let writes: [(&str, Write); 7] = [
            ("clear", |fb| fb.clear(Rgb(1, 2, 3))),
            ("set", |fb| fb.set(2, 1, Rgb::WHITE, 0.0)),
            ("set_if_closer", |fb| assert!(fb.set_if_closer(2, 1, Rgb::WHITE, -1.0))),
            ("blit", |fb| fb.blit(&Framebuffer::new(2, 2), 3, 1)),
            ("as_band", |fb| fb.as_band().set(0, 0, Rgb::WHITE, 0.5)),
            ("row_bands_at", |fb| fb.row_bands_at(&[2])[1].set_color(4, 3, Rgb::WHITE)),
            ("row_bands", |fb| fb.row_bands(3)[0].clear(Rgb(9, 9, 9))),
        ];
        for (what, write) in writes {
            let original = gradient(6, 4);
            let mut fb = original.clone();
            assert!(fb.shares_planes_with(&original), "{what}: a clone is two reference counts");
            let before = plane_ptrs(&original);
            write(&mut fb);
            assert_ne!(fb, original, "{what} wrote");
            assert_eq!(original, gradient(6, 4), "{what} reached the clone");
            assert_eq!(plane_ptrs(&original), before, "{what}: the copy is the writer's");
            assert!(!fb.shares_planes_with(&original));
        }
    }

    #[test]
    fn a_band_taken_while_a_clone_lived_writes_only_its_own_buffer() {
        let mut fb = gradient(6, 4);
        let (short_lived, kept) = (fb.clone(), fb.clone());
        let mut band = fb.as_band();
        drop(short_lived);
        band.set(5, 3, Rgb::WHITE, 0.25);
        band.planes_mut().1[0] = -3.0;
        assert_eq!(kept, gradient(6, 4));
        assert_eq!((fb.get(5, 3), fb.depth_at(0, 0)), (Rgb::WHITE, -3.0));
    }

    #[test]
    fn a_write_to_an_unshared_buffer_keeps_its_allocation() {
        let mut fb = gradient(6, 4);
        let own = plane_ptrs(&fb);
        fb.clear(Rgb(4, 4, 4));
        fb.set(1, 1, Rgb::WHITE, 0.5);
        fb.blit(&Framebuffer::new(2, 2), 0, 0);
        fb.row_bands(2)[1].clear(Rgb::BLACK);
        assert_eq!(plane_ptrs(&fb), own);
        // A clone that is gone before the write leaves nothing to copy for.
        drop(fb.clone());
        fb.as_band().clear(Rgb(5, 5, 5));
        assert_eq!(plane_ptrs(&fb), own);
        // One that is not costs the writer one copy, once.
        let held = fb.clone();
        fb.set(0, 0, Rgb::WHITE, 0.1);
        let copied = plane_ptrs(&fb);
        assert_ne!(copied, own);
        assert_eq!(plane_ptrs(&held), own);
        fb.set(1, 0, Rgb::WHITE, 0.1);
        assert_eq!(plane_ptrs(&fb), copied);
    }

    #[test]
    fn equality_compares_pixels_not_planes() {
        let (a, mut b) = (gradient(5, 3), gradient(5, 3));
        assert!(!a.shares_planes_with(&b));
        assert_eq!(a, b);
        b.set(4, 2, b.get(4, 2), 0.75);
        assert_ne!(a, b, "a depth alone tells them apart");
        let mut c = a.clone();
        assert_eq!(a, c);
        let same = c.get(0, 0);
        c.set(0, 0, same, c.depth_at(0, 0));
        assert!(!a.shares_planes_with(&c), "a write of the same value still takes the planes");
        assert_eq!(a, c);
        assert_ne!(Framebuffer::new(3, 5), Framebuffer::new(5, 3), "same pixels, another shape");
    }

    #[test]
    fn band_row_slices_are_contiguous() {
        let mut fb = Framebuffer::new(8, 4);
        {
            let mut bands = fb.row_bands(2);
            let row = bands[1].color_row_mut(2, 2, 6);
            assert_eq!(row.len(), 4);
            row.fill(Rgb(1, 2, 3));
            bands[1].depth_row_mut(2, 2, 6).fill(0.5);
        }
        assert_eq!(fb.get(2, 2), Rgb(1, 2, 3));
        assert_eq!(fb.get(5, 2), Rgb(1, 2, 3));
        assert_eq!(fb.get(6, 2), Rgb::BLACK);
        assert_eq!(fb.depth_at(3, 2), 0.5);
    }
}
