//! Strip-framed frame transport: word-wide codec kernels + dirty-strip
//! reuse.
//!
//! A frame is split into `strip_count` contiguous, pixel-aligned strips,
//! each run through the chosen [`Codec`] on its own. The strips exist for
//! dirty-skipping: a strip-bitmap header marks strips whose raw bytes are
//! unchanged since the previous frame (word-wide `u64` comparison), those
//! ship **zero** payload bytes and the receiver reuses its copy, so a
//! static scene costs a near-empty header per frame. Encode and decode
//! walk the strips in order on the caller: a clean strip is one compare
//! and a dirty 16 KiB strip a few microseconds of kernel, less than
//! handing either to another thread costs.
//!
//! Two "previous frame" roles are deliberately distinct:
//!
//! - `prev_raw` — the raw pixels the *sender* shipped last frame, used
//!   only for the dirty comparison. Skipping on raw equality is sound
//!   even for lossy codecs: an identical raw strip would re-encode to an
//!   identical payload, so the receiver's held (possibly lossy) strip is
//!   exactly what a re-send would reproduce.
//! - `prev_view` — the *receiver's* reconstruction of the previous frame
//!   (lossy-decoded if the previous frame went lossy), used as the
//!   [`Codec::DeltaRle`] base and as the source for clean strips on
//!   decode. Using the receiver's view keeps delta frames exact across
//!   codec switches.
//!
//! Wire layout (all little-endian):
//!
//! ```text
//! [version: u8 = 1][codec: u8][frame_len: u32][strip_count: u16]
//! [dirty bitmap: ceil(strip_count / 8) bytes, bit i = strip i present]
//! for each dirty strip, in order: [payload_len: u32][payload bytes]
//! ```

use crate::Codec;

const VERSION: u8 = 1;
const HEADER: usize = 8;

/// What a container held, reported by [`encode_frame_with_meta`] and
/// [`inspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripMeta {
    pub codec: Codec,
    pub strips: u32,
    /// Strips skipped as unchanged (clean bits in the bitmap).
    pub skipped: u32,
}

/// Word-wide slice equality: eight bytes per compare, exact.
pub fn bytes_identical(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        let x = u64::from_le_bytes(x.try_into().expect("8"));
        let y = u64::from_le_bytes(y.try_into().expect("8"));
        if x != y {
            return false;
        }
    }
    ca.remainder() == cb.remainder()
}

/// Pick a strip count targeting `target_strip_bytes` per strip, clamped
/// to the pixel count and the u16 header field.
pub fn strip_count_for(frame_len: usize, target_strip_bytes: usize) -> u16 {
    if frame_len == 0 {
        return 0;
    }
    let pixels = frame_len / 3;
    let want = frame_len.div_ceil(target_strip_bytes.max(1));
    want.clamp(1, pixels.max(1)).min(u16::MAX as usize) as u16
}

/// Byte range of strip `i` of `n` over a frame of `pixels` pixels
/// (strips are pixel-aligned so every slice is a valid RGB run).
fn strip_range(pixels: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    let lo = pixels * i / n * 3;
    let hi = pixels * (i + 1) / n * 3;
    lo..hi
}

fn usable_prev(prev: Option<&[u8]>, len: usize) -> Option<&[u8]> {
    prev.filter(|p| p.len() == len)
}

/// Encode `cur` into a strip container. `strip_count` of zero or more
/// than the pixel count is clamped. See the module docs for the two
/// `prev` roles; passing the same slice for both (or `None`) is correct
/// whenever every prior frame was lossless.
pub fn encode_frame(
    codec: Codec,
    cur: &[u8],
    prev_raw: Option<&[u8]>,
    prev_view: Option<&[u8]>,
    strip_count: u16,
) -> Vec<u8> {
    encode_frame_with_meta(codec, cur, prev_raw, prev_view, strip_count).0
}

/// [`encode_frame`] plus the strip accounting (for stats/traces).
pub fn encode_frame_with_meta(
    codec: Codec,
    cur: &[u8],
    prev_raw: Option<&[u8]>,
    prev_view: Option<&[u8]>,
    strip_count: u16,
) -> (Vec<u8>, StripMeta) {
    assert_eq!(cur.len() % 3, 0, "RGB frames are 3 bytes per pixel");
    let pixels = cur.len() / 3;
    let n = if pixels == 0 { 0 } else { (strip_count as usize).clamp(1, pixels) };
    let prev_raw = usable_prev(prev_raw, cur.len());
    let prev_view = usable_prev(prev_view, cur.len());

    // Encode every dirty strip, in order.
    let payloads: Vec<Option<Vec<u8>>> = (0..n)
        .map(|i| {
            let r = strip_range(pixels, n, i);
            if let Some(p) = prev_raw {
                if bytes_identical(&cur[r.clone()], &p[r.clone()]) {
                    return None; // clean strip: receiver already has it
                }
            }
            Some(codec.encode(&cur[r.clone()], prev_view.map(|p| &p[r])))
        })
        .collect();

    let skipped = payloads.iter().filter(|p| p.is_none()).count() as u32;
    let body: usize = payloads.iter().flatten().map(|p| 4 + p.len()).sum();
    let mut out = Vec::with_capacity(HEADER + n.div_ceil(8) + body);
    out.push(VERSION);
    out.push(codec.id());
    out.extend_from_slice(&(cur.len() as u32).to_le_bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    for (i, p) in payloads.iter().enumerate() {
        if p.is_some() {
            bitmap[i / 8] |= 1 << (i % 8);
        }
    }
    out.extend_from_slice(&bitmap);
    for p in payloads.iter().flatten() {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
    (out, StripMeta { codec, strips: n as u32, skipped })
}

/// Read a container's header without decoding. `None` on corrupt input.
pub fn inspect(data: &[u8]) -> Option<StripMeta> {
    let (codec, frame_len, n, bitmap) = parse_header(data)?;
    let _ = frame_len;
    let skipped = (0..n).filter(|&i| bitmap[i / 8] & (1 << (i % 8)) == 0).count() as u32;
    Some(StripMeta { codec, strips: n as u32, skipped })
}

fn parse_header(data: &[u8]) -> Option<(Codec, usize, usize, &[u8])> {
    if data.len() < HEADER || data[0] != VERSION {
        return None;
    }
    let codec = Codec::from_id(data[1])?;
    let frame_len = u32::from_le_bytes(data[2..6].try_into().ok()?) as usize;
    let n = u16::from_le_bytes(data[6..8].try_into().ok()?) as usize;
    if !frame_len.is_multiple_of(3) {
        return None;
    }
    // Strip count must be 1..=pixels (0 iff empty frame).
    let pixels = frame_len / 3;
    let n_ok = if pixels == 0 { n == 0 } else { n >= 1 && n <= pixels };
    if !n_ok {
        return None;
    }
    let bm = n.div_ceil(8);
    let bitmap = data.get(HEADER..HEADER + bm)?;
    // Padding bits beyond strip_count must be clear.
    if !n.is_multiple_of(8) && bm > 0 && bitmap[bm - 1] >> (n % 8) != 0 {
        return None;
    }
    Some((codec, frame_len, n, bitmap))
}

/// Decode a container produced by [`encode_frame`]. `prev_view` is the
/// receiver's previous reconstruction; required (at the exact frame
/// length) when the bitmap skips any strip or the codec is delta-based.
/// Returns `None` on any corruption — truncated body, trailing garbage,
/// bad bitmap padding, or a strip that decodes to the wrong length.
pub fn decode_frame(data: &[u8], prev_view: Option<&[u8]>) -> Option<Vec<u8>> {
    let (codec, frame_len, n, bitmap) = parse_header(data)?;
    let pixels = frame_len / 3;
    let prev_view = usable_prev(prev_view, frame_len);
    let mut offset = HEADER + n.div_ceil(8);

    // Slice out every dirty payload first, so a truncated or over-long
    // body is rejected before any strip is decoded.
    let mut payloads: Vec<Option<&[u8]>> = Vec::with_capacity(n);
    for i in 0..n {
        if bitmap[i / 8] & (1 << (i % 8)) == 0 {
            payloads.push(None);
            continue;
        }
        let len = u32::from_le_bytes(data.get(offset..offset + 4)?.try_into().ok()?) as usize;
        offset += 4;
        payloads.push(Some(data.get(offset..offset + len)?));
        offset += len;
    }
    if offset != data.len() {
        return None; // trailing garbage
    }

    let mut out = Vec::with_capacity(frame_len);
    for (i, payload) in payloads.into_iter().enumerate() {
        let r = strip_range(pixels, n, i);
        match payload {
            None => out.extend_from_slice(&prev_view?[r]),
            Some(pl) => {
                let strip = codec.decode(pl, prev_view.map(|p| &p[r.clone()]))?;
                if strip.len() != r.len() {
                    return None;
                }
                out.extend_from_slice(&strip);
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n_px: usize, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        (0..n_px * 3)
            .map(|i| {
                state ^= state << 13;
                state ^= state >> 7;
                if i % 5 < 3 {
                    40
                } else {
                    (state >> 32) as u8
                }
            })
            .collect()
    }

    #[test]
    fn roundtrips_every_codec_and_strip_count() {
        let cur = frame(700, 3);
        let prev = frame(700, 9);
        for codec in Codec::ALL {
            for strips in [0u16, 1, 3, 8, 700, 10_000] {
                let enc = encode_frame(codec, &cur, Some(&prev), Some(&prev), strips);
                let dec = decode_frame(&enc, Some(&prev)).unwrap();
                if codec.is_lossy() {
                    assert_eq!(dec.len(), cur.len());
                } else {
                    assert_eq!(dec, cur, "{} x{strips}", codec.name());
                }
            }
        }
    }

    #[test]
    fn static_frame_ships_header_only() {
        let cur = frame(40_000, 5); // a 200x200 frame
        let (enc, meta) = encode_frame_with_meta(Codec::Rle, &cur, Some(&cur), Some(&cur), 8);
        assert_eq!(meta.skipped, meta.strips);
        assert!(enc.len() <= HEADER + 1, "static frame bytes: {}", enc.len());
        assert_eq!(decode_frame(&enc, Some(&cur)).unwrap(), cur);
    }

    #[test]
    fn partial_change_ships_only_dirty_strips() {
        let prev = frame(40_000, 5);
        let mut cur = prev.clone();
        // Touch one pixel near the start: exactly one of 8 strips dirty.
        cur[10] ^= 0xFF;
        let (enc, meta) = encode_frame_with_meta(Codec::Rle, &cur, Some(&prev), Some(&prev), 8);
        assert_eq!(meta.strips, 8);
        assert_eq!(meta.skipped, 7);
        assert!(enc.len() < prev.len() / 6, "one dirty strip: {}", enc.len());
        assert_eq!(decode_frame(&enc, Some(&prev)).unwrap(), cur);
        assert_eq!(inspect(&enc).unwrap(), meta);
    }

    #[test]
    fn clean_strips_require_prev_on_decode() {
        let cur = frame(600, 5);
        let enc = encode_frame(Codec::Rle, &cur, Some(&cur), Some(&cur), 4);
        assert!(decode_frame(&enc, None).is_none());
        assert!(decode_frame(&enc, Some(&cur[..30])).is_none(), "wrong prev length");
    }

    #[test]
    fn size_change_falls_back_to_all_dirty_keyframe() {
        let prev = frame(200, 5);
        let cur = frame(300, 5); // viewport resized: prev lengths no longer apply
        let (enc, meta) =
            encode_frame_with_meta(Codec::DeltaRle, &cur, Some(&prev), Some(&prev), 4);
        assert_eq!(meta.skipped, 0);
        // Delta strips degrade to keyframes (no usable base), so decode
        // needs no prev at all.
        assert_eq!(decode_frame(&enc, None).unwrap(), cur);
    }

    #[test]
    fn empty_frame_roundtrips() {
        let (enc, meta) = encode_frame_with_meta(Codec::Rle, &[], None, None, 8);
        assert_eq!(meta.strips, 0);
        assert_eq!(decode_frame(&enc, None).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn corrupt_containers_rejected_not_panicking() {
        let cur = frame(600, 5);
        let enc = encode_frame(Codec::DeltaRle, &cur, None, Some(&cur), 4);
        assert!(decode_frame(&[], None).is_none());
        assert!(decode_frame(&enc[..HEADER - 1], None).is_none(), "truncated header");
        assert!(decode_frame(&enc[..enc.len() - 3], Some(&cur)).is_none(), "truncated body");

        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(decode_frame(&trailing, Some(&cur)).is_none(), "trailing garbage");

        let mut bad_ver = enc.clone();
        bad_ver[0] = 9;
        assert!(decode_frame(&bad_ver, Some(&cur)).is_none());

        let mut bad_codec = enc.clone();
        bad_codec[1] = 200;
        assert!(decode_frame(&bad_codec, Some(&cur)).is_none());

        let mut bad_strips = enc.clone();
        bad_strips[6..8].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_frame(&bad_strips, Some(&cur)).is_none(), "strips > pixels");

        let mut bad_pad = enc.clone();
        bad_pad[HEADER] |= 0xF0; // set padding bits past strip 3
        assert!(decode_frame(&bad_pad, Some(&cur)).is_none(), "bitmap padding set");
    }

    #[test]
    fn strip_count_for_targets_strip_bytes() {
        assert_eq!(strip_count_for(0, 16 << 10), 0);
        assert_eq!(strip_count_for(120_000, 16 << 10), 8); // 640x480x3 / 16 KiB
        assert_eq!(strip_count_for(30, 16 << 10), 1);
        assert_eq!(strip_count_for(30, 0), 10); // clamped to pixel count
    }
}
