//! Strip-framed frame transport: word-wide codec kernels + dirty-strip
//! reuse.
//!
//! A frame is split into `strip_count` contiguous, pixel-aligned strips,
//! each run through the chosen [`Codec`] on its own. The strips exist for
//! dirty-skipping: a strip-bitmap header marks strips whose raw bytes are
//! unchanged since the previous frame (slice equality, a `memcmp`), those
//! ship **zero** payload bytes and the receiver reuses its copy, so a
//! static scene costs a near-empty header per frame. Encode and decode
//! walk the strips in order on the caller: a clean strip is one compare
//! and a dirty 16 KiB strip a few microseconds of kernel, less than
//! handing either to another thread costs.
//!
//! A frame's bytes are read once and written once: [`encode_frame_into`]
//! encodes each dirty strip straight into the container behind a length
//! it patches afterwards, and [`decode_frame_in_place`] decodes each dirty
//! strip over the receiver's own view and leaves the clean ones where
//! they are. [`encode_frame_with_meta`] and [`decode_frame`] are those two
//! into a fresh vector and on a copy. [`encode_clean_frame_into`] writes
//! the container of a frame every strip of which is clean, the header
//! [`encode_frame_into`] starts from, and reads no pixel.
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

/// Whether two strips hold the same bytes: slice equality, which the
/// standard library lowers to one `memcmp`.
pub fn bytes_identical(a: &[u8], b: &[u8]) -> bool {
    a == b
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
    let mut out = Vec::new();
    let meta = encode_frame_into(codec, cur, prev_raw, prev_view, strip_count, &mut out);
    (out, meta)
}

/// [`encode_frame_with_meta`] into `out`, whose contents it replaces and
/// whose capacity it keeps: a stream that hands the same vector to every
/// frame allocates for none after its largest.
pub fn encode_frame_into(
    codec: Codec,
    cur: &[u8],
    prev_raw: Option<&[u8]>,
    prev_view: Option<&[u8]>,
    strip_count: u16,
    out: &mut Vec<u8>,
) -> StripMeta {
    let n = encode_clean_frame_into(codec, cur.len(), strip_count, out).strips as usize;
    let pixels = cur.len() / 3;
    let prev_raw = usable_prev(prev_raw, cur.len());
    let prev_view = usable_prev(prev_view, cur.len());

    let mut skipped = 0;
    for i in 0..n {
        let r = strip_range(pixels, n, i);
        if prev_raw.is_some_and(|p| bytes_identical(&cur[r.clone()], &p[r.clone()])) {
            skipped += 1; // clean strip: receiver already has it
            continue;
        }
        out[HEADER + i / 8] |= 1 << (i % 8);
        // The payload goes straight behind its length, known only after.
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        codec.encode_into(&cur[r.clone()], prev_view.map(|p| &p[r]), out);
        let len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
    }
    StripMeta { codec, strips: n as u32, skipped }
}

/// What [`encode_frame_into`] writes into `out` for a `frame_len`-byte
/// frame whose every strip compares equal to `prev_raw`: the header and an
/// all-clean bitmap, no payload. A sender that knows its frame is the one
/// it shipped last writes this without reading a pixel.
pub fn encode_clean_frame_into(
    codec: Codec,
    frame_len: usize,
    strip_count: u16,
    out: &mut Vec<u8>,
) -> StripMeta {
    assert_eq!(frame_len % 3, 0, "RGB frames are 3 bytes per pixel");
    let pixels = frame_len / 3;
    let n = if pixels == 0 { 0 } else { (strip_count as usize).clamp(1, pixels) };
    out.clear();
    out.push(VERSION);
    out.push(codec.id());
    out.extend_from_slice(&(frame_len as u32).to_le_bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.resize(HEADER + n.div_ceil(8), 0);
    StripMeta { codec, strips: n as u32, skipped: n as u32 }
}

/// Bring the sender's `prev_raw` up to `cur` once `container`, the encode
/// of `cur` against it, has been sent: the strips the container marks
/// dirty are copied and the clean ones, which compared equal, are not. A
/// `prev_raw` of another length (no frame yet, or a resized one) was not
/// compared against and takes all of `cur`.
pub fn copy_dirty_strips(container: &[u8], cur: &[u8], prev_raw: &mut Vec<u8>) {
    let (_, frame_len, n, bitmap) = parse_header(container).expect("self-encoded container");
    assert_eq!(frame_len, cur.len(), "the container is the encode of `cur`");
    if prev_raw.len() != cur.len() {
        prev_raw.clear();
        prev_raw.extend_from_slice(cur);
        return;
    }
    for i in (0..n).filter(|&i| is_dirty(bitmap, i)) {
        let r = strip_range(cur.len() / 3, n, i);
        prev_raw[r.clone()].copy_from_slice(&cur[r]);
    }
}

/// Read a container's header without decoding. `None` on corrupt input.
pub fn inspect(data: &[u8]) -> Option<StripMeta> {
    let (codec, _, n, bitmap) = parse_header(data)?;
    let skipped = (0..n).filter(|&i| !is_dirty(bitmap, i)).count() as u32;
    Some(StripMeta { codec, strips: n as u32, skipped })
}

/// Where the payload behind the length prefix at `offset` lies, if prefix
/// and payload are both inside `data`.
fn payload_at(data: &[u8], offset: usize) -> Option<std::ops::Range<usize>> {
    let start = offset.checked_add(4)?;
    let len = u32::from_le_bytes(data.get(offset..start)?.try_into().ok()?) as usize;
    let end = start.checked_add(len).filter(|&end| end <= data.len())?;
    Some(start..end)
}

fn is_dirty(bitmap: &[u8], strip: usize) -> bool {
    bitmap[strip / 8] & (1 << (strip % 8)) != 0
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
/// bad bitmap padding, or a strip that decodes to the wrong length. All
/// or nothing: [`decode_frame_in_place`] on a copy of `prev_view`.
pub fn decode_frame(data: &[u8], prev_view: Option<&[u8]>) -> Option<Vec<u8>> {
    let mut view = prev_view.map(<[u8]>::to_vec).unwrap_or_default();
    decode_frame_in_place(data, &mut view)?;
    Some(view)
}

/// Advance the receiver's `view` — its reconstruction of the previous
/// frame, or anything of another length (an empty vector, a frame from
/// before a resize) when it holds none — to the frame in `data`. Clean
/// strips stay as they are; each dirty strip is decoded over its own
/// bytes, which for [`Codec::DeltaRle`] are the base the difference is
/// added onto.
///
/// Before anything is written, reserved or resized the whole container is
/// checked: header, bitmap, every length prefix, the trailing byte count,
/// that a clean strip has a view to stay in, and that each dirty payload
/// is long enough for its codec to produce its strip — so a corrupt
/// container costs the receiver at most the memory a valid one of its
/// size could (the RLE family's 127 bytes per two received), never what
/// its header claims.
///
/// On `None` from those checks `view` is untouched. A payload that passes
/// them and then fails to decode (a bad record inside a strip) also
/// returns `None`, with strips before it already advanced and its own
/// partly written: the view is then unspecified and the stream must
/// restart from a keyframe (all strips dirty, no delta base). Receivers
/// that cannot restart use [`decode_frame`].
pub fn decode_frame_in_place(data: &[u8], view: &mut Vec<u8>) -> Option<()> {
    let (codec, frame_len, n, bitmap) = parse_header(data)?;
    let pixels = frame_len / 3;
    let has_prev = view.len() == frame_len;
    let body = HEADER + n.div_ceil(8);

    let mut offset = body;
    for i in 0..n {
        if !is_dirty(bitmap, i) {
            if !has_prev {
                return None;
            }
            continue;
        }
        let payload = payload_at(data, offset)?;
        if !codec.can_decode_to(payload.len(), strip_range(pixels, n, i).len()) {
            return None;
        }
        offset = payload.end;
    }
    if offset != data.len() {
        return None; // trailing garbage
    }

    if !has_prev {
        view.clear();
        view.resize(frame_len, 0);
    }
    let mut offset = body;
    for i in (0..n).filter(|&i| is_dirty(bitmap, i)) {
        let payload = payload_at(data, offset)?;
        offset = payload.end;
        codec.decode_in_place(&data[payload], &mut view[strip_range(pixels, n, i)], has_prev)?;
    }
    Some(())
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
    fn a_clean_frame_is_what_encoding_an_unchanged_one_writes() {
        let cur = frame(700, 3);
        for codec in Codec::ALL {
            for strips in [0u16, 1, 3, 8, 9, 700, 10_000] {
                let mut clean = vec![0xAB; 5];
                let meta = encode_clean_frame_into(codec, cur.len(), strips, &mut clean);
                let (enc, full) =
                    encode_frame_with_meta(codec, &cur, Some(&cur), Some(&cur), strips);
                assert_eq!((clean, meta), (enc, full), "{} x{strips}", codec.name());
            }
        }
        let mut empty = Vec::new();
        let meta = encode_clean_frame_into(Codec::Rle, 0, 8, &mut empty);
        assert_eq!((empty, meta), encode_frame_with_meta(Codec::Rle, &[], None, None, 8));
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

    /// Peak virtual size of this process in kB, where the OS says.
    fn vm_peak_kb() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmPeak:")?.trim().strip_suffix("kB")?.trim().parse().ok())
    }

    #[test]
    fn a_header_that_lies_about_the_frame_reserves_nothing() {
        // Nine bytes claiming a 4.2 GB frame: one clean strip and no view
        // to keep it in, then one dirty strip with an empty body.
        let header = |bitmap: u8| {
            let mut c = vec![VERSION, Codec::Rle.id()];
            c.extend_from_slice(&4_200_000_000u32.to_le_bytes());
            c.extend_from_slice(&1u16.to_le_bytes());
            c.push(bitmap);
            c
        };
        let clean = header(0);
        let mut dirty = header(1);
        dirty.extend_from_slice(&0u32.to_le_bytes());
        let before = vm_peak_kb();
        for container in [&clean, &dirty] {
            assert!(decode_frame(container, None).is_none());
            let mut view = vec![7u8; 30];
            assert!(decode_frame_in_place(container, &mut view).is_none());
            assert_eq!(view, [7u8; 30], "refused before anything was written");
        }
        // Linux only: elsewhere there is no peak to read.
        if let (Some(before), Some(after)) = (before, vm_peak_kb()) {
            assert!(after - before < 64 << 10, "VmPeak grew {} kB", after - before);
        }
    }

    #[test]
    fn payloads_too_short_for_their_strip_are_refused_unwritten() {
        // 600 px in 4 strips of 450 bytes; each codec's shortest possible
        // payload for one is refused one byte (or one record) shorter.
        let cur = frame(600, 5);
        for (codec, too_short) in [
            (Codec::Raw, 449),
            (Codec::Rle, 7),         // 3 run records: 381 bytes at most
            (Codec::DeltaRle, 8),    // tag + 3 run records
            (Codec::Quant565, 298),  // 149 pixels
            (Codec::Quant565Rle, 5), // 2 run records: 254 of 300 bytes
        ] {
            let mut c = vec![VERSION, codec.id()];
            c.extend_from_slice(&(cur.len() as u32).to_le_bytes());
            c.extend_from_slice(&4u16.to_le_bytes());
            c.push(0b0001);
            c.extend_from_slice(&(too_short as u32).to_le_bytes());
            c.extend(std::iter::repeat_n(0x81, too_short));
            let mut view = cur.clone();
            assert!(decode_frame_in_place(&c, &mut view).is_none(), "{}", codec.name());
            assert_eq!(view, cur, "{}: refused before anything was written", codec.name());
        }
    }

    #[test]
    fn in_place_decode_advances_the_view_it_is_given() {
        let prev = frame(700, 9);
        let mut cur = prev.clone();
        cur[1_000..1_200].iter_mut().for_each(|b| *b ^= 0x3C);
        for codec in Codec::ALL {
            let enc = encode_frame(codec, &cur, Some(&prev), Some(&prev), 8);
            let mut view = prev.clone();
            decode_frame_in_place(&enc, &mut view).unwrap();
            assert_eq!(Some(&view), decode_frame(&enc, Some(&prev)).as_ref(), "{}", codec.name());
            // A view of another size holds nothing: clean strips refuse it,
            // an all-dirty keyframe replaces it.
            let mut stale = vec![1u8; 30];
            assert!(decode_frame_in_place(&enc, &mut stale).is_none());
            assert_eq!(stale, [1u8; 30]);
            let key = encode_frame(codec, &cur, None, None, 8);
            decode_frame_in_place(&key, &mut stale).unwrap();
            assert_eq!(Some(&stale), decode_frame(&key, None).as_ref(), "{}", codec.name());
        }
    }

    #[test]
    fn copy_dirty_strips_brings_prev_raw_up_to_cur() {
        let prev = frame(40_000, 5);
        let mut cur = prev.clone();
        cur[10] ^= 0xFF;
        cur[90_000] ^= 0xFF;
        let enc = encode_frame(Codec::Quant565, &cur, Some(&prev), Some(&prev), 8);
        let mut raw = prev.clone();
        copy_dirty_strips(&enc, &cur, &mut raw);
        assert_eq!(raw, cur);
        // Another length: nothing was compared, everything is taken.
        let key = encode_frame(Codec::Quant565, &cur, Some(&prev[..30]), None, 8);
        let mut raw = prev[..30].to_vec();
        copy_dirty_strips(&key, &cur, &mut raw);
        assert_eq!(raw, cur);
    }

    #[test]
    fn strip_count_for_targets_strip_bytes() {
        assert_eq!(strip_count_for(0, 16 << 10), 0);
        assert_eq!(strip_count_for(120_000, 16 << 10), 8); // 640x480x3 / 16 KiB
        assert_eq!(strip_count_for(30, 16 << 10), 1);
        assert_eq!(strip_count_for(30, 0), 10); // clamped to pixel count
    }
}
