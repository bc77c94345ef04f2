//! Property tests on every serialization boundary: image codecs, SOAP,
//! and the PLY/OBJ model formats.

use proptest::prelude::*;
use rave::compress::{delta, quantize, rle, stream, Codec};
use rave::grid::{SoapCodec, SoapEnvelope, SoapValue};
use rave::math::Vec3;
use rave::scene::MeshData;

fn rgb_frame() -> impl Strategy<Value = Vec<u8>> {
    // Pixel count then content mode: flat runs, gradients, or noise —
    // exercising best and worst cases of each codec.
    (1usize..2000, 0u8..3, any::<u64>()).prop_map(|(px, mode, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..px * 3)
            .map(|i| match mode {
                0 => 37,                     // flat
                1 => ((i / 30) % 251) as u8, // gradient bands
                _ => (next() >> 32) as u8,   // noise
            })
            .collect()
    })
}

/// A previous frame for `frame`: absent, equal to it, equal but for one
/// run of bytes (so some strips stay clean), or a pixel shorter/longer
/// (which both container roles must ignore).
fn previous_frame(frame: &[u8], kind: u8, seed: u64) -> Option<Vec<u8>> {
    let mut prev = frame.to_vec();
    match kind {
        0 => return None,
        1 => {}
        2 => {
            let at = seed as usize % prev.len();
            let run = 1 + (seed >> 32) as usize % (prev.len() - at);
            prev[at..at + run].iter_mut().for_each(|b| *b ^= 0x5A);
        }
        _ if seed.is_multiple_of(2) => prev.truncate(prev.len() - 3),
        _ => prev.extend_from_slice(&[1, 2, 3]),
    }
    Some(prev)
}

/// The strip container assembled from the wire layout in the
/// `rave_compress::stream` module docs and nothing else of that module
/// but `bytes_identical`: header, dirty bitmap, then each dirty strip's
/// length-prefixed codec payload. Returns the bytes and the clean-strip
/// count.
fn container_by_layout(
    codec: Codec,
    cur: &[u8],
    prev_raw: Option<&[u8]>,
    prev_view: Option<&[u8]>,
    strip_count: u16,
) -> (Vec<u8>, u32) {
    let pixels = cur.len() / 3;
    let n = if pixels == 0 { 0 } else { (strip_count as usize).clamp(1, pixels) };
    let prev_raw = prev_raw.filter(|p| p.len() == cur.len());
    let prev_view = prev_view.filter(|p| p.len() == cur.len());
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    let mut body = Vec::new();
    let mut clean = 0;
    for i in 0..n {
        let r = pixels * i / n * 3..pixels * (i + 1) / n * 3;
        if prev_raw.is_some_and(|p| stream::bytes_identical(&cur[r.clone()], &p[r.clone()])) {
            clean += 1;
            continue;
        }
        bitmap[i / 8] |= 1 << (i % 8);
        let payload = codec.encode(&cur[r.clone()], prev_view.map(|p| &p[r]));
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(&payload);
    }
    let mut out = vec![1, codec.id()];
    out.extend_from_slice(&(cur.len() as u32).to_le_bytes());
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&bitmap);
    out.extend_from_slice(&body);
    (out, clean)
}

/// Whether `data` is a container in structure: a header and bitmap
/// `stream::inspect` accepts, then length prefixes that tile the rest of
/// the bytes exactly (the wire layout of the `stream` module docs; what is
/// *inside* a payload is not looked at).
fn container_is_well_formed(data: &[u8]) -> bool {
    let Some(meta) = stream::inspect(data) else { return false };
    let n = meta.strips as usize;
    let mut offset = 8 + n.div_ceil(8);
    for i in 0..n {
        if data[8 + i / 8] & (1 << (i % 8)) == 0 {
            continue;
        }
        let Some(len) = data.get(offset..offset + 4) else { return false };
        offset += 4 + u32::from_le_bytes(len.try_into().unwrap()) as usize;
    }
    offset == data.len()
}

/// RGB565 as the `quantize` module doc words it, one pixel at a time:
/// drop the low 3/2/3 bits, pack `r:5 g:6 b:5` from the top, store the
/// `u16` little-endian.
fn q565_by_the_doc(rgb: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for px in rgb.chunks(3) {
        let v = ((px[0] as u16 >> 3) << 11) | ((px[1] as u16 >> 2) << 5) | (px[2] as u16 >> 3);
        out.push((v & 0xFF) as u8);
        out.push((v >> 8) as u8);
    }
    out
}

/// And back: unpack the three fields and fill each channel's low bits
/// with its own high bits (so 0 stays 0 and the maximum becomes 255).
fn rgb_from_565_by_the_doc(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for px in data.chunks(2) {
        let v = px[0] as u16 | (px[1] as u16) << 8;
        let (r, g, b) = (v >> 11, (v >> 5) & 0x3F, v & 0x1F);
        out.push((r << 3 | r >> 2) as u8);
        out.push((g << 2 | g >> 4) as u8);
        out.push((b << 3 | b >> 2) as u8);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Lossless codecs roundtrip any frame exactly; lossy ones bound the
    /// per-channel error by the quantization step.
    #[test]
    fn image_codecs_roundtrip(frame in rgb_frame(), prev in rgb_frame()) {
        for codec in Codec::ALL {
            let prev_arg = if prev.len() == frame.len() { Some(&prev[..]) } else { None };
            let enc = codec.encode(&frame, prev_arg);
            let dec = codec.decode(&enc, prev_arg).expect("decodable");
            prop_assert_eq!(dec.len(), frame.len(), "{}", codec.name());
            if codec.is_lossy() {
                for (a, b) in frame.iter().zip(&dec) {
                    prop_assert!((*a as i16 - *b as i16).abs() <= 8, "{}", codec.name());
                }
            } else {
                prop_assert_eq!(&dec, &frame, "{}", codec.name());
            }
        }
    }

    /// The word-wide production kernels emit the exact byte stream of the
    /// scalar reference encoders, for any content.
    #[test]
    fn wordwide_kernels_match_scalar(frame in rgb_frame(), prev in rgb_frame()) {
        prop_assert_eq!(rle::encode(&frame), rle::encode_scalar(&frame));
        let prev_arg = if prev.len() == frame.len() { Some(&prev[..]) } else { None };
        prop_assert_eq!(delta::encode(&frame, prev_arg), delta::encode_scalar(&frame, prev_arg));
        prop_assert_eq!(delta::encode(&frame, None), delta::encode_scalar(&frame, None));
    }

    /// The dirty-strip container is what its module docs lay out, byte for
    /// byte, and roundtrips any frame under every codec and strip count
    /// (exactly for lossless codecs, within the RGB565 bound for lossy
    /// ones) — with the two previous-frame roles absent, equal to the
    /// frame, partly different from it, or of another length.
    #[test]
    fn strip_container_roundtrips(
        frame in rgb_frame(),
        prev_raw in (0u8..4, any::<u64>()),
        prev_view in (0u8..4, any::<u64>()),
        strips in prop_oneof![Just(0u16), Just(1u16), 2u16..40, Just(u16::MAX)],
    ) {
        let prev_raw = previous_frame(&frame, prev_raw.0, prev_raw.1);
        let prev_view = previous_frame(&frame, prev_view.0, prev_view.1);
        let (prev_raw, prev_view) = (prev_raw.as_deref(), prev_view.as_deref());
        for codec in Codec::ALL {
            let (enc, meta) =
                stream::encode_frame_with_meta(codec, &frame, prev_raw, prev_view, strips);
            let (reference, clean) = container_by_layout(codec, &frame, prev_raw, prev_view, strips);
            prop_assert_eq!(&enc, &reference, "{} x{}", codec.name(), strips);
            prop_assert_eq!(meta.skipped, clean, "{} x{}", codec.name(), strips);
            prop_assert_eq!(stream::inspect(&enc), Some(meta));

            // A clean strip is copied out of the receiver's view: without a
            // usable one there is no decode, and the decode is the frame only
            // if the view holds what `prev_raw` held (the channel keeps the
            // two in step; here they are drawn apart on purpose).
            let view = prev_view.filter(|p| p.len() == frame.len());
            let Some(dec) = stream::decode_frame(&enc, prev_view) else {
                prop_assert!(clean > 0 && view.is_none(), "{} x{}", codec.name(), strips);
                continue;
            };
            prop_assert!(clean == 0 || view.is_some(), "clean strips decoded from nothing");
            prop_assert_eq!(dec.len(), frame.len(), "{}", codec.name());
            if clean > 0 && prev_view != prev_raw {
                continue;
            }
            if codec.is_lossy() {
                for (a, b) in frame.iter().zip(&dec) {
                    prop_assert!((*a as i16 - *b as i16).abs() <= 8, "{}", codec.name());
                }
            } else {
                prop_assert_eq!(&dec, &frame, "{}", codec.name());
            }
        }
    }

    /// The forms the frame channel runs are the forms everyone else calls:
    /// `encode_frame_into` over whatever its buffer held last produces the
    /// wire-layout reference's bytes, and `decode_frame_in_place` over a
    /// copy of the receiver's view ends where `decode_frame` does — for any
    /// codec, strip count, and previous frames present, absent or of
    /// another length.
    #[test]
    fn appending_and_in_place_forms_match_the_allocating_ones(
        frame in rgb_frame(),
        prev_raw in (0u8..4, any::<u64>()),
        prev_view in (0u8..4, any::<u64>()),
        strips in prop_oneof![Just(0u16), Just(1u16), 2u16..40, Just(u16::MAX)],
        litter in prop::collection::vec(any::<u8>(), 0..5000),
    ) {
        let prev_raw = previous_frame(&frame, prev_raw.0, prev_raw.1);
        let prev_view = previous_frame(&frame, prev_view.0, prev_view.1);
        let (prev_raw, prev_view) = (prev_raw.as_deref(), prev_view.as_deref());
        let mut out = litter;
        for codec in Codec::ALL {
            let meta = stream::encode_frame_into(codec, &frame, prev_raw, prev_view, strips, &mut out);
            let (reference, clean) = container_by_layout(codec, &frame, prev_raw, prev_view, strips);
            prop_assert_eq!(&out, &reference, "{} x{}", codec.name(), strips);
            prop_assert_eq!(meta.skipped, clean, "{} x{}", codec.name(), strips);

            let mut view = prev_view.map(<[u8]>::to_vec).unwrap_or_default();
            let in_place = stream::decode_frame_in_place(&out, &mut view);
            let allocating = stream::decode_frame(&out, prev_view);
            prop_assert_eq!(in_place.is_some(), allocating.is_some(), "{}", codec.name());
            if let Some(dec) = allocating {
                prop_assert_eq!(&view, &dec, "{} x{}", codec.name(), strips);
            }
            if prev_raw.is_some_and(|p| p.len() == frame.len()) {
                let mut raw = prev_raw.unwrap().to_vec();
                stream::copy_dirty_strips(&out, &frame, &mut raw);
                prop_assert_eq!(&raw, &frame, "clean strips compared equal, dirty ones copied");
            }
        }
    }

    /// A container cut short anywhere, given a trailing byte, or with a
    /// byte of its header, bitmap or first length prefix flipped: the two
    /// decode forms refuse together (or, where the flip left a container,
    /// decode alike), and whenever the *structure* is what broke the
    /// in-place form has not touched the view it was given.
    #[test]
    fn both_decode_forms_refuse_together_and_structure_faults_write_nothing(
        frame in rgb_frame(),
        prev_kind in (1u8..3, any::<u64>()),
        codec in (0..Codec::ALL.len()).prop_map(|i| Codec::ALL[i]),
        strips in 1u16..12,
        cut in any::<usize>(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..255,
    ) {
        let prev = previous_frame(&frame, prev_kind.0, prev_kind.1).expect("kinds 1 and 2 are frames");
        let enc = stream::encode_frame(codec, &frame, Some(&prev), Some(&prev), strips);
        let prefix_end = 8 + (stream::inspect(&enc).unwrap().strips as usize).div_ceil(8) + 4;

        let mut faults = vec![enc[..cut % enc.len()].to_vec()];
        let mut trailing = enc.clone();
        trailing.push(flip_bits);
        faults.push(trailing);
        let mut flipped = enc.clone();
        flipped[flip_at % prefix_end.min(enc.len())] ^= flip_bits;
        faults.push(flipped);

        for (which, data) in faults.iter().enumerate() {
            let mut view = prev.clone();
            let in_place = stream::decode_frame_in_place(data, &mut view);
            let allocating = stream::decode_frame(data, Some(&prev));
            prop_assert_eq!(in_place.is_some(), allocating.is_some(), "fault {}", which);
            if let Some(dec) = allocating {
                prop_assert_eq!(&view, &dec, "fault {}", which);
            }
            if !container_is_well_formed(data) {
                prop_assert!(in_place.is_none(), "fault {}: structure broken, still decoded", which);
                prop_assert_eq!(&view, &prev, "fault {}: view written before the refusal", which);
            }
            prop_assert!(which == 2 || !container_is_well_formed(data), "cuts and tails break structure");
        }
    }

    /// The RGB565 kernels are the per-pixel arithmetic of their module doc
    /// — a reference that shares no loop with them — on any frame, the
    /// empty one and a single pixel included; the encoder appends, and the
    /// decoder refuses an output of the wrong size without writing to it.
    #[test]
    fn rgb565_kernels_match_the_doc_per_pixel(
        bytes in prop::collection::vec(any::<u8>(), 0..3000),
        head in prop::collection::vec(any::<u8>(), 0..9),
    ) {
        for rgb in [&bytes[..bytes.len() / 3 * 3], &bytes[..bytes.len().min(3) / 3 * 3], &[]] {
            let mut out = head.clone();
            quantize::encode_565_into(rgb, &mut out);
            prop_assert_eq!(&out[..head.len()], &head[..], "appended, not overwritten");
            let packed = &out[head.len()..];
            prop_assert_eq!(packed, &q565_by_the_doc(rgb)[..]);
            prop_assert_eq!(packed, &quantize::encode_565(rgb)[..]);

            let mut back = vec![0xA5; rgb.len()];
            prop_assert_eq!(quantize::decode_565_into(packed, &mut back), Some(()));
            prop_assert_eq!(&back, &rgb_from_565_by_the_doc(packed));
            prop_assert_eq!(Some(&back), quantize::decode_565(packed).as_ref());

            let mut wrong = vec![0xA5; rgb.len() + 3];
            prop_assert_eq!(quantize::decode_565_into(packed, &mut wrong), None);
            prop_assert!(wrong.iter().all(|&b| b == 0xA5), "refused before writing");
        }
    }

    /// Decoders must refuse arbitrary garbage with `None`, never panic:
    /// raw codec payloads, and stream containers both from whole cloth
    /// and from a single corrupted byte in a valid container.
    #[test]
    fn decoders_never_panic_on_corrupt_input(
        garbage in prop::collection::vec(any::<u8>(), 0..600),
        frame in rgb_frame(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..255,
    ) {
        for codec in Codec::ALL {
            let _ = codec.decode(&garbage, None);
            let _ = codec.decode(&garbage, Some(&frame));
        }
        let _ = rle::decode(&garbage);
        let _ = delta::decode(&garbage, Some(&frame));
        let _ = stream::decode_frame(&garbage, Some(&frame));

        let mut enc = stream::encode_frame(Codec::DeltaRle, &frame, None, Some(&frame), 7);
        let i = flip_at % enc.len();
        enc[i] ^= flip_bits;
        if let Some(dec) = stream::decode_frame(&enc, Some(&frame)) {
            // A surviving decode may differ, but must stay frame-shaped.
            prop_assert_eq!(dec.len() % 3, 0);
        }
    }

    /// SOAP envelopes roundtrip arbitrary argument values.
    #[test]
    fn soap_roundtrips(
        s in "[ -~]{0,40}",
        i in any::<i64>(),
        b in any::<bool>(),
        bytes in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let codec = SoapCodec::default();
        let env = SoapEnvelope::new("svc", "op")
            .arg("s", SoapValue::Str(s))
            .arg("i", SoapValue::Int(i))
            .arg("b", SoapValue::Bool(b))
            .arg("blob", SoapValue::Bytes(bytes));
        let back = codec.decode(&codec.encode(&env)).unwrap();
        prop_assert_eq!(back, env);
    }

    /// PLY (binary) and OBJ writers/parsers roundtrip arbitrary valid
    /// meshes; the PLY→OBJ conversion pipeline preserves topology.
    #[test]
    fn model_formats_roundtrip(
        verts in prop::collection::vec(
            (-100.0f32..100.0, -100.0f32..100.0, -100.0f32..100.0),
            3..40,
        ),
        tri_picks in prop::collection::vec((any::<usize>(), any::<usize>(), any::<usize>()), 1..60),
    ) {
        let positions: Vec<Vec3> =
            verts.iter().map(|&(x, y, z)| Vec3::new(x, y, z)).collect();
        let n = positions.len();
        let triangles: Vec<[u32; 3]> = tri_picks
            .iter()
            .map(|&(a, b, c)| [(a % n) as u32, (b % n) as u32, (c % n) as u32])
            .collect();
        let mut mesh = MeshData::new(positions, triangles);
        mesh.compute_normals();

        // Binary PLY roundtrip is bit-exact.
        let mut ply_bytes = Vec::new();
        rave::models::ply::write(&mesh, rave::models::ply::PlyFormat::BinaryLittleEndian, &mut ply_bytes)
            .unwrap();
        let from_ply = rave::models::ply::read(std::io::Cursor::new(ply_bytes)).unwrap();
        prop_assert_eq!(&from_ply.positions, &mesh.positions);
        prop_assert_eq!(&from_ply.triangles, &mesh.triangles);

        // OBJ roundtrip preserves topology and positions to writer
        // precision.
        let mut obj_bytes = Vec::new();
        rave::models::obj::write(&from_ply, &mut obj_bytes).unwrap();
        let from_obj = rave::models::obj::read(std::io::Cursor::new(obj_bytes)).unwrap();
        prop_assert_eq!(from_obj.triangles.len(), mesh.triangles.len());
        for (a, b) in from_obj.positions.iter().zip(&mesh.positions) {
            prop_assert!((a.x - b.x).abs() < 1e-3);
            prop_assert!((a.y - b.y).abs() < 1e-3);
            prop_assert!((a.z - b.z).abs() < 1e-3);
        }
    }

    /// Budget padding hits any requested count exactly, for any generator
    /// target.
    #[test]
    fn generators_hit_exact_budgets(target in 64u64..3000) {
        let m = rave::models::generators::sphere(Vec3::ZERO, 1.0, target);
        prop_assert_eq!(m.triangle_count(), target);
        m.validate().unwrap();
    }
}
