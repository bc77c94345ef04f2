//! Property tests on every serialization boundary: image codecs, the
//! binary frame protocol, SOAP, and the PLY/OBJ model formats.

use proptest::prelude::*;
use rave::compress::{delta, rle, stream, Codec};
use rave::grid::{SoapCodec, SoapEnvelope, SoapValue};
use rave::math::Vec3;
use rave::net::{Frame, FrameKind};
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

    /// The binary frame protocol decodes any split of its byte stream
    /// (streaming reassembly) to the original frame sequence.
    #[test]
    fn frame_protocol_survives_arbitrary_fragmentation(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..300), 1..8),
        split_seed in any::<u64>(),
    ) {
        use bytes::BytesMut;
        let frames: Vec<Frame> = payloads
            .iter()
            .map(|p| Frame::new(FrameKind::SceneUpdate, p.clone()))
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // Feed the stream in pseudo-random chunk sizes.
        let mut buf = BytesMut::new();
        let mut out = Vec::new();
        let mut state = split_seed | 1;
        let mut i = 0;
        while i < wire.len() {
            state ^= state << 13;
            state ^= state >> 7;
            let chunk = 1 + (state as usize % 64).min(wire.len() - i - 1 + 1);
            buf.extend_from_slice(&wire[i..i + chunk.min(wire.len() - i)]);
            i += chunk.min(wire.len() - i);
            while let Some(f) = Frame::decode(&mut buf).unwrap() {
                out.push(f);
            }
        }
        prop_assert_eq!(out, frames);
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
