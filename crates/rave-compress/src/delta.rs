//! Frame differencing.
//!
//! Encodes the byte-wise difference (wrapping subtraction) between the
//! current and previous frame, then RLE-compresses it. Unchanged regions
//! become zero runs, which RLE collapses — interactive frames where only
//! the model moved compress dramatically. A one-byte header distinguishes
//! keyframes (no previous frame available) from delta frames, so a
//! receiver that lost sync can always decode a keyframe.
//!
//! The production encoder ([`encode_into`]) differs from the
//! byte-at-a-time reference ([`encode_scalar`]) in the RLE stage: run and
//! literal boundaries are found with the word-wide u64 kernels of [`rle`],
//! which is where frame deltas (long zero runs over unchanged regions)
//! spend their time. The diff pass itself stays a plain byte map — LLVM
//! already lowers that to packed SIMD subtraction wider than any
//! hand-rolled u64 trick. The two encoders are property-tested
//! bit-identical. The decoder adds the runs of the difference straight
//! onto the previous frame's bytes ([`decode_in_place`]): a zero run, the
//! bulk of an interactive frame's delta, touches nothing.

use crate::rle::{self, Span};

const KEYFRAME: u8 = 0;
const DELTA: u8 = 1;

/// `cur[i] - prev[i]` (wrapping) for equal-length slices. Kept as a
/// simple map so the auto-vectorizer can emit packed-byte subtraction.
#[inline]
fn diff_bytes(cur: &[u8], prev: &[u8]) -> Vec<u8> {
    debug_assert_eq!(cur.len(), prev.len());
    cur.iter().zip(prev).map(|(c, p)| c.wrapping_sub(*p)).collect()
}

/// Encode `cur` against `prev` (must be the same length if present),
/// appended to `out`.
pub fn encode_into(cur: &[u8], prev: Option<&[u8]>, out: &mut Vec<u8>) {
    match prev {
        Some(p) if p.len() == cur.len() => {
            out.push(DELTA);
            rle::encode_into(&diff_bytes(cur, p), out);
        }
        _ => {
            out.push(KEYFRAME);
            rle::encode_into(cur, out);
        }
    }
}

/// [`encode_into`] a fresh vector.
pub fn encode(cur: &[u8], prev: Option<&[u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(cur, prev, &mut out);
    out
}

/// The byte-at-a-time reference encoder ([`encode`] must match it
/// bit-for-bit; benches report the speedup between the two).
pub fn encode_scalar(cur: &[u8], prev: Option<&[u8]>) -> Vec<u8> {
    match prev {
        Some(p) if p.len() == cur.len() => {
            let diff: Vec<u8> = cur.iter().zip(p).map(|(c, p)| c.wrapping_sub(*p)).collect();
            let mut out = vec![DELTA];
            out.extend(rle::encode_scalar(&diff));
            out
        }
        _ => {
            let mut out = vec![KEYFRAME];
            out.extend(rle::encode_scalar(cur));
            out
        }
    }
}

/// `out[i] += diff[i]` (wrapping) for the RLE-coded `diff`, which must
/// decode to exactly `out.len()` bytes.
fn add_in_place(diff: &[u8], out: &mut [u8]) -> Option<()> {
    let len = rle::walk(diff, |at, span| {
        match span {
            // Nothing to add; the length check below still counts the run.
            Span::Run(0, _) => {}
            Span::Run(d, count) => {
                out.get_mut(at..at + count)?.iter_mut().for_each(|x| *x = x.wrapping_add(d))
            }
            Span::Literal(bytes) => out
                .get_mut(at..at + bytes.len())?
                .iter_mut()
                .zip(bytes)
                .for_each(|(x, d)| *x = x.wrapping_add(*d)),
        }
        Some(())
    })?;
    (len == out.len()).then_some(())
}

/// Decode over `out`, which holds the previous frame when `out_is_prev`
/// (a delta frame is refused without it) and is overwritten by a
/// keyframe. `None` on corrupt input or unless the frame is exactly
/// `out.len()` bytes; `out` is then partly written.
pub fn decode_in_place(data: &[u8], out: &mut [u8], out_is_prev: bool) -> Option<()> {
    let (&tag, body) = data.split_first()?;
    match tag {
        KEYFRAME => rle::decode_into(body, out),
        DELTA if out_is_prev => add_in_place(body, out),
        _ => None,
    }
}

/// Decode into a fresh vector: a keyframe's own bytes, or the difference
/// added onto a copy of `prev`, which a delta frame requires at the right
/// length.
pub fn decode(data: &[u8], prev: Option<&[u8]>) -> Option<Vec<u8>> {
    let (&tag, body) = data.split_first()?;
    match tag {
        KEYFRAME => rle::decode(body),
        DELTA => {
            let mut out = prev?.to_vec();
            add_in_place(body, &mut out)?;
            Some(out)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_roundtrip() {
        let prev: Vec<u8> = (0..600).map(|i| (i % 256) as u8).collect();
        let mut cur = prev.clone();
        for px in cur[90..120].iter_mut() {
            *px = px.wrapping_add(50);
        }
        let enc = encode(&cur, Some(&prev));
        assert_eq!(decode(&enc, Some(&prev)).unwrap(), cur);
    }

    #[test]
    fn keyframe_when_no_prev() {
        let cur = vec![5u8; 300];
        let enc = encode(&cur, None);
        assert_eq!(enc[0], KEYFRAME);
        assert_eq!(decode(&enc, None).unwrap(), cur);
    }

    #[test]
    fn keyframe_when_size_changed() {
        let cur = vec![5u8; 300];
        let prev = vec![5u8; 150]; // viewport resized
        let enc = encode(&cur, Some(&prev));
        assert_eq!(enc[0], KEYFRAME);
        assert_eq!(decode(&enc, None).unwrap(), cur);
    }

    #[test]
    fn identical_frames_collapse() {
        let frame: Vec<u8> = (0..30_000).map(|i| (i * 7 % 256) as u8).collect();
        let enc = encode(&frame, Some(&frame));
        assert!(enc.len() < 600, "all-zero diff collapses: {}", enc.len());
    }

    #[test]
    fn delta_frame_without_prev_fails_cleanly() {
        let prev = vec![1u8; 100];
        let cur = vec![2u8; 100];
        let enc = encode(&cur, Some(&prev));
        assert_eq!(enc[0], DELTA);
        assert!(decode(&enc, None).is_none());
        assert!(decode(&enc, Some(&[0u8; 50])).is_none(), "wrong prev length");
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(decode(&[9, 1, 2], None).is_none());
        assert!(decode(&[], None).is_none());
    }

    #[test]
    fn diff_and_add_are_inverse_on_wrapping_boundaries() {
        // Byte pairs chosen to cross every wrap/borrow boundary.
        let vals = [0u8, 1, 2, 0x7E, 0x7F, 0x80, 0x81, 0xFE, 0xFF, 0x55, 0xAA];
        let cur: Vec<u8> = vals.iter().flat_map(|&a| vals.iter().map(move |_| a)).collect();
        let prev: Vec<u8> = vals.iter().flat_map(|_| vals.iter().copied()).collect();
        let diff = diff_bytes(&cur, &prev);
        for (i, d) in diff.iter().enumerate() {
            assert_eq!(*d, cur[i].wrapping_sub(prev[i]), "lane {i}");
        }
        let mut back = prev.clone();
        add_in_place(&rle::encode(&diff), &mut back).unwrap();
        assert_eq!(back, cur);
    }

    #[test]
    fn wordwide_matches_scalar_encoder() {
        let mut state = 1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 7, 8, 9, 600, 601] {
            let prev: Vec<u8> = (0..n).map(|_| (next() >> 32) as u8).collect();
            let mut cur = prev.clone();
            for px in cur.iter_mut().skip(n / 3).take(n / 4) {
                *px = px.wrapping_add((next() >> 24) as u8);
            }
            assert_eq!(encode(&cur, Some(&prev)), encode_scalar(&cur, Some(&prev)), "len {n}");
            assert_eq!(encode(&cur, None), encode_scalar(&cur, None), "keyframe len {n}");
        }
    }
}
