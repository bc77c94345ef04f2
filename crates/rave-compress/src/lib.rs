//! Thin-client image compression (the §6 future-work item, built out).
//!
//! "We need a compression algorithm that can adapt on the fly to changing
//! network conditions" (§5.1) — the PDA's wireless bandwidth is both low
//! and variable. This crate provides:
//!
//! - lossless **RLE** of RGB frames ([`rle`]);
//! - **delta** coding against the previous frame ([`delta`]) — interactive
//!   visualization frames are mostly identical between updates;
//! - lossy **RGB565 quantization** ([`quantize`]), composable with RLE;
//! - an **adaptive selector** ([`adaptive`]) that picks the codec
//!   minimizing estimated end-to-end frame time (encode + transfer +
//!   decode) for the current link quality and endpoint speeds.

pub mod adaptive;
pub mod delta;
pub mod quantize;
pub mod rle;
pub mod stream;

/// The codecs a render service can apply to an outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// Raw 24-bpp RGB (the paper's baseline).
    Raw,
    /// Run-length encoded RGB.
    Rle,
    /// Delta vs the previous frame, then RLE. Requires the receiver to
    /// hold the previous frame.
    DeltaRle,
    /// RGB565 quantization (lossy, fixed 2/3 ratio).
    Quant565,
    /// RGB565 then RLE (lossy).
    Quant565Rle,
}

impl Codec {
    pub const ALL: [Codec; 5] =
        [Codec::Raw, Codec::Rle, Codec::DeltaRle, Codec::Quant565, Codec::Quant565Rle];

    pub fn name(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::Rle => "rle",
            Codec::DeltaRle => "delta+rle",
            Codec::Quant565 => "rgb565",
            Codec::Quant565Rle => "rgb565+rle",
        }
    }

    /// Stable on-wire identifier (used in [`stream`] container headers).
    pub fn id(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::Rle => 1,
            Codec::DeltaRle => 2,
            Codec::Quant565 => 3,
            Codec::Quant565Rle => 4,
        }
    }

    /// Inverse of [`Codec::id`]; `None` for unknown wire values.
    pub fn from_id(id: u8) -> Option<Codec> {
        Codec::ALL.into_iter().find(|c| c.id() == id)
    }

    pub fn is_lossy(self) -> bool {
        matches!(self, Codec::Quant565 | Codec::Quant565Rle)
    }

    /// Encode an RGB frame, appended to `out`. `prev` is the previous
    /// frame (same length) when the codec is delta-based; encoding falls
    /// back to keyframe behaviour when it is absent.
    pub fn encode_into(self, cur: &[u8], prev: Option<&[u8]>, out: &mut Vec<u8>) {
        assert_eq!(cur.len() % 3, 0, "RGB frames are 3 bytes per pixel");
        match self {
            Codec::Raw => out.extend_from_slice(cur),
            Codec::Rle => rle::encode_into(cur, out),
            Codec::DeltaRle => delta::encode_into(cur, prev, out),
            Codec::Quant565 => quantize::encode_565_into(cur, out),
            Codec::Quant565Rle => rle::encode_into(&quantize::encode_565(cur), out),
        }
    }

    /// [`Codec::encode_into`] a fresh vector.
    pub fn encode(self, cur: &[u8], prev: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(cur, prev, &mut out);
        out
    }

    /// Decode back to RGB bytes. Returns `None` on a corrupt payload or a
    /// missing required previous frame.
    pub fn decode(self, data: &[u8], prev: Option<&[u8]>) -> Option<Vec<u8>> {
        match self {
            Codec::Raw => Some(data.to_vec()),
            Codec::Rle => rle::decode(data),
            Codec::DeltaRle => delta::decode(data, prev),
            Codec::Quant565 => quantize::decode_565(data),
            Codec::Quant565Rle => quantize::decode_565(&rle::decode(data)?),
        }
    }

    /// Decode over `out`, which holds the previous frame when
    /// `out_is_prev` (a delta frame is refused without it). `None` on a
    /// corrupt payload or one that does not decode to exactly `out.len()`
    /// bytes; `out` may then be partly written.
    pub fn decode_in_place(self, data: &[u8], out: &mut [u8], out_is_prev: bool) -> Option<()> {
        match self {
            Codec::Raw => (data.len() == out.len()).then(|| out.copy_from_slice(data)),
            Codec::Rle => rle::decode_into(data, out),
            Codec::DeltaRle => delta::decode_in_place(data, out, out_is_prev),
            Codec::Quant565 => quantize::decode_565_into(data, out),
            Codec::Quant565Rle => {
                let mut quantized = vec![0; out.len() / 3 * 2];
                rle::decode_into(data, &mut quantized)?;
                quantize::decode_565_into(&quantized, out)
            }
        }
    }

    /// Whether `payload_len` bytes of this codec can decode to `out_len`
    /// at all — what a receiver asks of a length prefix before it sizes a
    /// buffer by a header it has not yet believed. `Raw` and `Quant565`
    /// have one answer; the RLE family at most 127 bytes per two of
    /// payload.
    pub(crate) fn can_decode_to(self, payload_len: usize, out_len: usize) -> bool {
        let out = out_len as u64;
        match self {
            Codec::Raw => payload_len == out_len,
            Codec::Rle => out <= rle::max_decoded_len(payload_len),
            // One tag byte, then RLE.
            Codec::DeltaRle => payload_len > 0 && out <= rle::max_decoded_len(payload_len - 1),
            Codec::Quant565 => payload_len.is_multiple_of(2) && (payload_len / 2) as u64 * 3 == out,
            Codec::Quant565Rle => out / 3 * 2 <= rle::max_decoded_len(payload_len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_frame(n: usize) -> Vec<u8> {
        (0..n * 3).map(|i| ((i / 13) % 251) as u8).collect()
    }

    fn flat_frame(n: usize) -> Vec<u8> {
        vec![40; n * 3]
    }

    #[test]
    fn lossless_codecs_roundtrip_exactly() {
        let frame = gradient_frame(500);
        let prev = flat_frame(500);
        for codec in [Codec::Raw, Codec::Rle, Codec::DeltaRle] {
            let enc = codec.encode(&frame, Some(&prev));
            let dec = codec.decode(&enc, Some(&prev)).unwrap();
            assert_eq!(dec, frame, "{}", codec.name());
        }
    }

    #[test]
    fn lossy_codecs_bounded_error() {
        let frame = gradient_frame(500);
        for codec in [Codec::Quant565, Codec::Quant565Rle] {
            let enc = codec.encode(&frame, None);
            let dec = codec.decode(&enc, None).unwrap();
            assert_eq!(dec.len(), frame.len());
            for (a, b) in frame.iter().zip(&dec) {
                assert!((*a as i16 - *b as i16).abs() <= 8, "{}", codec.name());
            }
        }
    }

    #[test]
    fn rle_crushes_flat_frames() {
        let frame = flat_frame(40_000); // a 200x200 clear screen
        let enc = Codec::Rle.encode(&frame, None);
        assert!(enc.len() * 20 < frame.len(), "flat frame ratio: {}", enc.len());
    }

    #[test]
    fn delta_crushes_static_scenes() {
        let frame = gradient_frame(40_000);
        let enc = Codec::DeltaRle.encode(&frame, Some(&frame));
        assert!(enc.len() * 50 < frame.len() * 3, "static scene delta: {}", enc.len());
    }

    #[test]
    fn delta_without_prev_still_roundtrips() {
        let frame = gradient_frame(100);
        let enc = Codec::DeltaRle.encode(&frame, None);
        let dec = Codec::DeltaRle.decode(&enc, None).unwrap();
        assert_eq!(dec, frame);
    }

    #[test]
    fn quant565_is_two_thirds_size() {
        let frame = gradient_frame(300);
        let enc = Codec::Quant565.encode(&frame, None);
        assert_eq!(enc.len(), 300 * 2);
    }

    #[test]
    #[should_panic]
    fn non_rgb_length_rejected() {
        Codec::Raw.encode(&[1, 2, 3, 4], None);
    }
}
