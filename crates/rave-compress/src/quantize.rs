//! RGB888 → RGB565 quantization (lossy, 2:3 fixed ratio).

/// Quantize 24-bpp RGB to 16-bpp RGB565 (little-endian u16 per pixel),
/// appended to `out`: two bytes written per three read, into space sized
/// before the loop.
pub fn encode_565_into(rgb: &[u8], out: &mut Vec<u8>) {
    assert_eq!(rgb.len() % 3, 0);
    let at = out.len();
    out.resize(at + rgb.len() / 3 * 2, 0);
    for (dst, px) in out[at..].chunks_exact_mut(2).zip(rgb.chunks_exact(3)) {
        let r = (px[0] >> 3) as u16;
        let g = (px[1] >> 2) as u16;
        let b = (px[2] >> 3) as u16;
        let v = (r << 11) | (g << 5) | b;
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// [`encode_565_into`] a fresh vector.
pub fn encode_565(rgb: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_565_into(rgb, &mut out);
    out
}

/// Expand RGB565 back to 24-bpp (with bit replication to fill the low
/// bits) over `out`. `None`, with nothing written, unless `out` is exactly
/// the three bytes per two of `data` (an odd `data` length has no such
/// `out`).
pub fn decode_565_into(data: &[u8], out: &mut [u8]) -> Option<()> {
    if !data.len().is_multiple_of(2) || out.len() != data.len() / 2 * 3 {
        return None;
    }
    for (dst, px) in out.chunks_exact_mut(3).zip(data.chunks_exact(2)) {
        let v = u16::from_le_bytes([px[0], px[1]]);
        let r = ((v >> 11) & 0x1F) as u8;
        let g = ((v >> 5) & 0x3F) as u8;
        let b = (v & 0x1F) as u8;
        dst.copy_from_slice(&[(r << 3) | (r >> 2), (g << 2) | (g >> 4), (b << 3) | (b >> 2)]);
    }
    Some(())
}

/// [`decode_565_into`] a fresh vector. `None` if the length is odd.
pub fn decode_565(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = vec![0; data.len() / 2 * 3];
    decode_565_into(data, &mut out)?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let rgb = vec![0u8; 30];
        assert_eq!(encode_565(&rgb).len(), 20);
        assert_eq!(decode_565(&encode_565(&rgb)).unwrap().len(), 30);
    }

    #[test]
    fn extremes_preserved_exactly() {
        let rgb = vec![0, 0, 0, 255, 255, 255];
        assert_eq!(decode_565(&encode_565(&rgb)).unwrap(), rgb);
    }

    #[test]
    fn error_bounded_by_quantization_step() {
        let rgb: Vec<u8> = (0..255).collect::<Vec<u8>>();
        let rgb = &rgb[..252]; // multiple of 3
        let back = decode_565(&encode_565(rgb)).unwrap();
        for (a, b) in rgb.iter().zip(&back) {
            assert!((*a as i16 - *b as i16).abs() <= 8);
        }
    }

    #[test]
    fn quantization_idempotent() {
        let rgb: Vec<u8> = (0..300).map(|i| (i * 13 % 256) as u8).collect();
        let once = decode_565(&encode_565(&rgb)).unwrap();
        let twice = decode_565(&encode_565(&once)).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn odd_length_rejected() {
        assert!(decode_565(&[1, 2, 3]).is_none());
    }
}
