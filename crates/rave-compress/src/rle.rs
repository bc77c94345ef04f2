//! Byte-level run-length coding.
//!
//! Format: a stream of `(count: u8, op)` records. `count` with the high
//! bit set means a *run*: the next byte repeats `count & 0x7F` times
//! (1–127). High bit clear means a *literal span* of `count` bytes
//! (1–127) copied verbatim. Rendered frames have large flat regions
//! (background, solid shading), which is where this wins.
//!
//! Two encoders produce the identical stream: [`encode_scalar`], the
//! byte-at-a-time reference, and [`encode_into`], the word-wide production
//! kernel that scans runs and literal spans eight bytes per load
//! (property-tested bit-identical in `tests/proptest_codecs.rs`). One
//! record walk (`walk`) serves every decoder: [`decode_into`] fills and
//! copies into a sized slice, `delta` adds onto the bytes already there,
//! and [`decode`] sizes its vector with a walk that writes nothing.

const HI: u64 = 0x8080_8080_8080_8080;

#[inline]
fn load_le(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"))
}

/// Exact per-byte zero mask: the high bit of every byte of the result is
/// set iff that byte of `v` is zero. Carry-free (each byte's 7-bit add
/// cannot overflow into its neighbour), so unlike the classic
/// `(v - LO) & !v & HI` haszero trick there are no false positives above
/// a zero byte — `trailing_zeros` lands on the *first* zero byte.
#[inline]
fn zero_bytes(v: u64) -> u64 {
    let t = (v & !HI).wrapping_add(!HI);
    !(t | v) & HI
}

/// Length of the run of `data[i]` starting at `i`, capped at `cap`.
#[inline]
fn run_len(data: &[u8], i: usize, cap: usize) -> usize {
    let b = data[i];
    let end = data.len().min(i + cap);
    let pat = u64::from_le_bytes([b; 8]);
    let mut j = i + 1;
    while j + 8 <= end {
        let x = load_le(data, j) ^ pat;
        if x != 0 {
            return j + x.trailing_zeros() as usize / 8 - i;
        }
        j += 8;
    }
    while j < end && data[j] == b {
        j += 1;
    }
    j - i
}

/// First index in `[from, to)` where a run of ≥3 equal bytes starts
/// (`data[j] == data[j+1] == data[j+2]`), or `to` if none. Word-wide:
/// three overlapping loads give per-lane `x[k]==x[k+1]` and
/// `x[k]==x[k+2]` masks whose conjunction marks triple starts.
#[inline]
fn find_run3(data: &[u8], from: usize, to: usize) -> usize {
    let mut j = from;
    while j < to && j + 10 <= data.len() {
        let w = load_le(data, j);
        let eq1 = zero_bytes(w ^ load_le(data, j + 1));
        let eq2 = zero_bytes(w ^ load_le(data, j + 2));
        let mask = eq1 & eq2;
        if mask != 0 {
            let hit = j + mask.trailing_zeros() as usize / 8;
            return hit.min(to);
        }
        j += 8;
    }
    while j < to {
        if j + 2 < data.len() && data[j] == data[j + 1] && data[j + 1] == data[j + 2] {
            return j;
        }
        j += 1;
    }
    to
}

/// Encode a byte stream (word-wide kernel), appended to `out`.
pub fn encode_into(data: &[u8], out: &mut Vec<u8>) {
    let len = data.len();
    out.reserve(len / 4 + 16);
    let mut i = 0;
    while i < len {
        let run = run_len(data, i, 127);
        if run >= 3 {
            out.push(0x80 | run as u8);
            out.push(data[i]);
            i += run;
            continue;
        }
        // Literal span: up to the next ≥3 run (never at `i` itself — the
        // run test above just failed there) or 127 bytes.
        let end = find_run3(data, i + 1, len.min(i + 127));
        out.push((end - i) as u8);
        out.extend_from_slice(&data[i..end]);
        i = end;
    }
}

/// [`encode_into`] a fresh vector.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(data, &mut out);
    out
}

/// The byte-at-a-time reference encoder. [`encode`] must produce this
/// exact stream; benches report the speedup between the two.
pub fn encode_scalar(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let mut i = 0;
    while i < data.len() {
        // Measure the run at i.
        let b = data[i];
        let mut run = 1usize;
        while run < 127 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= 3 {
            out.push(0x80 | run as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal span: until the next ≥3 run or 127 bytes.
        let start = i;
        let mut len = 0usize;
        while len < 127 && i < data.len() {
            let b = data[i];
            let mut run = 1usize;
            while run < 3 && i + run < data.len() && data[i + run] == b {
                run += 1;
            }
            if run >= 3 && i + 2 < data.len() && data[i + 2] == b {
                break;
            }
            i += 1;
            len += 1;
        }
        out.push(len as u8);
        out.extend_from_slice(&data[start..start + len]);
    }
    out
}

/// Most bytes `encoded_len` bytes of stream can decode to: a run record
/// is two bytes for up to 127, and a literal span never expands.
pub(crate) fn max_decoded_len(encoded_len: usize) -> u64 {
    encoded_len as u64 / 2 * 127
}

/// One record of a stream: a byte repeated, or a span copied verbatim.
pub(crate) enum Span<'a> {
    Run(u8, usize),
    Literal(&'a [u8]),
}

/// Walk `data` record by record, handing `sink` each span and the output
/// offset it starts at. Returns the decoded length; `None` on truncation,
/// a zero-length record (corrupt input), or when `sink` refuses a span.
#[inline]
pub(crate) fn walk(
    data: &[u8],
    mut sink: impl FnMut(usize, Span<'_>) -> Option<()>,
) -> Option<usize> {
    let mut i = 0;
    let mut at = 0;
    while i < data.len() {
        let tag = data[i];
        i += 1;
        let count = (tag & 0x7F) as usize;
        if count == 0 {
            return None;
        }
        if tag & 0x80 != 0 {
            sink(at, Span::Run(*data.get(i)?, count))?;
            i += 1;
        } else {
            sink(at, Span::Literal(data.get(i..i + count)?))?;
            i += count;
        }
        at += count;
    }
    Some(at)
}

/// Decode a stream produced by [`encode`] over `out`. `None` on corrupt
/// input or unless the stream decodes to exactly `out.len()` bytes; `out`
/// is then partly written.
pub fn decode_into(data: &[u8], out: &mut [u8]) -> Option<()> {
    let len = walk(data, |at, span| {
        match span {
            Span::Run(b, count) => out.get_mut(at..at + count)?.fill(b),
            Span::Literal(bytes) => out.get_mut(at..at + bytes.len())?.copy_from_slice(bytes),
        }
        Some(())
    })?;
    (len == out.len()).then_some(())
}

/// [`decode_into`] a fresh vector of the stream's own length. `None` on
/// truncation or zero-length records (corrupt input).
pub fn decode(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = vec![0; walk(data, |_, _| Some(()))?];
    decode_into(data, &mut out)?;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_content() {
        let mut data = vec![7u8; 500];
        data.extend((0..200u32).map(|i| (i * 31 % 256) as u8));
        data.extend(vec![0u8; 300]);
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn roundtrip_empty() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn roundtrip_single_byte() {
        assert_eq!(decode(&encode(&[42])).unwrap(), vec![42]);
    }

    #[test]
    fn long_runs_split_correctly() {
        let data = vec![9u8; 1000]; // > 127, forces multiple run records
        assert_eq!(decode(&encode(&data)).unwrap(), data);
        assert!(encode(&data).len() < 20);
    }

    #[test]
    fn incompressible_data_bounded_overhead() {
        let data: Vec<u8> =
            (0..10_000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let enc = encode(&data);
        assert!(enc.len() < data.len() + data.len() / 64 + 16, "overhead {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), data);
    }

    #[test]
    fn truncated_stream_rejected() {
        let enc = encode(&[5u8; 100]);
        assert!(decode(&enc[..enc.len() - 1]).is_none());
    }

    #[test]
    fn zero_count_rejected() {
        assert!(decode(&[0x00]).is_none());
        assert!(decode(&[0x80]).is_none());
    }

    #[test]
    fn wordwide_matches_scalar_on_adversarial_seams() {
        // Runs starting/ending at every offset relative to the 8-byte
        // windows, literal caps at 127, triples straddling load seams.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![1],
            vec![1, 1],
            vec![1, 1, 1],
            vec![0; 127],
            vec![0; 128],
            vec![0; 129],
            (0..255u8).collect(),
            (0..130u8).map(|i| i / 2).collect(), // pairs, never triples
        ];
        for off in 0..10 {
            let mut v: Vec<u8> = (0..off as u8).collect();
            v.extend(vec![7u8; 5]);
            v.extend((0..9u8).rev());
            v.extend(vec![7u8; 2]);
            v.push(8);
            v.extend(vec![9u8; 300]);
            cases.push(v);
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 7, 8, 9, 63, 64, 65, 1000] {
            cases.push((0..n).map(|_| (next() >> 32) as u8).collect());
            cases.push(
                (0..n).map(|_| if next() % 3 == 0 { 5 } else { (next() >> 40) as u8 }).collect(),
            );
        }
        for data in cases {
            let fast = encode(&data);
            let slow = encode_scalar(&data);
            assert_eq!(fast, slow, "diverged on len {}", data.len());
            assert_eq!(decode(&fast).unwrap(), data);
        }
    }

    #[test]
    fn zero_bytes_mask_is_exact() {
        // The lanes that tripped the classic haszero trick: 0x01 bytes
        // above a zero byte must NOT be flagged.
        let v = u64::from_le_bytes([0x00, 0x01, 0x01, 0x80, 0xFF, 0x00, 0x7F, 0x01]);
        let m = zero_bytes(v);
        assert_eq!(m, 0x0000_8000_0000_0080, "only true zero lanes flagged: {m:#018x}");
    }
}
