//! WAL record framing: length-prefixed, CRC-checksummed payloads.
//!
//! ```text
//! record := payload_len: u32 LE | crc32(payload): u32 LE | payload
//! ```
//!
//! A segment file is a header followed by back-to-back records. The frame
//! is designed so a reader can always classify the tail of a file that
//! was being written when the process died: a partial header or payload
//! is a *torn tail* (expected after a crash — the clean prefix is kept
//! and the tail truncated away), while a full-length record whose
//! checksum fails is the same condition caught one step later (the crash
//! landed mid-`write` and the filesystem padded the hole). A zero length
//! is torn too: no audit entry encodes to zero bytes, and since
//! `crc32("") == 0` an all-zero header — what a zero-filled tail holds —
//! would otherwise pass for a valid empty record.

/// Bytes of framing before each payload.
pub const RECORD_HEADER_LEN: usize = 8;

// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the ubiquitous variant, so
// segment files can be checked with standard external tools. Computed
// slicing-by-8: `CRC_TABLES[0]` is the byte-at-a-time table, and
// `CRC_TABLES[k][b]` is the checksum state after byte `b` and `k` zero
// bytes, so eight input bytes fold into the state with eight independent
// lookups instead of a chain of eight dependent ones.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 checksum of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append one framed record to `out`. `payload` is never empty: a scan
/// reads a zero length as a torn tail.
pub fn encode_record(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(!payload.is_empty(), "an empty record reads as a torn tail");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// How a record scan ended early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornTail {
    /// Fewer than [`RECORD_HEADER_LEN`] bytes remained.
    TruncatedHeader { at: usize },
    /// The header promised more payload bytes than the buffer holds.
    TruncatedPayload { at: usize },
    /// Payload present but its checksum does not match.
    ChecksumMismatch { at: usize },
    /// The header claims an empty payload: a zero-filled tail, not a
    /// record.
    ZeroLength { at: usize },
}

impl TornTail {
    /// Byte offset of the first bad record — everything before is intact.
    pub fn clean_len(&self) -> usize {
        match *self {
            TornTail::TruncatedHeader { at }
            | TornTail::TruncatedPayload { at }
            | TornTail::ChecksumMismatch { at }
            | TornTail::ZeroLength { at } => at,
        }
    }
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TornTail::TruncatedHeader { at } => write!(f, "torn record header at byte {at}"),
            TornTail::TruncatedPayload { at } => write!(f, "torn record payload at byte {at}"),
            TornTail::ChecksumMismatch { at } => write!(f, "record checksum mismatch at byte {at}"),
            TornTail::ZeroLength { at } => write!(f, "zero-length record header at byte {at}"),
        }
    }
}

/// The outcome of scanning a buffer of records.
#[derive(Debug)]
pub struct RecordScan<'a> {
    /// Every intact payload, in file order.
    pub payloads: Vec<&'a [u8]>,
    /// Length of the clean prefix; truncating the file here removes the
    /// torn tail without touching any intact record.
    pub clean_len: usize,
    /// Why the scan stopped before the end, if it did.
    pub torn: Option<TornTail>,
}

/// Walk `buf` record by record, stopping at the first torn or corrupt
/// record. Never panics and never over-allocates on a corrupt length.
pub fn scan_records(buf: &[u8]) -> RecordScan<'_> {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        let remaining = buf.len() - pos;
        if remaining < RECORD_HEADER_LEN {
            return RecordScan {
                payloads,
                clean_len: pos,
                torn: Some(TornTail::TruncatedHeader { at: pos }),
            };
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 {
            return RecordScan {
                payloads,
                clean_len: pos,
                torn: Some(TornTail::ZeroLength { at: pos }),
            };
        }
        if len > remaining - RECORD_HEADER_LEN {
            return RecordScan {
                payloads,
                clean_len: pos,
                torn: Some(TornTail::TruncatedPayload { at: pos }),
            };
        }
        let payload = &buf[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            return RecordScan {
                payloads,
                clean_len: pos,
                torn: Some(TornTail::ChecksumMismatch { at: pos }),
            };
        }
        payloads.push(payload);
        pos += RECORD_HEADER_LEN + len;
    }
    RecordScan { payloads, clean_len: pos, torn: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One table lookup a byte: what `crc32` computed before it took
    /// eight at a step, kept as the reference the sliced form is held to.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_loop_at_every_alignment_and_tail() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let buf: Vec<u8> = (0..5_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for start in 0..=8 {
            for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 1_000, 4_991] {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn records_roundtrip_in_order() {
        let mut buf = Vec::new();
        encode_record(b"alpha", &mut buf);
        encode_record(b"b", &mut buf);
        encode_record(b"gamma-delta", &mut buf);
        let scan = scan_records(&buf);
        assert_eq!(scan.payloads, vec![b"alpha" as &[u8], b"b", b"gamma-delta"]);
        assert_eq!(scan.clean_len, buf.len());
        assert!(scan.torn.is_none());
    }

    #[test]
    fn every_truncation_point_yields_clean_prefix() {
        let mut buf = Vec::new();
        encode_record(b"first", &mut buf);
        let first_end = buf.len();
        encode_record(b"second", &mut buf);
        for cut in 0..buf.len() {
            let scan = scan_records(&buf[..cut]);
            assert!(scan.clean_len <= cut);
            if cut < first_end {
                assert!(scan.payloads.is_empty());
                assert_eq!(scan.clean_len, 0);
            } else if cut < buf.len() {
                assert_eq!(scan.payloads, vec![b"first" as &[u8]]);
                assert_eq!(scan.clean_len, first_end);
                // Exactly at the boundary there is no tail to tear.
                assert_eq!(scan.torn.is_some(), cut > first_end, "cut at {cut}");
            }
        }
    }

    #[test]
    fn bit_flip_in_payload_is_caught() {
        let mut buf = Vec::new();
        encode_record(b"payload-bytes", &mut buf);
        encode_record(b"after", &mut buf);
        buf[RECORD_HEADER_LEN + 3] ^= 0x01;
        let scan = scan_records(&buf);
        assert!(scan.payloads.is_empty());
        assert_eq!(scan.torn, Some(TornTail::ChecksumMismatch { at: 0 }));
    }

    #[test]
    fn huge_length_field_is_truncated_payload_not_alloc() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF]; // len = u32::MAX
        buf.extend_from_slice(&[0; 8]);
        let scan = scan_records(&buf);
        assert_eq!(scan.torn, Some(TornTail::TruncatedPayload { at: 0 }));
    }

    #[test]
    fn a_zero_header_is_a_torn_tail_not_a_record() {
        let mut buf = Vec::new();
        encode_record(b"kept", &mut buf);
        let clean = buf.len();
        buf.extend_from_slice(&[0; 64]);
        let scan = scan_records(&buf);
        assert_eq!(scan.payloads, vec![b"kept" as &[u8]]);
        assert_eq!(scan.torn, Some(TornTail::ZeroLength { at: clean }));
        assert_eq!(scan.clean_len, clean);
    }
}
