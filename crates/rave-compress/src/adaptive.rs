//! Bandwidth-adaptive codec selection.
//!
//! Picks the codec minimizing estimated end-to-end frame latency:
//! `encode_time(sender) + transfer_time(link) + decode_time(receiver)`,
//! re-evaluated whenever the link changes ("adapt on the fly to changing
//! network conditions", §5.1). Lossy codecs are only considered when the
//! caller allows them.
//!
//! Two selection paths exist:
//!
//! - [`select`] trial-encodes every candidate on the actual frame. Exact,
//!   but it costs five encodes per frame — fine for offline ablations,
//!   too heavy for the per-frame hot path.
//! - [`CodecSelector`] keeps an EWMA of each codec's *measured*
//!   compression ratio (fed back from real sends via
//!   [`CodecSelector::observe`]) and estimates from those, trial-encoding
//!   only on the first frame and on a periodic re-probe cadence. Between
//!   probes a frame costs one encode — the one actually shipped.
//!
//! The cost model charges decode on the bytes the receiver actually
//! touches (see [`decode_cost_bytes`]): the encoded payload it parses,
//! plus the frame-sized reconstruction pass for delta codecs and the
//! 2-bpp dequantization input for RGB565. Charging the raw frame length
//! for every codec (the obvious first cut) systematically overtaxes cheap
//! decoders on slow endpoints and mispicks codecs near the crossover —
//! `new_model_fixes_decode_overcharge_mispick` pins one such case.

use crate::Codec;
use rave_net::LinkSpec;
use rave_sim::SimTime;

/// CPU cost rates of one endpoint.
#[derive(Debug, Clone, Copy)]
pub struct EndpointSpeed {
    /// Bytes/s the endpoint can RLE/delta-encode or decode.
    pub codec_bytes_per_sec: f64,
}

impl EndpointSpeed {
    /// A 2004 laptop/desktop CPU.
    pub fn workstation() -> Self {
        Self { codec_bytes_per_sec: 80.0e6 }
    }

    /// The Zaurus PDA — an order of magnitude slower, which is why heavy
    /// codecs can *lose* on the PDA even when they shrink the payload.
    pub fn pda() -> Self {
        Self { codec_bytes_per_sec: 6.0e6 }
    }
}

/// One codec's predicted cost for a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecEstimate {
    pub codec: Codec,
    pub encoded_bytes: u64,
    pub total_time: SimTime,
}

/// Bytes of codec work the *sender* performs: one pass over the raw
/// frame for every real codec, nothing for Raw.
pub fn encode_cost_bytes(codec: Codec, frame_len: usize) -> u64 {
    match codec {
        Codec::Raw => 0,
        _ => frame_len as u64,
    }
}

/// Bytes of codec work the *receiver* performs — the payload it parses
/// plus any frame-sized reconstruction pass, NOT a blanket `frame_len`:
///
/// - `Raw`: memcpy, charged as free like the encode side.
/// - `Rle`: one scan of the encoded payload (output writes ride along).
/// - `DeltaRle`: the RLE scan of the payload, then a full-frame add pass
///   over the previous frame.
/// - `Quant565`: one pass over the 2-bpp payload (⅔ of the frame).
/// - `Quant565Rle`: the RLE scan, then the 2-bpp dequantization pass.
pub fn decode_cost_bytes(codec: Codec, frame_len: usize, encoded_len: usize) -> u64 {
    let two_bpp = (frame_len as u64 / 3) * 2;
    match codec {
        Codec::Raw => 0,
        Codec::Rle => encoded_len as u64,
        Codec::DeltaRle => encoded_len as u64 + frame_len as u64,
        Codec::Quant565 => two_bpp,
        Codec::Quant565Rle => encoded_len as u64 + two_bpp,
    }
}

fn estimate_from_encoded(
    codec: Codec,
    frame_len: usize,
    encoded_len: usize,
    link: &LinkSpec,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
) -> CodecEstimate {
    let encode_time = encode_cost_bytes(codec, frame_len) as f64 / sender.codec_bytes_per_sec;
    let decode_time =
        decode_cost_bytes(codec, frame_len, encoded_len) as f64 / receiver.codec_bytes_per_sec;
    let transfer = link.transfer_time(encoded_len as u64);
    CodecEstimate {
        codec,
        encoded_bytes: encoded_len as u64,
        total_time: SimTime::from_secs(encode_time + decode_time) + transfer,
    }
}

/// Predict the end-to-end time of sending `frame` with `codec`, by
/// trial-encoding this very frame (ratios are content-dependent and the
/// paper's wireless frames are exactly the content we have) — except
/// under the two codecs whose encoded length does not depend on content.
pub fn estimate(
    codec: Codec,
    frame: &[u8],
    prev: Option<&[u8]>,
    link: &LinkSpec,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
) -> CodecEstimate {
    assert_eq!(frame.len() % 3, 0, "RGB frames are 3 bytes per pixel");
    // Only a length is wanted, and two codecs have theirs in closed form.
    let encoded_len = match codec {
        Codec::Raw => frame.len(),
        Codec::Quant565 => frame.len() / 3 * 2,
        _ => codec.encode(frame, prev).len(),
    };
    estimate_from_encoded(codec, frame.len(), encoded_len, link, sender, receiver)
}

/// Predict from a remembered compression `ratio` (encoded/raw) instead of
/// a trial encode — the [`CodecSelector`] hot path.
pub fn estimate_with_ratio(
    codec: Codec,
    frame_len: usize,
    ratio: f64,
    link: &LinkSpec,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
) -> CodecEstimate {
    let encoded_len = (frame_len as f64 * ratio.max(0.0)).round() as usize;
    estimate_from_encoded(codec, frame_len, encoded_len, link, sender, receiver)
}

/// Choose the best codec for this frame/link/endpoint combination by
/// trial-encoding every candidate.
pub fn select(
    frame: &[u8],
    prev: Option<&[u8]>,
    link: &LinkSpec,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
    allow_lossy: bool,
) -> CodecEstimate {
    Codec::ALL
        .iter()
        .filter(|c| allow_lossy || !c.is_lossy())
        .map(|&c| estimate(c, frame, prev, link, sender, receiver))
        .min_by(|a, b| a.total_time.cmp(&b.total_time))
        .expect("at least Raw is always a candidate")
}

/// Stateful per-stream codec chooser: EWMA of measured per-codec ratios,
/// trial-encode probes only on a periodic cadence.
#[derive(Debug, Clone)]
pub struct CodecSelector {
    /// EWMA weight of the newest measurement, in `(0, 1]`.
    pub alpha: f64,
    /// Re-probe (trial-encode all candidates) every N frames; `0` probes
    /// only once, on the first frame.
    pub reprobe_every: u64,
    frames_seen: u64,
    ratios: [Option<f64>; Codec::ALL.len()],
}

impl CodecSelector {
    pub fn new(alpha: f64, reprobe_every: u64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        Self { alpha, reprobe_every, frames_seen: 0, ratios: [None; Codec::ALL.len()] }
    }

    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// The remembered ratio for `codec`, if any measurement exists.
    pub fn ratio(&self, codec: Codec) -> Option<f64> {
        self.ratios[codec.id() as usize]
    }

    fn blend(&mut self, codec: Codec, measured: f64) {
        let slot = &mut self.ratios[codec.id() as usize];
        *slot = Some(match *slot {
            Some(old) => self.alpha * measured + (1.0 - self.alpha) * old,
            None => measured,
        });
    }

    /// Fold a *real* send back in: `encoded_bytes / logical_bytes` as
    /// shipped, which prices in container overhead and dirty-strip
    /// savings the trial probes cannot see.
    pub fn observe(&mut self, codec: Codec, logical_bytes: u64, encoded_bytes: u64) {
        if logical_bytes > 0 {
            self.blend(codec, encoded_bytes as f64 / logical_bytes as f64);
        }
    }

    /// Pick the codec for the next frame. Trial-encodes all candidates on
    /// the first frame, on the re-probe cadence, and for any candidate
    /// with no remembered ratio; otherwise estimates from the EWMA ratios
    /// (zero extra encodes).
    pub fn choose(
        &mut self,
        frame: &[u8],
        prev: Option<&[u8]>,
        link: &LinkSpec,
        sender: EndpointSpeed,
        receiver: EndpointSpeed,
        allow_lossy: bool,
    ) -> CodecEstimate {
        let candidates = Codec::ALL.iter().copied().filter(|c| allow_lossy || !c.is_lossy());
        let due_probe = self.frames_seen == 0
            || (self.reprobe_every > 0 && self.frames_seen.is_multiple_of(self.reprobe_every));
        let need_seed = candidates.clone().any(|c| self.ratio(c).is_none());
        self.frames_seen += 1;

        if due_probe || need_seed {
            let best = candidates
                .map(|c| {
                    let est = estimate(c, frame, prev, link, sender, receiver);
                    self.blend(c, est.encoded_bytes as f64 / frame.len().max(1) as f64);
                    est
                })
                .min_by(|a, b| a.total_time.cmp(&b.total_time))
                .expect("at least Raw is always a candidate");
            return best;
        }
        candidates
            .map(|c| {
                let ratio = self.ratio(c).expect("seeded above");
                estimate_with_ratio(c, frame.len(), ratio, link, sender, receiver)
            })
            .min_by(|a, b| a.total_time.cmp(&b.total_time))
            .expect("at least Raw is always a candidate")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_flat(n: usize) -> Vec<u8> {
        vec![30u8; n * 3]
    }

    fn frame_noise(n: usize) -> Vec<u8> {
        (0..n * 3).map(|i| ((i as u64).wrapping_mul(2654435761) >> 13) as u8).collect()
    }

    #[test]
    fn slow_link_prefers_compression() {
        let link = LinkSpec::wireless_11mb(0.3); // weak signal
        let choice = select(
            &frame_flat(40_000),
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        assert_ne!(choice.codec, Codec::Raw, "weak wireless must compress");
    }

    #[test]
    fn fast_link_with_noise_prefers_raw() {
        // Loopback-speed link + incompressible frame: codec time is pure
        // loss.
        let link = LinkSpec::loopback();
        let choice = select(
            &frame_noise(40_000),
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::workstation(),
            false,
        );
        assert_eq!(choice.codec, Codec::Raw);
    }

    #[test]
    fn static_scene_prefers_delta() {
        let link = LinkSpec::wireless_11mb(1.0);
        let frame = frame_noise(40_000); // incompressible content...
        let choice = select(
            &frame,
            Some(&frame), // ...but identical to the previous frame
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        assert_eq!(choice.codec, Codec::DeltaRle);
    }

    #[test]
    fn lossy_only_when_allowed() {
        let link = LinkSpec::wireless_11mb(0.2);
        let frame = frame_noise(40_000);
        let lossless =
            select(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), false);
        assert!(!lossless.codec.is_lossy());
        let lossy =
            select(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), true);
        // Incompressible noise: quantization is the only way to shrink it.
        assert!(lossy.codec.is_lossy());
        assert!(lossy.total_time < lossless.total_time);
    }

    #[test]
    fn adaptation_switches_codec_as_signal_degrades() {
        // The §5.1 scenario: user walks away from the access point.
        let frame = frame_noise(13_333); // ~200x200 / 3 region changing
        let strong = select(
            &frame,
            None,
            &LinkSpec::loopback(),
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            true,
        );
        let weak = select(
            &frame,
            None,
            &LinkSpec::wireless_11mb(0.15),
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            true,
        );
        assert_eq!(strong.codec, Codec::Raw);
        assert_ne!(weak.codec, Codec::Raw);
    }

    #[test]
    fn estimates_account_for_pda_decode_cost() {
        let link = LinkSpec::ethernet_100mb();
        let frame = frame_flat(40_000);
        let to_pda = estimate(
            Codec::Rle,
            &frame,
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
        );
        let to_ws = estimate(
            Codec::Rle,
            &frame,
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::workstation(),
        );
        assert!(to_pda.total_time > to_ws.total_time);
    }

    /// The regression the cost-model fix pins down. The old model charged
    /// decode on the raw `frame.len()` for every codec; near the
    /// raw/quantize crossover that overcharge flips the winner. On a
    /// ≈2.2 MB/s link with a PDA receiver and a 120 kB noise frame:
    ///
    /// - old: Quant565 = 1.5ms enc + 20ms dec + 36.4ms tx = 57.9ms,
    ///   Raw = 54.5ms tx → picks Raw;
    /// - new: Quant565 decode touches only the 80 kB payload → 13.3ms dec,
    ///   51.2ms total → Quant565 wins, matching what a receiver-side
    ///   microbenchmark of the dequant pass actually costs.
    #[test]
    fn new_model_fixes_decode_overcharge_mispick() {
        let link = LinkSpec {
            name: "field-2.2MBps".into(),
            bandwidth_bps: 17.6e6,
            latency: SimTime::from_micros(0.0),
            per_message: SimTime::from_micros(0.0),
            efficiency: 1.0,
        };
        assert!((link.goodput_bytes_per_sec() - 2.2e6).abs() < 1.0);
        let frame = frame_noise(40_000); // 120 kB, incompressible
        let sender = EndpointSpeed::workstation();
        let receiver = EndpointSpeed::pda();

        // The old model, inlined: decode billed on frame.len() always.
        let old_pick = Codec::ALL
            .iter()
            .map(|&c| {
                let encoded = c.encode(&frame, None).len() as u64;
                let cpu = if c == Codec::Raw {
                    0.0
                } else {
                    frame.len() as f64 / sender.codec_bytes_per_sec
                        + frame.len() as f64 / receiver.codec_bytes_per_sec
                };
                (c, SimTime::from_secs(cpu) + link.transfer_time(encoded))
            })
            .min_by(|a, b| a.1.cmp(&b.1))
            .unwrap()
            .0;
        assert_eq!(old_pick, Codec::Raw, "old model overcharges Quant565 decode");

        let new_pick = select(&frame, None, &link, sender, receiver, true);
        assert_eq!(new_pick.codec, Codec::Quant565, "fixed model picks the cheap dequant");
        let raw = estimate(Codec::Raw, &frame, None, &link, sender, receiver);
        assert!(new_pick.total_time < raw.total_time);
    }

    #[test]
    fn selector_probes_once_then_estimates_from_ratios() {
        let link = LinkSpec::wireless_11mb(1.0);
        let frame = frame_flat(40_000);
        let mut sel = CodecSelector::new(0.3, 30);
        let first = sel.choose(
            &frame,
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        // Probe seeded a ratio for every lossless candidate.
        for c in [Codec::Raw, Codec::Rle, Codec::DeltaRle] {
            assert!(sel.ratio(c).is_some(), "{} unseeded", c.name());
        }
        let second = sel.choose(
            &frame,
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        // Flat frames crush under RLE; both paths must agree with the
        // exhaustive trial-encode selector.
        let exhaustive =
            select(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), false);
        assert_eq!(first.codec, exhaustive.codec);
        assert_eq!(second.codec, exhaustive.codec);
        assert_eq!(sel.frames_seen(), 2);
    }

    #[test]
    fn observe_feedback_steers_the_selector() {
        let link = LinkSpec::wireless_11mb(1.0);
        let frame = frame_noise(40_000);
        let mut sel = CodecSelector::new(1.0, 0); // alpha 1: trust newest
        sel.choose(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), false);
        // Real sends report DeltaRle crushing frames (a static scene with
        // dirty-strip skips): the selector must switch to it without any
        // re-probe.
        sel.observe(Codec::DeltaRle, 120_000, 600);
        let pick = sel.choose(
            &frame,
            None,
            &link,
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        assert_eq!(pick.codec, Codec::DeltaRle);
        let r = sel.ratio(Codec::DeltaRle).unwrap();
        assert!((r - 0.005).abs() < 1e-9, "alpha=1 adopts the measurement: {r}");
    }

    #[test]
    fn reprobe_cadence_recovers_from_stale_ratios() {
        let link = LinkSpec::wireless_11mb(1.0);
        let frame = frame_flat(40_000);
        let mut sel = CodecSelector::new(1.0, 2); // re-probe every 2nd frame
        sel.choose(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), false);
        // Poison a ratio as if the scene had been incompressible.
        sel.observe(Codec::Rle, 100, 1_000);
        assert!(sel.ratio(Codec::Rle).unwrap() > 1.0);
        // The next frame is off-cadence (estimates only); the one after
        // re-probes and the flat-frame ratio washes the stale value out.
        sel.choose(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), false);
        assert!(sel.ratio(Codec::Rle).unwrap() > 1.0, "off-cadence frame keeps the stale ratio");
        sel.choose(&frame, None, &link, EndpointSpeed::workstation(), EndpointSpeed::pda(), false);
        assert!(sel.ratio(Codec::Rle).unwrap() < 0.1);
    }
}
