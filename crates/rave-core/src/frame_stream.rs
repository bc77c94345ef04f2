//! Compressed frame transport between render services and clients.
//!
//! The §6 future-work item made real: instead of shipping raw 24 bpp
//! (the Table 2 baseline), a per-(render service, client) [`FrameChannel`]
//! runs every outgoing frame through `rave_compress::stream` — adaptive
//! codec selection ([`rave_compress::adaptive::CodecSelector`], EWMA
//! ratios + periodic re-probes), dirty-strip reuse against the previous
//! frame, and word-wide kernels — charging the *encoded* bytes to the
//! serializing channel and the real encode/decode passes to the endpoint
//! CPUs.
//!
//! The channel keeps two previous-frame buffers (see the
//! `rave_compress::stream` docs): `last_raw`, the raw pixels used for the
//! dirty-strip comparison, and `prev_view`, the receiver's decoded
//! reconstruction used as the delta base — distinct so lossy frames never
//! desynchronize the delta stream.
//!
//! Who owns which buffer. A frame's pixels live in its session's retained
//! `last_frame`; its wire bytes are laid out in the world's one staging
//! vector and its container in the world's one container vector (both in
//! [`FrameCache`], shared by every stream: a send is synchronous, so
//! convert → encode → decode are over before it returns); the channel's
//! two buffers live as long as the stream and are advanced in place —
//! `prev_view` is decoded into, `last_raw` takes the strips that were
//! dirty. After a stream's first frame a send allocates no frame-sized
//! buffer; a frame of another size replaces both.
//!
//! What the stream already holds. A channel records which render of its
//! sender's session `last_raw` is the bytes of (the session's
//! `FrameKey`): the pixels are a function of the key alone, so when the
//! session's frame is still that render — lent again, nothing redrawn —
//! every strip would compare equal. That send reads no pixel: it writes
//! the header with an all-clean bitmap, hands the selector the bytes the
//! stream holds, and skips the conversion, the compare, the decode and
//! the copy, while every byte, codec choice, counter, trace row and
//! virtual-time charge is what the full path would have produced. A key
//! with a NaN in it equals nothing, and bytes sent as [`Outgoing::Rgb`]
//! are a render of nothing, so both take the full path.

use crate::ids::{ClientId, RenderServiceId};
use crate::render_service::FrameKey;
use crate::trace::TraceEvent;
use crate::world::RaveWorld;
use rave_compress::adaptive::{self, CodecSelector, EndpointSpeed};
use rave_compress::{stream, Codec};
use rave_sim::SimTime;
use std::collections::BTreeMap;

/// Per-stream transport counters (the "per-client encoded-bytes/ratio
/// stats" the adaptive selector reports on).
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    pub frames: u64,
    /// Raw 24 bpp bytes the frames would have cost.
    pub logical_bytes: u64,
    /// Container bytes that actually crossed the wire.
    pub encoded_bytes: u64,
    pub codec_switches: u64,
    pub strips_total: u64,
    pub strips_skipped: u64,
    /// Frames sent as the render the stream already held: header only,
    /// no pixel read.
    pub resent: u64,
}

impl StreamStats {
    /// Achieved wire/logical ratio (1.0 before any frame).
    pub fn ratio(&self) -> f64 {
        if self.logical_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.logical_bytes as f64
        }
    }
}

/// Sender-side state of one compressed frame stream.
#[derive(Debug, Clone)]
pub struct FrameChannel {
    pub selector: CodecSelector,
    /// Raw pixels of the last frame shipped (dirty-strip compare base).
    last_raw: Option<Vec<u8>>,
    /// The render `last_raw` holds, when it was a session's.
    shipped: Option<FrameKey>,
    /// The receiver's reconstruction of the last frame (delta base).
    prev_view: Option<Vec<u8>>,
    last_codec: Option<Codec>,
    pub stats: StreamStats,
}

impl FrameChannel {
    pub fn new(alpha: f64, reprobe_every: u64) -> Self {
        Self {
            selector: CodecSelector::new(alpha, reprobe_every),
            last_raw: None,
            shipped: None,
            prev_view: None,
            last_codec: None,
            stats: StreamStats::default(),
        }
    }

    pub fn last_codec(&self) -> Option<Codec> {
        self.last_codec
    }
}

/// All live frame streams, keyed by (sending render service, client).
///
/// A stream lives as long as its render service: the failure teardown in
/// `sched::rebalance` calls [`evict_service`](Self::evict_service), and
/// nothing else bounds the map. A stream that is dropped loses its delta
/// base and restarts from a keyframe on its next frame — correct by
/// construction, just briefly more expensive.
#[derive(Debug, Clone, Default)]
pub struct FrameCache {
    channels: BTreeMap<(RenderServiceId, ClientId), FrameChannel>,
    /// The frame being sent, as wire-order RGB bytes.
    staging: Vec<u8>,
    /// The frame being sent, as its strip container.
    container: Vec<u8>,
}

impl FrameCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Detach a stream's state (re-[`insert`](Self::insert) it after the
    /// send — the take/put dance keeps `&mut RaveWorld` free for the
    /// channel send in between).
    pub fn take(&mut self, rs: RenderServiceId, client: ClientId) -> Option<FrameChannel> {
        self.channels.remove(&(rs, client))
    }

    pub fn insert(&mut self, rs: RenderServiceId, client: ClientId, ch: FrameChannel) {
        self.channels.insert((rs, client), ch);
    }

    pub fn get(&self, rs: RenderServiceId, client: ClientId) -> Option<&FrameChannel> {
        self.channels.get(&(rs, client))
    }

    /// Live stream count.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Transport counters for one stream, if it has ever sent.
    pub fn stats(&self, rs: RenderServiceId, client: ClientId) -> Option<StreamStats> {
        self.get(rs, client).map(|c| c.stats)
    }

    /// Drop a stream's state (e.g. the session closed or the viewport
    /// changed size — the next frame starts over with a keyframe probe).
    pub fn evict(&mut self, rs: RenderServiceId, client: ClientId) {
        self.channels.remove(&(rs, client));
    }

    /// Drop every stream `rs` sends: the service left the world, and each
    /// channel holds two frames of pixels nobody will diff against again.
    pub fn evict_service(&mut self, rs: RenderServiceId) {
        self.channels.retain(|&(sender, _), _| sender != rs);
    }
}

/// The frame a send ships.
#[derive(Debug, Clone, Copy)]
pub enum Outgoing<'a> {
    /// The sending service's frame for the stream's client: its session's
    /// `last_frame`, laid out as RGB only when the stream does not hold
    /// that render already. The session must hold a frame.
    Session,
    /// Wire-order RGB bytes that are no session's render (a synthesized
    /// frame): sent in full, and the stream forgets which render it held.
    Rgb(&'a [u8]),
}

/// What one compressed frame send cost and when it lands.
#[derive(Debug, Clone, Copy)]
pub struct FrameSendOutcome {
    /// When the encoded container reaches the receiver (wire only — add
    /// [`decode_secs`](Self::decode_secs) for when pixels are visible).
    pub arrival: SimTime,
    pub codec: Codec,
    pub encoded_bytes: u64,
    pub logical_bytes: u64,
    /// When the encoder CPU actually started on this frame (>= the
    /// frame's ready time when a previous frame was still encoding).
    pub encode_start: SimTime,
    /// Sender-side encode CPU time, already charged before the send.
    pub encode_secs: f64,
    /// When the frame's bits started flowing (after any wire backlog).
    pub wire_start: SimTime,
    /// Wire occupancy of the encoded container (tx time, no latency).
    pub wire_secs: f64,
    /// Receiver-side decode CPU time (the caller schedules display after
    /// it — the wire does not wait on it).
    pub decode_secs: f64,
    pub strips: u32,
    pub strips_skipped: u32,
    pub switched: bool,
}

/// Ship one frame from `rs` (on host `from`) to `client` (on host `to`)
/// through the adaptive compressed stream: pick a codec, encode into the
/// dirty-strip container, charge encode CPU + encoded wire bytes to the
/// sim, and report the decode CPU the receiver will spend.
///
/// The encode starts at `now`; use [`send_frame_after`] when a separate
/// encoder timeline gates the start.
#[allow(clippy::too_many_arguments)]
pub fn send_frame(
    world: &mut RaveWorld,
    now: SimTime,
    rs: RenderServiceId,
    client: ClientId,
    from: &str,
    to: &str,
    frame: Outgoing<'_>,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
    allow_lossy: bool,
) -> FrameSendOutcome {
    send_frame_after(world, now, now, rs, client, from, to, frame, sender, receiver, allow_lossy)
}

/// [`send_frame`] for a pipelined stream: the frame's pixels are `ready`
/// (rendered) but the encoder CPU may still be busy with an earlier
/// in-flight frame until `encoder_free` — the encode starts at
/// `max(ready, encoder_free)`. The delta base handed to the codec is the
/// channel's double buffer (`last_raw`/`prev_view`): the *previous*
/// frame's pixels and reconstruction, which are valid even while that
/// frame is still on the wire or undecoded at the client, because both
/// sides advance their view strictly in frame order.
#[allow(clippy::too_many_arguments)]
pub fn send_frame_after(
    world: &mut RaveWorld,
    ready: SimTime,
    encoder_free: SimTime,
    rs: RenderServiceId,
    client: ClientId,
    from: &str,
    to: &str,
    frame: Outgoing<'_>,
    sender: EndpointSpeed,
    receiver: EndpointSpeed,
    allow_lossy: bool,
) -> FrameSendOutcome {
    let link = world.network.link_between(from, to).clone();
    let mut ch = world.frame_cache.take(rs, client).unwrap_or_else(|| {
        FrameChannel::new(world.config.codec_ewma_alpha, world.config.codec_reprobe_every)
    });

    // The frame's bytes: the stream's own `last_raw` when the session's
    // frame is the render it holds (`held`), else laid out in staging.
    let mut staging = std::mem::take(&mut world.frame_cache.staging);
    let (mut held, mut key) = (None, None);
    if let Outgoing::Session = frame {
        let session = world.render(rs).sessions.get(&client).expect("the sender's session");
        match session.rendered_key() {
            Some(k) if ch.shipped.as_ref() == Some(k) => held = ch.last_raw.take(),
            k => {
                let fb = session.last_frame.as_ref().expect("the session holds a frame");
                fb.rgb_bytes_into(&mut staging);
                key = k.cloned();
            }
        }
    }
    let cur: &[u8] = match (frame, &held) {
        (_, Some(raw)) => raw,
        (Outgoing::Rgb(rgb), None) => rgb,
        (Outgoing::Session, None) => &staging,
    };
    let frame_len = cur.len();

    let est =
        ch.selector.choose(cur, ch.prev_view.as_deref(), &link, sender, receiver, allow_lossy);
    let codec = est.codec;
    let strips = stream::strip_count_for(frame_len, world.config.frame_strip_bytes);
    let mut container = std::mem::take(&mut world.frame_cache.container);
    let meta = match held {
        // Every strip compares equal: the receiver holds the frame.
        Some(_) => stream::encode_clean_frame_into(codec, frame_len, strips, &mut container),
        None => stream::encode_frame_into(
            codec,
            cur,
            ch.last_raw.as_deref(),
            ch.prev_view.as_deref(),
            strips,
            &mut container,
        ),
    };
    let encoded_bytes = container.len() as u64;

    // Sender CPU, then the wire (encoded bytes only), receiver CPU after.
    let encode_start = ready.max(encoder_free);
    let encode_secs =
        adaptive::encode_cost_bytes(codec, frame_len) as f64 / sender.codec_bytes_per_sec;
    let t_sent = encode_start + SimTime::from_secs(encode_secs);
    let wire_secs = link.tx_time(encoded_bytes).as_secs();
    let wire_start = t_sent.max(world.channel(from, to).busy_until());
    let arrival = world.send_encoded_bytes(t_sent, from, to, encoded_bytes, frame_len as u64);
    let decode_secs = adaptive::decode_cost_bytes(codec, frame_len, container.len()) as f64
        / receiver.codec_bytes_per_sec;

    // Advance the stream: the receiver's view is what the container
    // decodes to (exact for lossless codecs, quantized for lossy ones),
    // and only the strips that were dirty differ from the last raw frame.
    // A resent frame changes neither.
    let resent = held.is_some();
    match held {
        Some(raw) => ch.last_raw = Some(raw),
        None => {
            stream::decode_frame_in_place(&container, ch.prev_view.get_or_insert_with(Vec::new))
                .expect("self-encoded container must decode");
            stream::copy_dirty_strips(&container, cur, ch.last_raw.get_or_insert_with(Vec::new));
            ch.shipped = key;
        }
    }
    world.frame_cache.container = container;
    world.frame_cache.staging = staging;
    let switched = ch.last_codec.is_some_and(|prev| prev != codec);
    if let (true, Some(from)) = (switched, ch.last_codec) {
        let (to, frame_bytes) = (codec, frame_len as u64);
        let row = TraceEvent::CodecSwitch { rs, client, from, to, encoded_bytes, frame_bytes };
        world.trace.record(encode_start, row);
    }
    ch.selector.observe(codec, frame_len as u64, encoded_bytes);
    ch.stats.frames += 1;
    ch.stats.logical_bytes += frame_len as u64;
    ch.stats.encoded_bytes += encoded_bytes;
    ch.stats.codec_switches += u64::from(switched);
    ch.stats.strips_total += u64::from(meta.strips);
    ch.stats.strips_skipped += u64::from(meta.skipped);
    ch.stats.resent += u64::from(resent);
    ch.last_codec = Some(codec);
    world.frame_cache.insert(rs, client, ch);

    FrameSendOutcome {
        arrival,
        codec,
        encoded_bytes,
        logical_bytes: frame_len as u64,
        encode_start,
        encode_secs,
        wire_start,
        wire_secs,
        decode_secs,
        strips: meta.strips,
        strips_skipped: meta.skipped,
        switched,
    }
}

/// A deterministic render-like RGB frame for timing runs where the world
/// skips rasterization (`produce_images: false`): a flat background (the
/// bulk of a real rendered frame) with a seq-animated gradient block, so
/// consecutive frames differ exactly where a moving model would.
pub fn synthesize_frame(width: u32, height: u32, seq: u64) -> Vec<u8> {
    let (w, h) = (width as usize, height as usize);
    let mut out = vec![32u8; w * h * 3];
    if w == 0 || h == 0 {
        return out;
    }
    let bw = (w / 3).max(1);
    let bh = (h / 3).max(1);
    let x0 = (seq as usize * 7) % (w - bw + 1);
    let y0 = (seq as usize * 5) % (h - bh + 1);
    for y in y0..y0 + bh {
        for x in x0..x0 + bw {
            let i = (y * w + x) * 3;
            out[i] = (x * 255 / w) as u8;
            out[i + 1] = (y * 255 / h) as u8;
            out[i + 2] = ((x + y + seq as usize) % 256) as u8;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RaveConfig;
    use crate::trace::TraceKind;
    use crate::world::RaveWorld;
    use rave_compress::stream::StripMeta;
    use rave_net::Network;
    use rave_scene::CameraParams;
    use std::collections::BTreeSet;

    fn world() -> RaveWorld {
        RaveWorld::new(Network::paper_testbed(1.0), RaveConfig::default(), 9)
    }

    fn pda_stream_hosts() -> (&'static str, &'static str) {
        ("laptop", "zaurus")
    }

    #[test]
    fn static_scene_collapses_to_header_frames() {
        let mut w = world();
        let (from, to) = pda_stream_hosts();
        let rs = RenderServiceId(1);
        let cl = ClientId(1);
        let frame = synthesize_frame(200, 200, 0);
        let mut t = SimTime::ZERO;
        let first = send_frame(
            &mut w,
            t,
            rs,
            cl,
            from,
            to,
            Outgoing::Rgb(&frame),
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            true,
        );
        assert!(first.encoded_bytes > 0);
        t = first.arrival;
        // Same frame again: every strip clean, near-zero wire bytes.
        let second = send_frame(
            &mut w,
            t,
            rs,
            cl,
            from,
            to,
            Outgoing::Rgb(&frame),
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            true,
        );
        assert_eq!(second.strips_skipped, second.strips);
        assert!(second.encoded_bytes < 64, "static frame bytes: {}", second.encoded_bytes);
        let stats = w.frame_cache.stats(rs, cl).unwrap();
        assert_eq!(stats.frames, 2);
        assert!(stats.ratio() < 1.0);
    }

    #[test]
    fn moving_scene_stays_decodable_and_cheaper_than_raw() {
        let mut w = world();
        let (from, to) = pda_stream_hosts();
        let rs = RenderServiceId(1);
        let cl = ClientId(1);
        let mut t = SimTime::ZERO;
        let mut total_encoded = 0u64;
        let mut total_logical = 0u64;
        for seq in 0..20 {
            let frame = synthesize_frame(200, 200, seq);
            let out = send_frame(
                &mut w,
                t,
                rs,
                cl,
                from,
                to,
                Outgoing::Rgb(&frame),
                EndpointSpeed::workstation(),
                EndpointSpeed::pda(),
                false, // lossless: the receiver view must equal the frame
            );
            t = out.arrival;
            total_encoded += out.encoded_bytes;
            total_logical += out.logical_bytes;
            let ch = w.frame_cache.get(rs, cl).unwrap();
            assert_eq!(ch.prev_view.as_deref(), Some(frame.as_slice()));
        }
        assert!(
            total_encoded * 4 < total_logical,
            "synthetic stream compresses >4x: {total_encoded}/{total_logical}"
        );
        // Channel accounting matches stream accounting.
        let chan = w.channel(from, to);
        assert_eq!(chan.bytes_sent(), total_encoded);
        assert_eq!(chan.logical_bytes_sent(), total_logical);
        assert!(chan.compression_ratio() < 0.25);
    }

    #[test]
    fn codec_switch_is_traced() {
        let mut w = world();
        let (from, to) = pda_stream_hosts();
        let rs = RenderServiceId(1);
        let cl = ClientId(1);
        // Frame 1: flat (RLE heaven). Then incompressible noise frames —
        // with lossy allowed the selector moves off the first pick.
        let flat = vec![40u8; 200 * 200 * 3];
        let noise: Vec<u8> =
            (0..200 * 200 * 3).map(|i| ((i as u64).wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut t = SimTime::ZERO;
        for (i, f) in [&flat, &noise, &noise, &noise, &noise].into_iter().enumerate() {
            let out = send_frame(
                &mut w,
                t,
                rs,
                cl,
                from,
                to,
                Outgoing::Rgb(f),
                EndpointSpeed::workstation(),
                EndpointSpeed::pda(),
                true,
            );
            t = out.arrival;
            let _ = i;
        }
        let stats = w.frame_cache.stats(rs, cl).unwrap();
        assert!(stats.codec_switches > 0, "content change forces a codec switch");
        assert_eq!(w.trace.count(TraceKind::CodecSwitch), stats.codec_switches as usize);
    }

    #[test]
    fn eviction_restarts_with_a_keyframe() {
        let mut w = world();
        let (from, to) = pda_stream_hosts();
        let rs = RenderServiceId(1);
        let cl = ClientId(1);
        let frame = synthesize_frame(64, 64, 0);
        send_frame(
            &mut w,
            SimTime::ZERO,
            rs,
            cl,
            from,
            to,
            Outgoing::Rgb(&frame),
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        w.frame_cache.evict(rs, cl);
        // Same frame after eviction: no prev state, so nothing skipped.
        let out = send_frame(
            &mut w,
            SimTime::from_secs(1.0),
            rs,
            cl,
            from,
            to,
            Outgoing::Rgb(&frame),
            EndpointSpeed::workstation(),
            EndpointSpeed::pda(),
            false,
        );
        assert_eq!(out.strips_skipped, 0);
        assert_eq!(w.frame_cache.stats(rs, cl).unwrap().frames, 1);
    }

    /// A frame channel built from the public allocating functions alone:
    /// a fresh container, a fresh view and a fresh copy of the raw frame
    /// every send. What [`send_frame`] keeps in place must come to this.
    struct ReferenceChannel {
        selector: CodecSelector,
        last_raw: Option<Vec<u8>>,
        prev_view: Option<Vec<u8>>,
    }

    impl ReferenceChannel {
        fn new(w: &RaveWorld) -> Self {
            Self {
                selector: CodecSelector::new(
                    w.config.codec_ewma_alpha,
                    w.config.codec_reprobe_every,
                ),
                last_raw: None,
                prev_view: None,
            }
        }

        /// The container and strip accounting of one send.
        fn send(&mut self, w: &RaveWorld, rgb: &[u8], allow_lossy: bool) -> (Vec<u8>, StripMeta) {
            let (from, to) = pda_stream_hosts();
            let link = w.network.link_between(from, to);
            let (sender, receiver) = (EndpointSpeed::workstation(), EndpointSpeed::pda());
            let prev_view = self.prev_view.as_deref();
            let codec =
                self.selector.choose(rgb, prev_view, link, sender, receiver, allow_lossy).codec;
            let strips = stream::strip_count_for(rgb.len(), w.config.frame_strip_bytes);
            let (container, meta) = stream::encode_frame_with_meta(
                codec,
                rgb,
                self.last_raw.as_deref(),
                prev_view,
                strips,
            );
            let view = stream::decode_frame(&container, prev_view).expect("own container");
            self.selector.observe(codec, rgb.len() as u64, container.len() as u64);
            self.prev_view = Some(view);
            self.last_raw = Some(rgb.to_vec());
            (container, meta)
        }
    }

    #[test]
    fn retained_buffers_stream_what_a_fresh_allocation_per_frame_would() {
        let mut w = world();
        let (from, to) = pda_stream_hosts();
        let (rs, cl) = (RenderServiceId(1), ClientId(1));
        let mut reference = ReferenceChannel::new(&w);
        let noise = |w: u32, h: u32, seed: u64| -> Vec<u8> {
            (0..(w * h * 3) as u64)
                .map(|i| ((i + seed).wrapping_mul(2654435761) >> 13) as u8)
                .collect()
        };
        // Forty frames: incompressible (the probe quantises), moving and
        // static, a smaller viewport and back, flat; then much the same
        // again with lossy codecs refused.
        let incompressible: Vec<_> = [0, 0, 1, 2].map(|seed| noise(200, 200, seed)).into();
        let moving: Vec<_> = [0, 1, 2, 2, 2, 3].map(|seq| synthesize_frame(200, 200, seq)).into();
        let flat = vec![40u8; 200 * 200 * 3];
        let rest: Vec<_> = [4, 5, 5]
            .map(|seq| synthesize_frame(160, 120, seq))
            .into_iter()
            .chain([6, 6, 7].map(|seq| synthesize_frame(200, 200, seq)))
            .chain([flat.clone(), noise(200, 200, 3), flat.clone(), flat])
            .collect();
        // Frame 30 is a re-probe: noise that differs from the last frame in
        // one patch is what the delta codec is for.
        let patched: Vec<_> = [1, 2]
            .map(|k| {
                let mut f = incompressible[3].clone();
                f[1_000 * k..1_000 * k + 300].iter_mut().for_each(|b| *b ^= 0xFF);
                f
            })
            .into();
        let frames =
            [&incompressible[..], &moving, &rest, &moving, &incompressible, &patched, &rest[..8]]
                .concat();
        assert_eq!(frames.len(), 40);

        let mut t = SimTime::ZERO;
        let mut codecs_seen = BTreeSet::new();
        for (i, frame) in frames.iter().enumerate() {
            let allow_lossy = i < 20;
            let out = send_frame(
                &mut w,
                t,
                rs,
                cl,
                from,
                to,
                Outgoing::Rgb(frame),
                EndpointSpeed::workstation(),
                EndpointSpeed::pda(),
                allow_lossy,
            );
            t = out.arrival;
            let (container, meta) = reference.send(&w, frame, allow_lossy);
            let codec = meta.codec;
            assert_eq!(w.frame_cache.container, container, "frame {i}: container");
            assert_eq!(out.encoded_bytes, container.len() as u64, "frame {i}: container length");
            assert_eq!(out.strips_skipped, meta.skipped, "frame {i}: clean strips");
            let ch = w.frame_cache.get(rs, cl).unwrap();
            assert_eq!(ch.last_codec(), Some(codec), "frame {i}: codec");
            assert_eq!(ch.prev_view, reference.prev_view, "frame {i}: receiver view");
            assert_eq!(ch.last_raw, reference.last_raw, "frame {i}: compare base");
            assert!(allow_lossy || !codec.is_lossy(), "frame {i}: lossy codec refused");
            codecs_seen.insert(codec.id());
        }
        let expected = [Codec::Raw, Codec::DeltaRle, Codec::Quant565].map(Codec::id);
        assert_eq!(codecs_seen, BTreeSet::from(expected), "quantised, then banned, then delta");
        let stats = w.frame_cache.stats(rs, cl).unwrap();
        assert_eq!(stats.frames, 40);
        assert_eq!(stats.codec_switches, 2, "the lossy ban, then the re-probe");
        assert!(stats.strips_skipped > 0, "static frames skipped strips");
    }

    /// What happens to a session-sourced stream between two sends.
    enum Step {
        /// Render the session's frame (drawn or lent) and send it; whether
        /// the stream already holds that render.
        Send {
            resent: bool,
        },
        Orbit,
        Evict,
        Resize(u32, u32),
        /// Close the session and open it again with this camera.
        Reopen(CameraParams),
        NanCamera,
        /// Send synthesized bytes from the same stream.
        Raw(u64),
    }

    #[test]
    fn a_session_send_streams_what_its_rgb_bytes_would() {
        use rave_math::{Vec3, Viewport};
        use rave_render::OffscreenMode;
        use rave_scene::{MeshData, NodeKind};
        use std::sync::Arc;

        let mut w = world();
        let (from, to) = pda_stream_hosts();
        let rs = w.spawn_render_service(from);
        let cl = ClientId(1);
        let scene = &mut w.render_mut(rs).scene;
        let root = scene.root();
        for (i, at) in
            [Vec3::new(-1.5, -1.0, 0.0), Vec3::new(0.2, -0.3, 0.5)].into_iter().enumerate()
        {
            let mut mesh = MeshData::new(
                vec![at, at + Vec3::new(1.6, 0.0, 0.0), at + Vec3::new(0.0, 1.4, 0.3)],
                vec![[0, 1, 2]],
            );
            mesh.colors = vec![Vec3::new(0.3 + 0.5 * i as f32, 0.6, 0.2); 3];
            scene.add_node(root, "tri", NodeKind::Mesh(Arc::new(mesh))).unwrap();
        }
        let camera = CameraParams::look_at(Vec3::new(0.3, 0.2, 5.0), Vec3::ZERO, Vec3::Y);
        let mut other = camera;
        other.orbit(Vec3::ZERO, 0.4, 0.1);
        let viewport = Viewport::new(96, 64);
        w.render_mut(rs).open_session(cl, viewport, camera, OffscreenMode::Sequential);

        // Thirty-two frames, the camera moving before every fourth from the
        // second on: frame 30, a re-probe of the selector, is lent.
        let mut steps: Vec<Step> = (0..32)
            .flat_map(|i| {
                let orbit = (i % 4 == 1).then_some(Step::Orbit);
                orbit.into_iter().chain([Step::Send { resent: i != 0 && i % 4 != 1 }])
            })
            .collect();
        let send = |resent| Step::Send { resent };
        steps.extend([
            Step::Raw(1),
            send(false), // the raw frame cleared the record
            send(true),
            Step::Evict,
            send(false),
            send(true),
            Step::Resize(80, 60),
            send(false),
            send(true),
            Step::Reopen(other),
            send(false),
            send(true),
            Step::Reopen(other), // counts from zero again, draws the same render
            send(true),
            Step::NanCamera,
            send(false),
            send(false), // a NaN equals nothing
            Step::Reopen(camera),
            send(false),
            send(true),
        ]);

        let mut reference = ReferenceChannel::new(&w);
        let (mut t, mut resent, mut sends_since_evict) = (SimTime::ZERO, 0, 0);
        let mut probed_lend = false;
        for (i, step) in steps.iter().enumerate() {
            let (from_session, expect_resent, rgb) = match step {
                Step::Send { resent } => {
                    let fb = w.render_mut(rs).rasterize(cl).expect("session");
                    (true, *resent, fb.to_rgb_bytes())
                }
                Step::Raw(seq) => {
                    (false, false, synthesize_frame(viewport.width, viewport.height, *seq))
                }
                Step::Orbit => {
                    let session = w.render_mut(rs).sessions.get_mut(&cl).unwrap();
                    session.camera.orbit(Vec3::ZERO, 0.15, 0.0);
                    continue;
                }
                Step::Evict => {
                    w.frame_cache.evict(rs, cl);
                    (reference, resent, sends_since_evict) = (ReferenceChannel::new(&w), 0, 0);
                    continue;
                }
                Step::Resize(width, height) => {
                    let session = w.render_mut(rs).sessions.get_mut(&cl).unwrap();
                    session.viewport = Viewport::new(*width, *height);
                    continue;
                }
                Step::Reopen(camera) => {
                    let service = w.render_mut(rs);
                    let vp = service.sessions[&cl].viewport;
                    service.close_session(cl);
                    service.open_session(cl, vp, *camera, OffscreenMode::Sequential);
                    continue;
                }
                Step::NanCamera => {
                    let session = w.render_mut(rs).sessions.get_mut(&cl).unwrap();
                    session.camera.position.x = f32::NAN;
                    continue;
                }
            };
            let frame = if from_session { Outgoing::Session } else { Outgoing::Rgb(&rgb) };
            let (sender, receiver) = (EndpointSpeed::workstation(), EndpointSpeed::pda());
            let out = send_frame(&mut w, t, rs, cl, from, to, frame, sender, receiver, true);
            t = out.arrival;
            let (container, meta) = reference.send(&w, &rgb, true);
            assert_eq!(w.frame_cache.container, container, "step {i}: container bytes");
            assert_eq!(
                (out.codec, out.strips, out.strips_skipped),
                (meta.codec, meta.strips, meta.skipped)
            );
            let ch = w.frame_cache.get(rs, cl).unwrap();
            assert_eq!(ch.prev_view, reference.prev_view, "step {i}: receiver view");
            assert_eq!(ch.last_raw, reference.last_raw, "step {i}: compare base");
            resent += u64::from(expect_resent);
            assert_eq!(ch.stats.resent, resent, "step {i}: resent");
            let probe = sends_since_evict % w.config.codec_reprobe_every == 0;
            probed_lend |= probe && expect_resent;
            sends_since_evict += 1;
        }
        assert!(probed_lend, "a selector probe landed on a lent frame");
    }

    #[test]
    fn synthesized_frames_animate_deterministically() {
        let a = synthesize_frame(64, 48, 3);
        let b = synthesize_frame(64, 48, 3);
        let c = synthesize_frame(64, 48, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64 * 48 * 3);
    }
}
