//! The transport-agnostic framing protocol of the broadcast fabric.
//!
//! Everything a [`crate::plane::BroadcastPlane`] backend needs that is *not*
//! tied to a particular transport lives here, unit-testable without spawning a
//! single thread:
//!
//! * [`Frame`] — what travels between servers (a wire-encoded broadcast
//!   message, an end-of-superstep marker, or an abort),
//! * the **length-prefixed wire codec** ([`Frame::encode`] /
//!   [`Frame::decode`], plus the incremental [`FrameDecoder`] for
//!   non-blocking transports) used whenever frames cross a byte stream — the
//!   TCP [`crate::poll::PollPlane`]; in-process backends ship the `Frame`
//!   values directly,
//! * [`SuperstepCollector`] — the BSP inbox discipline shared by every
//!   backend: frames for a future superstep are stashed, frames from a past
//!   superstep are protocol violations, aborts surface as errors, and a
//!   superstep is complete once every peer's end-of-superstep marker arrived.
//!
//! ## Wire format
//!
//! ```text
//! u32 LE body length | u8 tag | u32 LE sender | tag-specific fields
//!   tag 1 Message        : u32 LE superstep, payload bytes (rest of body)
//!   tag 2 EndOfSuperstep : u32 LE superstep
//!   tag 3 Abort          : (nothing)
//!   tag 4 Ack            : u32 LE superstep   (resilient mode only)
//!   tag 5 Goodbye        : (nothing)          (resilient mode only)
//!   tag 6 Membership     : GHHM message bytes (resilient mode only)
//! ```
//!
//! The length prefix covers the body only. Decoders reject unknown tags,
//! bodies of the wrong size for their tag, and bodies larger than
//! [`MAX_FRAME_BODY`] (a corrupt or hostile length must not trigger a
//! gigantic allocation before the first payload byte is read).
//!
//! The byte-level layout, handshake and inbox discipline are specified
//! normatively in `docs/WIRE.md`; this module is the reference
//! implementation.

use graphh_graph::ids::ServerId;
use std::sync::Arc;

/// A wire-encoded broadcast message as produced by
/// [`graphh_cluster::MessageCodec::encode`]. Reference-counted so one
/// broadcast allocates the payload once no matter how many peers receive it.
pub type WireMessage = Arc<[u8]>;

/// Upper bound on an encoded frame body. Generous (a broadcast message for
/// 2^28 dense f64 updates), but finite: the length prefix is attacker-
/// controlled bytes on a socket transport.
pub const MAX_FRAME_BODY: usize = 256 * 1024 * 1024;

/// Largest message payload one frame can carry: the body cap minus the
/// tag/sender/superstep header. Senders must enforce this —
/// [`encode_message_into`] does — because an oversized body would be
/// rejected by every receiver and a length wrapping past `u32::MAX` would
/// desynchronize the peer's whole stream.
pub const MAX_MESSAGE_PAYLOAD: usize = MAX_FRAME_BODY - 9;

const TAG_MESSAGE: u8 = 1;
const TAG_END_OF_SUPERSTEP: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_ACK: u8 = 4;
const TAG_GOODBYE: u8 = 5;
const TAG_MEMBERSHIP: u8 = 6;

/// What travels between servers on the broadcast fabric.
#[derive(Debug, Clone)]
pub enum Frame {
    /// One encoded broadcast message.
    Message {
        /// Sending server.
        sender: ServerId,
        /// Superstep the message belongs to.
        superstep: u32,
        /// Encoded (and possibly compressed) payload.
        wire: WireMessage,
    },
    /// `sender` has published everything for `superstep`.
    EndOfSuperstep {
        /// Sending server.
        sender: ServerId,
        /// The finished superstep.
        superstep: u32,
    },
    /// `sender` hit a fatal error; receivers should abort the run.
    Abort {
        /// Sending server.
        sender: ServerId,
    },
    /// `sender` durably holds its state through `superstep` — peers may
    /// discard retained frames up to and including it. Only the resilient
    /// transports emit (and intercept) acks; an ack must never reach a
    /// [`SuperstepCollector`].
    Ack {
        /// Acknowledging server.
        sender: ServerId,
        /// Last superstep the sender durably applied.
        superstep: u32,
    },
    /// `sender` finished the run and is closing its connections *on
    /// purpose*: the EOF that follows is a clean exit, not a cut. Receivers
    /// must not arm recovery for (or linger on behalf of) a peer that said
    /// goodbye — it needs nothing ever again. Only the resilient transports
    /// emit (and intercept) goodbyes; one must never reach a
    /// [`SuperstepCollector`].
    Goodbye {
        /// Departing server.
        sender: ServerId,
    },
    /// An address-book gossip delta (an encoded `GHHM` message, opaque at
    /// this layer — [`crate::membership::MembershipMsg`] is the codec).
    /// Only the resilient transports emit (and intercept) membership
    /// frames; one must never reach a [`SuperstepCollector`].
    Membership {
        /// Gossiping server.
        sender: ServerId,
        /// The encoded membership message.
        payload: WireMessage,
    },
}

impl Frame {
    /// The server that produced this frame.
    pub fn sender(&self) -> ServerId {
        match *self {
            Frame::Message { sender, .. }
            | Frame::EndOfSuperstep { sender, .. }
            | Frame::Abort { sender }
            | Frame::Ack { sender, .. }
            | Frame::Goodbye { sender }
            | Frame::Membership { sender, .. } => sender,
        }
    }

    /// The superstep a frame belongs to, for the variants that have one.
    pub fn frame_superstep(&self) -> Option<u32> {
        match *self {
            Frame::Message { superstep, .. }
            | Frame::EndOfSuperstep { superstep, .. }
            | Frame::Ack { superstep, .. } => Some(superstep),
            Frame::Abort { .. } | Frame::Goodbye { .. } | Frame::Membership { .. } => None,
        }
    }

    /// Append the length-prefixed encoding of this frame to `out`.
    ///
    /// Message payloads must fit [`MAX_MESSAGE_PAYLOAD`] (transports encoding
    /// caller-supplied payloads use the checked [`encode_message_into`]).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let body_len_at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        match self {
            Frame::Message {
                sender,
                superstep,
                wire,
            } => {
                debug_assert!(wire.len() <= MAX_MESSAGE_PAYLOAD);
                out.push(TAG_MESSAGE);
                out.extend_from_slice(&sender.to_le_bytes());
                out.extend_from_slice(&superstep.to_le_bytes());
                out.extend_from_slice(wire);
            }
            Frame::EndOfSuperstep { sender, superstep } => {
                out.push(TAG_END_OF_SUPERSTEP);
                out.extend_from_slice(&sender.to_le_bytes());
                out.extend_from_slice(&superstep.to_le_bytes());
            }
            Frame::Abort { sender } => {
                out.push(TAG_ABORT);
                out.extend_from_slice(&sender.to_le_bytes());
            }
            Frame::Ack { sender, superstep } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&sender.to_le_bytes());
                out.extend_from_slice(&superstep.to_le_bytes());
            }
            Frame::Goodbye { sender } => {
                out.push(TAG_GOODBYE);
                out.extend_from_slice(&sender.to_le_bytes());
            }
            Frame::Membership { sender, payload } => {
                debug_assert!(payload.len() <= MAX_MESSAGE_PAYLOAD);
                out.push(TAG_MEMBERSHIP);
                out.extend_from_slice(&sender.to_le_bytes());
                out.extend_from_slice(payload);
            }
        }
        let body_len = (out.len() - body_len_at - 4) as u32;
        out[body_len_at..body_len_at + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// Decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(Some((frame, consumed)))` on success, `Ok(None)` when `buf`
    /// holds only a prefix of a frame (more bytes needed), and an error when
    /// the bytes can never become a valid frame.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, FrameError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if body_len > MAX_FRAME_BODY {
            return Err(FrameError::Corrupt(format!(
                "frame body of {body_len} bytes exceeds the {MAX_FRAME_BODY}-byte cap"
            )));
        }
        if body_len < 5 {
            return Err(FrameError::Corrupt(format!(
                "frame body of {body_len} bytes cannot hold a tag and a sender"
            )));
        }
        if buf.len() < 4 + body_len {
            return Ok(None);
        }
        let body = &buf[4..4 + body_len];
        let frame = Self::decode_body(body)?;
        Ok(Some((frame, 4 + body_len)))
    }

    fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let tag = body[0];
        let sender = ServerId::from_le_bytes([body[1], body[2], body[3], body[4]]);
        let rest = &body[5..];
        match tag {
            TAG_MESSAGE => {
                if rest.len() < 4 {
                    return Err(FrameError::Corrupt(
                        "message frame truncated before its superstep".into(),
                    ));
                }
                let superstep = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
                Ok(Frame::Message {
                    sender,
                    superstep,
                    wire: rest[4..].into(),
                })
            }
            TAG_END_OF_SUPERSTEP => {
                if rest.len() != 4 {
                    return Err(FrameError::Corrupt(format!(
                        "end-of-superstep frame must have a 9-byte body, got {}",
                        body.len()
                    )));
                }
                let superstep = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
                Ok(Frame::EndOfSuperstep { sender, superstep })
            }
            TAG_ABORT => {
                if !rest.is_empty() {
                    return Err(FrameError::Corrupt(format!(
                        "abort frame must have a 5-byte body, got {}",
                        body.len()
                    )));
                }
                Ok(Frame::Abort { sender })
            }
            TAG_ACK => {
                if rest.len() != 4 {
                    return Err(FrameError::Corrupt(format!(
                        "ack frame must have a 9-byte body, got {}",
                        body.len()
                    )));
                }
                let superstep = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
                Ok(Frame::Ack { sender, superstep })
            }
            TAG_GOODBYE => {
                if !rest.is_empty() {
                    return Err(FrameError::Corrupt(format!(
                        "goodbye frame must have a 5-byte body, got {}",
                        body.len()
                    )));
                }
                Ok(Frame::Goodbye { sender })
            }
            TAG_MEMBERSHIP => {
                if rest.is_empty() {
                    return Err(FrameError::Corrupt(
                        "membership frame with an empty payload".into(),
                    ));
                }
                Ok(Frame::Membership {
                    sender,
                    payload: rest.into(),
                })
            }
            other => Err(FrameError::Corrupt(format!("unknown frame tag {other}"))),
        }
    }
}

/// Incremental decoder for transports that receive bytes in arbitrary pieces.
///
/// A non-blocking transport (the event-driven [`crate::poll::PollPlane`])
/// cannot block until a whole frame arrived: a readiness loop hands it
/// whatever the socket had — half a length prefix, three frames and a torn
/// fourth — and must carry the remainder across loop iterations.
/// `FrameDecoder` is that carry: [`push`](Self::push) appends received bytes, and
/// [`next_frame`](Self::next_frame) yields complete frames until only a
/// partial one (or nothing) is left.
///
/// The decoder enforces the same validity rules as [`Frame::decode`] (it is
/// built on it): corrupt bytes surface as [`FrameError::Corrupt`] and a
/// hostile length prefix is rejected before any allocation.
///
/// ```
/// use graphh_runtime::frame::{Frame, FrameDecoder};
///
/// let mut bytes = Vec::new();
/// Frame::EndOfSuperstep { sender: 1, superstep: 0 }.encode(&mut bytes);
///
/// // Feed the encoding one byte at a time: no frame until the last byte.
/// let mut decoder = FrameDecoder::new();
/// for &b in &bytes[..bytes.len() - 1] {
///     decoder.push(&[b]);
///     assert!(decoder.next_frame().unwrap().is_none());
/// }
/// decoder.push(&bytes[bytes.len() - 1..]);
/// assert!(matches!(
///     decoder.next_frame().unwrap(),
///     Some(Frame::EndOfSuperstep { sender: 1, superstep: 0 })
/// ));
/// assert!(decoder.is_clean());
/// ```
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Received-but-undecoded bytes; everything before `start` was consumed.
    buf: Vec<u8>,
    start: usize,
}

/// Consumed prefix length past which [`FrameDecoder::push`] compacts its
/// buffer instead of letting it grow unboundedly.
const DECODER_COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= DECODER_COMPACT_THRESHOLD {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame from the buffered bytes.
    ///
    /// Returns `Ok(None)` when the buffer holds no frame or only a torn one
    /// (push more bytes and try again); an `Err` means the stream can never
    /// recover (a length-prefix desync has no resynchronization point).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        match Frame::decode(&self.buf[self.start..])? {
            Some((frame, consumed)) => {
                self.start += consumed;
                Ok(Some(frame))
            }
            None => Ok(None),
        }
    }

    /// True when no partially received frame is buffered — i.e. the stream
    /// could end here cleanly. A peer's EOF while `!is_clean()` means the
    /// stream died mid-frame (corruption, not a clean close).
    pub fn is_clean(&self) -> bool {
        self.start == self.buf.len()
    }
}

/// Append a length-prefixed `Message` frame to `out`, built directly from
/// the payload slice — byte-identical to encoding the equivalent
/// [`Frame::Message`], without allocating the intermediate [`WireMessage`]
/// (the TCP broadcast hot path only needs the bytes, not the frame value).
/// Fails when the payload exceeds [`MAX_MESSAGE_PAYLOAD`]: the sender must
/// error loudly rather than emit a frame every receiver rejects (or, past
/// `u32::MAX`, a wrapped length prefix that desynchronizes the stream).
pub fn encode_message_into(
    sender: ServerId,
    superstep: u32,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    if payload.len() > MAX_MESSAGE_PAYLOAD {
        return Err(FrameError::Corrupt(format!(
            "broadcast payload of {} bytes exceeds the {MAX_MESSAGE_PAYLOAD}-byte frame cap",
            payload.len()
        )));
    }
    out.extend_from_slice(&((payload.len() + 9) as u32).to_le_bytes());
    out.push(TAG_MESSAGE);
    out.extend_from_slice(&sender.to_le_bytes());
    out.extend_from_slice(&superstep.to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Why frame bytes could not be turned into a [`Frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The bytes violate the wire format and can never become a valid frame.
    Corrupt(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Corrupt(m) => write!(f, "corrupt frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Errors surfaced by a broadcast plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaneError {
    /// A peer disconnected without ending the superstep (thread/process died).
    Disconnected,
    /// A peer aborted the run.
    Aborted(ServerId),
    /// Frames arrived out of superstep order, or the byte stream was corrupt.
    Protocol(String),
}

impl std::fmt::Display for PlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneError::Disconnected => write!(f, "peer disconnected mid-superstep"),
            PlaneError::Aborted(s) => write!(f, "server {s} aborted the run"),
            PlaneError::Protocol(m) => write!(f, "broadcast protocol violation: {m}"),
        }
    }
}

impl std::error::Error for PlaneError {}

/// One delivery from a backend's inbox: a frame, or the news that one peer's
/// stream ended (its transport will never produce another frame).
///
/// Peer-attributed loss matters: a worker that finishes the run closes its
/// connections while slower peers may still be mid-superstep. Its final
/// frames are already in their inboxes (streams are FIFO), so losing the
/// stream is only fatal to a collect that still *needs* that peer — the
/// collector makes exactly that distinction. Backends without per-peer
/// streams (the channel plane, where a dropped sender is silent and the
/// inbox errors only when every sender is gone) never emit `PeerLost`.
#[derive(Debug, Clone)]
pub enum InboxEvent {
    /// A frame arrived.
    Frame(Frame),
    /// `ServerId`'s stream ended with this terminal error.
    PeerLost(ServerId, PlaneError),
    /// `ServerId`'s stream was cut and has been re-established (resilient
    /// transports only). The transport must enqueue this *after* the last
    /// frame of the old stream and *before* the first frame of the new one —
    /// the collector uses the boundary to discard the old stream's torn tail
    /// and to recognize replayed duplicates.
    PeerResumed(ServerId),
}

/// The BSP inbox discipline every broadcast-plane backend shares.
///
/// `collect` pulls events from a backend-supplied source (an mpsc inbox fed
/// by channel senders or the TCP event loop) until every peer has ended
/// the requested superstep, enforcing the superstep ordering and abort
/// semantics of the [`crate::plane::BroadcastPlane`] contract:
///
/// * frames tagged with the collected superstep are returned (messages) or
///   checked off (end-of-superstep markers),
/// * frames from a **future** superstep are stashed for the next collect —
///   peers' streams are FIFO individually but interleave in the shared inbox,
///   so a client that pipelines supersteps without an external barrier can see
///   a fast peer's `s + 1` frames before a slow peer's `s`,
/// * frames from a **past** superstep are protocol violations,
/// * an abort frame fails the collect with [`PlaneError::Aborted`],
/// * a [`InboxEvent::PeerLost`] fails the collect only if that peer has not
///   yet ended the superstep being collected (and poisons every later collect
///   the peer's stashed frames cannot satisfy).
///
/// ## Resume discipline (resilient transports)
///
/// A resilient transport reports a recovered connection as
/// [`InboxEvent::PeerResumed`] instead of `PeerLost`. Per-stream FIFO makes
/// recovery well-defined: from one peer, the received supersteps always form
/// a completed prefix plus at most one torn tail. On `PeerResumed(p)` the
/// collector
///
/// * discards the torn tail — stashed frames (and frames already accumulated
///   for the in-progress collect) from `p` whose superstep was never
///   completed by an end-of-superstep marker; the peer re-sends them in full
///   over the new stream,
/// * starts silently dropping frames from `p` below its completed-prefix
///   cursor — a restarted peer re-executing from an older checkpoint re-sends
///   supersteps this server already applied, and those deterministic
///   duplicates must not be double-applied.
///
/// Both rules are inert on a fault-free run: without a `PeerResumed` event no
/// frame is ever purged or dropped, and the strict past-superstep rejection
/// above is unchanged.
#[derive(Debug, Default, Clone)]
pub struct SuperstepCollector {
    /// Frames for future supersteps that arrived while collecting an earlier
    /// one.
    stash: Vec<Frame>,
    /// Peers whose streams ended, with the terminal error each one reported.
    dead: Vec<(ServerId, PlaneError)>,
    /// Per-peer count of completed supersteps (last end-of-superstep marker's
    /// superstep + 1), maintained at intake time so it reflects everything
    /// *received*, including markers still stashed for a future collect.
    eos_through: Vec<(ServerId, u32)>,
    /// Per-peer floor below which arriving frames are silently dropped as
    /// post-resume replay duplicates. Empty until a `PeerResumed` arrives.
    drop_until: Vec<(ServerId, u32)>,
}

impl SuperstepCollector {
    /// A collector with an empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain frames from the stash, then `next`, until every peer in `peers`
    /// has ended `superstep`; returns the wire messages of that superstep in
    /// arrival order. An `Err` from `next` is immediately fatal (backends use
    /// it for inbox loss that cannot be attributed to one peer).
    pub fn collect(
        &mut self,
        superstep: u32,
        peers: &[ServerId],
        mut next: impl FnMut() -> Result<InboxEvent, PlaneError>,
    ) -> Result<Vec<WireMessage>, PlaneError> {
        // A dead peer can only contribute what it already stashed: if its
        // end-of-superstep marker for this superstep is not there, waiting
        // would block forever — surface its terminal error instead.
        for (peer, error) in &self.dead {
            let satisfiable = !peers.contains(peer)
                || self.stash.iter().any(|f| {
                    matches!(f, Frame::EndOfSuperstep { sender, superstep: s }
                             if sender == peer && *s == superstep)
                });
            if !satisfiable {
                return Err(error.clone());
            }
        }

        let mut wires: Vec<(ServerId, WireMessage)> = Vec::new();
        let mut pending: Vec<ServerId> = peers.to_vec();
        // Frames stashed by an earlier collect come first. They were already
        // admitted (and cursor-counted) at their original intake, so they are
        // never re-checked against `drop_until`.
        let stashed = std::mem::take(&mut self.stash);
        let mut queue = stashed.into_iter();
        while !pending.is_empty() {
            let frame = match queue.next() {
                Some(frame) => frame,
                // Intake: pull events until one yields an admissible frame.
                None => loop {
                    match next()? {
                        InboxEvent::Frame(frame) => {
                            match &frame {
                                Frame::Message {
                                    sender,
                                    superstep: s,
                                    ..
                                } => {
                                    if *s < Self::cursor(&self.drop_until, *sender) {
                                        continue; // post-resume replay duplicate
                                    }
                                }
                                Frame::EndOfSuperstep {
                                    sender,
                                    superstep: s,
                                } => {
                                    if *s < Self::cursor(&self.drop_until, *sender) {
                                        continue; // post-resume replay duplicate
                                    }
                                    Self::raise_cursor(&mut self.eos_through, *sender, *s + 1);
                                }
                                Frame::Abort { .. } => {}
                                Frame::Ack { sender, .. }
                                | Frame::Goodbye { sender }
                                | Frame::Membership { sender, .. } => {
                                    return Err(PlaneError::Protocol(format!(
                                        "transport-level frame from server {sender} reached \
                                         the collector (acks, goodbyes and membership gossip \
                                         must be intercepted)"
                                    )));
                                }
                            }
                            break frame;
                        }
                        InboxEvent::PeerLost(peer, error) => {
                            self.dead.push((peer, error.clone()));
                            if pending.contains(&peer) {
                                // Streams are FIFO: everything this peer ever
                                // sent was delivered before the loss event, so
                                // it can never end this superstep.
                                return Err(error);
                            }
                            continue;
                        }
                        InboxEvent::PeerResumed(peer) => {
                            let cursor = Self::cursor(&self.eos_through, peer);
                            // Discard the old stream's torn tail: frames of
                            // supersteps the peer never completed. The peer
                            // re-sends those supersteps in full.
                            self.stash.retain(|f| {
                                f.sender() != peer || f.frame_superstep().is_none_or(|s| s < cursor)
                            });
                            if superstep >= cursor {
                                wires.retain(|&(p, _)| p != peer);
                            }
                            Self::raise_cursor(&mut self.drop_until, peer, cursor);
                            continue;
                        }
                    }
                },
            };
            match frame {
                Frame::Message {
                    sender,
                    superstep: s,
                    wire,
                } if s == superstep => wires.push((sender, wire)),
                Frame::EndOfSuperstep {
                    sender,
                    superstep: s,
                } if s == superstep => match pending.iter().position(|&p| p == sender) {
                    Some(slot) => {
                        pending.swap_remove(slot);
                    }
                    None => {
                        return Err(PlaneError::Protocol(format!(
                            "server {sender} ended superstep {superstep} twice"
                        )));
                    }
                },
                Frame::Message { superstep: s, .. }
                | Frame::EndOfSuperstep { superstep: s, .. }
                    if s > superstep =>
                {
                    self.stash.push(frame);
                }
                Frame::Abort { sender } => return Err(PlaneError::Aborted(sender)),
                Frame::Ack { sender, .. }
                | Frame::Goodbye { sender }
                | Frame::Membership { sender, .. } => {
                    // Unreachable (rejected at intake, never stashed), but the
                    // discipline is stated in one place either way.
                    return Err(PlaneError::Protocol(format!(
                        "transport-level frame from server {sender} reached the collector"
                    )));
                }
                Frame::Message { superstep: s, .. }
                | Frame::EndOfSuperstep { superstep: s, .. } => {
                    return Err(PlaneError::Protocol(format!(
                        "frame from past superstep {s} while collecting {superstep}"
                    )));
                }
            }
        }
        // Anything left over in the drained stash belongs to a later superstep.
        self.stash.extend(queue);
        Ok(wires.into_iter().map(|(_, wire)| wire).collect())
    }

    fn cursor(table: &[(ServerId, u32)], peer: ServerId) -> u32 {
        table
            .iter()
            .find(|&&(p, _)| p == peer)
            .map_or(0, |&(_, c)| c)
    }

    fn raise_cursor(table: &mut Vec<(ServerId, u32)>, peer: ServerId, value: u32) {
        match table.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, c)) => *c = (*c).max(value),
            None => table.push((peer, value)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut bytes = Vec::new();
        frame.encode(&mut bytes);
        let (decoded, consumed) = Frame::decode(&bytes).unwrap().expect("complete frame");
        assert_eq!(consumed, bytes.len());
        decoded
    }

    #[test]
    fn message_frame_roundtrips() {
        let payload: Vec<u8> = (0..=255).collect();
        let frame = Frame::Message {
            sender: 7,
            superstep: 42,
            wire: payload.clone().into(),
        };
        match roundtrip(&frame) {
            Frame::Message {
                sender,
                superstep,
                wire,
            } => {
                assert_eq!(sender, 7);
                assert_eq!(superstep, 42);
                assert_eq!(&wire[..], &payload[..]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn empty_payload_and_marker_frames_roundtrip() {
        match roundtrip(&Frame::Message {
            sender: 0,
            superstep: 0,
            wire: Vec::new().into(),
        }) {
            Frame::Message { wire, .. } => assert!(wire.is_empty()),
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&Frame::EndOfSuperstep {
            sender: 3,
            superstep: u32::MAX,
        }) {
            Frame::EndOfSuperstep { sender, superstep } => {
                assert_eq!((sender, superstep), (3, u32::MAX));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match roundtrip(&Frame::Abort { sender: 9 }) {
            Frame::Abort { sender } => assert_eq!(sender, 9),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn membership_frame_roundtrips_and_rejects_an_empty_payload() {
        let payload: Vec<u8> = b"GHHM-opaque-gossip-bytes".to_vec();
        match roundtrip(&Frame::Membership {
            sender: 6,
            payload: payload.clone().into(),
        }) {
            Frame::Membership { sender, payload: p } => {
                assert_eq!(sender, 6);
                assert_eq!(&p[..], &payload[..]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A membership frame with no payload bytes is corrupt.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.push(TAG_MEMBERSHIP);
        bytes.extend_from_slice(&6u32.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn checked_message_encoder_matches_frame_encode_and_rejects_oversize() {
        let payload: Vec<u8> = (0..100).collect();
        let mut via_frame = Vec::new();
        Frame::Message {
            sender: 4,
            superstep: 12,
            wire: payload.clone().into(),
        }
        .encode(&mut via_frame);
        let mut direct = Vec::new();
        encode_message_into(4, 12, &payload, &mut direct).unwrap();
        assert_eq!(
            via_frame, direct,
            "the two encoders must agree byte-for-byte"
        );

        let oversized = vec![0u8; MAX_MESSAGE_PAYLOAD + 1];
        let mut out = Vec::new();
        assert!(matches!(
            encode_message_into(0, 0, &oversized, &mut out),
            Err(FrameError::Corrupt(_))
        ));
        assert!(out.is_empty(), "a rejected payload must write nothing");
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut bytes = Vec::new();
        Frame::Message {
            sender: 1,
            superstep: 5,
            wire: vec![1, 2, 3].into(),
        }
        .encode(&mut bytes);
        Frame::EndOfSuperstep {
            sender: 1,
            superstep: 5,
        }
        .encode(&mut bytes);

        let (first, used) = Frame::decode(&bytes).unwrap().unwrap();
        assert!(matches!(first, Frame::Message { .. }));
        let (second, used2) = Frame::decode(&bytes[used..]).unwrap().unwrap();
        assert!(matches!(second, Frame::EndOfSuperstep { .. }));
        assert_eq!(used + used2, bytes.len());
    }

    #[test]
    fn every_truncation_is_incomplete_or_an_error_never_a_panic() {
        let mut bytes = Vec::new();
        Frame::Message {
            sender: 2,
            superstep: 9,
            wire: (0..32u8).collect::<Vec<_>>().into(),
        }
        .encode(&mut bytes);
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Ok(None) | Err(_) => {}
                Ok(Some(_)) => panic!("decoded a frame from a {cut}-byte truncation"),
            }
            // A stream ending at the same truncation must not look like a
            // clean EOF to the streaming decoder (except the empty stream).
            let mut decoder = FrameDecoder::new();
            decoder.push(&bytes[..cut]);
            match decoder.next_frame() {
                Ok(None) => assert_eq!(
                    decoder.is_clean(),
                    cut == 0,
                    "mid-frame EOF must not look clean"
                ),
                Err(FrameError::Corrupt(_)) => {}
                other => panic!("truncation at {cut} gave {other:?}"),
            }
        }
    }

    /// Mirror of the corrupt-wire fuzz in `tests/determinism.rs`: random byte
    /// flips (and truncations) over valid encodings must decode to `Ok` or
    /// `Err` — never panic, never allocate absurd buffers.
    #[test]
    fn corrupt_byte_fuzz_never_panics() {
        let mut state = 0x2017_2017_2017_2017u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let frames = [
            Frame::Message {
                sender: 0,
                superstep: 3,
                wire: (0..200u8).collect::<Vec<_>>().into(),
            },
            Frame::EndOfSuperstep {
                sender: 5,
                superstep: 17,
            },
            Frame::Abort { sender: 2 },
        ];
        for frame in &frames {
            let mut bytes = Vec::new();
            frame.encode(&mut bytes);
            for _ in 0..500 {
                let mut corrupt = bytes.clone();
                for _ in 0..(1 + next() as usize % 3) {
                    let i = next() as usize % corrupt.len();
                    corrupt[i] ^= (1 + next() % 255) as u8;
                }
                if next() % 4 == 0 {
                    corrupt.truncate(next() as usize % (corrupt.len() + 1));
                }
                let outcome = std::panic::catch_unwind(|| {
                    let _ = Frame::decode(&corrupt);
                    let mut decoder = FrameDecoder::new();
                    decoder.push(&corrupt);
                    while let Ok(Some(_)) = decoder.next_frame() {}
                });
                assert!(outcome.is_ok(), "frame decode panicked on corrupt bytes");
            }
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.push(TAG_ABORT);
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes);
        assert!(matches!(decoder.next_frame(), Err(FrameError::Corrupt(_))));
        assert!(!decoder.is_clean());
    }

    #[test]
    fn unknown_tag_and_wrong_body_sizes_are_corrupt() {
        // Unknown tag.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.push(99);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
        // Abort with trailing garbage.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&6u32.to_le_bytes());
        bytes.push(TAG_ABORT);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.push(0xff);
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
        // End-of-superstep one byte short.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.push(TAG_END_OF_SUPERSTEP);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
    }

    // -- incremental decoder -------------------------------------------------

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Message {
                sender: 0,
                superstep: 1,
                wire: (0..64u8).collect::<Vec<_>>().into(),
            },
            Frame::EndOfSuperstep {
                sender: 0,
                superstep: 1,
            },
            Frame::Message {
                sender: 0,
                superstep: 2,
                wire: Vec::new().into(),
            },
            Frame::Abort { sender: 0 },
        ]
    }

    fn encode_all(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for f in frames {
            f.encode(&mut bytes);
        }
        bytes
    }

    fn assert_same_frame(a: &Frame, b: &Frame) {
        match (a, b) {
            (
                Frame::Message {
                    sender: s1,
                    superstep: p1,
                    wire: w1,
                },
                Frame::Message {
                    sender: s2,
                    superstep: p2,
                    wire: w2,
                },
            ) => assert_eq!((s1, p1, &w1[..]), (s2, p2, &w2[..])),
            (
                Frame::EndOfSuperstep {
                    sender: s1,
                    superstep: p1,
                },
                Frame::EndOfSuperstep {
                    sender: s2,
                    superstep: p2,
                },
            ) => assert_eq!((s1, p1), (s2, p2)),
            (Frame::Abort { sender: s1 }, Frame::Abort { sender: s2 }) => assert_eq!(s1, s2),
            (a, b) => panic!("frame variant mismatch: {a:?} vs {b:?}"),
        }
    }

    /// Feeding a frame stream to the decoder in every chunk size from one
    /// byte upward must yield exactly the encoded frames, in order, with the
    /// decoder clean at the end.
    #[test]
    fn decoder_handles_any_chunking_including_one_byte_at_a_time() {
        let frames = sample_frames();
        let bytes = encode_all(&frames);
        for chunk in [1usize, 2, 3, 5, 7, 16, bytes.len()] {
            let mut decoder = FrameDecoder::new();
            let mut decoded = Vec::new();
            for piece in bytes.chunks(chunk) {
                decoder.push(piece);
                while let Some(frame) = decoder.next_frame().unwrap() {
                    decoded.push(frame);
                }
            }
            assert_eq!(decoded.len(), frames.len(), "chunk size {chunk}");
            for (a, b) in decoded.iter().zip(&frames) {
                assert_same_frame(a, b);
            }
            assert!(decoder.is_clean(), "chunk size {chunk}");
        }
    }

    /// A torn frame (every proper prefix) must leave the decoder waiting —
    /// `Ok(None)` and not clean — and complete once the rest arrives.
    #[test]
    fn decoder_reports_torn_frames_as_incomplete_not_errors() {
        let frames = sample_frames();
        let bytes = encode_all(&frames[..1]);
        for cut in 1..bytes.len() {
            let mut decoder = FrameDecoder::new();
            decoder.push(&bytes[..cut]);
            assert!(
                decoder.next_frame().unwrap().is_none(),
                "prefix of {cut} bytes decoded a frame"
            );
            assert!(!decoder.is_clean(), "prefix of {cut} bytes looked clean");
            decoder.push(&bytes[cut..]);
            assert_same_frame(&decoder.next_frame().unwrap().unwrap(), &frames[0]);
            assert!(decoder.is_clean());
        }
    }

    /// A corrupt or hostile length prefix must poison the decoder stream the
    /// same way `Frame::decode` rejects it — before any giant allocation.
    #[test]
    fn decoder_rejects_corrupt_streams() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&u32::MAX.to_le_bytes());
        decoder.push(&[TAG_ABORT]);
        assert!(matches!(decoder.next_frame(), Err(FrameError::Corrupt(_))));

        // Valid frame followed by garbage: the frame decodes, the tail errors.
        let mut decoder = FrameDecoder::new();
        let mut bytes = Vec::new();
        Frame::Abort { sender: 3 }.encode(&mut bytes);
        bytes.extend_from_slice(&2u32.to_le_bytes()); // body too short for a tag+sender
        bytes.extend_from_slice(&[0, 0]);
        decoder.push(&bytes);
        assert!(matches!(
            decoder.next_frame().unwrap(),
            Some(Frame::Abort { sender: 3 })
        ));
        assert!(matches!(decoder.next_frame(), Err(FrameError::Corrupt(_))));
    }

    /// Long-running streams must not accumulate consumed bytes: after many
    /// pushed-and-decoded frames the buffer stays bounded by the compaction
    /// threshold plus one frame.
    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut decoder = FrameDecoder::new();
        let mut bytes = Vec::new();
        Frame::Message {
            sender: 1,
            superstep: 0,
            wire: vec![0u8; 1024].into(),
        }
        .encode(&mut bytes);
        for _ in 0..1000 {
            decoder.push(&bytes);
            assert!(decoder.next_frame().unwrap().is_some());
            assert!(
                decoder.buf.len() <= DECODER_COMPACT_THRESHOLD + 2 * bytes.len(),
                "decoder buffer grew unboundedly: {} bytes",
                decoder.buf.len()
            );
        }
        assert!(decoder.is_clean());
    }

    // -- collector (no threads involved) ------------------------------------

    fn feed(events: Vec<InboxEvent>) -> impl FnMut() -> Result<InboxEvent, PlaneError> {
        let mut queue = events.into_iter();
        move || queue.next().ok_or(PlaneError::Disconnected)
    }

    fn msg(sender: ServerId, superstep: u32, byte: u8) -> InboxEvent {
        InboxEvent::Frame(Frame::Message {
            sender,
            superstep,
            wire: vec![byte].into(),
        })
    }

    fn eos(sender: ServerId, superstep: u32) -> InboxEvent {
        InboxEvent::Frame(Frame::EndOfSuperstep { sender, superstep })
    }

    fn lost(sender: ServerId) -> InboxEvent {
        InboxEvent::PeerLost(sender, PlaneError::Disconnected)
    }

    #[test]
    fn collector_returns_messages_until_all_peers_end() {
        let mut c = SuperstepCollector::new();
        let wires = c
            .collect(
                0,
                &[1, 2],
                feed(vec![msg(1, 0, 10), eos(1, 0), msg(2, 0, 20), eos(2, 0)]),
            )
            .unwrap();
        assert_eq!(wires.len(), 2);
        assert_eq!(wires[0][0], 10);
        assert_eq!(wires[1][0], 20);
    }

    #[test]
    fn collector_stashes_future_supersteps_for_the_next_collect() {
        let mut c = SuperstepCollector::new();
        // Peer 1 races ahead into superstep 1 before peer 2 finishes 0.
        let events = vec![
            msg(1, 0, 10),
            eos(1, 0),
            msg(1, 1, 11),
            eos(1, 1),
            msg(2, 0, 20),
            eos(2, 0),
        ];
        let s0 = c.collect(0, &[1, 2], feed(events)).unwrap();
        assert_eq!(s0.len(), 2);
        // Superstep 1 completes from the stash plus peer 2's late frames.
        let s1 = c
            .collect(1, &[1, 2], feed(vec![msg(2, 1, 21), eos(2, 1)]))
            .unwrap();
        assert_eq!(s1.len(), 2);
        assert_eq!(s1[0][0], 11, "stashed frame must come first");
    }

    #[test]
    fn collector_rejects_past_supersteps_and_surfaces_aborts() {
        let mut c = SuperstepCollector::new();
        let err = c.collect(5, &[1], feed(vec![msg(1, 2, 0)])).unwrap_err();
        assert!(matches!(err, PlaneError::Protocol(_)));

        let mut c = SuperstepCollector::new();
        let err = c
            .collect(
                0,
                &[1, 2],
                feed(vec![
                    msg(1, 0, 1),
                    InboxEvent::Frame(Frame::Abort { sender: 2 }),
                ]),
            )
            .unwrap_err();
        assert_eq!(err, PlaneError::Aborted(2));
    }

    #[test]
    fn collector_rejects_double_end_of_superstep() {
        let mut c = SuperstepCollector::new();
        let err = c
            .collect(0, &[1, 2], feed(vec![eos(1, 0), eos(1, 0)]))
            .unwrap_err();
        assert!(matches!(err, PlaneError::Protocol(_)));
    }

    #[test]
    fn collector_source_failure_propagates() {
        let mut c = SuperstepCollector::new();
        assert_eq!(
            c.collect(0, &[1], feed(vec![])).unwrap_err(),
            PlaneError::Disconnected
        );
    }

    /// A peer that delivered everything for the collected superstep and then
    /// closed its stream (it finished the run first) must not fail the
    /// collect: slower peers' frames are still owed, the dead peer's are not.
    #[test]
    fn peer_lost_after_ending_the_superstep_is_benign() {
        let mut c = SuperstepCollector::new();
        let wires = c
            .collect(
                0,
                &[1, 2],
                feed(vec![
                    msg(1, 0, 10),
                    eos(1, 0),
                    lost(1), // peer 1 finished the run and closed
                    msg(2, 0, 20),
                    eos(2, 0),
                ]),
            )
            .unwrap();
        assert_eq!(wires.len(), 2);
    }

    #[test]
    fn peer_lost_mid_superstep_fails_the_collect() {
        let mut c = SuperstepCollector::new();
        let err = c
            .collect(0, &[1, 2], feed(vec![msg(1, 0, 10), lost(1)]))
            .unwrap_err();
        assert_eq!(err, PlaneError::Disconnected);
    }

    /// A dead peer poisons a later collect its stash cannot satisfy — the
    /// collector must error up front rather than block forever on a stream
    /// that will never produce the missing end-of-superstep marker.
    #[test]
    fn dead_peer_poisons_unsatisfiable_later_collects() {
        let mut c = SuperstepCollector::new();
        // Peer 1 ends superstep 0, stashes its superstep-1 traffic, then dies.
        let s0 = c
            .collect(
                0,
                &[1, 2],
                feed(vec![
                    eos(1, 0),
                    msg(1, 1, 11),
                    eos(1, 1),
                    lost(1),
                    eos(2, 0),
                ]),
            )
            .unwrap();
        assert!(s0.is_empty());
        // Superstep 1 is satisfiable from the stash.
        let s1 = c.collect(1, &[1, 2], feed(vec![eos(2, 1)])).unwrap();
        assert_eq!(s1.len(), 1);
        // Superstep 2 is not: peer 1 can never end it.
        let err = c.collect(2, &[1, 2], feed(vec![eos(2, 2)])).unwrap_err();
        assert_eq!(err, PlaneError::Disconnected);
    }

    // -- resilient-mode frames and resume discipline -------------------------

    #[test]
    fn ack_frame_roundtrips_and_rejects_wrong_body_size() {
        match roundtrip(&Frame::Ack {
            sender: 6,
            superstep: 31,
        }) {
            Frame::Ack { sender, superstep } => assert_eq!((sender, superstep), (6, 31)),
            other => panic!("wrong variant: {other:?}"),
        }
        // Ack one byte short of its superstep.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.push(TAG_ACK);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
        // Ack with trailing garbage.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&10u32.to_le_bytes());
        bytes.push(TAG_ACK);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0, 0xff]);
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn ack_reaching_the_collector_is_a_protocol_error() {
        let mut c = SuperstepCollector::new();
        let err = c
            .collect(
                0,
                &[1],
                feed(vec![InboxEvent::Frame(Frame::Ack {
                    sender: 1,
                    superstep: 0,
                })]),
            )
            .unwrap_err();
        assert!(matches!(err, PlaneError::Protocol(_)), "{err:?}");
    }

    fn resumed(peer: ServerId) -> InboxEvent {
        InboxEvent::PeerResumed(peer)
    }

    /// A resume purges the stashed torn tail: frames of a superstep the peer
    /// never completed are discarded, and the peer's full re-send of that
    /// superstep is what counts — exactly once.
    #[test]
    fn resume_purges_stashed_torn_tail_and_accepts_the_resend() {
        let mut c = SuperstepCollector::new();
        // A torn superstep-1 message (no EOS) stashes while 0 completes.
        let s0 = c
            .collect(0, &[1], feed(vec![msg(1, 0, 10), msg(1, 1, 99), eos(1, 0)]))
            .unwrap();
        assert_eq!(s0.len(), 1);
        // The peer reconnects and re-sends superstep 1 in full.
        let s1 = c
            .collect(1, &[1], feed(vec![resumed(1), msg(1, 1, 42), eos(1, 1)]))
            .unwrap();
        assert_eq!(
            s1.len(),
            1,
            "torn frame must not survive alongside its re-send"
        );
        assert_eq!(s1[0][0], 42);
    }

    /// A resume mid-collect purges what the torn stream already contributed to
    /// the in-progress superstep, so the peer's full re-send is not doubled.
    #[test]
    fn resume_purges_current_collect_accumulation() {
        let mut c = SuperstepCollector::new();
        let wires = c
            .collect(
                0,
                &[1, 2],
                feed(vec![
                    msg(1, 0, 9), // delivered, then the stream tears
                    resumed(1),
                    msg(1, 0, 9), // full re-send of superstep 0
                    eos(1, 0),
                    msg(2, 0, 20),
                    eos(2, 0),
                ]),
            )
            .unwrap();
        assert_eq!(
            wires.len(),
            2,
            "the torn contribution must be replaced, not kept"
        );
    }

    /// A restarted peer re-executing from an old checkpoint re-sends
    /// supersteps this server already completed; those deterministic
    /// duplicates (including the end-of-superstep markers) are dropped
    /// silently — no double-apply, no double-EOS protocol error.
    #[test]
    fn resume_drops_replayed_supersteps_below_the_completed_prefix() {
        let mut c = SuperstepCollector::new();
        let s0 = c
            .collect(0, &[1], feed(vec![msg(1, 0, 7), eos(1, 0)]))
            .unwrap();
        assert_eq!(s0.len(), 1);
        // Peer restarts from superstep 0 and re-sends everything.
        let s1 = c
            .collect(
                1,
                &[1],
                feed(vec![
                    resumed(1),
                    msg(1, 0, 7), // duplicate of an applied superstep: dropped
                    eos(1, 0),    // duplicate marker: dropped, not double-EOS
                    msg(1, 1, 8),
                    eos(1, 1),
                ]),
            )
            .unwrap();
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0][0], 8);
    }

    /// A peer that completed the in-progress superstep before the cut keeps
    /// its contribution: only the incomplete tail is discarded.
    #[test]
    fn resume_keeps_completed_contributions_of_the_current_superstep() {
        let mut c = SuperstepCollector::new();
        let wires = c
            .collect(
                0,
                &[1, 2],
                feed(vec![
                    msg(1, 0, 5),
                    eos(1, 0), // peer 1 completed superstep 0, then the cut
                    resumed(1),
                    msg(1, 0, 5), // replayed duplicate: dropped
                    eos(1, 0),    // replayed duplicate: dropped
                    msg(2, 0, 6),
                    eos(2, 0),
                ]),
            )
            .unwrap();
        assert_eq!(wires.len(), 2);
    }

    /// Without a resume event the strict discipline is untouched: past-
    /// superstep frames are still protocol violations.
    #[test]
    fn past_superstep_strictness_survives_unrelated_resumes() {
        let mut c = SuperstepCollector::new();
        let s0 = c
            .collect(0, &[1, 2], feed(vec![eos(1, 0), eos(2, 0)]))
            .unwrap();
        assert!(s0.is_empty());
        // Peer 2 resumes; peer 1 then misbehaves with a past-superstep frame.
        let err = c
            .collect(1, &[1, 2], feed(vec![resumed(2), msg(1, 0, 1)]))
            .unwrap_err();
        assert!(matches!(err, PlaneError::Protocol(_)), "{err:?}");
    }
}
