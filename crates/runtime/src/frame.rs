//! The transport-agnostic framing protocol of the broadcast fabric.
//!
//! Everything a [`crate::plane::BroadcastPlane`] backend needs that is *not*
//! tied to a particular transport lives here, unit-testable without spawning a
//! single thread:
//!
//! * [`Frame`] — what travels between servers: a wire-encoded broadcast
//!   message, an end-of-superstep marker (which also acknowledges the
//!   superstep before it), an abort, and the fabric's own goodbyes and state
//!   frames,
//! * the **length-prefixed wire codec** ([`Frame::encode`] /
//!   [`Frame::decode`], plus the incremental [`FrameDecoder`] for
//!   non-blocking transports) used whenever frames cross a byte stream — the
//!   TCP [`crate::poll::PollPlane`]; the in-process backend ships whole
//!   supersteps as values,
//! * [`InboxEvent`] — what a plane delivers to its worker: a peer's whole
//!   superstep (its messages, once its marker is in), an abort, a loss or a
//!   state request — never a frame,
//! * [`SuperstepCollector`] — the BSP inbox discipline shared by every
//!   backend: it counts whole supersteps per peer, stashes a future one,
//!   surfaces aborts as errors, and completes a superstep once every peer's
//!   has arrived.
//!
//! ## Wire format
//!
//! ```text
//! u32 LE body length | u8 tag | u32 LE sender | tag-specific fields
//!   tag 1 Message        : u32 LE superstep, payload bytes (rest of body)
//!   tag 2 EndOfSuperstep : u32 LE superstep
//!   tag 3 Abort          : (nothing)
//!   tag 4                : reserved (decodes as an unknown tag)
//!   tag 5 Goodbye        : (nothing)
//!   tag 6                : reserved (decodes as an unknown tag)
//!   tag 7 State          : a `GHHC` state addressed to the receiver (rest of body)
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

use crate::checkpoint::encoded_cursor;
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

/// Largest state one frame can carry: the body cap minus the tag and sender.
/// A `GHHC` state is 36 + 4·|frontier| + 8·|V| bytes, so with a full frontier
/// this is about 22 M vertices; past it [`Frame::state`] refuses.
pub const MAX_STATE_PAYLOAD: usize = MAX_FRAME_BODY - 5;

const TAG_MESSAGE: u8 = 1;
const TAG_END_OF_SUPERSTEP: u8 = 2;
const TAG_ABORT: u8 = 3;
const TAG_GOODBYE: u8 = 5;
const TAG_STATE: u8 = 7;

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
    /// `sender` has published everything for `superstep` — and so, since a
    /// server publishes a superstep only after applying the one before, has
    /// applied `superstep - 1`: the marker is also its acknowledgement.
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
    /// `sender` finished the run and is closing its connections *on
    /// purpose*: the EOF that follows is a clean exit, not a cut. Receivers
    /// must not arm recovery for (or linger on behalf of) a peer that said
    /// goodbye — it needs nothing ever again, so nothing is retained for it.
    Goodbye {
        /// Departing server.
        sender: ServerId,
    },
    /// `sender`'s cursor, frontier and replica as `GHHC` bytes addressed to
    /// the receiver, a new process (`docs/WIRE.md` §9.4).
    State {
        /// Sending server.
        sender: ServerId,
        /// The encoding (at least its header, checked on decode).
        state: WireMessage,
    },
}

impl Frame {
    /// A `State` frame of `state` (`GHHC` bytes), or an error naming its
    /// size past [`MAX_STATE_PAYLOAD`].
    pub fn state(sender: ServerId, state: &[u8]) -> Result<Frame, FrameError> {
        if state.len() > MAX_STATE_PAYLOAD {
            let why = format!("a state of {} bytes exceeds the frame cap", state.len());
            return Err(FrameError::Corrupt(why));
        }
        let state = state.into();
        Ok(Frame::State { sender, state })
    }

    /// A message's payload; `None` for every other frame.
    pub(crate) fn into_wire(self) -> Option<WireMessage> {
        match self {
            Frame::Message { wire, .. } => Some(wire),
            _ => None,
        }
    }

    /// The server that produced this frame.
    pub fn sender(&self) -> ServerId {
        match *self {
            Frame::Message { sender, .. }
            | Frame::EndOfSuperstep { sender, .. }
            | Frame::Abort { sender }
            | Frame::Goodbye { sender }
            | Frame::State { sender, .. } => sender,
        }
    }

    /// Append the length-prefixed encoding of this frame to `out`.
    ///
    /// Message payloads must fit [`MAX_MESSAGE_PAYLOAD`] (transports encoding
    /// caller-supplied payloads use the checked [`encode_message_into`]), and
    /// states [`MAX_STATE_PAYLOAD`] ([`Frame::state`]).
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
            Frame::Goodbye { sender } => {
                out.push(TAG_GOODBYE);
                out.extend_from_slice(&sender.to_le_bytes());
            }
            Frame::State { sender, state } => {
                debug_assert!(state.len() <= MAX_STATE_PAYLOAD);
                out.push(TAG_STATE);
                out.extend_from_slice(&sender.to_le_bytes());
                out.extend_from_slice(state);
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
            TAG_GOODBYE => {
                if !rest.is_empty() {
                    return Err(FrameError::Corrupt(format!(
                        "goodbye frame must have a 5-byte body, got {}",
                        body.len()
                    )));
                }
                Ok(Frame::Goodbye { sender })
            }
            TAG_STATE => {
                if encoded_cursor(rest).is_none() {
                    return Err(FrameError::Corrupt(format!(
                        "state frame must carry a GHHC state, got a {}-byte body",
                        body.len()
                    )));
                }
                Ok(Frame::State {
                    sender,
                    state: rest.into(),
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
    /// Not a failure: a new process asks for this server's state. Answer
    /// with [`crate::plane::BroadcastPlane::send_state`] and call again.
    StateRequested(ServerId),
}

impl std::fmt::Display for PlaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaneError::Disconnected => write!(f, "peer disconnected mid-superstep"),
            PlaneError::Aborted(s) => write!(f, "server {s} aborted the run"),
            PlaneError::Protocol(m) => write!(f, "broadcast protocol violation: {m}"),
            PlaneError::StateRequested(s) => write!(f, "restarted server {s} asks for state"),
        }
    }
}

impl std::error::Error for PlaneError {}

/// One delivery from a plane to the worker's inbox: one peer's whole
/// superstep, its abort, the news that its stream ended (its transport will
/// never deliver another superstep), or a restarted peer's request for this
/// server's state.
///
/// Peer-attributed loss matters: a worker that finishes the run closes its
/// connections while slower peers may still be mid-superstep. Its final
/// superstep is already in their inboxes (streams are FIFO), so losing the
/// stream is only fatal to a collect that still *needs* that peer — the
/// collector makes exactly that distinction.
#[derive(Debug, Clone)]
pub enum InboxEvent {
    /// `sender` ended `superstep`, having published `wires` in it, in order.
    Superstep {
        /// The peer.
        sender: ServerId,
        /// The superstep it ended.
        superstep: u32,
        /// Its messages of that superstep, as sent.
        wires: Vec<WireMessage>,
    },
    /// `ServerId` aborted the run.
    Aborted(ServerId),
    /// `ServerId`'s stream ended with this terminal error.
    PeerLost(ServerId, PlaneError),
    /// A new process of `ServerId` asks for this server's state
    /// (`docs/WIRE.md` §9.4), in order with the supersteps around it.
    StateRequest(ServerId),
}

/// The BSP inbox discipline every broadcast-plane backend shares.
///
/// `collect` pulls events from a backend-supplied source (an mpsc inbox fed
/// by channel senders or the TCP event loop) until every peer has ended
/// the requested superstep, enforcing the superstep ordering and abort
/// semantics of the [`crate::plane::BroadcastPlane`] contract:
///
/// * each peer's [`InboxEvent::Superstep`] of the collected superstep checks
///   that peer off and contributes its wires (a second one is a protocol
///   violation),
/// * a **future** superstep is stashed for the next collect — peers'
///   streams are FIFO individually but interleave in the shared inbox, so a
///   fast peer's `s + 1` can arrive before a slow peer's `s`,
/// * an abort fails the collect with [`PlaneError::Aborted`],
/// * a [`InboxEvent::PeerLost`] fails the collect only if that peer has not
///   yet ended the superstep being collected (and poisons every later collect
///   the peer's stashed supersteps cannot satisfy),
/// * a [`InboxEvent::StateRequest`] waits, in arrival order, for a collect
///   that still needs the asking peer's marker — the superstep at which this
///   server stops without it, the cursor its hello announced — and
///   interrupts that one with [`PlaneError::StateRequested`]: the next
///   collect of the same superstep continues with what it had gathered.
///
/// ## Recovery is not the collector's
///
/// A cut TCP stream is healed underneath the collector: the
/// [`crate::fabric::Fabric`] delivers a peer's superstep only once that
/// peer's end-of-superstep marker arrives (discarding what a cut stream held
/// of it — the peer re-sends the superstep in full), drops the replayed
/// duplicates below the cursor it announced when it adopted the new stream,
/// and takes a peer that re-sends a superstep it ended for a violation. So
/// every superstep that reaches a collector is delivered exactly once, in
/// per-peer order, whichever plane it came through — none is ever past.
#[derive(Debug, Default, Clone)]
pub struct SuperstepCollector {
    /// Future supersteps, and state requests for a later collect, that
    /// arrived while collecting an earlier one.
    stash: Vec<InboxEvent>,
    /// Peers whose streams ended, with the terminal error each one reported.
    dead: Vec<(ServerId, PlaneError)>,
    /// The superstep an interrupted collect was gathering, with its wires so
    /// far and the peers that had not ended it.
    interrupted: Option<(u32, Vec<WireMessage>, Vec<ServerId>)>,
}

impl SuperstepCollector {
    /// A collector with an empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain events from the stash, then `next`, until every peer in `peers`
    /// has ended `superstep`; returns the wire messages of that superstep,
    /// peer by peer in arrival order. An `Err` from `next` is immediately
    /// fatal (backends use it for inbox loss that cannot be attributed to one
    /// peer).
    pub fn collect(
        &mut self,
        superstep: u32,
        peers: &[ServerId],
        mut next: impl FnMut() -> Result<InboxEvent, PlaneError>,
    ) -> Result<Vec<WireMessage>, PlaneError> {
        let (mut wires, mut pending) = match self.interrupted.take() {
            Some((s, wires, pending)) if s == superstep => (wires, pending),
            _ => {
                // A dead peer can only contribute what it already stashed:
                // if its marker for this superstep is not there, waiting
                // would block forever — surface its terminal error instead.
                for (peer, error) in &self.dead {
                    let ended = |e: &InboxEvent| {
                        matches!(e, InboxEvent::Superstep { sender, superstep: s, .. }
                                 if sender == peer && *s == superstep)
                    };
                    if peers.contains(peer) && !self.stash.iter().any(ended) {
                        return Err(error.clone());
                    }
                }
                (Vec::new(), peers.to_vec())
            }
        };
        // Events stashed by an earlier collect come first.
        let stashed = std::mem::take(&mut self.stash);
        let mut queue = stashed.into_iter();
        while !pending.is_empty() {
            let event = match queue.next() {
                Some(event) => event,
                None => next()?,
            };
            match event {
                InboxEvent::Superstep {
                    sender,
                    superstep: s,
                    wires: sent,
                } if s == superstep => {
                    let Some(slot) = pending.iter().position(|&p| p == sender) else {
                        return Err(PlaneError::Protocol(format!(
                            "server {sender} ended superstep {superstep} twice"
                        )));
                    };
                    pending.swap_remove(slot);
                    wires.extend(sent);
                }
                // A peer running ahead (none is ever behind: see the type's docs).
                later @ InboxEvent::Superstep { .. } => self.stash.push(later),
                InboxEvent::Aborted(sender) => return Err(PlaneError::Aborted(sender)),
                InboxEvent::PeerLost(peer, error) => {
                    self.dead.push((peer, error.clone()));
                    if pending.contains(&peer) {
                        // Streams are FIFO: everything this peer ever sent
                        // was delivered before the loss event, so it can
                        // never end this superstep.
                        return Err(error);
                    }
                }
                InboxEvent::StateRequest(peer) if pending.contains(&peer) => {
                    self.stash.extend(queue);
                    self.interrupted = Some((superstep, wires, pending));
                    return Err(PlaneError::StateRequested(peer));
                }
                request @ InboxEvent::StateRequest(_) => self.stash.push(request),
            }
        }
        // Anything left over in the drained stash belongs to a later superstep.
        self.stash.extend(queue);
        Ok(wires)
    }

    /// After the last collect, until `next` fails (the inbox closed): the
    /// next state request as [`PlaneError::StateRequested`] — one an earlier
    /// collect set aside first, since no later collect will take it — and
    /// `Ok` once `next` fails. Nothing else matters any more.
    pub fn finish(
        &mut self,
        mut next: impl FnMut() -> Result<InboxEvent, PlaneError>,
    ) -> Result<(), PlaneError> {
        let stashed = self
            .stash
            .iter()
            .position(|e| matches!(e, InboxEvent::StateRequest(_)));
        if let Some(InboxEvent::StateRequest(peer)) = stashed.map(|at| self.stash.remove(at)) {
            return Err(PlaneError::StateRequested(peer));
        }
        while let Ok(event) = next() {
            if let InboxEvent::StateRequest(peer) = event {
                return Err(PlaneError::StateRequested(peer));
            }
        }
        Ok(())
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
        // Unknown tags: 99, and the reserved tags 4 and 6, bare or with a
        // payload (tag 4 with the superstep its retired frame carried).
        let unknown = [
            (99u8, &[][..]),
            (4, &[]),
            (4, &[0, 0, 0, 0]),
            (6, &[]),
            (6, b"GHH?-bytes"),
        ];
        for (tag, payload) in unknown {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(5 + payload.len() as u32).to_le_bytes());
            bytes.push(tag);
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.extend_from_slice(payload);
            let decoded = std::panic::catch_unwind(|| Frame::decode(&bytes));
            let decoded = decoded.expect("an unknown tag must not panic");
            assert!(matches!(decoded, Err(FrameError::Corrupt(_))), "tag {tag}");
        }
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

    /// `sender`'s whole `superstep`: one one-byte wire per byte.
    fn ended(sender: ServerId, superstep: u32, bytes: &[u8]) -> InboxEvent {
        let wires = bytes.iter().map(|&b| vec![b].into()).collect();
        InboxEvent::Superstep {
            sender,
            superstep,
            wires,
        }
    }

    fn lost(sender: ServerId) -> InboxEvent {
        InboxEvent::PeerLost(sender, PlaneError::Disconnected)
    }

    fn bytes(wires: &[WireMessage]) -> Vec<u8> {
        wires.iter().map(|wire| wire[0]).collect()
    }

    #[test]
    fn collector_returns_messages_until_all_peers_end() {
        let mut c = SuperstepCollector::new();
        let events = vec![ended(1, 0, &[10, 11]), ended(2, 0, &[20])];
        let wires = c.collect(0, &[1, 2], feed(events)).unwrap();
        assert_eq!(bytes(&wires), [10, 11, 20]);
    }

    /// One event per peer is a whole superstep: the collect asks for no
    /// more once each peer's is in, and a peer's next superstep, arrived
    /// among them, is the next collect's — whole, and first.
    #[test]
    fn one_superstep_event_per_peer_completes_a_collect_and_a_later_one_waits() {
        let mut c = SuperstepCollector::new();
        let mut inbox = vec![ended(1, 0, &[10]), ended(1, 1, &[11, 12]), ended(2, 0, &[])];
        inbox.reverse();
        let mut asked = 0;
        let mut next = || {
            asked += 1;
            inbox.pop().ok_or(PlaneError::Disconnected)
        };
        assert_eq!(bytes(&c.collect(0, &[1, 2], &mut next).unwrap()), [10]);
        assert_eq!(asked, 3, "one event per peer, and the stashed one");
        let s1 = c.collect(1, &[1, 2], feed(vec![ended(2, 1, &[21])]));
        assert_eq!(bytes(&s1.unwrap()), [11, 12, 21]);
    }

    #[test]
    fn collector_stashes_future_supersteps_for_the_next_collect() {
        let mut c = SuperstepCollector::new();
        // Peer 1 races ahead into superstep 1 before peer 2 finishes 0.
        let events = vec![ended(1, 0, &[10]), ended(1, 1, &[11]), ended(2, 0, &[20])];
        let s0 = c.collect(0, &[1, 2], feed(events)).unwrap();
        assert_eq!(s0.len(), 2);
        // Superstep 1 completes from the stash plus peer 2's late one.
        let s1 = c.collect(1, &[1, 2], feed(vec![ended(2, 1, &[21])]));
        assert_eq!(bytes(&s1.unwrap()), [11, 21], "the stashed superstep first");
    }

    #[test]
    fn collector_surfaces_aborts() {
        let mut c = SuperstepCollector::new();
        let events = vec![ended(1, 0, &[1]), InboxEvent::Aborted(2)];
        let err = c.collect(0, &[1, 2], feed(events)).unwrap_err();
        assert_eq!(err, PlaneError::Aborted(2));
    }

    #[test]
    fn collector_rejects_double_end_of_superstep() {
        let mut c = SuperstepCollector::new();
        let err = c
            .collect(0, &[1, 2], feed(vec![ended(1, 0, &[]), ended(1, 0, &[])]))
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
    /// collect: slower peers' supersteps are still owed, the dead peer's are
    /// not.
    #[test]
    fn peer_lost_after_ending_the_superstep_is_benign() {
        let mut c = SuperstepCollector::new();
        let events = vec![
            ended(1, 0, &[10]),
            lost(1), // peer 1 finished the run and closed
            ended(2, 0, &[20]),
        ];
        let wires = c.collect(0, &[1, 2], feed(events)).unwrap();
        assert_eq!(wires.len(), 2);
    }

    #[test]
    fn peer_lost_mid_superstep_fails_the_collect() {
        let mut c = SuperstepCollector::new();
        let err = c
            .collect(0, &[1, 2], feed(vec![ended(2, 0, &[20]), lost(1)]))
            .unwrap_err();
        assert_eq!(err, PlaneError::Disconnected);
    }

    /// A dead peer poisons a later collect its stash cannot satisfy — the
    /// collector must error up front rather than block forever on a stream
    /// that will never end the superstep.
    #[test]
    fn dead_peer_poisons_unsatisfiable_later_collects() {
        let mut c = SuperstepCollector::new();
        // Peer 1 ends superstep 0, stashes its superstep 1, then dies.
        let events = vec![
            ended(1, 0, &[]),
            ended(1, 1, &[11]),
            lost(1),
            ended(2, 0, &[]),
        ];
        let s0 = c.collect(0, &[1, 2], feed(events)).unwrap();
        assert!(s0.is_empty());
        // Superstep 1 is satisfiable from the stash.
        let s1 = c.collect(1, &[1, 2], feed(vec![ended(2, 1, &[])])).unwrap();
        assert_eq!(s1.len(), 1);
        // Superstep 2 is not: peer 1 can never end it.
        let err = c
            .collect(2, &[1, 2], feed(vec![ended(2, 2, &[])]))
            .unwrap_err();
        assert_eq!(err, PlaneError::Disconnected);
    }

    // -- state frames ---------------------------------------------------------

    fn state_bytes() -> Vec<u8> {
        crate::checkpoint::encode_state(1, 4, &[2, 3], &[0.5; 6])
    }

    #[test]
    fn state_frame_roundtrips_and_needs_a_ghhc_header() {
        let mut bytes = Vec::new();
        Frame::state(2, &state_bytes()).unwrap().encode(&mut bytes);
        match roundtrip(&Frame::State {
            sender: 2,
            state: state_bytes().into(),
        }) {
            Frame::State { sender, state } => {
                assert_eq!((sender, &state[..]), (2, &state_bytes()[..]));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let mut via_frame = Vec::new();
        let state = state_bytes().into();
        Frame::State { sender: 2, state }.encode(&mut via_frame);
        assert_eq!(bytes, via_frame, "the two encoders agree");
        // Every body too short for the header, and another magic.
        let full = state_bytes();
        for cut in 0..crate::checkpoint::CHECKPOINT_HEADER {
            let mut bytes = Vec::new();
            Frame::state(2, &full[..cut]).unwrap().encode(&mut bytes);
            let decoded = std::panic::catch_unwind(|| Frame::decode(&bytes)).expect("no panic");
            assert!(matches!(decoded, Err(FrameError::Corrupt(_))), "cut {cut}");
        }
        let mut other = full.clone();
        other[3] = b'X';
        let mut bytes = Vec::new();
        Frame::state(2, &other).unwrap().encode(&mut bytes);
        assert!(matches!(Frame::decode(&bytes), Err(FrameError::Corrupt(_))));
    }

    /// Past the cap a state is refused, by size.
    #[test]
    fn an_oversized_state_is_refused_with_its_size() {
        let oversized = vec![0u8; MAX_STATE_PAYLOAD + 1];
        let err = Frame::state(0, &oversized).unwrap_err().to_string();
        assert!(
            err.contains(&format!("{} bytes", MAX_STATE_PAYLOAD + 1)),
            "{err}"
        );
    }

    /// Every single-bit flip of an encoded state frame decodes to `Ok` or
    /// `Err`, never a panic.
    #[test]
    fn every_bit_flip_of_a_state_frame_is_an_error_or_a_frame() {
        let mut bytes = Vec::new();
        Frame::state(2, &state_bytes()).unwrap().encode(&mut bytes);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let outcome = std::panic::catch_unwind(|| {
                let mut decoder = FrameDecoder::new();
                decoder.push(&flipped);
                while let Ok(Some(_)) = decoder.next_frame() {}
            });
            assert!(outcome.is_ok(), "bit {bit}");
        }
    }

    /// A state request interrupts a collect that waits for the asker, which
    /// then goes on with what it had gathered.
    #[test]
    fn a_state_request_interrupts_a_collect_that_then_resumes() {
        let mut c = SuperstepCollector::new();
        let first = vec![
            ended(1, 0, &[10]),
            ended(2, 1, &[21]),
            InboxEvent::StateRequest(2),
        ];
        assert_eq!(
            c.collect(0, &[1, 2], feed(first)),
            Err(PlaneError::StateRequested(2))
        );
        let wires = c.collect(0, &[1, 2], feed(vec![ended(2, 0, &[20])]));
        assert_eq!(bytes(&wires.unwrap()), [10, 20]);
        let next = c.collect(1, &[1, 2], feed(vec![ended(1, 1, &[])]));
        assert_eq!(
            next.unwrap().len(),
            1,
            "the stash survived the interruption"
        );
    }

    /// A request from a peer whose superstep this collect already has waits
    /// for the collect that still needs one: where the asker's predecessor
    /// stopped.
    #[test]
    fn a_state_request_waits_for_a_collect_that_needs_the_asker() {
        let mut c = SuperstepCollector::new();
        let events = vec![
            ended(1, 0, &[]),
            InboxEvent::StateRequest(1),
            ended(2, 0, &[]),
        ];
        assert_eq!(c.collect(0, &[1, 2], feed(events)), Ok(vec![]));
        let err = c.collect(1, &[1, 2], feed(vec![ended(2, 1, &[])]));
        assert_eq!(err, Err(PlaneError::StateRequested(1)));
        let rest = vec![ended(2, 1, &[]), ended(1, 1, &[])];
        assert_eq!(c.collect(1, &[1, 2], feed(rest)), Ok(vec![]));
    }

    /// After the last collect no later one takes a request it set aside:
    /// `finish` answers it first, then those in the inbox, and returns once
    /// the inbox closes.
    #[test]
    fn finish_answers_a_request_the_last_collect_set_aside() {
        let mut c = SuperstepCollector::new();
        let events = vec![
            ended(1, 0, &[]),
            InboxEvent::StateRequest(1),
            ended(2, 0, &[]),
        ];
        assert_eq!(c.collect(0, &[1, 2], feed(events)), Ok(vec![]));
        let mut inbox = feed(vec![ended(1, 1, &[]), InboxEvent::StateRequest(2)]);
        assert_eq!(c.finish(&mut inbox), Err(PlaneError::StateRequested(1)));
        assert_eq!(c.finish(&mut inbox), Err(PlaneError::StateRequested(2)));
        assert_eq!(c.finish(&mut inbox), Ok(()));
    }
}
