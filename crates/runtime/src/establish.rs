//! Cluster establishment for the TCP plane: bind, dial, accept, handshake.
//!
//! Everything [`crate::poll::PollPlane`] does *before* its event loop owns the
//! streams lives here, in blocking code that runs once per process.
//!
//! ## Topology and handshake
//!
//! Establishment is deterministic and cycle-free: server `i` **connects** to
//! every peer with a smaller id and **accepts** from every peer with a larger
//! one. The connector opens the connection with a 12-byte handshake —
//! `b"GHH1" | u32 LE cluster size | u32 LE sender id` — which the acceptor
//! validates (magic, matching cluster size, expected and not-yet-seen id)
//! before the stream joins the fabric. Connects retry while the peer's
//! listener is still coming up; both sides give up after the establish
//! timeout instead of hanging on a misconfigured cluster.

use graphh_graph::ids::ServerId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// First bytes of every connection: protocol magic + version.
const HANDSHAKE_MAGIC: [u8; 4] = *b"GHH1";

/// How long [`crate::poll::BoundPollPlane::establish`] keeps retrying
/// connects and polling accepts before giving up on an absent peer.
pub const DEFAULT_ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Establish the fully-connected fabric: the deterministic dial-lower /
/// accept-higher topology plus the GHH1 handshake. Returns one blocking,
/// NODELAY stream per peer, sorted by peer id. See `docs/WIRE.md` §2 for the
/// normative handshake spec.
pub(crate) fn establish_streams(
    id: ServerId,
    num_servers: u32,
    listener: TcpListener,
    peer_addrs: &[SocketAddr],
    timeout: Duration,
    early: Vec<TcpStream>,
    membership: Option<&crate::membership::MembershipState>,
) -> std::io::Result<Vec<(ServerId, TcpStream)>> {
    if peer_addrs.len() != num_servers as usize {
        return Err(invalid_input(format!(
            "need one address per server: got {} for a {num_servers}-server cluster",
            peer_addrs.len()
        )));
    }
    let deadline = Instant::now() + timeout;

    // Dial every lower id (their listeners are up or coming up), then
    // accept every higher id. The direction is fixed by the ids, so the
    // establishment graph is acyclic and cannot deadlock; the listener
    // backlog holds early connects from higher ids until we accept them.
    let mut streams: Vec<(ServerId, TcpStream)> =
        Vec::with_capacity(num_servers.saturating_sub(1) as usize);
    for peer in 0..id {
        let stream = connect_with_retry(peer_addrs[peer as usize], deadline)?;
        stream.set_nodelay(true)?;
        let mut hello = Vec::with_capacity(12);
        hello.extend_from_slice(&HANDSHAKE_MAGIC);
        hello.extend_from_slice(&num_servers.to_le_bytes());
        hello.extend_from_slice(&id.to_le_bytes());
        let mut stream_ref = &stream;
        stream_ref.write_all(&hello)?;
        stream_ref.flush()?;
        streams.push((peer, stream));
    }
    let mut expected: Vec<ServerId> = ((id + 1)..num_servers).collect();
    // Connections stashed by a seed-discovery bootstrap before establish
    // began: ordinary GHH1 dials from higher ids that arrived while this node
    // was still gossiping its address book. They go through the same
    // handshake validation as freshly accepted streams.
    let mut pending: Vec<TcpStream> = early;
    listener.set_nonblocking(true)?;
    while !expected.is_empty() {
        // Checked every iteration — including after a dropped stray — so a
        // periodic prober on the listen port cannot starve the timeout by
        // keeping accept() busy.
        if Instant::now() >= deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "server {id}: peers {expected:?} did not connect before the establish \
                     timeout"
                ),
            ));
        }
        let stream = if let Some(stream) = pending.pop() {
            stream
        } else {
            match listener.accept() {
                Ok((stream, from)) => {
                    stream.set_nonblocking(false)?;
                    // Seed-mode listeners keep answering `GHHM` exchanges:
                    // peers still bootstrapping their own address books dial
                    // us after our own discovery already converged.
                    if let Some(state) = membership {
                        match crate::membership::peek_magic(&stream) {
                            Ok(magic) if magic == crate::membership::MEMBERSHIP_MAGIC => {
                                let mut stream = stream;
                                let _ = state.serve_stream(&mut stream);
                                continue;
                            }
                            Ok(_) => {}
                            Err(why) => {
                                eprintln!(
                                    "graphh establish (server {id}): ignoring connection \
                                     from {from}: {why}"
                                );
                                continue;
                            }
                        }
                    }
                    stream
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
                Err(e) => return Err(e),
            }
        };
        let from = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string());
        let peer = match read_handshake(&stream, num_servers, deadline) {
            Ok(peer) => peer,
            Err(HandshakeIssue::Stray(why)) => {
                // Not a GraphH peer (port scanner, health checker, a
                // silent or garbage connection): drop it and keep
                // accepting — a stranger must not kill a healthy
                // cluster's establishment.
                eprintln!(
                    "graphh establish (server {id}): ignoring connection from \
                     {from}: {why}"
                );
                continue;
            }
            Err(HandshakeIssue::Fatal(e)) => return Err(e),
        };
        if let Some(slot) = expected.iter().position(|&e| e == peer) {
            expected.swap_remove(slot);
            stream.set_nodelay(true)?;
            streams.push((peer, stream));
        } else {
            return Err(invalid_data(format!(
                "unexpected or duplicate handshake from server {peer}"
            )));
        }
    }
    streams.sort_by_key(|&(peer, _)| peer);
    Ok(streams)
}

/// Validate a (server id, cluster size) pair and bind its listener — the
/// first phase of the two-phase establishment.
pub(crate) fn bind_listener<A: ToSocketAddrs>(
    id: ServerId,
    num_servers: u32,
    listen_addr: A,
) -> std::io::Result<TcpListener> {
    if num_servers == 0 {
        return Err(invalid_input(
            "cluster must have at least one server (num_servers = 0)".to_string(),
        ));
    }
    if id >= num_servers {
        return Err(invalid_input(format!(
            "server id {id} out of range for a {num_servers}-server cluster"
        )));
    }
    TcpListener::bind(listen_addr)
}

fn connect_with_retry(addr: SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("could not reach peer at {addr} before the establish timeout: {e}"),
                    ));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// How an accepted connection failed the handshake: a stray connection is
/// dropped and establishment continues; a fatal issue (a real GHH1 speaker
/// with a conflicting cluster config) aborts establishment loudly.
enum HandshakeIssue {
    Stray(String),
    Fatal(std::io::Error),
}

/// Longest one accepted connection may take to produce its 12 handshake
/// bytes. Real dialers send them immediately after connect; a silent stray
/// must not eat the whole establish deadline.
const HANDSHAKE_READ_CAP: Duration = Duration::from_secs(2);

fn read_handshake(
    stream: &TcpStream,
    num_servers: u32,
    deadline: Instant,
) -> Result<ServerId, HandshakeIssue> {
    // A rogue or half-dead connection must not park establishment forever —
    // nor monopolize the remaining deadline while real peers queue behind it.
    let budget = deadline
        .checked_duration_since(Instant::now())
        .unwrap_or(Duration::from_millis(1))
        .min(HANDSHAKE_READ_CAP);
    let io = |e: std::io::Error| HandshakeIssue::Fatal(e);
    stream.set_read_timeout(Some(budget)).map_err(io)?;
    let mut hello = [0u8; 12];
    if let Err(e) = (&mut &*stream).read_exact(&mut hello) {
        // EOF, timeout, reset: whatever it was, it was not a GraphH peer's
        // handshake (those are a single immediate 12-byte write).
        return Err(HandshakeIssue::Stray(format!(
            "no GHH1 handshake within {budget:?}: {e}"
        )));
    }
    stream.set_read_timeout(None).map_err(io)?;
    if hello[0..4] != HANDSHAKE_MAGIC {
        return Err(HandshakeIssue::Stray(
            "connection did not open with the GHH1 handshake magic".to_string(),
        ));
    }
    let claimed_servers = u32::from_le_bytes([hello[4], hello[5], hello[6], hello[7]]);
    if claimed_servers != num_servers {
        // A genuine GraphH peer that disagrees about the cluster shape is a
        // misconfiguration worth failing loudly on, not a stray to ignore.
        return Err(HandshakeIssue::Fatal(invalid_data(format!(
            "peer believes the cluster has {claimed_servers} servers, this node {num_servers}"
        ))));
    }
    Ok(ServerId::from_le_bytes([
        hello[8], hello[9], hello[10], hello[11],
    ]))
}

fn invalid_input(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
}

fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use crate::plane::BroadcastPlane;
    use crate::poll::{BoundPollPlane, PollPlane};
    use std::io::Write;
    use std::net::{SocketAddr, TcpStream};
    use std::thread;
    use std::time::Duration;

    /// Bind `n` planes on loopback and return them with the address table.
    fn bind_cluster(n: u32) -> (Vec<BoundPollPlane>, Vec<SocketAddr>) {
        let bound: Vec<BoundPollPlane> = (0..n)
            .map(|sid| PollPlane::bind(sid, n, "127.0.0.1:0").unwrap())
            .collect();
        let addrs = bound.iter().map(|b| b.local_addr().unwrap()).collect();
        (bound, addrs)
    }

    #[test]
    fn establish_rejects_wrong_address_table() {
        let (mut bound, mut addrs) = bind_cluster(2);
        let b = bound.remove(0);
        addrs.pop();
        assert!(b.establish(&addrs).is_err());
        // Unblock the remaining bound plane by dropping it unestablished.
        drop(bound);
    }

    /// A stranger connecting to a node's listener mid-establishment (port
    /// scanner, health checker, a silent or garbage connection) must be
    /// dropped — not abort the whole cluster's establishment.
    #[test]
    fn stray_connections_do_not_kill_establishment() {
        let (bound, addrs) = bind_cluster(2);
        let mut iter = bound.into_iter();
        let b0 = iter.next().unwrap();
        let b1 = iter.next().unwrap();
        let target = addrs[0];

        let mut planes: Vec<PollPlane> = thread::scope(|scope| {
            let addrs = &addrs;
            let h0 = scope.spawn(move || b0.establish(addrs).unwrap());
            // Two strays into server 0's accept queue ahead of the real
            // peer: one sends garbage, one connects and says nothing.
            let garbage = TcpStream::connect(target).unwrap();
            (&garbage).write_all(b"NOPE").unwrap();
            drop(garbage);
            drop(TcpStream::connect(target).unwrap());
            let h1 = scope.spawn(move || b1.establish(addrs).unwrap());
            vec![h0.join().unwrap(), h1.join().unwrap()]
        });

        // The fabric works despite the strays.
        for p in &mut planes {
            p.broadcast(0, &[p.server_id() as u8]).unwrap();
            p.end_superstep(0).unwrap();
        }
        for p in &mut planes {
            assert_eq!(p.collect(0).unwrap().len(), 1);
        }
    }

    /// A prober that reconnects in a loop keeps `accept()` returning `Ok`;
    /// the deadline must still fire — stray handling may not starve the
    /// establish timeout.
    #[test]
    fn accept_side_timeout_survives_persistent_strays() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let bound = PollPlane::bind(0, 2, "127.0.0.1:0").unwrap();
        let addr = bound.local_addr().unwrap();
        let own_addr = addr; // placeholder entry for this server's slot
        let done = AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| {
                // Connect-and-close probers: each accept yields a clean-EOF
                // stray.
                while !done.load(Ordering::Relaxed) {
                    drop(TcpStream::connect(addr));
                    thread::sleep(Duration::from_millis(10));
                }
            });
            let err = bound
                .establish_with_timeout(&[own_addr, addr], Duration::from_millis(300))
                .unwrap_err();
            done.store(true, Ordering::Relaxed);
            assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        });
    }
}
