//! Cluster establishment for the TCP plane: bind, dial, accept, handshake.
//!
//! Everything [`crate::poll::PollPlane`] does *before* its event loop owns the
//! streams lives here, in blocking code that runs once per process — plus the
//! two halves of the `GHHR` handshake, which the event loop calls again when
//! it redials or re-accepts a cut link mid-run.
//!
//! ## Topology and handshake
//!
//! Establishment is deterministic and cycle-free: server `i` **connects** to
//! every peer with a smaller id and **accepts** from every peer with a larger
//! one. Both sides of every connection exchange the 16-byte resume hello
//! ([`crate::resume::ResumeHello`]; `docs/WIRE.md` §2 is the normative spec):
//! the dialer sends first, the acceptor validates (magic, matching cluster
//! size, a higher and not-yet-seen sender id) and replies with its own.
//! Connects retry while the peer's listener is still coming up; both sides
//! give up after the establish timeout instead of hanging on a misconfigured
//! cluster, and the timeout error names the last handshake that was refused.

use crate::membership::{peek_magic, MembershipHandle, MEMBERSHIP_MAGIC};
use crate::resume::{HandshakeFault, ResilienceConfig, ResumeHello, RESUME_HELLO_LEN};
use graphh_graph::ids::ServerId;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How long [`crate::poll::BoundPollPlane::establish`] keeps retrying
/// connects and polling accepts before giving up on an absent peer.
pub const DEFAULT_ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest one connection may take to produce its hello while the cluster is
/// establishing (and on every dial). Real peers send it right after connect;
/// a silent stray must not eat the whole establish deadline.
pub(crate) const ESTABLISH_HANDSHAKE_CAP: Duration = Duration::from_secs(2);

/// The same bound for connections accepted by a *running* event loop, where
/// the wait stalls every peer's traffic: the hello is one immediate 16-byte
/// write, so a quarter second (the membership dial cap) is already generous.
pub(crate) const LOOP_HANDSHAKE_CAP: Duration = Duration::from_millis(250);

/// Validate a (server id, cluster size) pair and bind its listener — the
/// first phase of the two-phase establishment.
pub(crate) fn bind_listener<A: ToSocketAddrs>(
    id: ServerId,
    num_servers: u32,
    listen_addr: A,
) -> std::io::Result<TcpListener> {
    let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, m);
    if num_servers == 0 {
        return Err(invalid(
            "cluster must have at least one server (num_servers = 0)".to_string(),
        ));
    }
    if id >= num_servers {
        return Err(invalid(format!(
            "server id {id} out of range for a {num_servers}-server cluster"
        )));
    }
    TcpListener::bind(listen_addr)
}

/// Why an accepted connection did not become a link (`docs/WIRE.md` §2).
/// Either way the connection is dropped and accepting continues — a stranger
/// or a misconfigured peer must not kill a healthy cluster.
pub(crate) enum Refusal {
    /// Evidently not a GraphH peer: silent, closed early, or wrong magic.
    Stray,
    /// A well-formed hello that contradicts this node's configuration; the
    /// message is what an operator needs to see if establishment times out.
    Rejected(String),
}

/// Dial-side half of the `GHHR` handshake: send `hello` (or a chaos-sabotaged
/// one, consuming fault budget), read and validate `peer`'s reply. Returns the
/// stream plus the superstep the peer asks us to resume from.
pub(crate) fn dial_handshake(
    mut stream: TcpStream,
    hello: ResumeHello,
    peer: ServerId,
    fault: Option<HandshakeFault>,
    fault_budget: &mut u32,
) -> Result<(TcpStream, u32), String> {
    let _ = stream.set_nodelay(true);
    let encoded = hello.encode();
    if let Some(fault) = fault {
        if *fault_budget > 0 {
            *fault_budget -= 1;
            match fault {
                HandshakeFault::Torn { bytes } => {
                    let cut = bytes.min(RESUME_HELLO_LEN);
                    let _ = stream.write_all(&encoded[..cut]);
                }
                HandshakeFault::Duplicate => {
                    let _ = stream
                        .write_all(&encoded)
                        .and_then(|_| stream.write_all(&encoded));
                }
                HandshakeFault::Drop => {}
            }
            // Dropping `stream` closes the sabotaged attempt.
            return Err(format!("chaos: sabotaged hello ({fault:?})"));
        }
    }
    stream
        .write_all(&encoded)
        .map_err(|e| format!("could not send the hello: {e}"))?;
    let _ = stream.set_read_timeout(Some(ESTABLISH_HANDSHAKE_CAP));
    let mut reply = [0u8; RESUME_HELLO_LEN];
    stream
        .read_exact(&mut reply)
        .map_err(|e| format!("no reply hello (the peer refused ours, or is not up yet): {e}"))?;
    let _ = stream.set_read_timeout(None);
    let reply = ResumeHello::decode(&reply)?;
    reply.check(hello.cluster_size, hello.sender, Some(peer))?;
    Ok((stream, reply.resume_from))
}

/// Accept-side half of the `GHHR` handshake: read (within `cap`) and validate
/// the dialer's hello — it must come from a higher-id peer, the dial direction
/// is fixed — then reply with our own cursor for that peer.
fn accept_handshake(
    mut stream: TcpStream,
    num_servers: u32,
    id: ServerId,
    cap: Duration,
    cursor_of: impl Fn(ServerId) -> u32,
) -> Result<(ServerId, TcpStream, u32), Refusal> {
    let stray = |_: std::io::Error| Refusal::Stray;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cap));
    let mut buf = [0u8; RESUME_HELLO_LEN];
    stream.read_exact(&mut buf).map_err(stray)?;
    let hello = ResumeHello::decode(&buf).map_err(|_| Refusal::Stray)?;
    hello
        .check(num_servers, id, None)
        .map_err(Refusal::Rejected)?;
    if hello.sender < id {
        return Err(Refusal::Rejected(format!(
            "server {} dialed against the fixed direction (higher ids dial lower ones)",
            hello.sender
        )));
    }
    let reply = ResumeHello {
        cluster_size: num_servers,
        sender: id,
        resume_from: cursor_of(hello.sender),
    };
    stream.write_all(&reply.encode()).map_err(stray)?;
    let _ = stream.set_read_timeout(None);
    Ok((hello.sender, stream, hello.resume_from))
}

/// Sort one accepted connection. With membership live the listener is shared
/// with `GHHM` exchanges (peers still bootstrapping, replacement processes):
/// one of those is served on the spot and yields `Ok(None)`. Anything else
/// goes through [`accept_handshake`]. No step waits longer than `cap`.
pub(crate) fn accept_connection(
    stream: TcpStream,
    num_servers: u32,
    id: ServerId,
    cap: Duration,
    membership: Option<&MembershipHandle>,
    cursor_of: impl Fn(ServerId) -> u32,
) -> Result<Option<(ServerId, TcpStream, u32)>, Refusal> {
    // Accepted sockets inherit the listener's O_NONBLOCK on some platforms.
    stream.set_nonblocking(false).map_err(|_| Refusal::Stray)?;
    if let Some(membership) = membership {
        if peek_magic(&stream, cap).map_err(|_| Refusal::Stray)? == MEMBERSHIP_MAGIC {
            let mut stream = stream;
            let _ = membership.serve_stream(&mut stream);
            return Ok(None);
        }
    }
    accept_handshake(stream, num_servers, id, cap, cursor_of).map(Some)
}

/// Blocking establishment of the fully-connected fabric: dial every lower-id
/// peer (retrying — and spending any chaos fault budget — until the deadline),
/// then accept every higher-id peer, exchanging hellos in both directions.
/// The direction is fixed by the ids, so the establishment graph is acyclic
/// and cannot deadlock; the listener backlog holds early connects from higher
/// ids until we accept them. Returns one blocking, NODELAY stream per peer,
/// sorted by peer id. The listener is borrowed, not consumed: it stays open
/// with the event loop for the whole run.
///
/// The peers' initial `resume_from` values are dropped here: this endpoint's
/// replay log is empty at establish time, so there is nothing to replay
/// wherever a peer asks to resume (a restarted process re-broadcasts from its
/// checkpoint cursor through the normal worker loop instead).
pub(crate) fn establish_links(
    id: ServerId,
    num_servers: u32,
    listener: &TcpListener,
    peer_addrs: &[SocketAddr],
    timeout: Duration,
    config: &ResilienceConfig,
    fault_budget: &mut u32,
) -> std::io::Result<Vec<(ServerId, TcpStream)>> {
    if peer_addrs.len() != num_servers as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "need one address per server: got {} for a {num_servers}-server cluster",
                peer_addrs.len()
            ),
        ));
    }
    let deadline = Instant::now() + timeout;
    // A refused handshake is never fatal by itself, but it is usually *why*
    // the deadline expires (mismatched `--servers`, a slipped `--peers`
    // order), so the timeout error carries the last one.
    let mut last_refusal: Option<String> = None;
    let timed_out = |what: String, last_refusal: &Option<String>| {
        let why = match last_refusal {
            Some(refusal) => format!("; last refused handshake: {refusal}"),
            None => String::new(),
        };
        std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            format!("server {id}: timed out {what}{why}"),
        )
    };
    let hello = ResumeHello {
        cluster_size: num_servers,
        sender: id,
        resume_from: config.resume_from,
    };
    let mut streams: Vec<(ServerId, TcpStream)> =
        Vec::with_capacity(num_servers.saturating_sub(1) as usize);
    for peer in 0..id {
        let addr = peer_addrs[peer as usize];
        loop {
            if Instant::now() >= deadline {
                return Err(timed_out(format!("dialing server {peer}"), &last_refusal));
            }
            let attempt = TcpStream::connect(addr)
                .map_err(|e| e.to_string())
                .and_then(|stream| {
                    dial_handshake(stream, hello, peer, config.handshake_fault, fault_budget)
                });
            match attempt {
                Ok((stream, _resume_from)) => {
                    streams.push((peer, stream));
                    break;
                }
                Err(why) => last_refusal = Some(format!("server {peer} at {addr}: {why}")),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    listener.set_nonblocking(true)?;
    let mut expected: Vec<ServerId> = ((id + 1)..num_servers).collect();
    while !expected.is_empty() {
        // Checked every iteration — including after a dropped stray — so a
        // periodic prober on the listen port cannot starve the timeout by
        // keeping accept() busy.
        if Instant::now() >= deadline {
            return Err(timed_out(
                format!("waiting for servers {expected:?} to dial in"),
                &last_refusal,
            ));
        }
        let (stream, from) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            Err(e) => return Err(e),
        };
        match accept_connection(
            stream,
            num_servers,
            id,
            ESTABLISH_HANDSHAKE_CAP,
            config.membership.as_ref(),
            |_| config.resume_from,
        ) {
            Ok(Some((sender, stream, _resume_from))) => {
                match expected.iter().position(|&e| e == sender) {
                    Some(slot) => {
                        expected.swap_remove(slot);
                        streams.push((sender, stream));
                    }
                    None => {
                        last_refusal = Some(format!("{from}: duplicate hello from server {sender}"))
                    }
                }
            }
            Ok(None) | Err(Refusal::Stray) => {}
            Err(Refusal::Rejected(why)) => last_refusal = Some(format!("{from}: {why}")),
        }
    }
    streams.sort_by_key(|&(peer, _)| peer);
    Ok(streams)
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
        let err = b.establish(&addrs).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
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
            p.acknowledge(0).unwrap();
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
            assert!(
                !err.to_string().contains("refused handshake"),
                "strays are not refusals worth reporting: {err}"
            );
        });
    }

    /// Two nodes launched with different cluster sizes never establish — and
    /// the timeout says why instead of only "timed out": the acceptor names
    /// both sizes, the dialer names the peer that would not answer.
    #[test]
    fn mismatched_cluster_sizes_are_named_in_the_timeout_error() {
        let b0 = PollPlane::bind(0, 2, "127.0.0.1:0").unwrap();
        let b1 = PollPlane::bind(1, 3, "127.0.0.1:0").unwrap();
        let a0 = b0.local_addr().unwrap();
        let a1 = b1.local_addr().unwrap();
        let timeout = Duration::from_millis(400);
        let (e0, e1) = thread::scope(|scope| {
            let h0 = scope.spawn(move || b0.establish_with_timeout(&[a0, a1], timeout));
            let h1 = scope.spawn(move || b1.establish_with_timeout(&[a0, a1, a1], timeout));
            (
                h0.join().unwrap().unwrap_err(),
                h1.join().unwrap().unwrap_err(),
            )
        });
        assert_eq!(e0.kind(), std::io::ErrorKind::TimedOut);
        let text = e0.to_string();
        assert!(
            text.contains("peer believes the cluster has 3 servers, this node 2"),
            "{text}"
        );
        assert_eq!(e1.kind(), std::io::ErrorKind::TimedOut);
        let text = e1.to_string();
        assert!(text.contains(&format!("server 0 at {a0}")), "{text}");
    }
}
