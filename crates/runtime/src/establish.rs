//! What is left of establishment outside the event loop: binding the listener,
//! the classification of a refused hello, and the two deadlines.
//!
//! Bringing links up — at start-up, after a cut, for a replacement process —
//! is one path: [`crate::fabric::Fabric`] decides (dial lower ids, accept
//! higher ids, vet the 16-byte `GHHR` hello of `docs/WIRE.md` §2, reply,
//! adopt), [`crate::poll`]'s event loop moves the bytes without ever blocking
//! on a socket. [`crate::poll::BoundPollPlane::establish`] merely starts that
//! loop with every link down and waits for its verdict; the tests below pin
//! the operator-facing contract of that verdict.

use graphh_graph::ids::ServerId;
use std::net::{TcpListener, ToSocketAddrs};
use std::time::Duration;

/// How long [`crate::poll::BoundPollPlane::establish`] waits for every link
/// to come up once before giving up on an absent peer.
pub const DEFAULT_ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a dialed or accepted connection may take to produce its hello
/// (or its `GHHM` announce). Until then it only occupies a pending slot of
/// the event loop — nothing waits on it — so one generous bound serves a
/// starting cluster and a running one alike. A peer that is bound but not
/// yet establishing (a restarted `graphh-node` building its workload) holds
/// dials in its backlog for about this long before they are retried.
pub const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(2);

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

/// Why a hello did not become a link (`docs/WIRE.md` §2). Either way the
/// connection is dropped and the listener keeps accepting — a stranger or a
/// misconfigured peer must not kill a healthy cluster.
#[derive(Debug)]
pub(crate) enum Refusal {
    /// Evidently not a GraphH peer (wrong magic), or a peer already given up
    /// for good: dropped without a word.
    Stray,
    /// A well-formed hello that contradicts this node's configuration.
    Rejected {
        /// The link the refusal is held against should it later be lost for
        /// good (`None`: no particular peer).
        sender: Option<ServerId>,
        /// What an operator needs to see if establishment times out.
        why: String,
    },
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
