//! The [`PollPlane`] threading contract, asserted rather than assumed:
//! however many peers an endpoint talks to, it adds **exactly one**
//! event-loop thread to the process, and dropping it joins that thread again
//! (no lingering transport threads — the clean-shutdown half of the contract).
//!
//! What is counted is the contract's subject — threads named
//! `graphh-poll-loop-*` — not the process-wide thread total, which races the
//! reaping of scoped threads under a loaded `cargo test --workspace`. It
//! still lives in its own test binary, as a **single** `#[test]`: any other
//! test establishing a plane in the same process would add loop threads of
//! its own.

use graphh_runtime::{BoundPollPlane, BroadcastPlane, PollPlane};
use std::net::SocketAddr;
use std::thread;

/// How many event-loop threads this process runs right now: threads whose
/// `/proc/self/task/*/comm` carries the loop's name (the kernel keeps 15
/// bytes of `graphh-poll-loop-{id}`); `None` where that is unavailable.
fn event_loop_thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let loops = tasks.filter_map(Result::ok).filter(|task| {
        std::fs::read_to_string(task.path().join("comm"))
            .is_ok_and(|comm| comm.starts_with("graphh-poll-loo"))
    });
    Some(loops.count())
}

fn establish_cluster(n: u32) -> Vec<PollPlane> {
    let bound: Vec<BoundPollPlane> = (0..n)
        .map(|sid| PollPlane::bind(sid, n, "127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = bound.iter().map(|b| b.local_addr().unwrap()).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = bound
            .into_iter()
            .map(|b| {
                let addrs = &addrs;
                scope.spawn(move || b.establish(addrs).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// One test, three claims: (a) a poll endpoint costs exactly one event-loop
/// thread however many peers it has; (b) the planes work in that state;
/// (c) dropping them joins every transport thread.
#[test]
fn poll_plane_threading_contract() {
    let Some(baseline) = event_loop_thread_count() else {
        eprintln!("skipping: no /proc/self/task thread names on this platform");
        return;
    };
    assert_eq!(baseline, 0, "no plane exists yet");

    let servers = 4u32;
    let mut planes = establish_cluster(servers);
    // One event-loop thread per endpoint — NOT one per peer connection (which
    // would be servers * (servers - 1)).
    assert_eq!(
        event_loop_thread_count().unwrap(),
        baseline + servers as usize,
        "{servers} poll endpoints must add exactly {servers} event-loop threads"
    );

    // The planes actually work in this state: one full superstep exchange.
    thread::scope(|scope| {
        for plane in &mut planes {
            scope.spawn(move || {
                let sid = plane.server_id();
                plane.broadcast(0, &[sid as u8]).unwrap();
                plane.end_superstep(0).unwrap();
                assert_eq!(plane.collect(0).unwrap().len(), servers as usize - 1);
            });
        }
    });
    // The exchange ran on worker threads; the loop thread count is unchanged.
    assert_eq!(
        event_loop_thread_count().unwrap(),
        baseline + servers as usize
    );

    drop(planes);
    assert_eq!(
        event_loop_thread_count().unwrap(),
        baseline,
        "dropping every plane must join every event-loop thread"
    );
}
