//! Pins the zero-allocation claim of the broadcast hot path.
//!
//! A steady-state superstep's publish/exchange work — resolve the superstep's
//! push/pull direction from the frontier, choose an encoding, encode the
//! message, compress it, frame it for the wire, decode every received message
//! into the shared update buffer, merge the messages' runs and concatenate
//! their ids into the next frontier ([`UpdateRuns`]) — must perform **zero heap
//! allocations** once the reusable buffers (including the persistent
//! [`CompressorScratch`] holding the LZSS match-finder tables) are warm, on
//! the uncompressed path *and* on every compressed codec path. A counting
//! global allocator measures exactly that: warm the buffers with one full
//! superstep, snapshot the allocation counter, run many more supersteps, and
//! require the counter untouched — once per codec configuration.
//!
//! The counter is **thread-local**: the libtest harness thread allocates at
//! its own unpredictable times, and a process-global counter would charge
//! that noise to the hot path. This binary still holds a single `#[test]` so
//! nothing else runs concurrently with the measurement.

use graphh_cluster::{
    BroadcastEncoding, BroadcastMessage, ClusterConfig, CommunicationMode, MessageCodec,
    ServerMetrics,
};
use graphh_compress::{Codec, CompressorScratch};
use graphh_core::exec::{ExecutionPlan, UpdateRuns};
use graphh_core::{Bfs, GabProgram, GraphHConfig};
use graphh_graph::generators::{GraphGenerator, RmatGenerator};
use graphh_obs::{SpanRecorder, Tracer};
use graphh_partition::{Spe, SpeConfig};
use graphh_runtime::fabric::{Action, Conn, Event, Fabric};
use graphh_runtime::frame::encode_message_into;
use graphh_runtime::{
    AddressBook, BufferPool, Frame, MembershipKind, ResilienceConfig, ResumeHello,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddr;
use std::time::Duration;

/// Counts this thread's allocations and reallocations (frees are irrelevant).
struct CountingAllocator;

thread_local! {
    static LOCAL_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// `try_with`: the allocator can be called during TLS teardown, when the
/// counter is already gone — those allocations are not ours to count.
fn bump() {
    let _ = LOCAL_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

fn local_allocations() -> usize {
    LOCAL_ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// One simulated superstep of codec/frame hot-path work over reused buffers:
/// resolve the direction from the frontier (the per-superstep decision every
/// direction-aware executor now makes), encode + compress + frame every
/// message, stream-decode every message back into the shared update buffer,
/// merge into the next frontier. Returns the frontier's length (so the work
/// cannot be optimized away).
///
/// Phase spans are recorded into `rec` exactly where the real worker loop
/// records them — with a disabled recorder every call must be a free no-op,
/// which is the observability layer's zero-cost-when-off contract and part of
/// what the allocation counter below pins.
#[allow(clippy::too_many_arguments)]
fn superstep(
    codec: &MessageCodec,
    messages: &[BroadcastMessage],
    plan: &ExecutionPlan,
    program: &dyn GabProgram,
    frontier: &[u32],
    sid: u32,
    superstep: u32,
    enc_scratch: &mut Vec<u8>,
    wire: &mut Vec<u8>,
    frame_buf: &mut Vec<u8>,
    dec_scratch: &mut Vec<u8>,
    comp: &mut CompressorScratch,
    all_updates: &mut UpdateRuns,
    next_frontier: &mut Vec<u32>,
    rec: &mut SpanRecorder,
) -> usize {
    // The direction decision — frontier stats + Beamer heuristic — runs on
    // borrowed slices only; it is part of the zero-allocation loop.
    let view = plan.frontier_view(program, frontier);
    let mut metrics = ServerMetrics::default();
    all_updates.clear();
    frame_buf.clear();
    let compute = rec.begin();
    rec.end_superstep_dir(
        compute,
        "tile-compute",
        "superstep",
        superstep,
        view.direction.as_str(),
    );
    let publish = rec.begin();
    for message in messages {
        // Sender side: encode (encoding choice + codec, with persistent
        // compressor state) and frame for TCP.
        codec.encode_into_with(message, &mut metrics, enc_scratch, wire, comp);
        encode_message_into(sid, superstep, wire, frame_buf).expect("payload under frame cap");
        // Receiver side: streaming validated decode into the shared buffer.
        codec
            .decode_each(wire, &mut metrics, dec_scratch, |v, val| {
                all_updates.push(v, val);
            })
            .expect("own wire bytes decode");
        all_updates.end_run();
    }
    rec.end_superstep(publish, "encode-publish", "superstep", superstep);
    let flush = rec.begin();
    Frame::EndOfSuperstep {
        sender: sid,
        superstep,
    }
    .encode(frame_buf);
    rec.end_superstep(flush, "plane-flush", "superstep", superstep);
    let apply = rec.begin();
    all_updates
        .merge(next_frontier)
        .expect("the messages' ranges are disjoint");
    rec.end_superstep(apply, "apply", "superstep", superstep);
    next_frontier.len()
}

/// A seed-discovered fabric as it stands in a fault-free run: server 0 of 4,
/// started from a seed, every peer's announce served and its dial adopted —
/// established, every link up and sent the whole book.
fn established_fabric(pool: &BufferPool) -> Fabric {
    let addr = |id: u32| SocketAddr::from(([127, 0, 0, 1], 4750 + id as u16));
    let seeds = vec![addr(1)];
    let config = ResilienceConfig {
        seeds,
        ..ResilienceConfig::default()
    };
    let book = AddressBook::new(4, 0, addr(0));
    let mut fabric = Fabric::new(book, config, Duration::from_secs(10), pool.clone());
    let mut actions = Vec::new();
    for peer in 1..4 {
        let announce = AddressBook::new(4, peer, addr(peer)).msg(MembershipKind::Announce);
        let hello = ResumeHello {
            cluster_size: 4,
            sender: peer,
            resume_from: 0,
        };
        let (asking, dialing) = (Conn::Accepted(0), Conn::Accepted(1));
        let events = [
            Event::Announce(asking, &announce.encode()),
            Event::Hello(dialing, "peer", hello.encode()),
            Event::Tick,
        ];
        for event in events {
            fabric.step(Duration::ZERO, event, &mut actions);
        }
    }
    assert!(actions.iter().any(|a| matches!(a, Action::Established)));
    assert!(fabric.book().is_complete());
    fabric
}

#[test]
fn steady_state_codec_and_frame_path_allocates_nothing_for_every_codec() {
    // Hybrid mode with both outcomes represented by the messages' shapes: one
    // whose id gaps would outweigh its bitmap (90% updated) and one whose
    // bitmap would outweigh its gaps (a handful of updates in a wide range).
    let dense = BroadcastMessage::new(
        0,
        2048,
        (0..1843).map(|v| (v, f64::from(v) * 0.25)).collect(),
    );
    let sparse = BroadcastMessage::new(
        2048,
        4096,
        [2050u32, 2100, 3000, 4000]
            .iter()
            .map(|&v| (v, 1.0))
            .collect(),
    );
    let hybrid = CommunicationMode::Hybrid;
    assert_eq!(dense.choose_encoding(hybrid), BroadcastEncoding::Dense);
    assert_eq!(sparse.choose_encoding(hybrid), BroadcastEncoding::Sparse);
    let messages = [dense, sparse];

    // A real plan + push-capable program so the measured loop runs the same
    // frontier-stats / direction-resolution code the worker loop runs. Built
    // before any snapshot: only the per-superstep decision is measured.
    let graph = RmatGenerator::new(7, 4).generate(2017);
    let partitioned =
        Spe::partition(&graph, &SpeConfig::with_tile_count("alloc", &graph, 4)).expect("partition");
    let config = GraphHConfig::paper_default(ClusterConfig::paper_testbed(1));
    let program = Bfs::new(0);
    let plan = ExecutionPlan::prepare(&config, &partitioned, &program).expect("plan");
    let frontier: Vec<u32> = (0..64).collect();

    // One zero-allocation measurement per codec configuration: the
    // uncompressed path and every compressed codec, each with its own warm
    // buffers and persistent compressor scratch.
    let compressors: [Option<Codec>; 6] = [
        None,
        Some(Codec::Raw),
        Some(Codec::Snappy),
        Some(Codec::Zlib1),
        Some(Codec::Zlib3),
        Some(Codec::VarintDelta),
    ];
    // A real seed-discovered fabric with its live book: the tick the event
    // loop runs every iteration — per link, has the book moved past what
    // this link was sent? — rides the same hot loop and must stay
    // allocation-free while the book is quiescent (the fault-free case).
    // Built before any snapshot: counter registration, the book and the
    // discovery that filled it allocate once, at set-up.
    let pool = BufferPool::new();
    let mut fabric = established_fabric(&pool);
    let mut actions: Vec<Action> = Vec::new();
    for compressor in compressors {
        let label = compressor.map_or("uncompressed", Codec::name);
        let codec = MessageCodec::new(CommunicationMode::default(), compressor);

        // The reusable buffers, checked out of the pool exactly as the worker
        // holds them (per encode lane) for the whole run.
        let mut enc_scratch = pool.checkout();
        let mut wire = pool.checkout();
        let mut frame_buf = pool.checkout();
        let mut dec_scratch = pool.checkout();
        let mut comp = CompressorScratch::new();
        let mut all_updates = UpdateRuns::new();
        let mut next_frontier: Vec<u32> = Vec::new();
        // Tracing disabled — as in every untraced run — must add zero
        // allocations (and zero clock reads) to the measured loop.
        let tracer = Tracer::off();
        let mut rec = tracer.thread(1);

        // Warm-up superstep: buffers (and the compressor's match-finder
        // tables) grow to their steady-state capacities.
        let expected = superstep(
            &codec,
            &messages,
            &plan,
            &program,
            &frontier,
            3,
            0,
            &mut enc_scratch,
            &mut wire,
            &mut frame_buf,
            &mut dec_scratch,
            &mut comp,
            &mut all_updates,
            &mut next_frontier,
            &mut rec,
        );
        assert_eq!(expected, 1843 + 4, "codec {label}");

        let before = local_allocations();
        for s in 1..64u32 {
            // The event loop's tick, and the timer it asks for after it:
            // nothing is due, nothing is gossiped, nothing may allocate.
            let now = Duration::from_millis(u64::from(s));
            fabric.step(now, Event::Tick, &mut actions);
            assert!(actions.is_empty(), "a quiescent fabric acts: {actions:?}");
            std::hint::black_box(fabric.next_timer());
            let merged = superstep(
                &codec,
                &messages,
                &plan,
                &program,
                &frontier,
                3,
                s,
                &mut enc_scratch,
                &mut wire,
                &mut frame_buf,
                &mut dec_scratch,
                &mut comp,
                &mut all_updates,
                &mut next_frontier,
                &mut rec,
            );
            assert_eq!(merged, expected, "codec {label}");
        }
        let after = local_allocations();
        assert_eq!(
            after - before,
            0,
            "steady-state codec/frame path must not allocate (codec {label}, \
             tracing off): {} allocations over 63 supersteps",
            after - before
        );
    }
}
