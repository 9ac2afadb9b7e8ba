//! Property tests for shared-transport multiplexing: arbitrary numbers
//! of streams post messages of random sizes in a random interleaved
//! schedule over one pooled QP set, and every stream must deliver its
//! bytes exactly, in order, with no cross-stream contamination — on
//! both the simulated and the threaded backend. Under tight credit and
//! ring budgets, with traffic both ways, the coalesced control plane
//! must also conserve flow control: at quiescence every window and
//! ring byte has been ACKed exactly once, and no withdrawn advert
//! reached the wire.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use exs::threaded::connect_mux_over;
use exs::{connect_mux_pair, ExsConfig, MuxEndpoint, MuxEvent, ThreadPort, VerbsPort};
use rdma_verbs::{
    Access, HcaConfig, HostModel, MrInfo, NodeApi, NodeApp, NodeId, SimNet, ThreadNet, ThreadNode,
};
use simnet::{LinkConfig, SimDuration, SimTime};

fn small_cfg() -> ExsConfig {
    ExsConfig {
        ring_capacity: 4096,
        credits: 16,
        sq_depth: 64,
        ..ExsConfig::default()
    }
}

fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = acc;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn payload(stream: usize, i: usize) -> u8 {
    (stream * 97 + i * 31) as u8
}

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *s >> 33
}

/// One generated workload: per-stream message sizes, a random
/// cross-stream posting schedule, and random receive-buffer splits.
struct Plan {
    /// Per-stream message sizes, posted in order within the stream.
    sizes: Vec<Vec<usize>>,
    /// Stream index sequence: each entry posts that stream's next
    /// message (a uniformly random interleaving of all streams).
    schedule: Vec<usize>,
    /// Per-stream `waitall` receive lengths, summing to the stream's
    /// total — random split points exercise multi-op receive queues.
    recv_splits: Vec<Vec<u32>>,
}

impl Plan {
    fn build(sizes: Vec<Vec<usize>>, seed: u64) -> Plan {
        let mut rng = seed | 1;
        let mut remaining: Vec<usize> = sizes.iter().map(Vec::len).collect();
        let mut schedule = Vec::new();
        while remaining.iter().any(|&r| r > 0) {
            let live: Vec<usize> = (0..sizes.len()).filter(|&s| remaining[s] > 0).collect();
            let pick = live[(lcg(&mut rng) as usize) % live.len()];
            remaining[pick] -= 1;
            schedule.push(pick);
        }
        let recv_splits = sizes
            .iter()
            .map(|msgs| {
                let total: usize = msgs.iter().sum();
                let mut splits = Vec::new();
                let mut left = total;
                while left > 0 {
                    let take = if left <= 2 || lcg(&mut rng).is_multiple_of(3) {
                        left
                    } else {
                        1 + (lcg(&mut rng) as usize) % (left - 1)
                    };
                    splits.push(take as u32);
                    left -= take;
                }
                splits
            })
            .collect();
        Plan {
            sizes,
            schedule,
            recv_splits,
        }
    }

    fn total(&self, stream: usize) -> usize {
        self.sizes[stream].iter().sum()
    }

    /// A direction that carries nothing on any of `streams` streams.
    fn idle(streams: usize) -> Plan {
        Plan::build(vec![Vec::new(); streams], 0)
    }
}

fn recvs_done(evs: &[MuxEvent]) -> usize {
    evs.iter()
        .filter(|e| matches!(e, MuxEvent::RecvComplete { .. }))
        .count()
}

fn sends_done(evs: &[MuxEvent]) -> usize {
    evs.iter()
        .filter(|e| matches!(e, MuxEvent::SendComplete { .. }))
        .count()
}

/// Checks delivered bytes against the pattern, per stream, and that no
/// stream saw another's bytes (the pattern differs per stream).
fn check_delivery(bufs: &[Vec<u8>], plan: &Plan) {
    for (stream, buf) in bufs.iter().enumerate() {
        let want: Vec<u8> = (0..plan.total(stream))
            .map(|i| payload(stream, i))
            .collect();
        assert_eq!(
            fnv1a(0xcbf2_9ce4_8422_2325, buf),
            fnv1a(0xcbf2_9ce4_8422_2325, &want),
            "stream {stream} delivered wrong bytes"
        );
    }
}

// --- simulated backend ------------------------------------------------

struct Host {
    ep: Option<MuxEndpoint>,
    events: Vec<MuxEvent>,
    want_sends: usize,
    want_recvs: usize,
    /// Never done: the run goes on until no event is left.
    quiesce: bool,
}

impl NodeApp for Host {
    fn on_start(&mut self, api: &mut NodeApi<'_>) {
        self.on_wake(api);
    }
    fn on_wake(&mut self, api: &mut NodeApi<'_>) {
        let ep = self.ep.as_mut().unwrap();
        ep.handle_wake(api);
        self.events.extend(ep.take_events());
    }
    fn is_done(&self) -> bool {
        !self.quiesce
            && sends_done(&self.events) >= self.want_sends
            && recvs_done(&self.events) >= self.want_recvs
            && self.ep.as_ref().unwrap().sends_drained()
    }
}

/// Registers one direction's buffers, posts every receive of `plan` on
/// `rx` and then every send on `tx` in the plan's schedule. Returns the
/// receive regions and the number of receives posted.
fn post_direction(
    net: &mut SimNet,
    (ntx, tx): (NodeId, &mut MuxEndpoint),
    (nrx, rx): (NodeId, &mut MuxEndpoint),
    plan: &Plan,
) -> (Vec<MrInfo>, usize) {
    let streams = plan.sizes.len();
    let send_mrs: Vec<MrInfo> = (0..streams)
        .map(|s| {
            net.with_api(ntx, |api| {
                let mr = api.register_mr(plan.total(s).max(1), Access::NONE);
                let data: Vec<u8> = (0..plan.total(s)).map(|i| payload(s, i)).collect();
                api.write_mr(mr.key, mr.addr, &data).unwrap();
                mr
            })
        })
        .collect();
    let recv_mrs: Vec<MrInfo> = (0..streams)
        .map(|s| {
            net.with_api(nrx, |api| {
                api.register_mr(plan.total(s).max(1), Access::local_remote_write())
            })
        })
        .collect();

    let mut recvs = 0;
    net.with_api(nrx, |api| {
        for (s, splits) in plan.recv_splits.iter().enumerate() {
            let mut off = 0u64;
            for (i, &len) in splits.iter().enumerate() {
                rx.mux_recv(api, s as u32, &recv_mrs[s], off, len, true, i as u64)
                    .unwrap();
                off += len as u64;
                recvs += 1;
            }
        }
    });
    let mut next_msg = vec![0usize; streams];
    let mut offsets = vec![0u64; streams];
    net.with_api(ntx, |api| {
        for &s in &plan.schedule {
            let len = plan.sizes[s][next_msg[s]];
            tx.mux_send(
                api,
                s as u32,
                &send_mrs[s],
                offsets[s],
                len as u64,
                next_msg[s] as u64,
            )
            .unwrap();
            offsets[s] += len as u64;
            next_msg[s] += 1;
        }
    });
    (recv_mrs, recvs)
}

fn read_back(net: &mut SimNet, node: NodeId, mrs: &[MrInfo], plan: &Plan) -> Vec<Vec<u8>> {
    net.with_api(node, |api| {
        mrs.iter()
            .enumerate()
            .map(|(s, mr)| {
                let mut buf = vec![0u8; plan.total(s)];
                api.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                buf
            })
            .collect()
    })
}

/// Runs `ab` from endpoint a to b and `ba` from b to a over one pool,
/// checks delivery, then runs the simulation dry and checks that flow
/// control balanced out and both sides' advert counts agree.
fn run_sim(cfg: &ExsConfig, ab: &Plan, ba: &Plan) {
    let mut net = SimNet::new();
    let na = net.add_node(HostModel::free(), HcaConfig::default());
    let nb = net.add_node(HostModel::free(), HcaConfig::default());
    net.connect_nodes(
        na,
        nb,
        LinkConfig::simple(100_000_000_000, SimDuration::from_micros(1)),
        0,
    );
    let streams = ab.sizes.len();
    let mut a = MuxEndpoint::new(na, cfg);
    let mut b = MuxEndpoint::new(nb, cfg);
    for id in 0..streams as u32 {
        a.open_stream(id).unwrap();
        b.open_stream(id).unwrap();
    }
    connect_mux_pair(&mut net, &mut a, &mut b);

    let (b_mrs, b_recvs) = post_direction(&mut net, (na, &mut a), (nb, &mut b), ab);
    let (a_mrs, a_recvs) = post_direction(&mut net, (nb, &mut b), (na, &mut a), ba);

    let mut ha = Host {
        ep: Some(a),
        events: Vec::new(),
        want_sends: ab.schedule.len(),
        want_recvs: a_recvs,
        quiesce: false,
    };
    let mut hb = Host {
        ep: Some(b),
        events: Vec::new(),
        want_sends: ba.schedule.len(),
        want_recvs: b_recvs,
        quiesce: false,
    };
    let outcome = net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(30));
    assert!(
        outcome.completed,
        "sim mux run stalled: a sends {}/{} recvs {}/{}, b sends {}/{} recvs {}/{}",
        sends_done(&ha.events),
        ab.schedule.len(),
        recvs_done(&ha.events),
        a_recvs,
        sends_done(&hb.events),
        ba.schedule.len(),
        recvs_done(&hb.events),
        b_recvs,
    );

    check_delivery(&read_back(&mut net, nb, &b_mrs, ab), ab);
    check_delivery(&read_back(&mut net, na, &a_mrs, ba), ba);

    // Let every ACK, advert and credit return still owed or in flight
    // land, then check that the books balance.
    ha.quiesce = true;
    hb.quiesce = true;
    net.run(&mut [&mut ha, &mut hb], SimTime::from_secs(60));
    let a = ha.ep.take().unwrap();
    let b = hb.ep.take().unwrap();
    for (name, ep) in [("a", &a), ("b", &b)] {
        assert_eq!(ep.stats().protocol_errors, 0, "{name}");
        assert_eq!(ep.stats().mux_demux_errors, 0, "{name}");
        assert!(ep.last_error().is_none(), "{name}: {:?}", ep.last_error());
        assert!(!ep.has_unsent(), "{name} still owes the wire");
        assert_eq!(ep.window_unacked(), 0, "{name} window bytes never ACKed");
        assert_eq!(ep.ring_unacked(), 0, "{name} ring bytes never ACKed");
    }
    assert_eq!(
        b.stats().adverts_sent,
        a.stats().adverts_received,
        "b sent adverts a never received"
    );
    assert_eq!(
        a.stats().adverts_sent,
        b.stats().adverts_received,
        "a sent adverts b never received"
    );
}

// --- threaded backend -------------------------------------------------

fn drive(
    net: &ThreadNet,
    nodes: (&Arc<ThreadNode>, &Arc<ThreadNode>),
    a: &mut MuxEndpoint,
    b: &mut MuxEndpoint,
    want_sends: usize,
    want_recvs: usize,
) -> (Vec<MuxEvent>, Vec<MuxEvent>) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
    loop {
        {
            let mut port = ThreadPort::new(net, nodes.0);
            a.handle_wake(&mut port);
            ev_a.extend(a.take_events());
        }
        {
            let mut port = ThreadPort::new(net, nodes.1);
            b.handle_wake(&mut port);
            ev_b.extend(b.take_events());
        }
        if sends_done(&ev_a) >= want_sends && recvs_done(&ev_b) >= want_recvs && a.sends_drained() {
            return (ev_a, ev_b);
        }
        assert!(
            Instant::now() < deadline,
            "threaded mux run stalled: sends {}/{want_sends} recvs {}/{want_recvs}",
            sends_done(&ev_a),
            recvs_done(&ev_b),
        );
        std::thread::sleep(Duration::from_micros(100));
    }
}

fn run_threaded(plan: &Plan) {
    let cfg = small_cfg();
    let mut net = ThreadNet::new();
    let na = net.add_node(HcaConfig::default());
    let nb = net.add_node(HcaConfig::default());
    net.connect_nodes(&na, &nb, Duration::from_micros(20));
    let streams = plan.sizes.len();
    let mut a = MuxEndpoint::new(na.id(), &cfg);
    let mut b = MuxEndpoint::new(nb.id(), &cfg);
    for id in 0..streams as u32 {
        a.open_stream(id).unwrap();
        b.open_stream(id).unwrap();
    }
    connect_mux_over(&net, (&na, &mut a), (&nb, &mut b));

    let send_mrs: Vec<MrInfo> = (0..streams)
        .map(|s| {
            let mut port = ThreadPort::new(&net, &na);
            let mr = port.register_mr(plan.total(s).max(1), Access::NONE);
            let data: Vec<u8> = (0..plan.total(s)).map(|i| payload(s, i)).collect();
            port.write_mr(mr.key, mr.addr, &data).unwrap();
            mr
        })
        .collect();
    let recv_mrs: Vec<MrInfo> = (0..streams)
        .map(|s| {
            let mut port = ThreadPort::new(&net, &nb);
            port.register_mr(plan.total(s).max(1), Access::local_remote_write())
        })
        .collect();

    let mut want_recvs = 0;
    {
        let mut port = ThreadPort::new(&net, &nb);
        for (s, splits) in plan.recv_splits.iter().enumerate() {
            let mut off = 0u64;
            for (i, &len) in splits.iter().enumerate() {
                b.mux_recv(&mut port, s as u32, &recv_mrs[s], off, len, true, i as u64)
                    .unwrap();
                off += len as u64;
                want_recvs += 1;
            }
        }
    }
    {
        let mut port = ThreadPort::new(&net, &na);
        let mut next_msg = vec![0usize; streams];
        let mut offsets = vec![0u64; streams];
        for &s in &plan.schedule {
            let len = plan.sizes[s][next_msg[s]];
            a.mux_send(
                &mut port,
                s as u32,
                &send_mrs[s],
                offsets[s],
                len as u64,
                next_msg[s] as u64,
            )
            .unwrap();
            offsets[s] += len as u64;
            next_msg[s] += 1;
        }
    }

    drive(
        &net,
        (&na, &nb),
        &mut a,
        &mut b,
        plan.schedule.len(),
        want_recvs,
    );

    let bufs: Vec<Vec<u8>> = {
        let port = ThreadPort::new(&net, &nb);
        recv_mrs
            .iter()
            .enumerate()
            .map(|(s, mr)| {
                let mut buf = vec![0u8; plan.total(s)];
                port.read_mr(mr.key, mr.addr, &mut buf).unwrap();
                buf
            })
            .collect()
    };
    check_delivery(&bufs, plan);
    assert_eq!(a.stats().protocol_errors, 0);
    assert_eq!(b.stats().protocol_errors, 0);
    assert_eq!(b.stats().mux_demux_errors, 0);
    net.quiesce();
}

fn sizes_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(1usize..1500, 1..4), 2..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simulated backend: any interleaving of any message sizes over
    /// the shared pool delivers every stream exactly, in order.
    #[test]
    fn sim_interleaved_streams_never_cross_or_reorder(
        sizes in sizes_strategy(),
        seed in any::<u64>(),
    ) {
        let plan = Plan::build(sizes, seed);
        run_sim(&small_cfg(), &plan, &Plan::idle(plan.sizes.len()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tight budgets, traffic both ways: few credits, a ring that holds
    /// a message or two, a shallow SQ. Every byte arrives once and in
    /// order, and at quiescence each side's windows and ring mirrors are
    /// fully ACKed — a coalesced ACK neither loses nor double-counts a
    /// byte — and every advert one side sent, the other received.
    #[test]
    fn sim_tight_budgets_conserve_bytes_windows_and_adverts(
        (streams, credits, ring_kib, sq_depth) in (2usize..9, 4u32..17, 1u64..5, 4usize..33),
        ab_sizes in proptest::collection::vec(proptest::collection::vec(1usize..3000, 0..5), 8),
        ba_sizes in proptest::collection::vec(proptest::collection::vec(1usize..3000, 0..5), 8),
        seed in any::<u64>(),
    ) {
        let cfg = ExsConfig {
            ring_capacity: ring_kib << 10,
            credits,
            sq_depth,
            ..ExsConfig::default()
        };
        let mut ab_sizes = ab_sizes;
        let mut ba_sizes = ba_sizes;
        ab_sizes.truncate(streams);
        ba_sizes.truncate(streams);
        run_sim(
            &cfg,
            &Plan::build(ab_sizes, seed),
            &Plan::build(ba_sizes, seed.rotate_left(17)),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Threaded backend: the same property under real-thread timing.
    #[test]
    fn threaded_interleaved_streams_never_cross_or_reorder(
        sizes in sizes_strategy(),
        seed in any::<u64>(),
    ) {
        run_threaded(&Plan::build(sizes, seed));
    }
}
