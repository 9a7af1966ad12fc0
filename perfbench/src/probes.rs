//! Layer probes: each times one layer's public functions in isolation,
//! with no event loop, as the median of repeated batches.
//!
//! A probe's cost times the matching count from a workload estimates the
//! layer's share of that workload's host time (see `report`).

use std::collections::VecDeque;
use std::hint::black_box;

use bytes::Bytes;
use demos_core::{MigrationConfig, Node};
use demos_kernel::{ImageLayout, KernelConfig, Outbox};
use demos_net::{ChannelConfig, Endpoint, Frame, Phys};
use demos_obs::recorder::{kind, Record};
use demos_obs::FlightRecorder;
use demos_policy::{ClusterView, Hysteresis, LoadBalance, MachineLoad, Policy, ProcessInfo};
use demos_types::{
    CorrId, Duration, MachineId, Message, MsgFlags, MsgHeader, ProcessId, Time, Wire,
};

use crate::clock::{median, now_ns, Rng, Tracer};

/// Probe results, by metric name.
pub type ProbeResults = Vec<(&'static str, f64)>;

/// Batches per probe; the probe reports the median batch.
const BATCHES: usize = 9;

/// Median over [`BATCHES`] of host ns per item, where `batch` runs
/// `items` items.
fn per_item_ns(items: u64, mut batch: impl FnMut()) -> f64 {
    batch(); // warm caches and lazy allocations
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = now_ns();
            batch();
            (now_ns() - t0) as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// A user message with `payload` bytes, as the kernels exchange them.
fn sample_message(payload: usize) -> Message {
    let pid = ProcessId {
        creating_machine: MachineId(1),
        local_uid: 7,
    };
    Message {
        header: MsgHeader {
            dest: pid.at(MachineId(2)),
            src: pid,
            src_machine: MachineId(1),
            msg_type: demos_types::tags::USER_BASE + 1,
            flags: MsgFlags::NONE,
            hops: 0,
        },
        links: vec![],
        payload: Bytes::from(vec![0xA5u8; payload]),
        corr: CorrId::NONE,
    }
}

/// `types`: `Message::to_bytes` / `from_bytes` on a small and a 1 KiB
/// message.
fn codec(out: &mut ProbeResults) {
    const N: u64 = 4_000;
    for (enc, dec, payload) in [
        ("types.encode_ns.small", "types.decode_ns.small", 16usize),
        ("types.encode_ns.data1k", "types.decode_ns.data1k", 1024),
    ] {
        let msg = sample_message(payload);
        out.push((
            enc,
            per_item_ns(N, || {
                for _ in 0..N {
                    black_box(black_box(&msg).to_bytes());
                }
            }),
        ));
        let wire = msg.to_bytes();
        out.push((
            dec,
            per_item_ns(N, || {
                for _ in 0..N {
                    black_box(Message::from_bytes(black_box(&wire)).expect("round trip"));
                }
            }),
        ));
    }
}

/// Zero-latency physical layer: frames queue until the caller delivers
/// them.
#[derive(Default)]
struct Loopback {
    q: VecDeque<(MachineId, MachineId, Frame)>,
}

impl Phys for Loopback {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        self.q.push_back((src, dst, frame));
    }
}

/// `net`: an `Endpoint` pair pumping `n` messages of `payload` bytes,
/// window-limited, acknowledged, over a loopback `Phys`.
fn pump(n: usize, payload: usize) {
    let (ma, mb) = (MachineId(0), MachineId(1));
    let mut a = Endpoint::new(ma, ChannelConfig::default());
    let mut b = Endpoint::new(mb, ChannelConfig::default());
    let mut phys = Loopback::default();
    let msg = Bytes::from(vec![7u8; payload]);
    let (mut sent, mut delivered) = (0, 0);
    while delivered < n {
        while sent < n && a.in_flight() < 32 {
            a.send(Time::ZERO, mb, msg.clone(), CorrId::NONE, &mut phys);
            sent += 1;
        }
        while let Some((src, dst, f)) = phys.q.pop_front() {
            if dst == mb {
                delivered += b.on_frame(Time::ZERO, src, f, &mut phys).len();
            } else {
                a.on_frame(Time::ZERO, src, f, &mut phys);
            }
        }
    }
    assert_eq!(delivered, n, "every message delivered once");
}

fn channel(out: &mut ProbeResults) {
    const N: usize = 2_000;
    for (name, payload) in [("net.pump_ns.64", 64usize), ("net.pump_ns.1024", 1024)] {
        out.push((name, per_item_ns(N as u64, || pump(N, payload))));
    }
}

/// Two nodes joined by a loopback wire, with one cargo process.
struct NodePair {
    nodes: [Node; 2],
    wire: Loopback,
    out: Outbox,
    now: Time,
    pid: ProcessId,
    home: usize,
}

impl NodePair {
    fn new(image_bytes: u32) -> Self {
        let registry = demos_sim::programs::registry().into_shared();
        let machines = vec![MachineId(0), MachineId(1)];
        let mut nodes = [0u16, 1].map(|i| {
            let mut n = Node::new(
                MachineId(i),
                KernelConfig::default(),
                MigrationConfig::default(),
                registry.clone(),
            );
            n.engine.set_peers(machines.clone());
            n
        });
        let mut out = Outbox::default();
        let layout = ImageLayout {
            code: image_bytes,
            data: 2048,
            stack: 1024,
        };
        let pid = nodes[0]
            .kernel
            .spawn(
                Time::ZERO,
                "cargo",
                &demos_sim::programs::Cargo::state(64),
                layout,
                false,
                &mut out,
            )
            .expect("spawn cargo on an empty node");
        out.trace.clear();
        NodePair {
            nodes,
            wire: Loopback::default(),
            out,
            now: Time::ZERO,
            pid,
            home: 0,
        }
    }

    /// Deliver every queued frame.
    fn deliver(&mut self) {
        while let Some((src, dst, f)) = self.wire.q.pop_front() {
            let node = &mut self.nodes[dst.0 as usize];
            node.on_frame(self.now, src, f, &mut self.wire, &mut self.out);
            self.out.trace.clear();
        }
    }

    /// One full migration to the other node: the eight-step handshake and
    /// the move-data image transfer, driven by frame delivery, firing
    /// deadlines only when the wire is idle and the migration unfinished.
    fn migrate(&mut self) {
        let (from, to) = (self.home, 1 - self.home);
        let done = self.nodes[from].engine.stats().completed_out;
        self.nodes[from]
            .migrate(
                self.now,
                self.pid,
                MachineId(to as u16),
                None,
                &mut self.wire,
                &mut self.out,
            )
            .expect("migration starts");
        for _ in 0..10_000 {
            self.deliver();
            if self.nodes[from].engine.stats().completed_out > done {
                assert!(self.nodes[to].kernel.process(self.pid).is_some());
                self.home = to;
                return;
            }
            let next = self
                .nodes
                .iter_mut()
                .filter_map(|n| n.next_deadline())
                .min();
            self.now = next.expect("an unfinished migration has a deadline");
            for node in &mut self.nodes {
                node.on_time(self.now, &mut self.wire, &mut self.out);
            }
        }
        panic!("node-pair migration did not complete");
    }
}

/// `core` + `kernel::movedata`: node-pair migrations at 4/64/512 KiB.
/// The 4 KiB time is the handshake; the 64→512 KiB slope is move-data
/// cost per MiB.
fn node_migration(out: &mut ProbeResults) {
    let mut us = [0.0f64; 3];
    for (slot, kib) in [4u32, 64, 512].into_iter().enumerate() {
        let mut pair = NodePair::new(kib * 1024);
        let reps = if kib == 512 { 4 } else { 16 };
        us[slot] = per_item_ns(reps, || {
            for _ in 0..reps {
                pair.migrate();
            }
        }) / 1e3;
    }
    out.push(("core.handshake_us", us[0]));
    out.push((
        "kernel.movedata_us_per_mib",
        (us[2] - us[1]) / (448.0 / 1024.0),
    ));
}

/// `kernel` dispatch: `Node::submit` of a message to a local process.
fn local_send(out: &mut ProbeResults) {
    const N: u64 = 200;
    let mut pair = NodePair::new(4096);
    let pid = pair.pid;
    let mut msg = sample_message(16);
    msg.header.dest = pid.at(MachineId(0));
    msg.header.src = pid;
    msg.header.src_machine = MachineId(0);
    let ns = per_item_ns(N, || {
        let node = &mut pair.nodes[0];
        for _ in 0..N {
            node.submit(pair.now, msg.clone(), &mut pair.wire, &mut pair.out);
        }
        // Drain the queue between batches so every batch starts equal.
        while node
            .run_next(pair.now, &mut pair.wire, &mut pair.out)
            .is_some()
        {}
        pair.out.trace.clear();
    });
    out.push(("kernel.local_send_ns", ns));
}

/// `obs`: `FlightRecorder::record` into a wrapping ring.
fn recorder(out: &mut ProbeResults) {
    const N: u64 = 20_000;
    let mut ring = FlightRecorder::new(0, demos_sim::DEFAULT_RECORDER_CAPACITY);
    let mut rec = Record {
        kind: kind::ENQUEUED,
        ..Record::default()
    };
    out.push((
        "obs.record_ns",
        per_item_ns(N, || {
            for i in 0..N {
                rec.at = i;
                ring.record(black_box(rec));
            }
        }),
    ));
}

/// A 1024-machine snapshot with two processes per machine and a few hot
/// machines, as `balance_1024` presents it to the policy.
fn policy_view(seed: u64) -> ClusterView {
    let mut rng = Rng::new(seed, 0x9011c7);
    let mut machines = Vec::with_capacity(1024);
    let mut processes = Vec::with_capacity(2048);
    for i in 0..1024u16 {
        let m = MachineId(i);
        let runq = if rng.below(64) == 0 {
            6
        } else {
            rng.below(2) as usize
        };
        machines.push(MachineLoad {
            machine: m,
            runq,
            nprocs: 2,
            cpu_util: runq as f64 / 6.0,
            mem_used: 28 << 10,
            mem_capacity: 16 << 20,
            health: 1.0,
        });
        for uid in 0..2 {
            processes.push(ProcessInfo {
                pid: ProcessId {
                    creating_machine: m,
                    local_uid: uid,
                },
                machine: m,
                cpu_used: Duration::from_micros(rng.below(50_000)),
                image_len: 14 << 10,
                privileged: false,
                bytes_sent_to: Vec::new(),
            });
        }
    }
    ClusterView {
        at: Time::ZERO + Duration::from_secs(1),
        machines,
        processes,
    }
}

/// `policy`: `LoadBalance::decide` on a 1024-machine snapshot.
fn decide(out: &mut ProbeResults) {
    let view = policy_view(1);
    let us = per_item_ns(20, || {
        for _ in 0..20 {
            let mut p = LoadBalance::new(2, Hysteresis::new(Duration::ZERO, Duration::ZERO));
            black_box(p.decide(black_box(&view)));
        }
    }) / 1e3;
    out.push(("policy.decide_us", us));
}

/// Run every probe, each inside a span of its layer.
pub fn run_all(t: &mut Tracer) -> ProbeResults {
    let mut out = ProbeResults::new();
    t.call("types", "probe:codec", || codec(&mut out));
    t.call("net", "probe:Endpoint pump", || channel(&mut out));
    t.call("core", "probe:node-pair migration", || {
        node_migration(&mut out)
    });
    t.call("kernel", "probe:Node::submit", || local_send(&mut out));
    t.call("obs", "probe:FlightRecorder::record", || recorder(&mut out));
    t.call("policy", "probe:Policy::decide", || decide(&mut out));
    out
}
