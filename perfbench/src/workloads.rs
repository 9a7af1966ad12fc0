//! The four seeded workloads. Each episode builds its own cluster from
//! the inputs one seed generates, times every op, and returns the
//! deterministic results (virtual-time costs and per-layer counts) next
//! to the host times. Two episodes of one seed must return identical
//! deterministic results; `main` checks that.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use demos_chaos::{run_capture, RunConfig, Scenario};
use demos_kernel::TraceRecord;
use demos_obs::recorder::{self, kind, pack_pid, phase};
use demos_policy::{Hysteresis, LoadBalance};
use demos_sim::boot::{total_client_errors, total_client_ops};
use demos_sim::prelude::*;
use demos_sim::programs::{
    burner_done, nomad_stats, Cargo, Client, CpuBurner, EchoServer, Nomad, PingPong,
};
use demos_sim::{latency_histogram, spans_of};
use demos_types::CorrId;

use crate::clock::{now_ns, percentile, Rng, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Back-to-back migrations of 4/64/512 KiB-class images, 4 machines.
    MigrateImages,
    /// Echo RPC, sysproc clients and moving servers on 64 machines.
    RpcForward,
    /// Burner waves under a load-balancing policy on 1024 machines.
    Balance1024,
    /// Seeded chaos scenarios with invariants on.
    ChaosMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::MigrateImages,
        Workload::RpcForward,
        Workload::Balance1024,
        Workload::ChaosMix,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MigrateImages => "migrate_images",
            Workload::RpcForward => "rpc_forward",
            Workload::Balance1024 => "balance_1024",
            Workload::ChaosMix => "chaos_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Run one episode. `chaos_mix` goes on with fresh scenarios until
    /// `deadline_ns`, if given; the other workloads ignore it.
    pub fn episode(
        self,
        seed: u64,
        size: Size,
        deadline_ns: Option<u64>,
        t: &mut Tracer,
    ) -> Episode {
        match self {
            Workload::MigrateImages => migrate_images(seed, size, t),
            Workload::RpcForward => rpc_forward(seed, size, t),
            Workload::Balance1024 => balance(seed, size, t),
            Workload::ChaosMix => chaos_mix(seed, size, deadline_ns, t),
        }
    }
}

/// Episode dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Ops per episode.
    pub ops: usize,
    /// Machines in `balance_1024` (the other workloads fix their own).
    pub machines: usize,
}

impl Size {
    /// The measured size of `w`.
    pub fn full(w: Workload) -> Size {
        let ops = match w {
            Workload::MigrateImages => 400,
            Workload::RpcForward => 60,
            Workload::Balance1024 => 150,
            Workload::ChaosMix => 1200,
        };
        Size {
            ops,
            machines: 1024,
        }
    }

    /// A few ops on a small cluster, for the benchmark's own tests.
    pub fn tiny(w: Workload) -> Size {
        let ops = match w {
            Workload::MigrateImages => 12,
            Workload::RpcForward => 4,
            Workload::Balance1024 => 30,
            Workload::ChaosMix => 4,
        };
        Size { ops, machines: 32 }
    }
}

/// Deterministic results of an episode, by metric name.
pub type Virt = BTreeMap<&'static str, f64>;

/// One episode's results.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host time to build, boot, place and warm, per set-up.
    pub setup: Vec<Timing>,
    /// Host time of each op.
    pub ops: Vec<Timing>,
    /// Ops whose outcome was checked (the base of `fail_ratio`).
    pub attempted: u64,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// Virtual-time costs and per-layer counts; identical for one seed.
    pub virt: Virt,
}

impl Episode {
    fn fail(&mut self, what: String) {
        self.failures.push(what);
    }
}

/// A timed interval of host time.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Host ns at its middle, for the host-speed scale.
    pub at: u64,
    /// Host ns it took.
    pub ns: u64,
}

/// Run `f` inside a `bench` span named `name`, stamping op `op` on it
/// and its children (0 = set-up); returns the host time it took. A
/// host-speed sample, if one is due, follows it untimed.
fn timed<R>(
    t: &mut Tracer,
    op: usize,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> R,
) -> (Timing, R) {
    t.op = op as u64;
    t.open("bench", name);
    let t0 = now_ns();
    let r = f(t);
    let ns = now_ns() - t0;
    t.close();
    if let Some(speed) = t.speed.as_mut() {
        speed.between_ops();
    }
    let timing = Timing {
        at: t0 + ns / 2,
        ns,
    };
    (timing, r)
}

/// An image layout of about `bytes` in total, drawn within +12.5 % of
/// its size class so one seed's images differ from another's.
fn jittered_layout(rng: &mut Rng, bytes: u32) -> ImageLayout {
    let jitter = rng.below(u64::from(bytes / 8)) as u32 & !63;
    ImageLayout {
        code: (bytes + jitter).saturating_sub(3072).max(1024),
        data: 2048,
        stack: 1024,
    }
}

/// Link parameters a seeded few percent faster or slower than the
/// default, so virtual-time costs differ between seeds instead of
/// repeating the same quantised values.
fn seeded_edges(rng: &mut Rng) -> EdgeParams {
    let base = EdgeParams::default();
    let mut scale = |x: u64| x * rng.range(975, 1025) / 1000;
    EdgeParams {
        latency: Duration::from_micros(scale(base.latency.as_micros())),
        ns_per_byte: scale(base.ns_per_byte),
        loss: 0.0,
    }
}

/// Migrations the benchmark ordered, resolved from the destination's
/// flight recorder: order time to the `Restarted` record.
#[derive(Default)]
struct MigWatch {
    /// (pid, dest, virtual µs of the order, dest recorder total then).
    pending: Vec<(ProcessId, MachineId, u64, u64)>,
    /// Virtual µs from order to restart, per landed migration.
    virt_us: Vec<f64>,
}

impl MigWatch {
    /// Track an order issued at `ordered_us`; `cursor` is the
    /// destination recorder's total at that instant.
    fn track(&mut self, pid: ProcessId, dest: MachineId, ordered_us: u64, cursor: u64) {
        self.pending.push((pid, dest, ordered_us, cursor));
    }

    /// Resolve pending migrations that restarted; report the ones that
    /// restarted elsewhere than ordered.
    fn poll(&mut self, c: &Cluster, ep: &mut Episode) {
        let mut still = Vec::new();
        for (pid, dest, at, cursor) in std::mem::take(&mut self.pending) {
            let rec = c.recorder(dest);
            let fresh = (rec.total_recorded() - cursor).min(rec.capacity() as u64) as usize;
            let packed = pack_pid(pid.creating_machine.0, pid.local_uid);
            let restart =
                rec.tail(fresh).into_iter().rev().find(|r| {
                    r.kind == kind::MIGRATION && r.arg == phase::RESTARTED && r.a == packed
                });
            match restart {
                Some(r) => {
                    self.virt_us.push((r.at - at) as f64);
                    // A burner may finish and exit right after landing.
                    if let Some(m) = c.where_is(pid).filter(|&m| m != dest) {
                        ep.fail(format!("{pid:?} restarted at {dest:?} but is at {m:?}"));
                    }
                }
                None => still.push((pid, dest, at, cursor)),
            }
        }
        self.pending = still;
    }

    /// Pending migrations at the end are failures; the landed ones give
    /// the virtual-time percentiles.
    fn finish(self, ep: &mut Episode) {
        for (pid, dest, at, _) in &self.pending {
            ep.fail(format!(
                "{pid:?} ordered to {dest:?} at {at} us never restarted there"
            ));
        }
        ep.virt
            .insert("mig_virt_ms_p50", percentile(&self.virt_us, 0.50) / 1e3);
        ep.virt
            .insert("mig_virt_ms_p99", percentile(&self.virt_us, 0.99) / 1e3);
    }
}

/// Per-layer counts every cluster workload reads from the public stats
/// accessors, plus the §6 per-migration costs.
fn cluster_counts(c: &Cluster, v: &mut Virt) {
    let ns = c.net().stats();
    let data = ns.data_frames.max(1) as f64;
    for (k, x) in [
        ("net.frames_sent", ns.frames_sent),
        ("net.bytes_sent", ns.bytes_sent),
        ("net.retransmit_frames", ns.retransmit_frames),
        ("net.dup_acks", ns.dup_acks),
        ("net.dedup_drops", ns.dedup_drops),
        ("net.frames_dropped", ns.frames_dropped),
    ] {
        v.insert(k, x as f64);
    }
    v.insert(
        "net.goodput_ratio",
        (ns.data_frames - ns.retransmit_frames) as f64 / data,
    );
    let mut k = demos_kernel::KernelStats::default();
    let mut traffic = demos_kernel::TrafficBreakdown::default();
    let mut m = demos_core::MigrationStats::default();
    let (mut records, mut dropped) = (0u64, 0u64);
    for i in 0..c.len() {
        let id = MachineId(i as u16);
        let node = c.node(id);
        let s = node.kernel.stats();
        traffic.merge(&s.traffic);
        k.submitted += s.submitted;
        k.delivered_local += s.delivered_local;
        k.transmitted += s.transmitted;
        k.forwarded += s.forwarded;
        k.links_patched += s.links_patched;
        k.nondeliverable += s.nondeliverable;
        k.activations += s.activations;
        let e = node.engine.stats();
        m.started += e.started;
        m.completed_in += e.completed_in;
        m.aborted += e.aborted;
        m.rejected += e.rejected;
        m.retried += e.retried;
        m.pending_forwarded += e.pending_forwarded;
        m.bytes_received += e.bytes_received;
        let rec = c.recorder(id);
        records += rec.total_recorded();
        dropped += rec.total_recorded() - rec.len() as u64;
    }
    for (key, x) in [
        ("kernel.submitted", k.submitted),
        ("kernel.delivered_local", k.delivered_local),
        ("kernel.transmitted", k.transmitted),
        ("kernel.forwarded", k.forwarded),
        ("kernel.links_patched", k.links_patched),
        ("kernel.nondeliverable", k.nondeliverable),
        ("kernel.activations", k.activations),
        ("kernel.md_data_bytes", traffic.md_data.bytes),
        ("kernel.md_data_msgs", traffic.md_data.msgs),
        ("core.started", m.started),
        ("core.completed", m.completed_in),
        ("core.aborted", m.aborted),
        ("core.rejected", m.rejected),
        ("core.retried", m.retried),
        ("core.pending_forwarded", m.pending_forwarded),
        ("obs.records", records),
        ("obs.dropped", dropped),
    ] {
        v.insert(key, x as f64);
    }
    v.insert(
        "kernel.forward_ratio",
        k.forwarded as f64 / k.transmitted.max(1) as f64,
    );
    v.insert(
        "core.completion_ratio",
        m.completed_in as f64 / m.started.max(1) as f64,
    );
    let done = m.completed_in.max(1) as f64;
    v.insert("bytes_per_mig", m.bytes_received as f64 / done);
    v.insert("admin_msgs_per_mig", traffic.admin().msgs as f64 / done);
    let st = c.step_stats();
    for (key, x) in [
        ("sim.steps", st.steps),
        ("sim.cpu_visits", st.cpu_visits),
        ("sim.frame_visits", st.frame_visits),
        ("sim.timer_visits", st.timer_visits),
    ] {
        v.insert(key, x as f64);
    }
}

/// Dump every flight recorder (the post-mortem path) and check the dump
/// parses back to the recorders' own totals.
fn dump_and_check(c: &Cluster, t: &mut Tracer, ep: &mut Episode) {
    let dump = t.call("obs", "Cluster::recorder_dump", || c.recorder_dump());
    match recorder::parse_dump(&dump) {
        Ok(nodes) => {
            let total: u64 = nodes.iter().map(|n| n.total).sum();
            if total != ep.virt["obs.records"] as u64 {
                ep.fail(format!(
                    "recorder dump holds {total} records, recorders say {}",
                    ep.virt["obs.records"]
                ));
            }
        }
        Err(e) => ep.fail(format!("recorder dump does not parse: {e}")),
    }
}

// ---------------------------------------------------------------------
// migrate_images
// ---------------------------------------------------------------------

/// Processes the image workload cycles through: four of each class.
const IMAGE_PROCS: usize = 12;
const IMAGE_CLASSES_KIB: [u32; 3] = [4, 64, 512];

fn migrate_images(seed: u64, size: Size, t: &mut Tracer) -> Episode {
    let mut rng = Rng::new(seed, 1);
    let mut classes: Vec<u32> = (0..IMAGE_PROCS)
        .map(|i| IMAGE_CLASSES_KIB[i % 3] * 1024)
        .collect();
    rng.shuffle(&mut classes);
    let layouts: Vec<ImageLayout> = classes
        .iter()
        .map(|&b| jittered_layout(&mut rng, b))
        .collect();
    // Each round migrates every process once, in a seeded order, to a
    // seeded other machine.
    let mut home: Vec<u16> = (0..IMAGE_PROCS as u16).map(|i| i % 4).collect();
    let mut plan = Vec::with_capacity(size.ops);
    let mut order: Vec<usize> = (0..IMAGE_PROCS).collect();
    while plan.len() < size.ops {
        rng.shuffle(&mut order);
        for &p in order.iter().take(size.ops - plan.len()) {
            let dest = (home[p] + 1 + rng.below(3) as u16) % 4;
            home[p] = dest;
            plan.push((p, MachineId(dest)));
        }
    }

    let edges = seeded_edges(&mut rng);
    let mut ep = Episode::default();
    let (setup, (mut c, pids)) = timed(t, 0, "setup", |t| {
        let mut c = t.call("sim", "ClusterBuilder::build", || {
            ClusterBuilder::new(0)
                .topology(Topology::full_mesh(4, edges))
                .seed(seed)
                .no_trace()
                .build()
        });
        let pids: Vec<ProcessId> = layouts
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                c.spawn(MachineId(i as u16 % 4), "cargo", &Cargo::state(64), l)
                    .expect("spawn cargo")
            })
            .collect();
        t.call("sim", "Cluster::run_for", || {
            c.run_for(Duration::from_millis(5))
        });
        (c, pids)
    });
    ep.setup.push(setup);

    let mut watch = MigWatch::default();
    for (i, &(p, dest)) in plan.iter().enumerate() {
        let pid = pids[p];
        let (ordered, cursor) = (c.now().as_micros(), c.recorder(dest).total_recorded());
        let (timing, ok) = timed(t, i + 1, "op", |t| {
            let ok = t.call("core", "Cluster::migrate", || c.migrate(pid, dest));
            t.call("sim", "Cluster::run_quiescent", || {
                c.run_quiescent(Duration::from_secs(5))
            });
            ok
        });
        ep.ops.push(timing);
        ep.attempted += 1;
        match ok {
            Ok(()) => watch.track(pid, dest, ordered, cursor),
            Err(e) => ep.fail(format!("op {i}: migrate {pid:?} -> {dest:?}: {e}")),
        }
        watch.poll(&c, &mut ep);
    }
    watch.finish(&mut ep);
    cluster_counts(&c, &mut ep.virt);
    dump_and_check(&c, t, &mut ep);
    ep
}

// ---------------------------------------------------------------------
// rpc_forward
// ---------------------------------------------------------------------

const RPC_MACHINES: u16 = 64;
const RPC_SERVERS: usize = 8;
/// One server moves every this much virtual time.
const RPC_MOVE_EVERY: Duration = Duration::from_millis(10);
/// Server moves per op: an op is a 50 ms virtual slice, ending with the
/// slice's message spans and latency histogram.
const RPC_MOVES_PER_OP: usize = 5;
/// After each op the trace keeps only this much virtual time of tail, so
/// it stays bounded while messages in flight across the cut keep their
/// whole span for the next op.
const RPC_KEEP: Duration = Duration::from_millis(20);

fn rpc_forward(seed: u64, size: Size, t: &mut Tracer) -> Episode {
    let mut rng = Rng::new(seed, 2);
    let mut machines: Vec<u16> = (1..RPC_MACHINES).collect();
    rng.shuffle(&mut machines);
    let server_home: Vec<u16> = machines[..RPC_SERVERS].to_vec();
    let server_layouts: Vec<ImageLayout> = (0..RPC_SERVERS)
        .map(|_| jittered_layout(&mut rng, 4096))
        .collect();
    // One client per machine, an equal number per server, and request
    // periods spread evenly over 2–6 ms: the seed shuffles who gets what,
    // so the offered load is the same for every seed.
    let mut clients: Vec<(usize, u32)> = (0..usize::from(RPC_MACHINES))
        .map(|k| {
            (
                k % RPC_SERVERS,
                2_000 + (k * 4_000 / usize::from(RPC_MACHINES - 1)) as u32,
            )
        })
        .collect();
    let mut periods: Vec<u32> = clients.iter().map(|c| c.1).collect();
    rng.shuffle(&mut clients);
    rng.shuffle(&mut periods);
    for (c, p) in clients.iter_mut().zip(periods) {
        c.1 = p;
    }
    let fs_machines = [machines[RPC_SERVERS], machines[RPC_SERVERS + 1]];
    let nomad_homes: Vec<u16> = machines[RPC_SERVERS + 2..RPC_SERVERS + 6].to_vec();
    // Each op moves distinct servers, so every move can be checked at the
    // end of its op.
    let mut at = server_home.clone();
    let mut order: Vec<usize> = (0..RPC_SERVERS).collect();
    let mut moves: Vec<(usize, MachineId)> = Vec::with_capacity(size.ops * RPC_MOVES_PER_OP);
    for _ in 0..size.ops {
        rng.shuffle(&mut order);
        for &s in &order[..RPC_MOVES_PER_OP] {
            let mut dest = rng.range(1, u64::from(RPC_MACHINES) - 1) as u16;
            if dest == at[s] {
                dest = dest % (RPC_MACHINES - 1) + 1;
            }
            at[s] = dest;
            moves.push((s, MachineId(dest)));
        }
    }
    let edges = seeded_edges(&mut rng);
    let mut ep = Episode::default();
    let (setup, (mut c, servers, fs_clients, nomads)) = timed(t, 0, "setup", |t| {
        let mut c = t.call("sim", "ClusterBuilder::build", || {
            ClusterBuilder::new(0)
                .topology(Topology::full_mesh(RPC_MACHINES as usize, edges))
                .seed(seed)
                .build()
        });
        let handles = t
            .call("sysproc", "boot_system", || {
                boot_system(&mut c, BootConfig::default())
            })
            .expect("boot system services");
        let servers: Vec<ProcessId> = server_home
            .iter()
            .zip(&server_layouts)
            .map(|(&m, &l)| {
                c.spawn(MachineId(m), "echo_server", &EchoServer::state(50), l)
                    .expect("spawn echo server")
            })
            .collect();
        for (m, &(s, period)) in clients.iter().enumerate() {
            let pid = c
                .spawn(
                    MachineId(m as u16),
                    "client",
                    &Client::state(0, period, 32),
                    ImageLayout::default(),
                )
                .expect("spawn client");
            let link = c.link_to(servers[s]).expect("server alive");
            c.post(pid, wl::INIT, Bytes::new(), vec![link])
                .expect("init client");
        }
        let mut fs_clients = Vec::new();
        for m in fs_machines {
            fs_clients.extend(
                spawn_fs_clients(&mut c, &handles, MachineId(m), 2, 4, 20_000, 64, 70)
                    .expect("spawn fs clients"),
            );
        }
        let nomads: Vec<ProcessId> = nomad_homes
            .iter()
            .map(|&m| {
                let pid = c
                    .spawn(
                        MachineId(m),
                        "nomad",
                        &Nomad::state(RPC_MACHINES, 100_000),
                        ImageLayout::default(),
                    )
                    .expect("spawn nomad");
                let pm = c.link_to(handles.procmgr).expect("procmgr alive");
                c.post(pid, wl::INIT, Bytes::new(), vec![pm])
                    .expect("init nomad");
                pid
            })
            .collect();
        t.call("sim", "Cluster::run_for", || {
            c.run_for(Duration::from_millis(50))
        });
        c.trace_mut().clear();
        (c, servers, fs_clients, nomads)
    });
    ep.setup.push(setup);

    let mut watch = MigWatch::default();
    let mut latency = Histogram::new();
    let mut trace_records = 0u64;
    let mut kept = 0usize;
    let mut counted: BTreeSet<CorrId> = BTreeSet::new();
    for (i, op_moves) in moves.chunks(RPC_MOVES_PER_OP).enumerate() {
        let (timing, (orders, spans)) = timed(t, i + 1, "op", |t| {
            let mut orders = Vec::with_capacity(op_moves.len());
            for &(s, dest) in op_moves {
                let pid = servers[s];
                let at = (c.now().as_micros(), c.recorder(dest).total_recorded());
                let ok = t.call("core", "Cluster::migrate", || c.migrate(pid, dest));
                orders.push((s, pid, dest, at, ok));
                t.call("sim", "Cluster::run_for", || c.run_for(RPC_MOVE_EVERY));
            }
            let spans = t.call("sim", "spans_of", || spans_of(c.trace()));
            // Spans delivered in the kept tail were counted by the last op.
            let h = t.call("sim", "latency_histogram", || {
                latency_histogram(
                    spans
                        .iter()
                        .filter(|s| s.delivered().is_some() && !counted.contains(&s.corr)),
                )
            });
            latency.merge(&h);
            (orders, spans)
        });
        ep.ops.push(timing);
        counted = spans
            .iter()
            .filter(|s| s.delivered().is_some() && !counted.contains(&s.corr))
            .map(|s| s.corr)
            .collect();
        for (s, pid, dest, (ordered, cursor), ok) in orders {
            ep.attempted += 1;
            match ok {
                Ok(()) => watch.track(pid, dest, ordered, cursor),
                Err(e) => ep.fail(format!(
                    "op {i}: migrate server {s} {pid:?} -> {dest:?}: {e}"
                )),
            }
        }
        watch.poll(&c, &mut ep);
        trace_records += (c.trace().len() - kept) as u64;
        let keep_from = c.now().as_micros().saturating_sub(RPC_KEEP.as_micros());
        let tail: Vec<TraceRecord> = c
            .trace()
            .records()
            .iter()
            .filter(|r| r.at.as_micros() >= keep_from)
            .cloned()
            .collect();
        kept = tail.len();
        c.trace_mut().clear();
        for r in tail {
            c.trace_mut().extend(r.at, r.machine, [r.event]);
        }
    }
    watch.finish(&mut ep);
    cluster_counts(&c, &mut ep.virt);
    dump_and_check(&c, t, &mut ep);

    let nondeliverable = ep.virt["kernel.nondeliverable"];
    ep.attempted += ep.virt["kernel.submitted"] as u64;
    if nondeliverable > 0.0 {
        ep.fail(format!("{nondeliverable} messages were non-deliverable"));
    }
    let fs_errors = total_client_errors(&c, &fs_clients);
    if fs_errors > 0 {
        ep.fail(format!("{fs_errors} fs-client errors"));
    }
    let (mut hops, mut nomad_failed) = (0u64, 0u64);
    for &pid in &nomads {
        let state = c
            .where_is(pid)
            .and_then(|m| c.node(m).kernel.process(pid))
            .and_then(|p| p.program.as_ref())
            .map(|prog| prog.save());
        match state {
            Some(s) => {
                let (h, f, _) = nomad_stats(&s);
                hops += h;
                nomad_failed += f;
            }
            None => ep.fail(format!("nomad {pid:?} vanished")),
        }
    }
    if nomad_failed > 0 {
        ep.fail(format!("{nomad_failed} failed nomad migration requests"));
    }
    let v = &mut ep.virt;
    v.insert("msg_virt_us_p50", latency.p50() as f64);
    v.insert("msg_virt_us_p99", latency.p99() as f64);
    v.insert("sim.trace_records", trace_records as f64);
    v.insert("sysproc.fs_ops", total_client_ops(&c, &fs_clients) as f64);
    v.insert("sysproc.fs_errors", fs_errors as f64);
    v.insert("sysproc.nomad_hops", hops as f64);
    v.insert("sysproc.nomad_failed", nomad_failed as f64);
    ep
}

// ---------------------------------------------------------------------
// balance_1024
// ---------------------------------------------------------------------

/// Virtual time per op; the policy ticks once per slice.
const BAL_SLICE: Duration = Duration::from_millis(10);
/// A burner wave arrives every this many slices.
const BAL_WAVE_EVERY: usize = 10;
/// Hot machines per wave, and burners placed on each.
const BAL_WAVE_MACHINES: usize = 3;
const BAL_WAVE_DEPTH: usize = 4;
/// One ping-pong pair in this many rallies forever; the rest stop after
/// a few rallies and leave their machines idle.
const BAL_ACTIVE_EVERY: usize = 16;

/// One burner of a wave: where it lands, its iteration limit, its image.
struct Burner {
    machine: MachineId,
    limit: u64,
    layout: ImageLayout,
}

fn balance(seed: u64, size: Size, t: &mut Tracer) -> Episode {
    let mut rng = Rng::new(seed, 3);
    let n = size.machines;
    let pairs: Vec<u64> = (0..n / 2)
        .map(|k| {
            if k % BAL_ACTIVE_EVERY == 0 {
                0
            } else {
                rng.range(4, 16)
            }
        })
        .collect();
    // Every wave carries the same work: iteration limits spread evenly
    // over 100–300, shuffled over the wave's seeded hot machines.
    let per_wave = BAL_WAVE_MACHINES * BAL_WAVE_DEPTH;
    let waves: Vec<Vec<Burner>> = (0..size.ops.div_ceil(BAL_WAVE_EVERY))
        .map(|_| {
            let mut limits: Vec<u64> = (0..per_wave)
                .map(|k| 100 + (k * 200 / (per_wave - 1)) as u64)
                .collect();
            rng.shuffle(&mut limits);
            let hot: Vec<MachineId> = (0..BAL_WAVE_MACHINES)
                .map(|_| MachineId(rng.below(n as u64) as u16))
                .collect();
            limits
                .into_iter()
                .enumerate()
                .map(|(k, limit)| Burner {
                    machine: hot[k % BAL_WAVE_MACHINES],
                    limit,
                    layout: jittered_layout(&mut rng, 14 * 1024),
                })
                .collect()
        })
        .collect();

    let edges = seeded_edges(&mut rng);
    let mut ep = Episode::default();
    let (setup, mut c) = timed(t, 0, "setup", |t| {
        let mut c = t.call("sim", "ClusterBuilder::build", || {
            ClusterBuilder::new(0)
                .topology(Topology::full_mesh(n, edges))
                .seed(seed)
                .no_trace()
                .build()
        });
        for (k, &limit) in pairs.iter().enumerate() {
            let (ma, mb) = (MachineId(2 * k as u16), MachineId(2 * k as u16 + 1));
            let a = c
                .spawn(
                    ma,
                    "pingpong",
                    &PingPong::state(limit, 100),
                    ImageLayout::default(),
                )
                .expect("spawn ping");
            let b = c
                .spawn(
                    mb,
                    "pingpong",
                    &PingPong::state(limit, 100),
                    ImageLayout::default(),
                )
                .expect("spawn pong");
            let (la, lb) = (c.link_to(a).expect("ping"), c.link_to(b).expect("pong"));
            c.post(a, wl::INIT, Bytes::from_static(&[1]), vec![lb])
                .expect("init ping");
            c.post(b, wl::INIT, Bytes::from_static(&[0]), vec![la])
                .expect("init pong");
        }
        t.call("sim", "Cluster::run_for", || {
            c.run_for(Duration::from_millis(50))
        });
        c
    });
    ep.setup.push(setup);

    let policy = LoadBalance::new(
        2,
        Hysteresis::new(Duration::from_millis(50), Duration::from_millis(5)),
    );
    let mut driver = PolicyDriver::new(Box::new(policy), BAL_SLICE);
    let mut watch = MigWatch::default();
    let mut burners: Vec<(ProcessId, u64)> = Vec::new();
    for i in 0..size.ops {
        let wave = (i % BAL_WAVE_EVERY == 0).then(|| &waves[i / BAL_WAVE_EVERY]);
        let failed_before = driver.orders_failed;
        let (timing, (spawned, orders)) = timed(t, i + 1, "op", |t| {
            let spawned: Vec<Result<ProcessId, _>> = wave
                .into_iter()
                .flatten()
                .map(|b| {
                    c.spawn(
                        b.machine,
                        "cpu_burner",
                        &CpuBurner::state(b.limit, 900, 1_000),
                        b.layout,
                    )
                })
                .collect();
            t.call("sim", "Cluster::run_for", || c.run_for(BAL_SLICE));
            let orders = t.call("policy", "PolicyDriver::tick", || driver.tick(&mut c));
            (spawned, orders)
        });
        ep.ops.push(timing);
        for (b, r) in wave.into_iter().flatten().zip(spawned) {
            match r {
                Ok(pid) => burners.push((pid, b.limit)),
                Err(e) => ep.fail(format!("op {i}: spawn burner on {:?}: {e}", b.machine)),
            }
        }
        // An order that failed to start is already a failure; the orders
        // of a tick with none failed are tracked to their restart.
        let now = c.now().as_micros();
        if driver.orders_failed == failed_before {
            for o in orders {
                watch.track(o.pid, o.dest, now, c.recorder(o.dest).total_recorded());
            }
        }
        watch.poll(&c, &mut ep);
    }
    // Let the last orders land (teardown, untimed).
    c.run_for(Duration::from_millis(50));
    watch.poll(&c, &mut ep);
    ep.attempted = driver.orders_issued;
    if driver.orders_failed > 0 {
        ep.fail(format!(
            "{} of {} policy orders failed to start",
            driver.orders_failed, driver.orders_issued
        ));
    }
    if driver.orders_issued == 0 {
        ep.fail("the policy issued no orders".to_string());
        ep.attempted = 1;
    }
    watch.finish(&mut ep);
    cluster_counts(&c, &mut ep.virt);
    dump_and_check(&c, t, &mut ep);
    let jobs: u64 = burners
        .iter()
        .map(|&(pid, limit)| {
            c.where_is(pid)
                .and_then(|m| c.node(m).kernel.process(pid))
                .and_then(|p| p.program.as_ref())
                .map_or(limit, |prog| burner_done(&prog.save()))
        })
        .sum();
    let v = &mut ep.virt;
    v.insert("jobs_done", jobs as f64);
    v.insert("policy.orders_issued", driver.orders_issued as f64);
    v.insert("policy.orders_failed", driver.orders_failed as f64);
    ep
}

// ---------------------------------------------------------------------
// chaos_mix
// ---------------------------------------------------------------------

/// One scenario in each block of this many is a crash-recovery
/// schedule, at a seeded place in the block; the rest are classic.
const CHAOS_BLOCK: u64 = 4;
/// The scenario every set-up warms up on, whatever the seed.
const CHAOS_WARM_SEED: u64 = 0;
/// `chaos_mix` runs one long episode per run, so it repeats its set-up
/// this many times and reports the median.
const CHAOS_SETUPS: usize = 5;

/// The seeded scenario stream: scenario `i` of a seed is always the same.
struct ScenarioStream {
    rng: Rng,
    recovery_at: u64,
    i: u64,
}

impl ScenarioStream {
    fn next(&mut self) -> Scenario {
        if self.i.is_multiple_of(CHAOS_BLOCK) {
            self.recovery_at = self.rng.below(CHAOS_BLOCK);
        }
        let recovery = self.i % CHAOS_BLOCK == self.recovery_at;
        self.i += 1;
        let s = self.rng.next_u64() >> 16;
        if recovery {
            Scenario::generate_recovery(s)
        } else {
            Scenario::generate(s)
        }
    }
}

/// What the flight dumps and reports of the scenarios say.
#[derive(Default)]
struct ChaosTally {
    count: [u64; 16],
    records: u64,
    dropped: u64,
    bytes: u64,
    applied: u64,
    skipped: u64,
    violations: u64,
    mig_us: Vec<f64>,
}

impl ChaosTally {
    /// Run scenario `i` as op `i`, check it, and tally its dump.
    fn run(&mut self, i: usize, sc: &Scenario, t: &mut Tracer, ep: &mut Episode) {
        let cfg = RunConfig::default();
        let (timing, (report, _trace, flight)) = timed(t, i + 1, "op", |t| {
            t.call("chaos", "chaos::run_capture", || run_capture(sc, &cfg))
        });
        ep.ops.push(timing);
        ep.attempted += 1;
        self.applied += report.events_applied as u64;
        self.skipped += report.events_skipped as u64;
        if let Some(v) = &report.violation {
            self.violations += 1;
            ep.fail(format!("scenario {i} (seed {}): {v}", sc.seed));
        }
        let nodes = match recorder::parse_dump(&flight) {
            Ok(n) => n,
            Err(e) => {
                ep.fail(format!("scenario {i}: flight dump does not parse: {e}"));
                return;
            }
        };
        for n in &nodes {
            self.records += n.total;
            self.dropped += n.dropped();
        }
        let mut frozen: BTreeMap<u64, u64> = BTreeMap::new();
        for r in recorder::merge(&nodes) {
            self.count[usize::from(r.kind) & 15] += 1;
            if r.kind != kind::MIGRATION {
                continue;
            }
            match r.arg {
                phase::FROZEN => {
                    frozen.insert(r.a, r.at);
                }
                phase::RESTARTED => {
                    if let Some(at) = frozen.remove(&r.a) {
                        self.mig_us.push((r.at - at) as f64);
                    }
                }
                phase::IMAGE_TRANSFERRED => self.bytes += r.b,
                _ => {}
            }
        }
    }

    fn virt(&self) -> Virt {
        let mut v = Virt::new();
        v.insert("mig_virt_ms_p50", percentile(&self.mig_us, 0.50) / 1e3);
        v.insert("mig_virt_ms_p99", percentile(&self.mig_us, 0.99) / 1e3);
        v.insert(
            "bytes_per_mig",
            self.bytes as f64 / self.mig_us.len().max(1) as f64,
        );
        for (key, k) in [
            ("kernel.submitted", kind::SUBMITTED),
            ("kernel.delivered_local", kind::ENQUEUED),
            ("kernel.forwarded", kind::FORWARDED),
            ("kernel.nondeliverable", kind::NON_DELIVERABLE),
            ("kernel.links_patched", kind::LINK_UPDATE_APPLIED),
        ] {
            v.insert(key, self.count[usize::from(k)] as f64);
        }
        v.insert("core.completed", self.mig_us.len() as f64);
        v.insert("obs.records", self.records as f64);
        v.insert("obs.dropped", self.dropped as f64);
        v.insert("chaos.events_applied", self.applied as f64);
        v.insert("chaos.events_skipped", self.skipped as f64);
        v.insert("chaos.violations", self.violations as f64);
        v
    }
}

/// Scenarios are independent, so instead of repeating an episode the
/// run goes on through the seed's scenario stream until `deadline_ns`:
/// every op of a run is a distinct scenario. The deterministic results
/// cover the first `size.ops` scenarios only.
fn chaos_mix(seed: u64, size: Size, deadline_ns: Option<u64>, t: &mut Tracer) -> Episode {
    let mut ep = Episode::default();
    let mut planned = Vec::new();
    for _ in 0..CHAOS_SETUPS {
        let (setup, scenarios) = timed(t, 0, "setup", |t| {
            let warm = Scenario::generate(CHAOS_WARM_SEED);
            t.call("chaos", "chaos::run_capture", || {
                run_capture(&warm, &RunConfig::default())
            });
            let mut stream = ScenarioStream {
                rng: Rng::new(seed, 4),
                recovery_at: 0,
                i: 0,
            };
            let planned: Vec<Scenario> = (0..size.ops).map(|_| stream.next()).collect();
            (planned, stream)
        });
        ep.setup.push(setup);
        planned.push(scenarios);
    }
    let (scenarios, mut stream) = planned.pop().expect("at least one set-up");

    let mut tally = ChaosTally::default();
    for (i, sc) in scenarios.iter().enumerate() {
        tally.run(i, sc, t, &mut ep);
    }
    ep.virt = tally.virt();
    let mut i = scenarios.len();
    while deadline_ns.is_some_and(|d| now_ns() < d) {
        let sc = stream.next();
        tally.run(i, &sc, t, &mut ep);
        i += 1;
    }
    ep
}
