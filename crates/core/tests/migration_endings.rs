//! One engine-level case per way a migration ends.
//!
//! Two nodes (kernel + engine) are driven directly by a frame pump, with
//! no simulator. Machine 0 is the source, machine 1 the destination. The
//! requester's reply link points at machine 2, which is never run: frames
//! sent to it are only decoded, so each case can read the `Done` status
//! byte the requester would see. Every case pins the `MigrationStats` of
//! both engines, the `Done` message (or its absence), what happens to the
//! reservation and `mem_used`, and the exact `MigrationPhase` sequence
//! each side traces.
//!
//! Status bytes are written as literals on purpose: they are wire values.

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use demos_core::{AcceptPolicy, MigrationConfig, MigrationStats, Node};
use demos_kernel::{
    Ctx, Delivered, ImageLayout, KernelConfig, MigrationPhase, Outbox, Program, Registry,
    TraceEvent,
};
use demos_net::{Frame, Phys};
use demos_types::proto::{KernelOp, MigrateMsg, MoveDataMsg};
use demos_types::wire::Wire;
use demos_types::{
    tags, CorrId, Duration, Link, MachineId, Message, MsgFlags, MsgHeader, ProcessAddress,
    ProcessId, Time,
};

use MigrationPhase::*;

const SRC: MachineId = MachineId(0);
const DST: MachineId = MachineId(1);
const REQ: MachineId = MachineId(2);
const TIMEOUT: Duration = Duration::from_secs(1);

/// A process that does nothing; only its image matters here.
struct Idle;

impl Program for Idle {
    fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {}
    fn save(&self) -> Vec<u8> {
        Vec::new()
    }
}

/// Physical layer that queues frames and decodes every first
/// transmission of a migration-protocol message.
#[derive(Default)]
struct Net {
    frames: VecDeque<(MachineId, MachineId, Frame)>,
    sent: Vec<(MachineId, MachineId, MigrateMsg)>,
}

fn decode(frame: &Frame) -> Option<Message> {
    match frame {
        Frame::Data { payload, meta, .. } if !meta.retx => Message::from_bytes(payload).ok(),
        _ => None,
    }
}

impl Phys for Net {
    fn transmit(&mut self, _now: Time, src: MachineId, dst: MachineId, frame: Frame) {
        if let Some(msg) = decode(&frame).filter(|m| m.header.msg_type == tags::MIGRATE) {
            if let Ok(m) = MigrateMsg::from_bytes(&msg.payload) {
                self.sent.push((src, dst, m));
            }
        }
        self.frames.push_back((src, dst, frame));
    }
}

struct Rig {
    nodes: [Node; 2],
    outs: [Outbox; 2],
    wire: Net,
    now: Time,
    pid: ProcessId,
    /// Bytes the migrating process occupies at the source.
    image_bytes: u64,
    /// Machines whose frames, both ways, are dropped.
    dead: BTreeSet<MachineId>,
    /// Corrupt the header of the next image packet to the destination.
    corrupt_image: bool,
}

impl Rig {
    fn new(src: MigrationConfig, dst: MigrationConfig) -> Rig {
        let mut reg = Registry::new();
        reg.register("idle", |_| Box::new(Idle));
        let reg = reg.into_shared();
        let node = |m, cfg| Node::new(m, KernelConfig::default(), cfg, Arc::clone(&reg));
        let mut rig = Rig {
            nodes: [node(SRC, src), node(DST, dst)],
            outs: [Outbox::default(), Outbox::default()],
            wire: Net::default(),
            now: Time::ZERO,
            pid: ProcessId::kernel_of(SRC),
            image_bytes: 0,
            dead: BTreeSet::new(),
            corrupt_image: false,
        };
        let n = &mut rig.nodes[0];
        rig.pid = n
            .kernel
            .spawn(
                rig.now,
                "idle",
                &[],
                ImageLayout::default(),
                false,
                &mut rig.outs[0],
            )
            .unwrap();
        n.run_next(rig.now, &mut rig.wire, &mut rig.outs[0]);
        rig.image_bytes = n.kernel.mem_used();
        assert!(rig.image_bytes > 0);
        rig.outs[0].trace.clear();
        rig
    }

    fn cfg(accept: AcceptPolicy) -> MigrationConfig {
        MigrationConfig {
            accept,
            timeout: TIMEOUT,
            ..MigrationConfig::default()
        }
    }

    /// A rig with default engines on both sides.
    fn plain() -> Rig {
        Rig::new(
            Rig::cfg(AcceptPolicy::Always),
            Rig::cfg(AcceptPolicy::Always),
        )
    }

    fn reply_link() -> Link {
        Link::to(
            ProcessId {
                creating_machine: REQ,
                local_uid: 1,
            }
            .at(REQ),
        )
    }

    /// Steps 1–2 at the source, with a requester to notify.
    fn migrate(&mut self) {
        let (now, pid) = (self.now, self.pid);
        self.nodes[0]
            .migrate(
                now,
                pid,
                DST,
                Some(Rig::reply_link()),
                &mut self.wire,
                &mut self.outs[0],
            )
            .unwrap();
    }

    fn deliver(&mut self, src: MachineId, dst: MachineId, mut frame: Frame) {
        if dst == REQ || self.dead.contains(&src) || self.dead.contains(&dst) {
            return;
        }
        if self.corrupt_image && dst == DST && self.phases(1).contains(&StateTransferred) {
            if let Some(f) = corrupted(&frame) {
                frame = f;
                self.corrupt_image = false;
            }
        }
        let i = dst.0 as usize;
        self.nodes[i].on_frame(self.now, src, frame, &mut self.wire, &mut self.outs[i]);
    }

    /// Deliver frames in order until `stop` holds or the wire is empty.
    fn pump_until(&mut self, stop: impl Fn(&Rig) -> bool) {
        for _ in 0..100_000 {
            if stop(self) {
                return;
            }
            let Some((src, dst, frame)) = self.wire.frames.pop_front() else {
                return;
            };
            self.deliver(src, dst, frame);
        }
        panic!("frame pump did not settle");
    }

    fn pump(&mut self) {
        self.pump_until(|_| false);
    }

    /// Deliver until the destination has traced `phase`.
    fn pump_until_dest(&mut self, phase: MigrationPhase) {
        self.pump_until(|r| r.phases(1).contains(&phase));
        assert!(self.phases(1).contains(&phase), "never reached {phase:?}");
    }

    /// The machine dies silently: its frames vanish from now on.
    fn kill_machine(&mut self, m: MachineId) {
        self.dead.insert(m);
    }

    /// The failure detector reports `peer` dead to node `i`'s engine.
    fn peer_dead(&mut self, i: usize, peer: MachineId) {
        let n = &mut self.nodes[i];
        n.engine.on_peer_dead(
            self.now,
            &mut n.kernel,
            peer,
            &mut self.wire,
            &mut self.outs[i],
        );
    }

    fn advance(&mut self, i: usize, by: Duration) {
        self.now += by;
        self.nodes[i].on_time(self.now, &mut self.wire, &mut self.outs[i]);
    }

    fn kill_process(&mut self) {
        let n = &mut self.nodes[0];
        n.kernel
            .kill(self.now, self.pid, &mut self.wire, &mut self.outs[0]);
    }

    /// Inject a migration-protocol message as if it came from `from`.
    fn inject(&mut self, i: usize, from: MachineId, m: MigrateMsg) {
        let to = self.nodes[i].machine();
        let msg = Message {
            header: MsgHeader {
                dest: ProcessAddress::kernel_of(to),
                src: ProcessId::kernel_of(from),
                src_machine: from,
                msg_type: tags::MIGRATE,
                flags: MsgFlags::FROM_KERNEL,
                hops: 0,
            },
            links: vec![],
            payload: m.to_bytes(),
            corr: CorrId::NONE,
        };
        self.handle(i, msg);
    }

    /// A process manager on the requester's machine asks the source to
    /// migrate the process to `dest` (message #1, as the kernel hands it
    /// to the engine).
    fn request(&mut self, dest: MachineId) {
        let msg = Message {
            header: MsgHeader {
                dest: self.pid.at(SRC),
                src: ProcessId {
                    creating_machine: REQ,
                    local_uid: 1,
                },
                src_machine: REQ,
                msg_type: tags::KERNEL_OP,
                flags: MsgFlags::NONE,
                hops: 0,
            },
            links: vec![Rig::reply_link()],
            payload: KernelOp::MigrateRequest { dest, flags: 0 }.to_bytes(),
            corr: CorrId::NONE,
        };
        self.handle(0, msg);
    }

    fn handle(&mut self, i: usize, msg: Message) {
        let n = &mut self.nodes[i];
        n.engine.handle(
            self.now,
            &mut n.kernel,
            msg,
            &mut self.wire,
            &mut self.outs[i],
        );
    }

    /// Migration phases node `i` traced for the migrating process.
    fn phases(&self, i: usize) -> Vec<MigrationPhase> {
        self.outs[i]
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Migration { pid, phase, .. } if *pid == self.pid => Some(*phase),
                _ => None,
            })
            .collect()
    }

    fn stats(&self, i: usize) -> MigrationStats {
        self.nodes[i].engine.stats()
    }

    /// Every `Done` the requester was sent, as `(dest, status)`.
    fn dones(&self) -> Vec<(MachineId, u8)> {
        self.wire
            .sent
            .iter()
            .filter_map(|&(_, to, m)| match m {
                MigrateMsg::Done { pid, dest, status } if to == REQ => {
                    assert_eq!(pid, self.pid);
                    Some((dest, status))
                }
                _ => None,
            })
            .collect()
    }

    /// Protocol messages sent from `from` to `to`.
    fn sent(&self, from: MachineId, to: MachineId) -> Vec<MigrateMsg> {
        self.wire
            .sent
            .iter()
            .filter(|&&(s, d, _)| s == from && d == to)
            .map(|&(_, _, m)| m)
            .collect()
    }

    /// The context the source allocated for the migration.
    fn ctx(&self) -> u16 {
        self.sent(SRC, DST)
            .into_iter()
            .find_map(|m| match m {
                MigrateMsg::Offer { ctx, .. } => Some(ctx),
                _ => None,
            })
            .expect("an offer was sent")
    }

    fn abort(&self) -> MigrateMsg {
        MigrateMsg::Abort {
            ctx: self.ctx(),
            pid: self.pid,
        }
    }

    /// Whether node `i` holds the process, runnable (not frozen).
    fn runs_on(&self, i: usize) -> bool {
        self.nodes[i]
            .kernel
            .process(self.pid)
            .is_some_and(|p| !p.in_migration)
    }
}

/// The first image packet with its segment-length header smashed, so
/// `ProcessImage::from_flat` refuses the blob.
fn corrupted(frame: &Frame) -> Option<Frame> {
    let Frame::Data {
        epoch, seq, meta, ..
    } = frame
    else {
        return None;
    };
    let msg = decode(frame).filter(|m| m.header.msg_type == tags::MOVE_DATA)?;
    let MoveDataMsg::Data {
        op,
        seq: 0,
        ref bytes,
    } = MoveDataMsg::from_bytes(&msg.payload).ok()?
    else {
        return None;
    };
    let mut bytes = bytes.to_vec();
    bytes[..4].copy_from_slice(&[0xff; 4]);
    let msg = Message {
        payload: MoveDataMsg::Data {
            op,
            seq: 0,
            bytes: bytes.into(),
        }
        .to_bytes(),
        ..msg
    };
    Some(Frame::Data {
        epoch: *epoch,
        seq: *seq,
        payload: msg.to_bytes(),
        meta: *meta,
    })
}

fn stats(f: impl FnOnce(&mut MigrationStats)) -> MigrationStats {
    let mut s = MigrationStats::default();
    f(&mut s);
    s
}

#[test]
fn reject_thaws_and_reports_reason() {
    let mut rig = Rig::new(
        Rig::cfg(AcceptPolicy::Always),
        Rig::cfg(AcceptPolicy::Never),
    );
    rig.migrate();
    rig.pump();

    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
            s.rejected_by_reason = [0, 1, 0, 0];
        })
    );
    assert_eq!(rig.stats(1), stats(|s| s.rejected = 1));
    // `RejectReason::Policy` code 1, plus one.
    assert_eq!(rig.dones(), vec![(DST, 2)]);
    assert_eq!(rig.phases(0), vec![Frozen, Offered, Aborted, Rejected]);
    assert_eq!(rig.phases(1), vec![Rejected]);
    assert_eq!(rig.nodes[1].kernel.mem_used(), 0, "nothing reserved");
    assert_eq!(rig.nodes[0].kernel.mem_used(), rig.image_bytes);
    assert!(rig.runs_on(0));
}

#[test]
fn abort_from_destination_thaws_the_source() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.kill_machine(DST);
    let abort = rig.abort();
    rig.inject(0, DST, abort);
    rig.pump();

    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
        })
    );
    assert_eq!(rig.dones(), vec![(DST, 200)]);
    assert_eq!(rig.phases(0), vec![Frozen, Offered, Aborted]);
    assert_eq!(rig.nodes[0].kernel.mem_used(), rig.image_bytes);
    assert!(rig.runs_on(0));
}

#[test]
fn source_timeout_thaws_and_tells_the_destination() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.kill_machine(DST);
    rig.advance(0, TIMEOUT);
    rig.pump();

    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
        })
    );
    assert_eq!(rig.dones(), vec![(DST, 201)]);
    assert!(rig.sent(SRC, DST).contains(&rig.abort()));
    assert_eq!(rig.phases(0), vec![Frozen, Offered, Aborted]);
    assert_eq!(rig.nodes[0].kernel.mem_used(), rig.image_bytes);
    assert!(rig.runs_on(0));
}

#[test]
fn retry_that_cannot_start_reports_failure() {
    let src = MigrationConfig {
        retries: 1,
        ..Rig::cfg(AcceptPolicy::Always)
    };
    let mut rig = Rig::new(src, Rig::cfg(AcceptPolicy::Never));
    rig.nodes[0].engine.set_peers(vec![SRC, DST]);
    rig.migrate();
    rig.pump();
    assert_eq!(rig.dones(), vec![], "a retry is pending: no Done yet");

    // The process dies before the re-offer fires.
    rig.kill_process();
    rig.advance(0, MigrationConfig::default().retry_backoff);
    rig.pump();

    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
            s.rejected_by_reason = [0, 1, 0, 0];
            s.retried = 1;
        })
    );
    assert_eq!(rig.stats(1), stats(|s| s.rejected = 1));
    assert_eq!(rig.dones(), vec![(DST, 202)]);
    assert_eq!(rig.phases(0), vec![Frozen, Offered, Aborted, Rejected]);
    assert_eq!(rig.nodes[0].kernel.mem_used(), 0);
}

#[test]
fn peer_death_aborts_an_outgoing_migration() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.kill_machine(DST);
    rig.peer_dead(0, DST);
    rig.pump();

    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
        })
    );
    assert_eq!(rig.dones(), vec![(DST, 203)]);
    assert_eq!(rig.phases(0), vec![Frozen, Offered, Aborted, Aborted]);
    assert!(rig.runs_on(0));
}

#[test]
fn peer_death_commits_an_installed_incoming_copy() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.pump_until_dest(ImageTransferred);
    rig.kill_machine(SRC);
    rig.peer_dead(1, SRC);
    rig.pump();

    let got = rig.stats(1);
    assert!(got.bytes_received > 0);
    assert_eq!(
        got,
        stats(|s| {
            s.completed_in = 1;
            s.bytes_received = got.bytes_received;
        })
    );
    assert_eq!(rig.stats(0), stats(|s| s.started = 1));
    assert_eq!(rig.dones(), vec![(DST, 0)]);
    assert_eq!(
        rig.phases(1),
        vec![
            Allocated,
            StateTransferred,
            ImageTransferred,
            Restarted,
            Restarted
        ]
    );
    assert_eq!(rig.nodes[1].kernel.mem_used(), rig.image_bytes);
    assert!(rig.runs_on(1));
}

#[test]
fn peer_death_drops_a_partial_incoming_transfer() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.pump_until_dest(Allocated);
    assert_eq!(rig.nodes[1].kernel.mem_used(), u64::from(image_len(&rig)));
    rig.kill_machine(SRC);
    rig.peer_dead(1, SRC);
    rig.pump();

    assert_eq!(rig.stats(1), stats(|s| s.aborted = 1));
    assert_eq!(rig.dones(), vec![]);
    assert!(!rig.sent(DST, SRC).contains(&rig.abort()));
    assert_eq!(rig.phases(1), vec![Allocated, Aborted]);
    assert_eq!(rig.nodes[1].kernel.mem_used(), 0, "reservation released");
}

#[test]
fn destination_timeout_kills_an_installed_copy() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.pump_until_dest(ImageTransferred);
    rig.kill_machine(SRC);
    rig.advance(1, TIMEOUT);
    rig.pump();

    let got = rig.stats(1);
    assert_eq!(
        got,
        stats(|s| {
            s.aborted = 1;
            s.bytes_received = got.bytes_received;
        })
    );
    assert_eq!(rig.dones(), vec![]);
    assert!(rig.sent(DST, SRC).contains(&rig.abort()));
    assert_eq!(
        rig.phases(1),
        vec![Allocated, StateTransferred, ImageTransferred, Aborted]
    );
    assert!(rig.outs[1]
        .trace
        .contains(&TraceEvent::Exited { pid: rig.pid }));
    assert!(rig.nodes[1].kernel.process(rig.pid).is_none());
    assert_eq!(rig.nodes[1].kernel.mem_used(), 0);
}

#[test]
fn pull_failure_releases_and_tells_the_source() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.pump_until_dest(Allocated);
    // The source loses the process before serving the first pull.
    rig.kill_process();
    rig.pump();

    assert_eq!(rig.stats(1), stats(|s| s.aborted = 1));
    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
        })
    );
    assert!(rig.sent(DST, SRC).contains(&rig.abort()));
    assert_eq!(rig.dones(), vec![(DST, 200)]);
    assert_eq!(rig.phases(1), vec![Allocated, Aborted]);
    assert_eq!(rig.phases(0), vec![Frozen, Offered]);
    assert_eq!(rig.nodes[1].kernel.mem_used(), 0, "reservation released");
    assert_eq!(rig.nodes[0].kernel.mem_used(), 0);
}

#[test]
fn install_failure_releases_and_thaws_the_source() {
    let mut rig = Rig::plain();
    rig.corrupt_image = true;
    rig.migrate();
    rig.pump();
    assert!(!rig.corrupt_image, "the image packet was corrupted");

    let got = rig.stats(1);
    assert!(got.bytes_received > 0);
    assert_eq!(
        got,
        stats(|s| {
            s.aborted = 1;
            s.bytes_received = got.bytes_received;
        })
    );
    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
        })
    );
    assert!(rig.sent(DST, SRC).contains(&rig.abort()));
    assert_eq!(rig.dones(), vec![(DST, 200)]);
    assert_eq!(rig.phases(1), vec![Allocated, StateTransferred, Aborted]);
    assert_eq!(rig.phases(0), vec![Frozen, Offered, Aborted]);
    assert_eq!(rig.nodes[1].kernel.mem_used(), 0, "reservation released");
    assert!(rig.nodes[1].kernel.process(rig.pid).is_none());
    assert_eq!(rig.nodes[0].kernel.mem_used(), rig.image_bytes);
    assert!(rig.runs_on(0));
}

#[test]
fn request_that_cannot_start_reports_why() {
    let mut rig = Rig::plain();
    rig.request(SRC);
    rig.pump();
    // A migration to the process's own machine.
    assert_eq!(rig.dones(), vec![(SRC, 100)]);

    rig.kill_process();
    rig.request(DST);
    rig.pump();
    // No such process.
    assert_eq!(rig.dones(), vec![(SRC, 100), (DST, 102)]);
    assert_eq!(rig.stats(0), MigrationStats::default());
    assert_eq!(rig.phases(0), vec![]);
}

#[test]
fn process_killed_before_cleanup_drops_the_installed_copy() {
    let mut rig = Rig::plain();
    rig.migrate();
    rig.pump_until_dest(ImageTransferred);
    // `TransferComplete` is on its way; the source loses the process.
    rig.kill_process();
    rig.pump();

    assert_eq!(
        rig.stats(0),
        stats(|s| {
            s.started = 1;
            s.aborted = 1;
        })
    );
    let got = rig.stats(1);
    assert_eq!(
        got,
        stats(|s| {
            s.aborted = 1;
            s.bytes_received = got.bytes_received;
        })
    );
    assert!(rig.sent(SRC, DST).contains(&rig.abort()));
    assert_eq!(rig.dones(), vec![], "no Done for a process that is gone");
    assert_eq!(rig.phases(0), vec![Frozen, Offered]);
    assert_eq!(
        rig.phases(1),
        vec![Allocated, StateTransferred, ImageTransferred, Aborted]
    );
    assert!(rig.nodes[1].kernel.process(rig.pid).is_none());
    assert_eq!(rig.nodes[1].kernel.mem_used(), 0);
    assert_eq!(rig.nodes[0].kernel.mem_used(), 0);
}

/// The image length the source offered.
fn image_len(rig: &Rig) -> u32 {
    rig.sent(SRC, DST)
        .into_iter()
        .find_map(|m| match m {
            MigrateMsg::Offer { image_len, .. } => Some(image_len),
            _ => None,
        })
        .expect("an offer was sent")
}
