//! The migration engine: the eight-step protocol of §3.1.
//!
//! One engine instance runs beside each kernel. The *source* side freezes
//! the process, offers it, serves the destination's state pulls (done by
//! the kernel's move-data machinery), then forwards pending messages and
//! leaves the forwarding address. The *destination* side — which "controls
//! the next part of the migration, up to the forwarding of messages"
//! (§3.1 step 2) — reserves resources, pulls the three state blobs
//! (resident, swappable, image: the three data moves of §6), installs the
//! process, and restarts it after the source confirms cleanup.
//!
//! The administrative messages are exactly the nine of DESIGN.md:
//! `MigrateRequest` (a `DELIVERTOKERNEL` control op), `Offer`,
//! `Accept`/`Reject`, three `ReadReq`s, `TransferComplete`, `CleanupDone`
//! and `Done`.
//!
//! Autonomy (§3.2) enters through [`AcceptPolicy`]: "the destination
//! machine may simply refuse to accept any migrations not fitting its
//! criteria". Timeouts abort half-done migrations and thaw the process at
//! the source, so a crashed destination cannot wedge a process forever.

use std::collections::BTreeMap;

use demos_kernel::{Kernel, MigrationPhase, Outbox, TraceEvent};
use demos_net::Phys;
use demos_types::proto::{
    AreaSel, KernelOp, MigrateMsg, RejectReason, DONE_ABORTED, DONE_ALREADY_MIGRATING,
    DONE_KERNEL_IMMOVABLE, DONE_NO_SUCH_PROCESS, DONE_OK, DONE_PEER_DEAD, DONE_REJECTED_BASE,
    DONE_RETRY_FAILED, DONE_START_FAILED, DONE_TIMED_OUT, DONE_TO_SELF,
};
use demos_types::wire::Wire;
use demos_types::{tags, DemosError, Duration, Link, MachineId, Message, ProcessId, Result, Time};

/// Destination-side acceptance policy (§3.2).
#[derive(Clone, Copy, Debug)]
pub enum AcceptPolicy {
    /// Accept whenever capacity allows (the paper's trusting kernels).
    Always,
    /// Refuse all incoming migrations (a closed administrative domain).
    Never,
    /// Custom predicate over the offer, e.g. a suspicious domain's
    /// admission filter.
    Custom(fn(&OfferInfo) -> bool),
}

/// What a destination sees when deciding on an offer.
#[derive(Clone, Copy, Debug)]
pub struct OfferInfo {
    /// The process being offered.
    pub pid: ProcessId,
    /// Source machine.
    pub src: MachineId,
    /// The deciding (destination) machine — lets one policy function
    /// implement per-domain criteria (§3.2).
    pub dest: MachineId,
    /// Resident-state bytes.
    pub resident_len: u16,
    /// Swappable-state bytes.
    pub swappable_len: u16,
    /// Image bytes.
    pub image_len: u32,
}

/// Engine tuning.
#[derive(Clone, Copy, Debug)]
pub struct MigrationConfig {
    /// Destination acceptance policy.
    pub accept: AcceptPolicy,
    /// Abort an in-flight migration after this long without completion.
    pub timeout: Duration,
    /// After an outgoing migration aborts mid-transfer, re-offer the
    /// process to an alternate destination at most this many times
    /// (0 disables retries). Candidates come from
    /// [`MigrationEngine::set_peers`].
    pub retries: u32,
    /// Delay before the first retry; doubles per attempt (bounded
    /// exponential backoff).
    pub retry_backoff: Duration,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            accept: AcceptPolicy::Always,
            timeout: Duration::from_secs(30),
            retries: 0,
            retry_backoff: Duration::from_millis(50),
        }
    }
}

/// Counters for the experiments.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MigrationStats {
    /// Migrations initiated at this machine (as source).
    pub started: u64,
    /// Migrations completed with this machine as source.
    pub completed_out: u64,
    /// Migrations completed with this machine as destination.
    pub completed_in: u64,
    /// Offers rejected by this machine.
    pub rejected: u64,
    /// Migrations aborted (timeout or failure), either side.
    pub aborted: u64,
    /// Outgoing offers rejected by the peer, by reason:
    /// `[Capacity, Policy, DuplicatePid, Protocol]` in wire-tag order.
    pub rejected_by_reason: [u64; 4],
    /// Pending messages forwarded during step 6 here.
    pub pending_forwarded: u64,
    /// Total state+image bytes received by this machine as destination.
    pub bytes_received: u64,
    /// Virtual time spent by completed incoming migrations, summed
    /// (freeze-to-restart is measured by the harness from traces; this is
    /// offer-to-restart at the destination).
    pub total_in_duration: Duration,
    /// Aborted outgoing migrations re-offered to an alternate destination.
    pub retried: u64,
}

/// Source-side record of an outgoing migration. An outgoing migration has
/// one live state — frozen and offered — which ends in `TransferComplete`
/// (success), or in a `Reject`, an `Abort`, a timeout or the
/// destination's death ([`MigrationEngine::abort_outgoing`]).
#[derive(Debug)]
struct SourceMig {
    pid: ProcessId,
    dest: MachineId,
    started: Time,
    /// Reply link from the `MigrateRequest`, forwarded inside the offer so
    /// the destination can send `Done` (message #9).
    reply: Option<Link>,
}

/// Where an incoming migration stands.
#[derive(Debug)]
enum DestState {
    /// Steps 4–5: pulling `area` (`Resident`, then `Swappable`, then
    /// `Image`), holding the state blobs already received.
    Pulling {
        area: AreaSel,
        resident: Vec<u8>,
        swappable: Vec<u8>,
    },
    /// Installed but held (not yet restarted), waiting for `CleanupDone`.
    Installed,
}

/// Destination-side record of an incoming migration, keyed by (source,
/// source context). It ends in a commit ([`MigrationEngine::commit_incoming`])
/// or an abort ([`MigrationEngine::abort_incoming`]).
#[derive(Debug)]
struct DestMig {
    pid: ProcessId,
    slot: u16,
    started: Time,
    reply: Option<Link>,
    received: u64,
    state: DestState,
}

/// Retry bookkeeping for one process whose outgoing migration aborted.
#[derive(Debug)]
struct Retry {
    /// Retries already launched for this process.
    attempts: u32,
    /// A scheduled re-offer: fire time, alternate destination, reply link.
    pending: Option<(Time, MachineId, Option<Link>)>,
}

/// The per-machine migration engine.
#[derive(Debug)]
pub struct MigrationEngine {
    machine: MachineId,
    cfg: MigrationConfig,
    next_ctx: u16,
    outgoing: BTreeMap<u16, SourceMig>,
    incoming: BTreeMap<(MachineId, u16), DestMig>,
    /// Alternate-destination candidates for retries (set by the harness).
    peers: Vec<MachineId>,
    /// Aborted outgoing migrations awaiting (or between) re-offers.
    retries: BTreeMap<ProcessId, Retry>,
    stats: MigrationStats,
}

/// Cookie layout for kernel pulls: src machine ≪ 32 | ctx ≪ 8 | area
/// (0 = resident, 1 = swappable, 2 = image).
fn cookie(src: MachineId, ctx: u16, area: AreaSel) -> u64 {
    ((src.0 as u64) << 32)
        | ((ctx as u64) << 8)
        | match area {
            AreaSel::Resident => 0,
            AreaSel::Swappable => 1,
            // Migration never pulls a link area.
            AreaSel::Image | AreaSel::LinkArea => 2,
        }
}

fn uncookie(c: u64) -> (MachineId, u16, AreaSel) {
    let area = match c & 0xff {
        0 => AreaSel::Resident,
        1 => AreaSel::Swappable,
        _ => AreaSel::Image,
    };
    (
        MachineId((c >> 32) as u16),
        ((c >> 8) & 0xffff) as u16,
        area,
    )
}

/// Send the requester `Done` (message #9), if there is a requester.
#[allow(clippy::too_many_arguments)]
fn notify(
    now: Time,
    kernel: &mut Kernel,
    reply: Option<Link>,
    pid: ProcessId,
    dest: MachineId,
    status: u8,
    phys: &mut dyn Phys,
    out: &mut Outbox,
) {
    if let Some(r) = reply {
        let done = MigrateMsg::Done { pid, dest, status };
        kernel.send_kernel_to(now, r, tags::MIGRATE, done.to_bytes(), phys, out);
    }
}

impl MigrationEngine {
    /// New engine for `machine`.
    pub fn new(machine: MachineId, cfg: MigrationConfig) -> Self {
        MigrationEngine {
            machine,
            cfg,
            next_ctx: 1,
            outgoing: BTreeMap::new(),
            incoming: BTreeMap::new(),
            peers: Vec::new(),
            retries: BTreeMap::new(),
            stats: MigrationStats::default(),
        }
    }

    /// Provide the set of machines usable as alternate destinations when
    /// an aborted migration is retried (self and the failed destination
    /// are skipped automatically).
    pub fn set_peers(&mut self, peers: Vec<MachineId>) {
        self.peers = peers;
    }

    /// Counters.
    pub fn stats(&self) -> MigrationStats {
        self.stats
    }

    /// The alternate destination for a retry: the next candidate after
    /// `failed` in cyclic peer order, never self; falls back to `failed`
    /// itself when no other candidate exists.
    fn alternate_dest(&self, failed: MachineId) -> MachineId {
        let cands: Vec<MachineId> = self
            .peers
            .iter()
            .copied()
            .filter(|&p| p != self.machine)
            .collect();
        match cands.iter().position(|&p| p == failed) {
            Some(i) if cands.len() > 1 => cands[(i + 1) % cands.len()],
            Some(_) => failed,
            None => cands.first().copied().unwrap_or(failed),
        }
    }

    /// An outgoing migration of `pid` to `dest` aborted: schedule a
    /// bounded backoff re-offer to an alternate destination, if the
    /// configured retry budget allows. Returns whether a retry was
    /// scheduled (in which case the requester is not yet notified of
    /// failure — it will hear `Done` from whichever attempt settles it).
    fn schedule_retry(
        &mut self,
        now: Time,
        pid: ProcessId,
        dest: MachineId,
        reply: Option<Link>,
    ) -> bool {
        if self.cfg.retries == 0 {
            return false;
        }
        let attempts = self.retries.get(&pid).map_or(0, |r| r.attempts);
        if attempts >= self.cfg.retries {
            self.retries.remove(&pid);
            return false;
        }
        let delay = self.cfg.retry_backoff.saturating_mul(1 << attempts.min(16));
        let alt = self.alternate_dest(dest);
        self.retries.insert(
            pid,
            Retry {
                attempts,
                pending: Some((now + delay, alt, reply)),
            },
        );
        true
    }

    /// Migrations currently in flight on either side.
    pub fn in_flight(&self) -> usize {
        self.outgoing.len() + self.incoming.len()
    }

    /// Begin migrating local process `pid` to `dest` (steps 1–2). The
    /// optional `reply` link receives the `Done` notification (#9).
    #[allow(clippy::too_many_arguments)]
    pub fn start_migration(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        pid: ProcessId,
        dest: MachineId,
        reply: Option<Link>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> Result<()> {
        if dest == self.machine {
            return Err(DemosError::MigrationToSelf(pid));
        }
        if self.outgoing.values().any(|m| m.pid == pid) {
            return Err(DemosError::AlreadyMigrating(pid));
        }
        // Contexts are 16-bit and wrap: take the next one not in flight,
        // and refuse (before freezing) when every one is.
        let ctx = (0..u16::MAX as u32)
            .map(|i| ((self.next_ctx as u32 - 1 + i) % u16::MAX as u32 + 1) as u16)
            .find(|c| !self.outgoing.contains_key(c))
            .ok_or(DemosError::Capacity(self.machine))?;
        // Step 1: freeze. Refuses unknown pids and double migrations.
        let sizes = kernel.freeze_for_migration(now, pid, phys, out)?;
        self.next_ctx = ctx % u16::MAX + 1;
        self.outgoing.insert(
            ctx,
            SourceMig {
                pid,
                dest,
                started: now,
                reply,
            },
        );
        self.stats.started += 1;
        // Step 2: offer, carrying the reply link so the destination can
        // notify the requester directly (links are context-independent).
        let offer = MigrateMsg::Offer {
            ctx,
            pid,
            resident_len: sizes.resident.min(u16::MAX as u32) as u16,
            swappable_len: sizes.swappable.min(u16::MAX as u32) as u16,
            image_len: sizes.image,
        };
        let links = reply.into_iter().collect();
        kernel.send_migrate_msg(now, dest, offer.to_bytes(), links, phys, out);
        out.trace.push(TraceEvent::Migration {
            pid,
            phase: MigrationPhase::Offered,
            bytes: sizes.resident as u64 + sizes.swappable as u64 + sizes.image as u64,
        });
        Ok(())
    }

    /// Feed one message from the kernel's migration inbox (both the
    /// kernel-to-kernel `MIGRATE` protocol and `MigrateRequest` control
    /// ops).
    pub fn handle(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        msg: Message,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        if msg.header.msg_type == tags::KERNEL_OP {
            if let Ok(KernelOp::MigrateRequest { dest, .. }) = KernelOp::from_bytes(&msg.payload) {
                let pid = msg.header.dest.pid;
                let reply = msg.links.first().copied();
                if let Err(e) = self.start_migration(now, kernel, pid, dest, reply, phys, out) {
                    notify(now, kernel, reply, pid, dest, start_status(&e), phys, out);
                }
            }
            return;
        }
        debug_assert_eq!(msg.header.msg_type, tags::MIGRATE);
        let Ok(m) = MigrateMsg::from_bytes(&msg.payload) else {
            return;
        };
        let from = msg.header.src_machine;
        match m {
            MigrateMsg::Offer {
                ctx,
                pid,
                resident_len,
                swappable_len,
                image_len,
            } => {
                let reply = msg.links.first().copied();
                let dest = self.machine;
                self.on_offer(
                    now,
                    kernel,
                    from,
                    ctx,
                    OfferInfo {
                        pid,
                        src: from,
                        dest,
                        resident_len,
                        swappable_len,
                        image_len,
                    },
                    reply,
                    phys,
                    out,
                );
            }
            MigrateMsg::Accept { .. } => {
                // Nothing to record: the source's one live state already
                // waits for `TransferComplete`; the pulls that follow an
                // Accept are served by the kernel.
            }
            MigrateMsg::Reject { ctx, pid, reason } => {
                // Guarded on the sender and pid: contexts are per-source
                // counters, so a stale message from another machine could
                // otherwise hit an unrelated migration that reused the
                // number (likewise for `TransferComplete` and `Abort`).
                if self.outgoing_is(ctx, from, pid) {
                    self.stats.rejected_by_reason[match reason {
                        RejectReason::Capacity => 0,
                        RejectReason::Policy => 1,
                        RejectReason::DuplicatePid => 2,
                        RejectReason::Protocol => 3,
                    }] += 1;
                    let status = DONE_REJECTED_BASE + reason as u8;
                    let phase = Some(MigrationPhase::Rejected);
                    self.abort_outgoing(now, kernel, ctx, Some(status), false, phase, phys, out);
                }
            }
            MigrateMsg::TransferComplete { ctx, .. } => {
                // Steps 6–7 at the source.
                let Some(pid) = self
                    .outgoing
                    .get(&ctx)
                    .filter(|m| m.dest == from)
                    .map(|m| m.pid)
                else {
                    return;
                };
                match kernel.finish_source_side(now, pid, from, phys, out) {
                    Ok(forwarded) => {
                        self.outgoing.remove(&ctx);
                        self.stats.pending_forwarded += forwarded as u64;
                        self.stats.completed_out += 1;
                        self.retries.remove(&pid);
                        let cleanup = MigrateMsg::CleanupDone { ctx, forwarded };
                        kernel.send_migrate_msg(now, from, cleanup.to_bytes(), vec![], phys, out);
                    }
                    // Process vanished mid-migration (killed): tell the
                    // destination to drop its copy.
                    Err(_) => self.abort_outgoing(now, kernel, ctx, None, true, None, phys, out),
                }
            }
            MigrateMsg::CleanupDone { ctx, .. } => {
                // Step 8 at the destination. A copy that cannot restart
                // (killed meanwhile) is forgotten.
                if !self.commit_incoming(now, kernel, (from, ctx), None, phys, out) {
                    self.incoming.remove(&(from, ctx));
                }
            }
            MigrateMsg::Abort { ctx, pid } => {
                // Source told us (destination) to abandon; or destination
                // told us (source) it failed mid-transfer. Each abort must
                // hit exactly the migration it names, or a crossing Abort
                // whose own record already timed out locally would remove
                // an unrelated migration that reused the context number,
                // double-counting `aborted`.
                if self
                    .incoming
                    .get(&(from, ctx))
                    .is_some_and(|m| m.pid == pid)
                {
                    self.abort_incoming(now, kernel, (from, ctx), false, phys, out);
                } else if self.outgoing_is(ctx, from, pid) {
                    let status = Some(DONE_ABORTED);
                    self.abort_outgoing(now, kernel, ctx, status, false, None, phys, out);
                }
            }
            MigrateMsg::Done { .. } => {
                // Addressed to the requesting process, not the engine.
            }
        }
    }

    /// Whether outgoing context `ctx` is the migration of `pid` to `dest`.
    fn outgoing_is(&self, ctx: u16, dest: MachineId, pid: ProcessId) -> bool {
        self.outgoing
            .get(&ctx)
            .is_some_and(|m| m.dest == dest && m.pid == pid)
    }

    /// Destination side of the offer (steps 3–5 start here).
    #[allow(clippy::too_many_arguments)]
    fn on_offer(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        from: MachineId,
        src_ctx: u16,
        info: OfferInfo,
        reply: Option<Link>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let policy_ok = match self.cfg.accept {
            AcceptPolicy::Always => true,
            AcceptPolicy::Never => false,
            AcceptPolicy::Custom(f) => f(&info),
        };
        let slot = if !policy_ok {
            Err(RejectReason::Policy)
        } else if self.incoming.contains_key(&(from, src_ctx)) {
            // A re-used (source, context) pair while that context's
            // migration is still in flight is a protocol violation:
            // accepting it would overwrite the in-progress entry and leak
            // its reservation.
            Err(RejectReason::Protocol)
        } else {
            // Step 3: allocate an (empty) process state — here, a capacity
            // reservation under the same process identifier.
            kernel
                .reserve_incoming(info.pid, info.image_len as u64)
                .map_err(|e| match e {
                    // Exhaustive: a new error variant must consciously pick
                    // its reject reason (Capacity is the §5 step-3 bucket —
                    // "allocate process state" failed — not a default).
                    DemosError::AlreadyMigrating(_) => RejectReason::DuplicatePid,
                    DemosError::NoSuchMachine(_)
                    | DemosError::NoSuchProcess(_)
                    | DemosError::BadLink(_)
                    | DemosError::LinkAccess { .. }
                    | DemosError::ReplyLinkConsumed(_)
                    | DemosError::AreaOutOfBounds
                    | DemosError::MigrationRejected(_)
                    | DemosError::MigrationAborted(_)
                    | DemosError::MigrationToSelf(_)
                    | DemosError::KernelImmovable(_)
                    | DemosError::NonDeliverable(_)
                    | DemosError::TooLarge { .. }
                    | DemosError::Capacity(_)
                    | DemosError::Wire(_)
                    | DemosError::UnknownProgram(_)
                    | DemosError::Internal(_) => RejectReason::Capacity,
                })
        };
        let slot = match slot {
            Ok(slot) => slot,
            Err(reason) => {
                self.stats.rejected += 1;
                let reject = MigrateMsg::Reject {
                    ctx: src_ctx,
                    pid: info.pid,
                    reason,
                };
                kernel.send_migrate_msg(now, from, reject.to_bytes(), vec![], phys, out);
                out.trace.push(TraceEvent::Migration {
                    pid: info.pid,
                    phase: MigrationPhase::Rejected,
                    bytes: 0,
                });
                return;
            }
        };
        out.trace.push(TraceEvent::Migration {
            pid: info.pid,
            phase: MigrationPhase::Allocated,
            bytes: 0,
        });
        let accept = MigrateMsg::Accept {
            ctx: src_ctx,
            slot,
            window: 1024,
        };
        kernel.send_migrate_msg(now, from, accept.to_bytes(), vec![], phys, out);
        self.incoming.insert(
            (from, src_ctx),
            DestMig {
                pid: info.pid,
                slot,
                started: now,
                reply,
                received: 0,
                state: DestState::Pulling {
                    area: AreaSel::Resident,
                    resident: Vec::new(),
                    swappable: Vec::new(),
                },
            },
        );
        // Step 4 begins: pull the resident state.
        kernel.start_kernel_pull(
            now,
            cookie(from, src_ctx, AreaSel::Resident),
            info.pid,
            from,
            AreaSel::Resident,
            phys,
            out,
        );
    }

    /// Feed a completed kernel pull (from [`Outbox::pull_done`]).
    pub fn on_pull_done(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        done: demos_kernel::KernelPullDone,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let (src, ctx, pulled) = uncookie(done.cookie);
        let Some(mig) = self.incoming.get_mut(&(src, ctx)) else {
            return;
        };
        if done.status != 0 {
            self.abort_incoming(now, kernel, (src, ctx), true, phys, out);
            return;
        }
        let DestState::Pulling {
            area,
            resident,
            swappable,
        } = &mut mig.state
        else {
            // Every pull has completed once the copy is installed.
            return;
        };
        debug_assert_eq!(*area, pulled, "pull completions arrive in order");
        mig.received += done.data.len() as u64;
        self.stats.bytes_received += done.data.len() as u64;
        let next = match *area {
            AreaSel::Resident => {
                *resident = done.data;
                AreaSel::Swappable
            }
            AreaSel::Swappable => {
                *swappable = done.data;
                out.trace.push(TraceEvent::Migration {
                    pid: mig.pid,
                    phase: MigrationPhase::StateTransferred,
                    bytes: mig.received,
                });
                AreaSel::Image
            }
            AreaSel::Image | AreaSel::LinkArea => {
                // Step 5 complete: install.
                let (resident, swappable) = (std::mem::take(resident), std::mem::take(swappable));
                let installed = kernel
                    .install_migrated(now, mig.slot, src, &resident, &swappable, &done.data, out);
                match installed {
                    Ok(pid) => {
                        debug_assert_eq!(pid, mig.pid);
                        mig.state = DestState::Installed;
                        let complete = MigrateMsg::TransferComplete {
                            ctx,
                            received: mig.received as u32,
                        };
                        kernel.send_migrate_msg(now, src, complete.to_bytes(), vec![], phys, out);
                    }
                    Err(_) => self.abort_incoming(now, kernel, (src, ctx), true, phys, out),
                }
                return;
            }
        };
        *area = next;
        kernel.start_kernel_pull(now, cookie(src, ctx, next), mig.pid, src, next, phys, out);
    }

    /// End unfinished outgoing migration `ctx`: thaw the process, tell the
    /// destination when `tell_dest`, trace `phase` if given, then re-offer
    /// the process or send the requester `Done` with `status`. A `None`
    /// status means the process is gone: no retry and no `Done`.
    #[allow(clippy::too_many_arguments)]
    fn abort_outgoing(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        ctx: u16,
        status: Option<u8>,
        tell_dest: bool,
        phase: Option<MigrationPhase>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let Some(mig) = self.outgoing.remove(&ctx) else {
            return;
        };
        self.stats.aborted += 1;
        kernel.unfreeze(mig.pid, out);
        if tell_dest {
            let abort = MigrateMsg::Abort { ctx, pid: mig.pid };
            kernel.send_migrate_msg(now, mig.dest, abort.to_bytes(), vec![], phys, out);
        }
        if let Some(phase) = phase {
            out.trace.push(TraceEvent::Migration {
                pid: mig.pid,
                phase,
                bytes: 0,
            });
        }
        match status {
            None => {
                self.retries.remove(&mig.pid);
            }
            Some(status) => {
                if !self.schedule_retry(now, mig.pid, mig.dest, mig.reply) {
                    notify(now, kernel, mig.reply, mig.pid, mig.dest, status, phys, out);
                }
            }
        }
    }

    /// End unfinished incoming migration `key`: release its reservation
    /// or kill its installed copy, tell the source when `tell_src`, and
    /// trace `Aborted`.
    fn abort_incoming(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        key: (MachineId, u16),
        tell_src: bool,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let Some(mig) = self.incoming.remove(&key) else {
            return;
        };
        // Installing consumed the reservation: an installed copy is killed
        // instead, which reclaims its memory.
        match mig.state {
            DestState::Pulling { .. } => kernel.release_reservation(mig.slot),
            DestState::Installed => kernel.kill(now, mig.pid, phys, out),
        }
        self.stats.aborted += 1;
        if tell_src {
            let abort = MigrateMsg::Abort {
                ctx: key.1,
                pid: mig.pid,
            };
            kernel.send_migrate_msg(now, key.0, abort.to_bytes(), vec![], phys, out);
        }
        out.trace.push(TraceEvent::Migration {
            pid: mig.pid,
            phase: MigrationPhase::Aborted,
            bytes: 0,
        });
    }

    /// Step 8: restart incoming migration `key`'s copy, trace `phase` if
    /// given, and send the requester `Done`. Returns false, changing
    /// nothing, when there is no such migration or its copy cannot
    /// restart.
    fn commit_incoming(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        key: (MachineId, u16),
        phase: Option<MigrationPhase>,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) -> bool {
        let Some(mig) = self.incoming.get(&key) else {
            return false;
        };
        if kernel.restart_migrated(mig.pid, out).is_err() {
            return false;
        }
        let (pid, started, reply) = (mig.pid, mig.started, mig.reply);
        self.incoming.remove(&key);
        self.stats.completed_in += 1;
        self.stats.total_in_duration += now.since(started);
        if let Some(phase) = phase {
            out.trace.push(TraceEvent::Migration {
                pid,
                phase,
                bytes: 0,
            });
        }
        notify(now, kernel, reply, pid, self.machine, DONE_OK, phys, out);
        true
    }

    /// A peer machine was confirmed dead by the failure detector: resolve
    /// every in-flight migration touching it now instead of letting the
    /// timeout guess.
    ///
    /// An **installed** incoming copy is committed locally — the dead
    /// source can no longer send `CleanupDone` or `Abort`, and whichever
    /// point of the handshake it died at, its own copy is gone, so the
    /// local copy is the only one (§1's "migration off a crashed
    /// processor"). Killing it on timeout instead would destroy the last
    /// copy of the process. A **partial** incoming transfer is dropped and
    /// its reservation released. An **outgoing** migration to the dead
    /// machine is aborted, the frozen source copy thawed, and the process
    /// re-offered to an alternate destination when the retry budget
    /// allows.
    pub fn on_peer_dead(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        peer: MachineId,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let incoming: Vec<(MachineId, u16)> = self
            .incoming
            .iter()
            .filter(|(&(src, _), _)| src == peer)
            .map(|(&k, _)| k)
            .collect();
        for key in incoming {
            let installed = matches!(self.incoming[&key].state, DestState::Installed);
            let restarted = Some(MigrationPhase::Restarted);
            if !(installed && self.commit_incoming(now, kernel, key, restarted, phys, out)) {
                self.abort_incoming(now, kernel, key, false, phys, out);
            }
        }
        let outgoing: Vec<u16> = self
            .outgoing
            .iter()
            .filter(|(_, m)| m.dest == peer)
            .map(|(&c, _)| c)
            .collect();
        for ctx in outgoing {
            let (status, phase) = (Some(DONE_PEER_DEAD), Some(MigrationPhase::Aborted));
            self.abort_outgoing(now, kernel, ctx, status, false, phase, phys, out);
        }
    }

    /// Earliest in-flight migration deadline or scheduled retry, for the
    /// simulation loop.
    pub fn next_timeout(&self) -> Option<Time> {
        let o = self
            .outgoing
            .values()
            .map(|m| m.started + self.cfg.timeout)
            .min();
        let i = self
            .incoming
            .values()
            .map(|m| m.started + self.cfg.timeout)
            .min();
        let r = self
            .retries
            .values()
            .filter_map(|r| r.pending.map(|(t, _, _)| t))
            .min();
        [o, i, r].into_iter().flatten().min()
    }

    /// Abort migrations that exceeded the timeout (crashed peers).
    pub fn on_time(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        phys: &mut dyn Phys,
        out: &mut Outbox,
    ) {
        let stale_out: Vec<u16> = self
            .outgoing
            .iter()
            .filter(|(_, m)| now.since(m.started) >= self.cfg.timeout)
            .map(|(&c, _)| c)
            .collect();
        for ctx in stale_out {
            let status = Some(DONE_TIMED_OUT);
            self.abort_outgoing(now, kernel, ctx, status, true, None, phys, out);
        }
        let stale_in: Vec<(MachineId, u16)> = self
            .incoming
            .iter()
            .filter(|(_, m)| now.since(m.started) >= self.cfg.timeout)
            .map(|(&k, _)| k)
            .collect();
        for key in stale_in {
            self.abort_incoming(now, kernel, key, true, phys, out);
        }
        // Fire scheduled retries: re-offer each aborted process to its
        // alternate destination (bounded by `cfg.retries`).
        let due: Vec<(ProcessId, MachineId, Option<Link>)> = self
            .retries
            .iter()
            .filter_map(|(&pid, r)| {
                r.pending
                    .filter(|&(t, _, _)| t <= now)
                    .map(|(_, dest, reply)| (pid, dest, reply))
            })
            .collect();
        for (pid, dest, reply) in due {
            let Some(entry) = self.retries.get_mut(&pid) else {
                continue;
            };
            entry.pending = None;
            entry.attempts += 1;
            self.stats.retried += 1;
            if self
                .start_migration(now, kernel, pid, dest, reply, phys, out)
                .is_err()
            {
                // The process is gone (killed) or already moving again:
                // give up on this retry chain.
                self.retries.remove(&pid);
                notify(now, kernel, reply, pid, dest, DONE_RETRY_FAILED, phys, out);
            }
        }
    }
}

/// The `Done` status for a migration that could not start.
fn start_status(e: &DemosError) -> u8 {
    // Exhaustive: a new error variant must consciously pick its status
    // byte (the generic bucket is chosen per-variant, not by default).
    match e {
        DemosError::MigrationToSelf(_) => DONE_TO_SELF,
        DemosError::AlreadyMigrating(_) => DONE_ALREADY_MIGRATING,
        DemosError::NoSuchProcess(_) => DONE_NO_SUCH_PROCESS,
        DemosError::KernelImmovable(_) => DONE_KERNEL_IMMOVABLE,
        DemosError::NoSuchMachine(_)
        | DemosError::BadLink(_)
        | DemosError::LinkAccess { .. }
        | DemosError::ReplyLinkConsumed(_)
        | DemosError::AreaOutOfBounds
        | DemosError::MigrationRejected(_)
        | DemosError::MigrationAborted(_)
        | DemosError::NonDeliverable(_)
        | DemosError::TooLarge { .. }
        | DemosError::Capacity(_)
        | DemosError::Wire(_)
        | DemosError::UnknownProgram(_)
        | DemosError::Internal(_) => DONE_START_FAILED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demos_kernel::{Ctx, Delivered, ImageLayout, KernelConfig, Program, Registry};
    use demos_net::Frame;
    use std::sync::Arc;

    struct Idle;

    impl Program for Idle {
        fn on_message(&mut self, _ctx: &mut Ctx<'_>, _msg: Delivered) {}
        fn save(&self) -> Vec<u8> {
            Vec::new()
        }
    }

    struct Sink;

    impl Phys for Sink {
        fn transmit(&mut self, _now: Time, _src: MachineId, _dst: MachineId, _frame: Frame) {}
    }

    /// A source kernel holding `n` idle processes, and its engine.
    fn source(n: usize) -> (Kernel, MigrationEngine, Vec<ProcessId>) {
        let mut reg = Registry::new();
        reg.register("idle", |_| Box::new(Idle));
        let mut kernel = Kernel::new(MachineId(0), KernelConfig::default(), Arc::new(reg));
        let pids = (0..n)
            .map(|_| {
                kernel
                    .spawn(
                        Time::ZERO,
                        "idle",
                        &[],
                        ImageLayout::default(),
                        false,
                        &mut Outbox::default(),
                    )
                    .unwrap()
            })
            .collect();
        let engine = MigrationEngine::new(MachineId(0), MigrationConfig::default());
        (kernel, engine, pids)
    }

    fn start(kernel: &mut Kernel, engine: &mut MigrationEngine, pid: ProcessId) -> Result<()> {
        let out = &mut Outbox::default();
        engine.start_migration(Time::ZERO, kernel, pid, MachineId(1), None, &mut Sink, out)
    }

    #[test]
    fn wrapped_context_skips_one_still_in_flight() {
        let (mut kernel, mut engine, pids) = source(3);
        start(&mut kernel, &mut engine, pids[0]).unwrap();
        engine.next_ctx = u16::MAX;
        start(&mut kernel, &mut engine, pids[1]).unwrap();
        start(&mut kernel, &mut engine, pids[2]).unwrap();
        let ctxs: Vec<(u16, ProcessId)> =
            engine.outgoing.iter().map(|(&c, m)| (c, m.pid)).collect();
        assert_eq!(
            ctxs,
            vec![(1, pids[0]), (2, pids[2]), (u16::MAX, pids[1])],
            "live context 1 is skipped, not overwritten"
        );
    }

    #[test]
    fn migration_refused_unfrozen_when_every_context_is_live() {
        let (mut kernel, mut engine, pids) = source(2);
        start(&mut kernel, &mut engine, pids[0]).unwrap();
        let live = engine.outgoing.remove(&1).unwrap();
        engine.outgoing = (1..=u16::MAX)
            .map(|ctx| (ctx, SourceMig { ..live }))
            .collect();
        let r = start(&mut kernel, &mut engine, pids[1]);
        assert!(matches!(r, Err(DemosError::Capacity(_))), "{r:?}");
        assert!(!kernel.process(pids[1]).unwrap().in_migration, "not frozen");
        assert_eq!(engine.stats().started, 1);
    }

    #[test]
    fn cookie_roundtrip() {
        for (m, c, s) in [
            (MachineId(0), 1u16, AreaSel::Resident),
            (MachineId(7), 0xffff, AreaSel::Swappable),
            (MachineId(u16::MAX), 42, AreaSel::Image),
        ] {
            let (m2, c2, s2) = uncookie(cookie(m, c, s));
            assert_eq!((m, c, s), (m2, c2, s2));
        }
    }

    #[test]
    fn accept_policy_custom() {
        fn only_small(info: &OfferInfo) -> bool {
            info.image_len < 1000
        }
        let p = AcceptPolicy::Custom(only_small);
        let small = OfferInfo {
            pid: ProcessId {
                creating_machine: MachineId(0),
                local_uid: 1,
            },
            src: MachineId(0),
            dest: MachineId(1),
            resident_len: 250,
            swappable_len: 600,
            image_len: 500,
        };
        let big = OfferInfo {
            image_len: 5000,
            ..small
        };
        match p {
            AcceptPolicy::Custom(f) => {
                assert!(f(&small));
                assert!(!f(&big));
            }
            _ => unreachable!(),
        }
    }
}
