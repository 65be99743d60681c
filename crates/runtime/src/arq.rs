//! The reliable delivery plane: a kernel-level sliding-window ARQ
//! between the [`ExecModel`] round loop and the [`Adversary`]-faulted
//! network.
//!
//! Under [`Delivery::Reliable`](crate::Delivery::Reliable) every
//! application message rides a per-link (sender → receiver) **sequence
//! number**; receivers accept frames in order (buffering out-of-order
//! arrivals), flag a **cumulative ack** back to the sender, and senders
//! **retransmit** frames unacknowledged for
//! [`ReliabilitySpec::ack_timeout_rounds`] kernel ticks, up to
//! [`ReliabilitySpec::max_retries`] times — after which the link is
//! declared **dead** and its traffic abandoned.
//!
//! # Ticks vs. application rounds
//!
//! The plane decouples the **kernel tick** (the unit the adversary,
//! the round budget, the metrics, and the probe plane are clocked on)
//! from the **application round** (the `round` the actors observe). A
//! global barrier advances the application clock only when every frame
//! of the previous application round has been accepted or abandoned,
//! so under any adversary that kills no link the actors see exactly
//! the clean run's inboxes in exactly the clean run's order — outputs
//! are **bit-identical** to direct delivery, and the entire price
//! of the faults is paid in ticks (rounds stretch), retransmissions,
//! and ack traffic. Dead links degrade delivery like permanent drops;
//! phase-level timeouts in the algorithm layer (see
//! [`ReliabilitySpec::phase_timeout_slack`]) bound the damage.
//!
//! # Accounting
//!
//! The model charges each logical send once at `step` time, exactly
//! like direct delivery (first transmission, payload lane). The plane
//! additionally charges, per actual transmission: the
//! fixed-width control lane ([`ExecModel::arq_header_charge`]) on
//! every data copy, full payload + header for every retransmission and
//! duplicated copy, and [`ExecModel::arq_ack_charge`] per ack frame.
//! Congestion accounting therefore reflects what actually traversed
//! each link, retransmits included. The per-payload peak
//! (`RoundProfile::peak_link`) stays on the payload lane: control
//! words ride beside the payload, not inside the bandwidth budget.
//!
//! # Determinism
//!
//! All ARQ state lives on the driving thread in deterministic
//! containers (`BTreeMap`/`BTreeSet`), frames are ingested in shard
//! order (ascending sender order, the direct delivery order), and
//! adversary verdicts are pure functions of `(tick, sender, transmit
//! index)` — so outputs, metrics, and errors are bit-identical at
//! every thread count and across both codec planes, and replay from
//! `(seed, FaultSpec, ReliabilitySpec)` is exact.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::fault::{Adversary, Crashes, Fate, FaultStats};
use crate::{ActorId, ExecModel, Mail, MsgSink, Plane, RoundProfile};

/// Knobs of the reliable delivery plane, consumed via
/// [`RunConfig::reliability`](crate::RunConfig::reliability).
///
/// ```
/// use pga_runtime::ReliabilitySpec;
///
/// let spec = ReliabilitySpec::arq().with_phase_timeouts(2);
/// assert_eq!(spec.window, 32);
/// assert_eq!(spec.ack_timeout_rounds, 2);
/// assert_eq!(spec.phase_timeout_slack, 2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReliabilitySpec {
    /// Per-link sliding-window size: how many frames may be
    /// unacknowledged on one (sender, receiver) link before further
    /// frames queue at the sender.
    pub window: u32,
    /// Retransmit a frame unacknowledged for this many kernel ticks.
    /// The clean round trip is exactly 2 ticks (data out, ack back),
    /// so the default of 2 retransmits as early as possible without
    /// spurious copies on a fault-free link.
    pub ack_timeout_rounds: u32,
    /// Give up on a frame after this many retransmissions and declare
    /// the link **dead**: all of its queued and future traffic is
    /// abandoned, [`FaultStats::dead_links`] is incremented, and the
    /// application-level phase timeouts are the remaining safety net.
    pub max_retries: u32,
    /// Multiplier on the algorithms' clean-run round bounds that arms
    /// **phase-level timeouts** in the pipeline layer; `0` (default)
    /// leaves phases waiting forever. The kernel never reads this —
    /// pipelines consult it via
    /// [`ReliabilitySpec::phase_deadline`] when constructing their
    /// actors.
    pub phase_timeout_slack: u32,
}

impl Default for ReliabilitySpec {
    fn default() -> Self {
        ReliabilitySpec {
            window: 32,
            ack_timeout_rounds: 2,
            max_retries: 16,
            phase_timeout_slack: 0,
        }
    }
}

impl ReliabilitySpec {
    /// The default ARQ plan: window 32, retransmit after 2 ticks, give
    /// up (dead link) after 16 retries, no phase timeouts.
    pub fn arq() -> Self {
        Self::default()
    }

    /// Sets the sliding-window size.
    pub fn with_window(mut self, window: u32) -> Self {
        self.window = window.max(1);
        self
    }

    /// Sets the ack timeout in kernel ticks.
    pub fn with_ack_timeout(mut self, ticks: u32) -> Self {
        self.ack_timeout_rounds = ticks.max(1);
        self
    }

    /// Sets the retry budget before a link is declared dead.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Arms phase-level timeouts with the given slack multiplier on
    /// each phase's clean-run round bound.
    pub fn with_phase_timeouts(mut self, slack: u32) -> Self {
        self.phase_timeout_slack = slack;
        self
    }

    /// The application-round deadline for a phase whose clean run is
    /// bounded by `clean_bound` rounds, or `None` when phase timeouts
    /// are not armed.
    pub fn phase_deadline(&self, clean_bound: usize) -> Option<usize> {
        (self.phase_timeout_slack > 0)
            .then(|| clean_bound.saturating_mul(self.phase_timeout_slack as usize))
    }
}

/// One unacknowledged frame at a sender.
struct Frame<M: ExecModel> {
    seq: u64,
    msg: M::Msg,
    last_tx: usize,
    retries: u32,
}

/// Per-(sender, receiver) link state: the sender's window on the left,
/// the receiver's in-order acceptance cursor on the right. Everything
/// lives on the driving thread.
struct LinkState<M: ExecModel> {
    /// Sender: next fresh sequence number.
    next_seq: u64,
    /// Sender: frames accepted by the app but waiting for window room.
    queued: VecDeque<(u64, M::Msg)>,
    /// Sender: transmitted frames awaiting acknowledgment.
    unacked: VecDeque<Frame<M>>,
    /// Receiver: next in-order sequence number to accept.
    expected: u64,
    /// Receiver: out-of-order arrivals buffered until the gap fills.
    reorder: BTreeMap<u64, M::Msg>,
    /// Declared dead (retry budget exhausted, or an endpoint crashed):
    /// all traffic is abandoned and arrivals are discarded.
    dead: bool,
}

impl<M: ExecModel> LinkState<M> {
    fn new() -> Self {
        LinkState {
            next_seq: 0,
            queued: VecDeque::new(),
            unacked: VecDeque::new(),
            expected: 0,
            reorder: BTreeMap::new(),
            dead: false,
        }
    }

    /// Abandons every frame this link still owes the application and
    /// returns how many of them counted against the global barrier.
    fn kill(&mut self) -> u64 {
        self.dead = true;
        let mut abandoned = 0u64;
        for f in self.unacked.drain(..) {
            // An unacked frame holds the barrier unless the receiver
            // already accepted it (its ack was lost in flight).
            if f.seq >= self.expected && !self.reorder.contains_key(&f.seq) {
                abandoned += 1;
            }
        }
        abandoned += self.reorder.len() as u64;
        self.reorder.clear();
        abandoned += self.queued.len() as u64;
        self.queued.clear();
        abandoned
    }
}

/// A copy in flight: delivered when the tick clock reaches `arrive`.
struct InFlight<M: ExecModel> {
    arrive: usize,
    from: u32,
    to: u32,
    payload: Payload<M>,
}

enum Payload<M: ExecModel> {
    Data {
        from_id: M::Id,
        seq: u64,
        msg: M::Msg,
    },
    /// Cumulative: every data seq `< cum` on the `from → to`-reversed
    /// link is acknowledged.
    Ack { cum: u64 },
}

/// The reliable delivery plane ([`Delivery::Reliable`]): a sink that
/// hands every application send to the driving thread, plus a per-tick
/// hook holding the ARQ bookkeeping — links, wire, acks, the crash
/// table, and the barrier between kernel ticks and application rounds.
/// All of it lives on the driving thread.
///
/// [`Delivery::Reliable`]: crate::Delivery::Reliable
pub(crate) struct ArqPlane<'a, M: ExecModel> {
    adversary: &'a dyn Adversary,
    crashes: Crashes,
    max_retries: u32,
    window: usize,
    ack_timeout: usize,
    /// [`ExecModel::arq_header_charge`] and [`ExecModel::arq_ack_charge`].
    header: u64,
    ack_charge: u64,
    /// Directional link table, keyed `(sender index, receiver index)`.
    links: BTreeMap<(u32, u32), LinkState<M>>,
    /// Copies in flight on the faulted network.
    wire: Vec<InFlight<M>>,
    /// Receivers owing a cumulative ack, keyed
    /// `(receiver index, sender index)`.
    ack_pending: BTreeSet<(u32, u32)>,
    /// Frames sent by the application and not yet accepted or
    /// abandoned — the global barrier is open iff this is zero.
    outstanding: u64,
    /// Transmitted frames awaiting acknowledgment, across all links.
    unacked_total: u64,
    /// Accepted frames per receiver, in acceptance order, held until
    /// the barrier opens.
    accepted: Vec<Vec<(M::Id, M::Msg)>>,
    /// Each sender's transmit index within the current tick (the
    /// adversary's `seq` coordinate).
    tx_seq: Vec<u32>,
    stats: FaultStats,
}

impl<'a, M: ExecModel> ArqPlane<'a, M> {
    pub(crate) fn new(
        model: &M,
        spec: ReliabilitySpec,
        adversary: &'a dyn Adversary,
        n: usize,
    ) -> Self {
        ArqPlane {
            adversary,
            crashes: Crashes::new(adversary, n),
            max_retries: spec.max_retries,
            window: spec.window.max(1) as usize,
            ack_timeout: spec.ack_timeout_rounds.max(1) as usize,
            header: model.arq_header_charge(),
            ack_charge: model.arq_ack_charge(),
            links: BTreeMap::new(),
            wire: Vec::new(),
            ack_pending: BTreeSet::new(),
            outstanding: 0,
            unacked_total: 0,
            accepted: (0..n).map(|_| Vec::new()).collect(),
            tx_seq: vec![0; n],
            stats: FaultStats::default(),
        }
    }
}

/// The application-side sink: collects raw sends per shard, in outbox
/// order, for the driving thread to sequence. The model charges each
/// logical send once, exactly like direct delivery.
struct CollectSink<'a, M: ExecModel> {
    out: &'a mut Vec<(u32, M::Id, M::Msg)>,
}

impl<M: ExecModel> MsgSink<M> for CollectSink<'_, M> {
    #[inline]
    fn deliver(&mut self, _model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        self.out.push((to.index() as u32, from, msg));
        1
    }
}

/// Rolls the adversary for one transmission and places the surviving
/// copies on the wire. Returns the number of copies. A free function
/// over the disjoint [`ArqPlane`] fields so the link pump can call it
/// while iterating the link table.
#[allow(clippy::too_many_arguments)]
fn transmit<M: ExecModel>(
    wire: &mut Vec<InFlight<M>>,
    stats: &mut FaultStats,
    adversary: &dyn Adversary,
    tick: usize,
    tx_seq: &mut [u32],
    from: u32,
    to: u32,
    payload: Payload<M>,
) -> u32 {
    let k = tx_seq[from as usize];
    tx_seq[from as usize] += 1;
    let (arrive, copies) = match adversary.fate(tick as u32, from, k) {
        Fate::Drop => {
            stats.dropped += 1;
            return 0;
        }
        Fate::Deliver => (tick + 1, 1),
        Fate::Duplicate => {
            stats.duplicated += 1;
            (tick + 1, 2)
        }
        Fate::Delay(d) => {
            stats.delayed += 1;
            (tick + 1 + d.max(1) as usize, 1)
        }
    };
    if copies == 2 {
        let copy = match &payload {
            Payload::Data { from_id, seq, msg } => Payload::Data {
                from_id: *from_id,
                seq: *seq,
                msg: msg.clone(),
            },
            Payload::Ack { cum } => Payload::Ack { cum: *cum },
        };
        wire.push(InFlight {
            arrive,
            from,
            to,
            payload: copy,
        });
    }
    wire.push(InFlight {
        arrive,
        from,
        to,
        payload,
    });
    copies
}

impl<M: ExecModel> Plane<M> for ArqPlane<'_, M>
where
    M::Msg: Send,
{
    type Shard = Vec<(u32, M::Id, M::Msg)>;
    const FAULTS: bool = true;
    const GATED: bool = true;

    fn shard(&self) -> Self::Shard {
        Vec::new()
    }

    fn sink<S: MsgSink<M>>(out: &mut Self::Shard, _stage: S, _tick: usize) -> impl MsgSink<M> {
        CollectSink { out }
    }

    fn begin(
        &mut self,
        model: &M,
        tick: usize,
        mail: &mut Mail<M>,
        recv: &mut [usize],
    ) -> (bool, u64) {
        // Crash activation (tick clock): sever the victim's links.
        let links = &mut self.links;
        let (outstanding, unacked_total) = (&mut self.outstanding, &mut self.unacked_total);
        let fired = self.crashes.activate(tick, |i| {
            let v = i as u32;
            for (&(a, b), link) in links.iter_mut() {
                if (a == v || b == v) && !link.dead {
                    let abandoned = link.kill();
                    *outstanding -= abandoned;
                    *unacked_total = unacked_total.saturating_sub(abandoned);
                }
            }
        });
        if fired > 0 {
            // `kill` drains unacked wholesale, so recompute the global
            // tally from the surviving links.
            self.stats.crashed += fired;
            self.unacked_total = self.links.values().map(|l| l.unacked.len() as u64).sum();
        }

        // Wire delivery: copies transmitted earlier whose arrival tick
        // is now.
        let crashed = &self.crashes.down;
        let mut delivered = 0u64;
        let mut i = 0;
        while i < self.wire.len() {
            if self.wire[i].arrive != tick {
                i += 1;
                continue;
            }
            let InFlight {
                from, to, payload, ..
            } = self.wire.swap_remove(i);
            match payload {
                Payload::Data { from_id, seq, msg } => {
                    let link = self.links.entry((from, to)).or_insert_with(LinkState::new);
                    if link.dead || crashed[to as usize] {
                        self.stats.dropped += 1;
                        continue;
                    }
                    if seq < link.expected || link.reorder.contains_key(&seq) {
                        // Stale or duplicate copy: the cumulative ack
                        // was lost — re-flag it.
                        self.ack_pending.insert((to, from));
                        continue;
                    }
                    link.reorder.insert(seq, msg);
                    while let Some(m) = link.reorder.remove(&link.expected) {
                        if M::TRACK_RECV {
                            recv[to as usize] += model.recv_charge(&m);
                        }
                        self.accepted[to as usize].push((from_id, m));
                        link.expected += 1;
                        self.outstanding -= 1;
                        delivered += 1;
                    }
                    self.ack_pending.insert((to, from));
                }
                Payload::Ack { cum } => {
                    // Ack for the reversed link: `from` here is the
                    // receiver acknowledging `to`'s data.
                    if let Some(link) = self.links.get_mut(&(to, from)) {
                        while link.unacked.front().is_some_and(|f| f.seq < cum) {
                            link.unacked.pop_front();
                            self.unacked_total -= 1;
                        }
                    }
                }
            }
        }

        // Barrier: the application clock advances only when every
        // frame of the previous application round is resolved.
        if self.outstanding != 0 {
            return (false, delivered);
        }
        for (i, inbox) in self.accepted.iter_mut().enumerate() {
            if inbox.is_empty() {
                continue;
            }
            if crashed[i] {
                // Accepted before the crash; a halted actor never
                // reads its inbox again.
                inbox.clear();
                continue;
            }
            // Acceptance order can interleave senders across ticks;
            // the stable per-sender sort restores the direct inbox
            // order (per-link frames are already in send order).
            inbox.sort_by_key(|(from, _)| from.index());
            for (from, msg) in inbox.drain(..) {
                mail.inject(i, from, msg);
            }
        }
        (true, delivered)
    }

    fn crashed(&self) -> Option<&[bool]> {
        Some(&self.crashes.down)
    }

    fn idle(&self) -> bool {
        self.wire.is_empty() && self.unacked_total == 0 && self.ack_pending.is_empty()
    }

    fn exchange(
        &mut self,
        model: &M,
        shards: &mut [Self::Shard],
        tick: usize,
        _stepped: u64,
        _mail: &mut Mail<M>,
        _recv: &mut [usize],
        acc: &mut RoundProfile,
    ) -> u64 {
        // Ingest fresh sends in shard order — ascending sender order.
        let crashed = &self.crashes.down;
        self.tx_seq.fill(0);
        for out in shards.iter_mut() {
            for (to, from_id, msg) in out.drain(..) {
                let from = from_id.index() as u32;
                let link = self.links.entry((from, to)).or_insert_with(LinkState::new);
                if link.dead || crashed[to as usize] {
                    // Permanent loss: the frame is charged (it left the
                    // sender) but never traverses.
                    self.stats.dropped += 1;
                    continue;
                }
                let seq = link.next_seq;
                link.next_seq += 1;
                link.queued.push_back((seq, msg));
                self.outstanding += 1;
            }
        }
        // Pump: retransmit due frames, declare dead links, then open
        // the window for fresh frames — in deterministic link order.
        for (&(from, to), link) in self.links.iter_mut() {
            if link.dead {
                continue;
            }
            let mut give_up = false;
            for f in link.unacked.iter_mut() {
                if tick - f.last_tx < self.ack_timeout {
                    continue;
                }
                if f.retries >= self.max_retries {
                    give_up = true;
                    break;
                }
                f.retries += 1;
                f.last_tx = tick;
                self.stats.retransmitted += 1;
                let wire_cost = model.wire_charge(&f.msg);
                let copies = transmit(
                    &mut self.wire,
                    &mut self.stats,
                    self.adversary,
                    tick,
                    &mut self.tx_seq,
                    from,
                    to,
                    Payload::Data {
                        from_id: M::Id::from_index(from as usize),
                        seq: f.seq,
                        msg: f.msg.clone(),
                    },
                );
                acc.messages += 1 + u64::from(copies.saturating_sub(1));
                acc.volume += u64::from(copies.max(1)) * (wire_cost + self.header);
                acc.observe_size(wire_cost, copies.max(1));
            }
            if give_up {
                let before_unacked = link.unacked.len() as u64;
                self.outstanding -= link.kill();
                self.unacked_total -= before_unacked;
                self.stats.dead_links += 1;
                continue;
            }
            while link.unacked.len() < self.window {
                let Some((seq, msg)) = link.queued.pop_front() else {
                    break;
                };
                let wire_cost = model.wire_charge(&msg);
                let copies = transmit(
                    &mut self.wire,
                    &mut self.stats,
                    self.adversary,
                    tick,
                    &mut self.tx_seq,
                    from,
                    to,
                    Payload::Data {
                        from_id: M::Id::from_index(from as usize),
                        seq,
                        msg: msg.clone(),
                    },
                );
                // The model charged this frame's payload at step time;
                // the plane adds the control lane and any extra
                // adversary copy.
                acc.volume += u64::from(copies.max(1)) * self.header;
                if copies > 1 {
                    acc.messages += u64::from(copies - 1);
                    acc.volume += u64::from(copies - 1) * wire_cost;
                    acc.observe_size(wire_cost, copies - 1);
                }
                link.unacked.push_back(Frame {
                    seq,
                    msg,
                    last_tx: tick,
                    retries: 0,
                });
                self.unacked_total += 1;
            }
        }
        // Acks: one cumulative control frame per flagged (receiver,
        // sender) pair, in deterministic order; `to` acknowledges data
        // it received from `from`, so the ack travels to → from.
        for (to, from) in std::mem::take(&mut self.ack_pending) {
            let cum = self.links.get(&(from, to)).map_or(0, |l| l.expected);
            self.stats.acks += 1;
            let copies = transmit(
                &mut self.wire,
                &mut self.stats,
                self.adversary,
                tick,
                &mut self.tx_seq,
                to,
                from,
                Payload::Ack { cum },
            );
            acc.messages += 1;
            acc.volume += u64::from(copies.max(1)) * self.ack_charge;
        }
        // Frames reach an inbox when accepted, counted by `begin`.
        0
    }

    fn stats(&self) -> FaultStats {
        self.stats
    }

    fn depth(&self) -> usize {
        self.wire.len()
    }
}
