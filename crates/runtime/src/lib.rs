//! The synchronous round-execution kernel shared by the CONGEST and MPC
//! simulators.
//!
//! Both execution models of this workspace — the CONGEST / CONGESTED
//! CLIQUE simulator of `pga-congest` and the low-space MPC simulator of
//! `pga-mpc` — drive per-actor state machines through synchronous
//! message-passing rounds: deliver each actor's inbox, collect its
//! outbox, validate every message against the model, account metrics,
//! exchange, repeat until global quiescence. This crate holds that loop
//! **once**, in [`run_kernel`], parameterized by an [`ExecModel`] that
//! supplies only the pieces that actually differ between models:
//! per-message validation and charging, metrics accumulation, the error
//! type, addressing, and the per-actor cost estimate that drives
//! load-balanced sharding. A [`Plan`] — resolved from a [`RunConfig`] by
//! [`Plan::new`] — picks the round budget, the scheduling policy, the
//! shard count, and the delivery plane.
//!
//! # One loop, a stack of sinks
//!
//! Every round the kernel sweeps the actors (termination and
//! scheduling), steps the active ones, and exchanges their mail. The
//! executors of a plan differ only in how a round's messages travel, and
//! that is decided at the [`MsgSink`] seam the model's `step` delivers
//! into:
//!
//! * **Staging.** At one shard the kernel steps inline on the calling
//!   thread and stages each message straight into next round's
//!   per-actor inbox. At two or more, each shard steps on its own worker
//!   thread and stages into columnar lanes that the exchange scatters
//!   into flat inbox arenas (below).
//! * **Direct delivery** ([`Delivery::Direct`]) uses the staging sink
//!   as is.
//! * **Adversarial delivery** ([`Delivery::Adversary`], see [`fault`])
//!   stacks a sink that drops, duplicates, or delays each message on top
//!   of the staging sink, with a per-round hook that halts crashed
//!   actors and releases the delay queue.
//! * **Reliable delivery** ([`Delivery::Reliable`], see [`arq`]) stacks
//!   a sink that hands each send to a sliding-window ARQ layer running
//!   over the adversary, with a per-tick hook for the link, wire, and
//!   ack bookkeeping and the barrier between kernel ticks and
//!   application rounds.
//!
//! # The message plane: counting-sort exchange and flat inbox arenas
//!
//! The sharded exchange is a two-pass counting sort, in the
//! flat-array/prefix-sum style of bulk-synchronous graph engines:
//!
//! 1. **Stage (columnar lanes)** — while a worker steps its shard's
//!    actors, every validated outgoing message is appended to the *lane*
//!    for its destination shard: destination indices in one array,
//!    `(sender, payload)` pairs in a parallel array. Appends are strictly
//!    sequential, so staging never touches per-actor buffers.
//! 2. **Group (per-lane counting sort)** — still on the sending worker,
//!    each lane is stable-sorted by destination actor: count messages
//!    per destination, prefix-sum the counts into CSR offsets, and apply
//!    the resulting permutation in place (cycle-walking swaps — moves
//!    only, no clones, no unsafe).
//! 3. **Scatter (flat inbox arena)** — one worker per *destination*
//!    shard concatenates its incoming lanes into the shard's reusable
//!    flat inbox arena: for every destination actor, in ascending
//!    sender-shard order, the lane's pre-grouped range is drained into
//!    the arena, and the actor's inbox becomes a CSR slice
//!    `arena[offs[v]..offs[v + 1]]`. Mail a delivery plane injects on
//!    the driving thread (released delays, accepted ARQ frames) rides a
//!    final lane row, drained after every sender shard's. No per-actor
//!    `Vec` is ever pushed; each round reuses the same arena allocation.
//!
//! **Determinism.** Within one destination's inbox the delivery order is
//! (sender shard ascending, then outbox order within the shard). Shards
//! cover ascending contiguous id ranges and each worker visits its
//! actors in id order, so that order is exactly ascending sender id then
//! outbox order — the same order one-shard staging produces — which
//! keeps every shard count bit-identical without any comparison sort.
//!
//! # Packed-word lanes ([`MsgCodec`])
//!
//! CONGEST messages are `O(log n)` bits by definition, yet a naive
//! exchange moves full Rust enums through the lanes and arenas. A model
//! may instead declare a fixed-width packed representation
//! ([`ExecModel::Packed`], typically `u64` or `u128`) and enable it per
//! run ([`ExecModel::packs`]): every validated message is then encoded
//! once as it enters its lane ([`ExecModel::pack`]) and decoded once as
//! its destination's inbox slice is materialized for
//! [`ExecModel::step`], so the counting-sort exchange and the flat CSR
//! inbox arenas move `Copy` words instead of cloned enums. Validation,
//! charging, and metrics accounting all run on the *decoded* message
//! before it is packed, and the packed word round-trips exactly
//! ([`MsgCodec`]'s contract), so the packed plane is bit-identical to
//! the enum plane — same outputs, same metrics (congestion and I/O
//! profiles included), same errors — at every thread count. Models that
//! do not pack set `Packed = ()` and keep the enum plane; one-shard runs
//! always use the enum plane (they have no exchange to compress).
//!
//! # Load-balanced sharding
//!
//! Actors are partitioned into contiguous shards by
//! [`balanced_partition`], which draws boundaries on the prefix sums of
//! the model's per-actor cost estimate ([`ExecModel::actor_cost`]:
//! adjacency degree for CONGEST vertices, resident words for MPC
//! machines). Uniform `n / threads` ranges skew badly on heavy-tailed
//! (Barabási–Albert-style) instances where the hubs concentrate in one
//! shard; cost-balanced boundaries equalize expected per-shard message
//! work instead of actor counts. Any contiguous partition preserves
//! bit-identity (see above), so balancing is purely a performance
//! choice.
//!
//! # Performance: arenas and quiescence
//!
//! * **Arena-backed message staging** — inbox storage is owned by the
//!   kernel and reused across rounds (one-shard runs swap per-actor
//!   buffers; sharded runs reuse their lanes and flat inbox arenas), so
//!   steady-state rounds perform no per-actor buffer allocation.
//! * **Batched round accounting** — each worker accumulates one
//!   [`RoundProfile`] for its whole shard and the kernel folds the
//!   shard profiles once per round (in shard order), instead of
//!   touching shared metrics per message.
//! * **Quiescence-aware scheduling** — under the default
//!   [`Scheduling::ActiveSet`] policy a round only invokes the `round`
//!   callback of actors that received a message or are not yet
//!   skippable (see below), collapsing the long quiescent tails of
//!   flooding-style runs where most actors finished early.
//!
//! # The scheduling rule
//!
//! The kernel may skip an actor's `round` callback in a given round
//! **only if** the model reports the actor as *skippable*
//! ([`Poll::skippable`]) **and** the actor's inbox for that round is
//! empty. The contract that makes this invisible: *whenever an actor
//! reports itself skippable and its inbox is empty, its `round` callback
//! must be a pure no-op — no state mutation, no outgoing messages, no
//! error.* Skipping a call that would have done nothing cannot change
//! outputs, metrics, or errors, so both scheduling policies (at every
//! shard count) remain bit-identical.
//!
//! The user-facing traits (`pga_congest::Algorithm::can_skip`,
//! `pga_mpc::Machine::can_skip`) default `skippable` to the actor's own
//! `is_done`, which satisfies the contract for plain state machines that
//! go quiet when finished. Algorithms whose `round` has residual side
//! effects after `is_done` (round-counter resets, stale-flag clearing)
//! override `can_skip` to say so and are simply never skipped;
//! [`Scheduling::FullSweep`] disables skipping globally and is the
//! reference behavior.
//!
//! Termination is *not* affected by scheduling: the kernel stops when
//! all actors are done and no message is in flight — exactly the
//! classic loop. Under the active-set policy an actor observed done and
//! skippable with an empty inbox becomes *dormant*: its state is frozen
//! (nothing may mutate it until a message arrives), so the kernel
//! counts it as done without re-polling and wakes it on delivery. The
//! contract above therefore also requires that a skippable actor's
//! `is_done`/`can_skip` verdicts stay `true` while its state is frozen.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod arq;
pub mod fault;
pub mod probe;

pub use arq::ReliabilitySpec;
pub use fault::{
    Adversary, Fate, FaultEvent, FaultSpec, FaultStats, FaultTrace, SeededAdversary, TraceAdversary,
};
pub use probe::{
    JsonlProbe, NoopProbe, Probe, ProbeMode, RecordingProbe, RoundObs, RoundTelemetry,
    RunTelemetry, ShardTelemetry, SizeHist,
};

use pga_graph::NodeId;

/// Dense actor addressing: both vertex ids (`pga_graph::NodeId`) and MPC
/// machine ids are `0..n` indices behind a newtype.
pub trait ActorId: Copy + Eq + Send {
    /// The identifier as a dense `usize` index.
    fn index(self) -> usize;
    /// The identifier for a dense `usize` index.
    fn from_index(i: usize) -> Self;
}

impl ActorId for NodeId {
    #[inline]
    fn index(self) -> usize {
        NodeId::index(self)
    }
    #[inline]
    fn from_index(i: usize) -> Self {
        NodeId::from_index(i)
    }
}

/// Unified message-cost accounting shared by the execution models.
///
/// One declared size, two currencies: CONGEST charges **bits** against
/// the per-edge bandwidth `B` ([`MsgCost::size_bits`], with
/// `id_bits = ⌈log₂ n⌉` passed in so identifiers cost the
/// model-correct `O(log n)` bits), and low-space MPC charges **64-bit
/// words** against the per-machine budget `S`
/// ([`MsgCost::size_words`]). The default word size derives from the
/// bit size at full-width (64-bit) identifier fields; batch-style MPC
/// messages override it directly.
pub trait MsgCost {
    /// The size of this message in bits, where node identifiers cost
    /// `id_bits` each.
    fn size_bits(&self, id_bits: usize) -> usize;

    /// The size of this message in 64-bit words (MPC's charging unit).
    fn size_words(&self) -> usize {
        self.size_bits(64).div_ceil(64).max(1)
    }
}

/// A fixed-width packed wire representation for a message type.
///
/// Implementing `MsgCodec` lets the sharded exchange move `Copy` words
/// through its counting-sort lanes and flat CSR inbox arenas instead of
/// cloned enums (see the crate docs). The **contract**:
///
/// * `decode(encode(&m))` reproduces `m` exactly (observable state,
///   not just equality — the kernel relies on bit-identity), and
/// * [`MsgCodec::encoded_bits`] agrees with the message's declared
///   [`MsgCost::size_bits`] for every reachable message (asserted in
///   debug builds by the model wrappers), so packed-plane accounting
///   cannot drift from enum-plane accounting.
pub trait MsgCodec: MsgCost + Sized {
    /// The packed word (`u64` for CONGEST's `O(log n)`-bit messages;
    /// wider payloads use `u128` or small fixed arrays).
    type Word: Copy + Send;

    /// Encodes this message into its packed word.
    fn encode(&self) -> Self::Word;

    /// Decodes a packed word back into the message.
    fn decode(word: Self::Word) -> Self;

    /// The exact declared size in bits of the message `word` encodes,
    /// used for congestion/volume accounting on the packed plane. The
    /// default decodes and asks [`MsgCost::size_bits`]; implementations
    /// may override with a direct bit computation.
    fn encoded_bits(word: Self::Word, id_bits: usize) -> usize {
        Self::decode(word).size_bits(id_bits)
    }
}

/// A function-pointer vtable over a [`MsgCodec`] implementation.
///
/// Model wrappers store an `Option<CodecFns<…>>` to make packing a
/// per-run choice without an extra trait bound on every generic
/// kernel path: `CodecFns::new::<M>()` captures the codec of a
/// message type once, and the wrapper dispatches through plain function
/// pointers thereafter.
pub struct CodecFns<M, W> {
    /// [`MsgCodec::encode`].
    pub enc: fn(&M) -> W,
    /// [`MsgCodec::decode`].
    pub dec: fn(W) -> M,
    /// [`MsgCodec::encoded_bits`].
    pub bits: fn(W, usize) -> usize,
}

impl<M, W> Clone for CodecFns<M, W> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M, W> Copy for CodecFns<M, W> {}

impl<M, W> std::fmt::Debug for CodecFns<M, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CodecFns { .. }")
    }
}

impl<M: MsgCodec> CodecFns<M, M::Word> {
    /// The vtable of `M`'s [`MsgCodec`] implementation.
    pub fn new() -> Self {
        CodecFns {
            enc: M::encode,
            dec: M::decode,
            bits: M::encoded_bits,
        }
    }
}

impl<M: MsgCodec> Default for CodecFns<M, M::Word> {
    fn default() -> Self {
        Self::new()
    }
}

/// Selects how many threads step a run's actors (resolved to a shard
/// count by [`Plan::new`]).
///
/// Every choice is **bit-identical**: for the same actor states it
/// produces the same outputs, the same metrics (per-round profiles
/// included), and the same error on model violations, regardless of
/// thread count. The sequential engine is the reference oracle; the
/// parallel one exists to make large instances run as fast as the
/// hardware allows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Engine {
    /// One shard, stepped inline on the calling thread.
    #[default]
    Sequential,
    /// One worker thread per shard.
    Parallel {
        /// Number of worker shards; `0` means one per available CPU.
        threads: usize,
    },
}

impl Engine {
    /// The parallel engine with one shard per available CPU.
    pub fn parallel_auto() -> Self {
        Engine::Parallel { threads: 0 }
    }
}

/// Below this actor count, [`Engine::parallel_auto`] (threads = 0) runs
/// on one shard: worker threads are spawned per round, and on small
/// instances that fixed cost exceeds the per-round compute. Explicit
/// thread counts are always honored.
pub const PARALLEL_MIN_NODES: usize = 1024;

/// Builder-style per-run configuration consumed by the simulators' and
/// entry points' unified `_cfg` forms: the engine, the scheduling
/// policy, and whether the packed message plane is enabled.
///
/// ```
/// use pga_runtime::{Engine, RunConfig, Scheduling};
///
/// let cfg = RunConfig::new().parallel(4).codec(true);
/// assert_eq!(cfg.engine, Engine::Parallel { threads: 4 });
/// assert_eq!(cfg.scheduling, Scheduling::ActiveSet);
/// assert!(cfg.codec);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct RunConfig {
    /// The engine driving the run (default [`Engine::Sequential`]).
    pub engine: Engine,
    /// The round-scheduling policy (default [`Scheduling::ActiveSet`];
    /// both policies are bit-identical).
    pub scheduling: Scheduling,
    /// Whether the sharded exchange moves packed words instead of
    /// cloned enums (default off; requires the message type to
    /// implement [`MsgCodec`], and is bit-identical to the enum plane).
    pub codec: bool,
    /// Seeded fault-injection plan for the run (default `None` = direct
    /// delivery). `Some(spec)` routes the run's mail through the seeded
    /// adversary ([`Delivery::Adversary`]) — even [`FaultSpec::none`],
    /// which reproduces direct delivery bit for bit.
    pub fault: Option<FaultSpec>,
    /// Overrides the simulator's round budget for this run (default
    /// `None` keeps the simulator's own limit). Fault sweeps set a
    /// small budget so runs that an adversary starves into livelock
    /// abort quickly with the model's round-limit error.
    pub max_rounds: Option<usize>,
    /// Reliable-delivery plan for the run (default `None` = raw
    /// delivery). `Some(spec)` routes the run's mail through the ARQ
    /// plane ([`Delivery::Reliable`]), which sequences, acknowledges, and
    /// retransmits every application message over the (possibly
    /// faulted) network — composable with [`RunConfig::fault`]: with no
    /// adversary armed the ARQ run reproduces the clean outputs with a
    /// constant round tail, and under drop/delay/duplicate faults the
    /// outputs stay bit-identical to the clean run while the metrics
    /// record the price of reliability.
    pub reliability: Option<ReliabilitySpec>,
    /// Trace-sink activation policy (default [`ProbeMode::Env`]: the
    /// run streams a [`JsonlProbe`] trace to the path named by the
    /// `PGA_TRACE` environment variable, if any). Probes are read-only
    /// observers — attaching one never changes outputs, metrics, or
    /// errors.
    pub probe: ProbeMode,
    /// How the `G²` clique pipelines obtain two-hop structure before
    /// Phase 1 (default [`G2Prep::Relay`]). Both strategies induce the
    /// same cover bit for bit; the knob trades relay rounds against
    /// bitmap-materialization rounds, which favors clustered inputs.
    pub g2_prep: G2Prep,
}

/// Two-hop preprocessing strategy of the congested-clique `G²`
/// pipelines (selected via [`RunConfig::g2_prep`]).
///
/// The deterministic MVC pipeline needs each candidate's view of its
/// `G²`-neighborhood. [`G2Prep::Relay`] obtains it online, one
/// neighbor-relay round per Phase-1 iteration. [`G2Prep::Bmm`] instead
/// materializes the Boolean-matrix-product rows up front with the
/// `clique_bmm` primitive (nodes broadcast their adjacency bitmaps as
/// packed 64-bit blocks; `O(1)`–`O(log n)` rounds on clustered inputs)
/// and then runs the relay-free Phase-1 variant on the materialized
/// rows. Both strategies are proven to induce the same cover bit for
/// bit; if any row overflows the word budget, the BMM path falls back
/// to the relay protocol wholesale, preserving that guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum G2Prep {
    /// Per-iteration one-hop relay of candidacies (the default; the
    /// paper's original protocol shape).
    #[default]
    Relay,
    /// Up-front `G²`-row materialization via blocked Boolean matrix
    /// multiplication over packed bitmap words.
    Bmm,
}

impl RunConfig {
    /// The default configuration: sequential, active-set scheduling,
    /// enum message plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the engine.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the single-threaded reference engine.
    pub fn sequential(self) -> Self {
        self.engine(Engine::Sequential)
    }

    /// Selects the sharded engine with an explicit thread count.
    pub fn parallel(self, threads: usize) -> Self {
        self.engine(Engine::Parallel { threads })
    }

    /// Selects the sharded engine with one shard per available CPU.
    pub fn parallel_auto(self) -> Self {
        self.engine(Engine::parallel_auto())
    }

    /// Selects the round-scheduling policy.
    pub fn scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// Enables or disables the packed message plane.
    pub fn codec(mut self, codec: bool) -> Self {
        self.codec = codec;
        self
    }

    /// Arms the seeded adversary: the run executes under `spec`'s
    /// per-message drop/duplicate/delay decisions and per-round crash
    /// sets, deterministically — any run is exactly replayable from
    /// `(spec.seed, spec)` at every engine and thread count.
    pub fn adversary(mut self, spec: FaultSpec) -> Self {
        self.fault = Some(spec);
        self
    }

    /// Caps the run's round budget (see [`RunConfig::max_rounds`]).
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Arms the reliable delivery plane (see [`RunConfig::reliability`]
    /// and [`ReliabilitySpec`]).
    pub fn reliability(mut self, spec: ReliabilitySpec) -> Self {
        self.reliability = Some(spec);
        self
    }

    /// The application-round deadline for a phase whose clean run is
    /// bounded by `clean_bound` rounds: `Some` only when a
    /// [`ReliabilitySpec`] with phase timeouts armed is attached.
    pub fn phase_deadline(&self, clean_bound: usize) -> Option<usize> {
        self.reliability.and_then(|r| r.phase_deadline(clean_bound))
    }

    /// Selects the trace-sink activation policy (see
    /// [`RunConfig::probe`]).
    pub fn probe(mut self, mode: ProbeMode) -> Self {
        self.probe = mode;
        self
    }

    /// Selects the two-hop preprocessing strategy of the `G²` clique
    /// pipelines (see [`G2Prep`]).
    pub fn g2_prep(mut self, prep: G2Prep) -> Self {
        self.g2_prep = prep;
        self
    }

    /// Shorthand for [`RunConfig::g2_prep`]`(`[`G2Prep::Bmm`]`)`.
    pub fn bmm_prep(self) -> Self {
        self.g2_prep(G2Prep::Bmm)
    }
}

/// Round-scheduling policy of the kernel (see the crate docs for the
/// exact rule and the no-op contract that keeps the policies
/// bit-identical).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheduling {
    /// Skip the `round` callback of skippable actors with empty inboxes
    /// (the default; fastest on runs with quiescent tails).
    #[default]
    ActiveSet,
    /// Invoke every actor's `round` callback every round — the classic
    /// reference behavior.
    FullSweep,
}

/// One round's merged accounting, shared by both models.
///
/// The kernel accumulates one `RoundProfile` per shard (a one-shard run
/// has one), folds the shard profiles in
/// shard order once per round, and hands the merge to
/// [`ExecModel::end_round`]; the model maps the fields onto its own
/// metrics type. Field semantics are model-defined: CONGEST charges bits
/// and tracks the largest single message per round, MPC charges words
/// and tracks per-machine send volume and declared memory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Messages sent this round.
    pub messages: u64,
    /// Total charged volume this round (bits or words).
    pub volume: u64,
    /// Largest single-message charge this round (CONGEST's per-edge
    /// congestion peak).
    pub peak_link: usize,
    /// Largest per-actor total outgoing charge this round (MPC's send
    /// volume peak).
    pub peak_actor_out: usize,
    /// Largest per-actor declared state size this round (MPC's memory
    /// peak).
    pub peak_state: usize,
    /// Log-bucketed histogram of the charged message sizes this round.
    /// `None` (the default) outside probed runs: the kernel allocates
    /// it only when an enabled [`Probe`] is attached, so models can
    /// call [`RoundProfile::observe_size`] unconditionally and the
    /// unprobed path pays one branch per message. Telemetry only —
    /// never read by [`ExecModel::end_round`], so metrics cannot
    /// depend on it.
    pub sizes: Option<Box<SizeHist>>,
}

impl RoundProfile {
    /// A profile whose size histogram is allocated iff the probe `P` is
    /// enabled — the kernel's per-round accumulator constructor.
    fn for_probe<P: Probe>() -> Self {
        RoundProfile {
            sizes: P::ENABLED.then(Box::default),
            ..Self::default()
        }
    }

    /// Records `copies` charged copies of a `size`-unit message into the
    /// round's size histogram, when one is attached (no-op otherwise —
    /// unprobed runs never allocate one). Models call this
    /// next to their per-message charging.
    #[inline]
    pub fn observe_size(&mut self, size: u64, copies: u32) {
        if copies == 0 {
            return;
        }
        if let Some(h) = self.sizes.as_deref_mut() {
            h.record(size, u64::from(copies));
        }
    }

    /// Folds another shard's partial profile into this one (sums and
    /// maxima; shard order does not matter for the result).
    pub fn merge(&mut self, other: &RoundProfile) {
        self.messages += other.messages;
        self.volume += other.volume;
        self.peak_link = self.peak_link.max(other.peak_link);
        self.peak_actor_out = self.peak_actor_out.max(other.peak_actor_out);
        self.peak_state = self.peak_state.max(other.peak_state);
        if let Some(o) = other.sizes.as_deref() {
            match self.sizes.as_deref_mut() {
                Some(s) => s.merge(o),
                None => self.sizes = Some(Box::new(o.clone())),
            }
        }
    }
}

/// One actor's per-round verdict, reported by [`ExecModel::poll`].
#[derive(Clone, Copy, Debug)]
pub struct Poll {
    /// Whether the actor has terminated (the run ends when all actors
    /// are done and no message is in flight).
    pub done: bool,
    /// Whether the actor's `round` callback is a guaranteed no-op while
    /// its inbox is empty (the [`Scheduling::ActiveSet`] skip rule).
    pub skippable: bool,
}

/// Where [`ExecModel::step`] stages validated outgoing messages.
///
/// The kernel provides the implementations: a staging sink (per-actor
/// inboxes at one shard, columnar lanes at two or more), possibly
/// wrapped by its delivery plane's sink. `step` must call [`MsgSink::deliver`] once per validated
/// message, in outbox order, *after* the message passed the model's
/// checks.
pub trait MsgSink<M: ExecModel + ?Sized> {
    /// Stages `msg` from `from` for delivery to `to` next round and
    /// returns the number of copies that will actually traverse the
    /// network — the factor the model must charge its round accounting
    /// by.
    ///
    /// The kernel's staging sinks always return 1; the adversary's sink
    /// returns 0 for a message the adversary drops (so dropped
    /// messages are charged at actual delivery — i.e. not at all), 2
    /// for a duplicated message, and 1 for a delayed one (a delayed
    /// message occupies its link when transmitted; the adversary merely
    /// holds it in the network before handing it over).
    #[must_use = "models must scale their round charges by the returned copy count"]
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32;
}

/// The pieces of a synchronous round-based execution model that differ
/// between CONGEST and MPC.
///
/// Implementations are thin: they own the model's context construction,
/// per-message validation/charging, and the mapping from the kernel's
/// [`RoundProfile`] onto the model's public metrics type. The kernel
/// owns the loop — termination, scheduling, staging, sharding, and the
/// exchange — so engine behavior cannot drift between models.
pub trait ExecModel: Sync {
    /// Actor addressing (vertex ids or machine ids).
    type Id: ActorId;
    /// Per-actor program state (`Algorithm` / `Machine` implementors).
    type Node;
    /// Message type exchanged by the actors.
    type Msg: Clone;
    /// Per-actor output collected at the end of the run.
    type Output;
    /// Error type aborting the run (`SimError` / `MpcError`).
    type Error;
    /// Whole-run metrics type (`Metrics` / `MpcMetrics`).
    type Metrics: Default;
    /// Per-actor validation scratch, reused across actors within a
    /// shard (CONGEST's duplicate-destination list, MPC's running send
    /// volume). `step` must reset it before use.
    type SendScratch: Default + Send;
    /// The fixed-width packed wire word the sharded exchange moves when
    /// [`ExecModel::packs`] is enabled (see the crate docs on packed
    /// lanes). Models that do not pack set `()` and keep the enum
    /// plane — the [`ExecModel::pack`]/[`ExecModel::unpack`] defaults
    /// are then never called.
    type Packed: Copy + Send;

    /// Whether the kernel must tally each destination's delivered
    /// charge every round (MPC's receive-volume cap needs it; CONGEST
    /// does not, and the tally is compiled out).
    const TRACK_RECV: bool = false;

    /// Whether a sharded [`run_kernel`] should move [`ExecModel::Packed`]
    /// words through its lanes and arenas instead of cloned
    /// [`ExecModel::Msg`] enums. Consulted once per run; the default
    /// keeps the enum plane.
    fn packs(&self) -> bool {
        false
    }

    /// Encodes a validated message into its packed word (only called
    /// when [`ExecModel::packs`] returns `true`; the message has
    /// already passed the model's checks and been charged).
    fn pack(&self, _msg: &Self::Msg) -> Self::Packed {
        unreachable!("ExecModel::pack called on a model that does not pack")
    }

    /// Decodes a packed word back into the message it encodes (only
    /// called when [`ExecModel::packs`] returns `true`).
    fn unpack(&self, _word: Self::Packed) -> Self::Msg {
        unreachable!("ExecModel::unpack called on a model that does not pack")
    }

    /// Hook before round 0 (MPC checks the initial memory footprints).
    ///
    /// # Errors
    ///
    /// An error aborts the run before any round executes.
    fn pre_run(
        &self,
        _nodes: &[Self::Node],
        _metrics: &mut Self::Metrics,
    ) -> Result<(), Self::Error> {
        Ok(())
    }

    /// The actor's relative per-round cost estimate, consulted once per
    /// sharded run by [`run_kernel`] to draw cost-balanced contiguous shard
    /// boundaries (see [`balanced_partition`]).
    ///
    /// CONGEST charges a vertex its adjacency degree (message work is
    /// degree-proportional); MPC charges a machine its resident words.
    /// The estimate only steers load balancing — any value keeps every
    /// shard count bit-identical. The default is uniform cost.
    fn actor_cost(&self, _node: &Self::Node, _idx: usize) -> u64 {
        1
    }

    /// Reports the actor's termination and skippability at `round`.
    fn poll(&self, node: &Self::Node, idx: usize, round: usize) -> Poll;

    /// The actor's final output (called once per actor after the run).
    fn output(&self, node: &Self::Node, idx: usize, round: usize) -> Self::Output;

    /// The model's round-budget-exhausted error.
    fn round_limit_error(&self, limit: usize) -> Self::Error;

    /// Executes one actor's round: invoke the program on `inbox`,
    /// validate and charge every outgoing message (accumulating into
    /// `acc`), and stage each accepted message via `sink.deliver` in
    /// outbox order. Model-side per-actor checks (MPC's memory budget)
    /// also happen here, after the sends, to preserve the sequential
    /// engines' error precedence.
    ///
    /// # Errors
    ///
    /// The first model violation (or program-raised error) aborts the
    /// run; the kernel surfaces the lowest-indexed actor's error.
    #[allow(clippy::too_many_arguments)]
    fn step<S: MsgSink<Self>>(
        &self,
        node: &mut Self::Node,
        idx: usize,
        round: usize,
        inbox: &[(Self::Id, Self::Msg)],
        scratch: &mut Self::SendScratch,
        acc: &mut RoundProfile,
        sink: &mut S,
    ) -> Result<(), Self::Error>;

    /// The per-message charge added to the destination's receive tally
    /// (only consulted when [`ExecModel::TRACK_RECV`] is set).
    fn recv_charge(&self, _msg: &Self::Msg) -> usize {
        0
    }

    /// The payload cost of one wire copy of `msg` in the model's volume
    /// unit (bits for CONGEST, words for MPC) — what ARQ delivery
    /// charges for each *re*transmission, matching what the model
    /// charged the first transmission at `step` time. Only consulted
    /// under [`Delivery::Reliable`].
    fn wire_charge(&self, _msg: &Self::Msg) -> u64 {
        1
    }

    /// The fixed-width ARQ control-lane cost (sequence number) that
    /// rides beside every data copy, in the model's volume unit. Only
    /// consulted under [`Delivery::Reliable`].
    fn arq_header_charge(&self) -> u64 {
        0
    }

    /// The cost of one cumulative-ack control frame, in the model's
    /// volume unit. Only consulted under [`Delivery::Reliable`].
    fn arq_ack_charge(&self) -> u64 {
        1
    }

    /// Validates the per-destination receive tally after all actors
    /// stepped (MPC's receive-volume cap, checked in actor order).
    ///
    /// # Errors
    ///
    /// An error aborts the run exactly like a `step` error.
    fn check_recv(&self, _recv: &[usize], _round: usize) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Folds the merged round accounting into the run metrics; `round`
    /// is the 0-based index of the round that just executed, and `recv`
    /// is the receive tally (empty unless [`ExecModel::TRACK_RECV`]).
    fn end_round(
        &self,
        acc: &RoundProfile,
        recv: &[usize],
        round: usize,
        metrics: &mut Self::Metrics,
    );

    /// Folds the whole-run fault statistics and the convergence round
    /// into the metrics after the final round (called once per
    /// successful run, whatever the delivery plane).
    ///
    /// `fault` carries the adversary's tally — all zeros except
    /// [`FaultStats::delivered`] on a clean run — and
    /// `convergence_round` is the kernel's message-quiescence detector:
    /// the first round index from which no message was in flight for
    /// the rest of the run (0 when the run never exchanged a message).
    /// The default ignores both, so models without fault-aware metrics
    /// need no changes.
    fn finish(&self, _metrics: &mut Self::Metrics, _fault: &FaultStats, _convergence_round: usize) {
    }
}

/// Result of a completed kernel run; the model wrappers repackage it
/// into their public report types.
#[derive(Debug)]
pub struct Run<O, M> {
    /// Per-actor outputs, indexed by actor id.
    pub outputs: Vec<O>,
    /// The model's whole-run metrics.
    pub metrics: M,
}

/// Cost-balanced contiguous shard boundaries; the load balancer of
/// [`run_kernel`].
///
/// The implementation lives in the graph substrate
/// ([`pga_graph::partition`]) so its blocked-BMM kernel can shard along
/// the same boundaries; re-exported here unchanged for the engines and
/// every existing call site. [`run_kernel`] preserves bit-identity for
/// *any* contiguous partition — boundaries only affect wall-clock
/// balance.
pub use pga_graph::partition::balanced_partition;

/// Per-actor inbox buffers of the one-shard layout: one
/// `Vec<(from, msg)>` per actor, reused across rounds.
type Inboxes<M> = Vec<Vec<(<M as ExecModel>::Id, <M as ExecModel>::Msg)>>;

/// The one-shard staging sink: messages go straight into next round's
/// per-actor inboxes (and the receive tally).
struct DirectSink<'a, M: ExecModel> {
    staging: &'a mut [Vec<(M::Id, M::Msg)>],
    recv: &'a mut [usize],
}

impl<M: ExecModel> MsgSink<M> for DirectSink<'_, M> {
    #[inline]
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        if M::TRACK_RECV {
            self.recv[to.index()] += model.recv_charge(&msg);
        }
        self.staging[to.index()].push((from, msg));
        1
    }
}

/// The fixed shard layout of one sharded run: boundary offsets plus the
/// actor → shard map the staging sink uses for O(1) lane routing.
struct ShardMeta {
    /// Boundary offsets from [`balanced_partition`] (`starts.len() - 1`
    /// shards; shard `j` covers `starts[j]..starts[j + 1]`).
    starts: Vec<usize>,
    /// Destination shard of every actor index.
    shard_of: Vec<u32>,
}

impl ShardMeta {
    fn new(starts: Vec<usize>) -> Self {
        let n = *starts.last().unwrap();
        let mut shard_of = vec![0u32; n];
        for (j, w) in starts.windows(2).enumerate() {
            shard_of[w[0]..w[1]].fill(j as u32);
        }
        ShardMeta { starts, shard_of }
    }

    fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    fn len_of(&self, j: usize) -> usize {
        self.starts[j + 1] - self.starts[j]
    }
}

/// One sender shard's columnar staging for one destination shard:
/// destination indices and `(sender, payload)` pairs in parallel
/// arrays, appended in outbox order and counting-sorted by destination
/// before the scatter. All three buffers are reused across rounds.
struct Lane<M: ExecModel> {
    /// Shard-local destination index of each staged message.
    to: Vec<u32>,
    /// `(sender, payload)` of each staged message, parallel to `to`.
    pay: Vec<(M::Id, M::Msg)>,
    /// After grouping: CSR offsets into `pay` per local destination
    /// (`dest_len + 1` entries). Only meaningful while `pay` is
    /// non-empty.
    offs: Vec<u32>,
}

impl<M: ExecModel> Lane<M> {
    fn new() -> Self {
        Lane {
            to: Vec::new(),
            pay: Vec::new(),
            offs: Vec::new(),
        }
    }
}

/// One destination shard's flat inbox arena: every message delivered to
/// the shard, grouped by destination actor, plus CSR offsets — actor
/// `local` reads `data[offs[local]..offs[local + 1]]`. Reused across
/// rounds; `dirty` tracks whether a previous round left content that a
/// quiet round must clear.
struct Arena<M: ExecModel> {
    data: Vec<(M::Id, M::Msg)>,
    offs: Vec<usize>,
    dirty: bool,
}

impl<M: ExecModel> Arena<M> {
    fn new(len: usize) -> Self {
        Arena {
            data: Vec::new(),
            offs: vec![0; len + 1],
            dirty: false,
        }
    }

    #[inline]
    fn has_mail(&self, local: usize) -> bool {
        self.offs[local + 1] > self.offs[local]
    }

    fn clear(&mut self) {
        self.data.clear();
        self.offs.fill(0);
        self.dirty = false;
    }
}

/// Read access to one shard's inboxes for [`step_shard`]: per-actor
/// buffers (consumed in place, so the cleared buffer keeps its capacity
/// for the next round) or a flat arena (rebuilt wholesale by the next
/// scatter).
trait ShardInbox<M: ExecModel> {
    fn inbox(&self, local: usize) -> &[(M::Id, M::Msg)];
    fn consumed(&mut self, local: usize);
}

impl<M: ExecModel> ShardInbox<M> for [Vec<(M::Id, M::Msg)>] {
    #[inline]
    fn inbox(&self, local: usize) -> &[(M::Id, M::Msg)] {
        &self[local]
    }
    #[inline]
    fn consumed(&mut self, local: usize) {
        self[local].clear();
    }
}

impl<M: ExecModel> ShardInbox<M> for Arena<M> {
    #[inline]
    fn inbox(&self, local: usize) -> &[(M::Id, M::Msg)] {
        &self.data[self.offs[local]..self.offs[local + 1]]
    }
    #[inline]
    fn consumed(&mut self, _local: usize) {}
}

/// The lane-staging sink of the sharded layout: messages are appended
/// to the columnar lane of their destination shard.
struct LaneSink<'a, M: ExecModel> {
    lanes: &'a mut [Lane<M>],
    starts: &'a [usize],
    shard_of: &'a [u32],
}

impl<M: ExecModel> MsgSink<M> for LaneSink<'_, M> {
    #[inline]
    fn deliver(&mut self, _model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        let j = self.shard_of[to.index()] as usize;
        let lane = &mut self.lanes[j];
        lane.to.push((to.index() - self.starts[j]) as u32);
        lane.pay.push((from, msg));
        1
    }
}

/// Reusable per-worker scratch: the model's validation scratch plus the
/// counting-sort arrays of the lane-grouping pass.
struct WorkerScratch<M: ExecModel> {
    send: M::SendScratch,
    /// Per-destination counters, then running cursors (counting sort
    /// pass 1); sized to the largest destination shard.
    counts: Vec<u32>,
    /// Final position of each staged message (counting sort pass 2).
    pos: Vec<u32>,
}

impl<M: ExecModel> WorkerScratch<M> {
    fn new() -> Self {
        WorkerScratch {
            send: M::SendScratch::default(),
            counts: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Counting-sorts every non-empty lane of `row` by destination.
    fn group_row(&mut self, row: &mut [Lane<M>], meta: &ShardMeta) {
        for (j, lane) in row.iter_mut().enumerate() {
            if !lane.pay.is_empty() {
                group_lane_by_destination(lane, meta.len_of(j), &mut self.counts, &mut self.pos);
            }
        }
    }
}

/// Stable counting sort of one lane by destination: fills `lane.offs`
/// with the per-destination CSR offsets and permutes `lane.pay` into
/// destination-grouped order in place (cycle-walking swaps; stability
/// follows from assigning positions in scan order).
fn group_lane_by_destination<M: ExecModel>(
    lane: &mut Lane<M>,
    dest_len: usize,
    counts: &mut Vec<u32>,
    pos: &mut Vec<u32>,
) {
    if counts.len() < dest_len {
        counts.resize(dest_len, 0);
    }
    let counts = &mut counts[..dest_len];
    counts.fill(0);
    for &t in &lane.to {
        counts[t as usize] += 1;
    }
    // Prefix-sum the counts into CSR offsets, leaving `counts` holding
    // each destination's running write cursor.
    lane.offs.clear();
    lane.offs.reserve(dest_len + 1);
    lane.offs.push(0);
    let mut run = 0u32;
    for c in counts.iter_mut() {
        let start = run;
        run += *c;
        *c = start;
        lane.offs.push(run);
    }
    // Final slot of each message, assigned in scan order (stable).
    pos.clear();
    pos.extend(lane.to.iter().map(|&t| {
        let p = counts[t as usize];
        counts[t as usize] += 1;
        p
    }));
    // Apply the permutation in place: ≤ len swaps, moves only.
    let pay = &mut lane.pay[..];
    for i in 0..pay.len() {
        while pos[i] as usize != i {
            let j = pos[i] as usize;
            pay.swap(i, j);
            pos.swap(i, j);
        }
    }
    lane.to.clear();
}

/// The sharded layout: per-shard flat inbox arenas, one row of outgoing
/// lanes per sending shard plus a final row for mail a plane injects on
/// the driving thread, and per-worker scratch — all reused across
/// rounds.
struct Shards<M: ExecModel> {
    meta: ShardMeta,
    arenas: Vec<Arena<M>>,
    /// `num_shards + 1` rows of `num_shards` lanes; the last row holds
    /// injected mail, scattered after every sender shard's.
    rows: Vec<Vec<Lane<M>>>,
    scratches: Vec<WorkerScratch<M>>,
}

/// The kernel's mailboxes: inline per-actor buffers at one shard, lanes
/// and flat arenas at two or more.
enum Mail<M: ExecModel> {
    Inline {
        inboxes: Inboxes<M>,
        staging: Inboxes<M>,
        send: M::SendScratch,
    },
    Sharded(Shards<M>),
}

impl<M: ExecModel> Mail<M> {
    fn new(n: usize, bounds: Vec<usize>) -> Self {
        if bounds.len() <= 2 {
            return Mail::Inline {
                inboxes: (0..n).map(|_| Vec::new()).collect(),
                staging: (0..n).map(|_| Vec::new()).collect(),
                send: M::SendScratch::default(),
            };
        }
        let meta = ShardMeta::new(bounds);
        let k = meta.num_shards();
        Mail::Sharded(Shards {
            arenas: (0..k).map(|j| Arena::new(meta.len_of(j))).collect(),
            rows: (0..=k)
                .map(|_| (0..k).map(|_| Lane::new()).collect())
                .collect(),
            scratches: (0..k).map(|_| WorkerScratch::new()).collect(),
            meta,
        })
    }

    /// Appends `msg` from `from` to actor `to`'s next inbox, after
    /// everything the sinks stage this round. Not tallied: the caller
    /// charges the receive volume when the plane deems it received.
    pub(crate) fn inject(&mut self, to: usize, from: M::Id, msg: M::Msg) {
        match self {
            Mail::Inline { staging, .. } => staging[to].push((from, msg)),
            Mail::Sharded(sh) => {
                let j = sh.meta.shard_of[to] as usize;
                let lane = &mut sh.rows[sh.meta.num_shards()][j];
                lane.to.push((to - sh.meta.starts[j]) as u32);
                lane.pay.push((from, msg));
            }
        }
    }
}

/// Steps every active actor of one shard (first actor `base`) against
/// its inbox, staging outgoing mail through `sink`.
#[allow(clippy::too_many_arguments)]
fn step_shard<M: ExecModel, I: ShardInbox<M> + ?Sized, S: MsgSink<M>>(
    model: &M,
    base: usize,
    nodes: &mut [M::Node],
    inbox: &mut I,
    active: &[bool],
    round: usize,
    send: &mut M::SendScratch,
    acc: &mut RoundProfile,
    sink: &mut S,
) -> Result<(), M::Error> {
    for (k, node) in nodes.iter_mut().enumerate() {
        if !active[k] {
            continue;
        }
        model.step(node, base + k, round, inbox.inbox(k), send, acc, sink)?;
        inbox.consumed(k);
    }
    Ok(())
}

/// Splits `slice` into the contiguous chunks delimited by `bounds`
/// (boundary offsets as produced by [`balanced_partition`]).
fn split_by_bounds<'a, T>(mut slice: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (head, tail) = slice.split_at_mut(w[1] - w[0]);
        out.push(head);
        slice = tail;
    }
    out
}

/// One incoming lane viewed by the scatter: its CSR offsets, a draining
/// cursor over its pre-grouped payloads, and whether the scatter tallies
/// its receive volume (sender rows yes; injected mail was tallied by
/// its plane).
type LanePart<'a, M> = (
    &'a [u32],
    std::vec::Drain<'a, (<M as ExecModel>::Id, <M as ExecModel>::Msg)>,
    bool,
);

/// Scatter phase for one destination shard: rebuilds the shard's flat
/// inbox arena from its incoming (pre-grouped) lanes. For every
/// destination actor, lanes are drained in ascending sender-shard
/// order, then the injected row, so each inbox ends up sorted exactly
/// as the one-shard layout delivers.
fn merge_shard<M: ExecModel>(
    model: &M,
    arena: &mut Arena<M>,
    column: Vec<(&mut Lane<M>, bool)>,
    shard_len: usize,
    mut recv_dst: Option<&mut [usize]>,
) {
    arena.data.clear();
    let mut parts: Vec<LanePart<'_, M>> = column
        .into_iter()
        .filter(|(lane, _)| !lane.pay.is_empty())
        .map(|(lane, tally)| (&lane.offs[..], lane.pay.drain(..), tally))
        .collect();
    for local in 0..shard_len {
        arena.offs[local] = arena.data.len();
        for (offs, drain, tally) in parts.iter_mut() {
            let cnt = (offs[local + 1] - offs[local]) as usize;
            for _ in 0..cnt {
                let (from, msg) = drain.next().expect("lane CSR covers its payloads");
                if *tally {
                    if let Some(recv) = recv_dst.as_deref_mut() {
                        recv[local] += model.recv_charge(&msg);
                    }
                }
                arena.data.push((from, msg));
            }
        }
    }
    arena.offs[shard_len] = arena.data.len();
    arena.dirty = true;
}

/// Makes everything staged or injected since the last publish the
/// actors' current inboxes: a buffer swap at one shard, the
/// counting-sort scatter at two or more.
fn publish<M>(model: &M, mail: &mut Mail<M>, recv: &mut [usize])
where
    M: ExecModel,
    M::Msg: Send,
{
    let Shards {
        meta,
        arenas,
        rows,
        scratches,
    } = match mail {
        Mail::Inline {
            inboxes, staging, ..
        } => {
            std::mem::swap(inboxes, staging);
            return;
        }
        Mail::Sharded(sh) => sh,
    };
    let k = meta.num_shards();
    // Sender rows were grouped by their workers; the injected row is
    // grouped here, on the driving thread.
    scratches[0].group_row(&mut rows[k], meta);
    // Scatter only into shards with incoming mail; quiet shards just
    // clear leftover content. The gate is lane emptiness, so it cannot
    // drift from whatever the model counts in its round profile.
    let mut incoming = vec![false; k];
    for row in rows.iter() {
        for (j, lane) in row.iter().enumerate() {
            incoming[j] |= !lane.pay.is_empty();
        }
    }
    if incoming.iter().any(|&b| b) || arenas.iter().any(|a| a.dirty) {
        let mut columns: Vec<Vec<(&mut Lane<M>, bool)>> =
            (0..k).map(|_| Vec::with_capacity(k + 1)).collect();
        for (r, row) in rows.iter_mut().enumerate() {
            for (j, lane) in row.iter_mut().enumerate() {
                columns[j].push((lane, r < k));
            }
        }
        let mut recv_chunks = if M::TRACK_RECV {
            split_by_bounds(recv, &meta.starts)
        } else {
            Vec::new()
        }
        .into_iter();
        std::thread::scope(|s| {
            for (j, (arena, column)) in arenas.iter_mut().zip(columns).enumerate() {
                let recv_dst = recv_chunks.next();
                if !incoming[j] {
                    if arena.dirty {
                        arena.clear();
                    }
                    continue;
                }
                let shard_len = meta.len_of(j);
                s.spawn(move || merge_shard(model, arena, column, shard_len, recv_dst));
            }
        });
    }
}

/// Per-shard state of the enum→packed adapter: the inner model's own
/// validation scratch plus the decode buffer the wrapper rebuilds for
/// each stepped actor's inbox.
struct PackScratch<M: ExecModel> {
    send: M::SendScratch,
    buf: Vec<(M::Id, M::Msg)>,
}

impl<M: ExecModel> Default for PackScratch<M> {
    fn default() -> Self {
        PackScratch {
            send: M::SendScratch::default(),
            buf: Vec::new(),
        }
    }
}

/// The enum→packed adapter: an [`ExecModel`] whose message type is the
/// inner model's [`ExecModel::Packed`] word. [`run_kernel`] wraps a
/// packing model in this once per sharded run, so the whole exchange —
/// lanes, counting sort, scatter, arenas — moves `Copy` words; `step`
/// decodes the inbox slice into a reusable scratch buffer, runs the
/// inner model's step (validation and charging happen there, on the
/// decoded messages), and re-encodes each validated outgoing message as
/// it enters its lane.
struct PackedModel<'m, M>(&'m M);

/// The packing sink adapter: receives validated enum messages from the
/// inner model's `step` and forwards their packed words to the outer
/// sink.
struct PackSink<'a, 'm, M: ExecModel, S> {
    pm: &'a PackedModel<'m, M>,
    sink: &'a mut S,
}

impl<'m, M, S> MsgSink<M> for PackSink<'_, 'm, M, S>
where
    M: ExecModel,
    M::Msg: Send,
    S: MsgSink<PackedModel<'m, M>>,
{
    #[inline]
    fn deliver(&mut self, model: &M, to: M::Id, from: M::Id, msg: M::Msg) -> u32 {
        let word = model.pack(&msg);
        self.sink.deliver(self.pm, to, from, word)
    }
}

impl<'m, M> ExecModel for PackedModel<'m, M>
where
    M: ExecModel,
    M::Msg: Send,
{
    type Id = M::Id;
    type Node = M::Node;
    type Msg = M::Packed;
    type Output = M::Output;
    type Error = M::Error;
    type Metrics = M::Metrics;
    type SendScratch = PackScratch<M>;
    type Packed = ();

    const TRACK_RECV: bool = M::TRACK_RECV;

    fn pre_run(&self, nodes: &[M::Node], metrics: &mut M::Metrics) -> Result<(), M::Error> {
        self.0.pre_run(nodes, metrics)
    }

    fn actor_cost(&self, node: &M::Node, idx: usize) -> u64 {
        self.0.actor_cost(node, idx)
    }

    fn poll(&self, node: &M::Node, idx: usize, round: usize) -> Poll {
        self.0.poll(node, idx, round)
    }

    fn output(&self, node: &M::Node, idx: usize, round: usize) -> M::Output {
        self.0.output(node, idx, round)
    }

    fn round_limit_error(&self, limit: usize) -> M::Error {
        self.0.round_limit_error(limit)
    }

    fn step<S: MsgSink<Self>>(
        &self,
        node: &mut M::Node,
        idx: usize,
        round: usize,
        inbox: &[(M::Id, M::Packed)],
        scratch: &mut PackScratch<M>,
        acc: &mut RoundProfile,
        sink: &mut S,
    ) -> Result<(), M::Error> {
        scratch.buf.clear();
        scratch
            .buf
            .extend(inbox.iter().map(|&(from, w)| (from, self.0.unpack(w))));
        let mut sink = PackSink { pm: self, sink };
        self.0.step(
            node,
            idx,
            round,
            &scratch.buf,
            &mut scratch.send,
            acc,
            &mut sink,
        )
    }

    fn recv_charge(&self, msg: &M::Packed) -> usize {
        self.0.recv_charge(&self.0.unpack(*msg))
    }

    fn wire_charge(&self, msg: &M::Packed) -> u64 {
        self.0.wire_charge(&self.0.unpack(*msg))
    }

    fn arq_header_charge(&self) -> u64 {
        self.0.arq_header_charge()
    }

    fn arq_ack_charge(&self) -> u64 {
        self.0.arq_ack_charge()
    }

    fn check_recv(&self, recv: &[usize], round: usize) -> Result<(), M::Error> {
        self.0.check_recv(recv, round)
    }

    fn end_round(
        &self,
        acc: &RoundProfile,
        recv: &[usize],
        round: usize,
        metrics: &mut M::Metrics,
    ) {
        self.0.end_round(acc, recv, round, metrics)
    }

    fn finish(&self, metrics: &mut M::Metrics, fault: &FaultStats, convergence_round: usize) {
        self.0.finish(metrics, fault, convergence_round)
    }
}

/// A delivery plane: the sink it stacks on the kernel's staging sink,
/// plus the hooks the round loop calls around stepping. [`Direct`] is
/// the identity; [`fault::FaultPlane`] routes mail through the
/// adversary, and [`arq::ArqPlane`] runs ARQ over it.
pub(crate) trait Plane<M: ExecModel> {
    /// Per-shard state behind the plane's sink, reused across rounds.
    type Shard: Send;
    /// Whether the plane injects faults (and so reports fault deltas and
    /// a per-shard split to the probe even at one shard).
    const FAULTS: bool = false;
    /// Whether actors step only on ticks where [`Plane::begin`] opens
    /// the barrier and someone is still live (the ARQ tick/round split);
    /// otherwise every round steps.
    const GATED: bool = false;

    /// Fresh per-shard state.
    fn shard(&self) -> Self::Shard;
    /// The sink one shard's actors deliver into, stacked on `stage`;
    /// `tick` is the kernel clock.
    fn sink<S: MsgSink<M>>(shard: &mut Self::Shard, stage: S, tick: usize) -> impl MsgSink<M>;

    /// Start of tick `tick`, before the sweep. Returns whether the
    /// barrier is open (actors may be swept and stepped) and how many
    /// messages the plane delivered into `mail`.
    fn begin(
        &mut self,
        _model: &M,
        _tick: usize,
        _mail: &mut Mail<M>,
        _recv: &mut [usize],
    ) -> (bool, u64) {
        (true, 0)
    }
    /// Halted actors (terminated, never stepped), if the plane crashes
    /// any.
    fn crashed(&self) -> Option<&[bool]> {
        None
    }
    /// Whether nothing is left in the plane's own queues, so a quiescent
    /// sweep ends the run.
    fn idle(&self) -> bool {
        true
    }
    /// After stepping, before the publish: drains the shards' state and
    /// moves the plane's own traffic. `stepped` is the copy count the
    /// round's sinks reported (what the models charged); returns how
    /// many messages reach next round's inboxes. Direct delivery stages
    /// every charged copy.
    #[allow(clippy::too_many_arguments)]
    fn exchange(
        &mut self,
        _model: &M,
        _shards: &mut [Self::Shard],
        _tick: usize,
        stepped: u64,
        _mail: &mut Mail<M>,
        _recv: &mut [usize],
        _acc: &mut RoundProfile,
    ) -> u64 {
        stepped
    }
    /// The whole-run fault tally so far (`delivered` is the kernel's).
    fn stats(&self) -> FaultStats {
        FaultStats::default()
    }
    /// The depth of the plane's in-network queue, for the probe.
    fn depth(&self) -> usize {
        0
    }
}

/// Direct delivery: the kernel's staging sinks, unwrapped.
struct Direct;

impl<M: ExecModel> Plane<M> for Direct {
    type Shard = ();

    fn shard(&self) {}
    fn sink<S: MsgSink<M>>(_shard: &mut (), stage: S, _tick: usize) -> impl MsgSink<M> {
        stage
    }
}

/// How a round's messages travel (see [`Plan::delivery`]).
#[derive(Clone, Copy)]
pub enum Delivery<'a> {
    /// Straight into next round's inboxes.
    Direct,
    /// Through an [`Adversary`] that may drop, duplicate, or delay every
    /// message and crash actors (see [`fault`]).
    Adversary(&'a dyn Adversary),
    /// Through the sliding-window ARQ layer over an [`Adversary`] (see
    /// [`arq`]).
    Reliable(ReliabilitySpec, &'a dyn Adversary),
}

/// One run resolved for [`run_kernel`]: the budget, the scheduling
/// policy, the shard count, and the delivery plane.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    /// Abort with [`ExecModel::round_limit_error`] after this many
    /// kernel rounds (ticks, under ARQ).
    pub max_rounds: usize,
    /// The round-scheduling policy.
    pub scheduling: Scheduling,
    /// Shards to step on; `0` and `1` step inline on the calling thread,
    /// as does any count that would leave a shard with fewer than two
    /// actors.
    pub shards: usize,
    /// How messages travel between rounds.
    pub delivery: Delivery<'a>,
}

impl<'a> Plan<'a> {
    /// Resolves `cfg` for a run over `actors` actors: the round budget
    /// is [`RunConfig::max_rounds`] or else `max_rounds`, and the
    /// engine becomes a shard count — one for [`Engine::Sequential`],
    /// the explicit count for [`Engine::Parallel`], and for
    /// [`Engine::parallel_auto`] one per available CPU, or one below
    /// [`PARALLEL_MIN_NODES`] actors. Delivery is ARQ over `adversary`
    /// when [`RunConfig::reliability`] is set, else `adversary` alone
    /// when [`RunConfig::fault`] is set, else direct.
    pub fn new(
        cfg: &RunConfig,
        actors: usize,
        max_rounds: usize,
        adversary: &'a dyn Adversary,
    ) -> Self {
        let shards = match cfg.engine {
            Engine::Sequential => 1,
            Engine::Parallel { threads: 0 } if actors < PARALLEL_MIN_NODES => 1,
            Engine::Parallel { threads: 0 } => {
                std::thread::available_parallelism().map_or(1, |p| p.get())
            }
            Engine::Parallel { threads } => threads,
        };
        let delivery = match (cfg.reliability, cfg.fault) {
            (Some(spec), _) => Delivery::Reliable(spec, adversary),
            (None, Some(_)) => Delivery::Adversary(adversary),
            (None, None) => Delivery::Direct,
        };
        Plan {
            max_rounds: cfg.max_rounds.unwrap_or(max_rounds),
            scheduling: cfg.scheduling,
            shards,
            delivery,
        }
    }
}

/// The per-round sweep: polls every actor, refreshes the activity mask,
/// and reports global quiescence (all live actors done, no mail). Runs
/// on the driving thread — it is allocation-free and branch-cheap, so
/// even with the active-set policy the termination semantics stay
/// exactly those of the classic loop. `has_mail` reports whether the
/// actor's inbox for this round is non-empty; `crashed` actors count as
/// terminated and are never stepped (mail to them is dropped in
/// flight).
///
/// Under [`Scheduling::ActiveSet`] the sweep additionally maintains a
/// *dormancy* cache: an actor observed done **and** skippable with an
/// empty inbox is not re-polled in later rounds until a message arrives.
/// This is sound because a skipped actor's state is frozen (the no-op
/// contract), so by the skip contract its `done`/`skippable` verdicts
/// cannot change until mail wakes it; the quiescent tail of a run then
/// costs two flag reads per actor per round instead of a model poll.
#[allow(clippy::too_many_arguments)]
fn sweep<M: ExecModel>(
    model: &M,
    nodes: &[M::Node],
    has_mail: impl Fn(usize) -> bool,
    crashed: Option<&[bool]>,
    round: usize,
    scheduling: Scheduling,
    active: &mut [bool],
    dormant: &mut [bool],
) -> bool {
    let mut all_done = true;
    let mut in_flight = false;
    for (i, node) in nodes.iter().enumerate() {
        if crashed.is_some_and(|c| c[i]) {
            active[i] = false;
            continue;
        }
        let has_mail = has_mail(i);
        if dormant[i] && !has_mail {
            // Frozen, done, and still unmailed: counts as done without
            // a fresh poll.
            active[i] = false;
            continue;
        }
        let poll = model.poll(node, i, round);
        all_done &= poll.done;
        in_flight |= has_mail;
        match scheduling {
            Scheduling::ActiveSet => {
                active[i] = has_mail || !poll.skippable;
                dormant[i] = poll.done && poll.skippable && !has_mail;
            }
            Scheduling::FullSweep => active[i] = true,
        }
    }
    all_done && !in_flight
}

/// Nanoseconds since `start` (0 when the probe is off).
fn ns_since(start: Option<std::time::Instant>) -> u64 {
    start.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// Runs `nodes` to completion under `plan`, reporting to `probe`.
///
/// This is the workspace's one round loop. Each round it sweeps the
/// actors (termination and scheduling), steps the active ones — inline
/// at one shard, one worker per shard with an active actor otherwise —
/// and delivers their mail through the plan's [`Delivery`] plane. Shards
/// are contiguous and cost-balanced ([`balanced_partition`] over
/// [`ExecModel::actor_cost`]); a model whose codec is on
/// ([`ExecModel::packs`]) moves packed words through the sharded
/// exchange. Every inbox is delivered in ascending sender order, then
/// outbox order, so outputs, metrics, and errors are **bit-identical**
/// at every shard count, scheduling policy, and codec plane, and a run
/// under an adversary that never interferes reproduces direct delivery
/// bit for bit. Attaching a [`Probe`] never changes them either
/// (observer neutrality); [`NoopProbe`] compiles every callback away.
///
/// # Errors
///
/// Returns the model's error: the lowest-indexed actor's violation
/// (though with several shards, `step` calls of higher-indexed actors in
/// other shards may already have run), or the round-limit error when
/// the budget is exhausted.
pub fn run_kernel<M, P>(
    model: &M,
    nodes: Vec<M::Node>,
    plan: &Plan<'_>,
    probe: &P,
) -> Result<Run<M::Output, M::Metrics>, M::Error>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    P: Probe,
{
    let n = nodes.len();
    let (bounds, costs) = if plan.shards <= 1 || n < 2 * plan.shards {
        (vec![0, n], Vec::new())
    } else {
        let costs: Vec<u64> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| model.actor_cost(node, i))
            .collect();
        (balanced_partition(&costs, plan.shards), costs)
    };
    if model.packs() && bounds.len() > 2 {
        with_plane(&PackedModel(model), nodes, plan, bounds, &costs, probe)
    } else {
        with_plane(model, nodes, plan, bounds, &costs, probe)
    }
}

/// Instantiates the round loop for the plan's delivery plane.
fn with_plane<M, P>(
    model: &M,
    nodes: Vec<M::Node>,
    plan: &Plan<'_>,
    bounds: Vec<usize>,
    costs: &[u64],
    probe: &P,
) -> Result<Run<M::Output, M::Metrics>, M::Error>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    P: Probe,
{
    let n = nodes.len();
    match plan.delivery {
        Delivery::Direct => round_loop(model, nodes, plan, bounds, costs, Direct, probe),
        Delivery::Adversary(adversary) => {
            let plane = fault::FaultPlane::new(adversary, n);
            round_loop(model, nodes, plan, bounds, costs, plane, probe)
        }
        Delivery::Reliable(spec, adversary) => {
            let plane = arq::ArqPlane::new(model, spec, adversary, n);
            round_loop(model, nodes, plan, bounds, costs, plane, probe)
        }
    }
}

/// The round loop proper (see [`run_kernel`]).
#[allow(clippy::too_many_lines)]
fn round_loop<M, PL, P>(
    model: &M,
    mut nodes: Vec<M::Node>,
    plan: &Plan<'_>,
    bounds: Vec<usize>,
    costs: &[u64],
    mut plane: PL,
    probe: &P,
) -> Result<Run<M::Output, M::Metrics>, M::Error>
where
    M: ExecModel,
    M::Node: Send,
    M::Msg: Send,
    M::Error: Send,
    PL: Plane<M>,
    P: Probe,
{
    let n = nodes.len();
    let mut metrics = M::Metrics::default();
    model.pre_run(&nodes, &mut metrics)?;
    let run_start = P::ENABLED.then(std::time::Instant::now);
    if P::ENABLED {
        probe.on_run_start(n, &bounds, costs);
    }
    let sharded = bounds.len() > 2;
    // Per-shard timings and exchange spans are reported whenever there
    // is a split to report; a clean inline run has none.
    let split_probe = P::ENABLED && (sharded || PL::FAULTS);

    let mut pshards: Vec<PL::Shard> = (1..bounds.len()).map(|_| plane.shard()).collect();
    let mut mail = Mail::<M>::new(n, bounds);
    let mut recv: Vec<usize> = if M::TRACK_RECV {
        vec![0; n]
    } else {
        Vec::new()
    };
    let mut active = vec![true; n];
    let mut dormant = vec![false; n];
    // Previous round's cumulative fault tally, so the probe can be
    // handed per-round deltas.
    let mut fault_seen = FaultStats::default();
    let mut tick = 0;
    let mut app_round = 0;
    let mut delivered: u64 = 0;
    let mut convergence = 0usize;

    loop {
        let (open, mut delivered_now) = plane.begin(model, tick, &mut mail, &mut recv);
        let mut quiescent = false;
        if open {
            if PL::GATED {
                publish(model, &mut mail, &mut recv);
            }
            let crashed = plane.crashed();
            quiescent = match &mail {
                Mail::Inline { inboxes, .. } => sweep(
                    model,
                    &nodes,
                    |i| !inboxes[i].is_empty(),
                    crashed,
                    app_round,
                    plan.scheduling,
                    &mut active,
                    &mut dormant,
                ),
                Mail::Sharded(sh) => sweep(
                    model,
                    &nodes,
                    |i| {
                        let j = sh.meta.shard_of[i] as usize;
                        sh.arenas[j].has_mail(i - sh.meta.starts[j])
                    },
                    crashed,
                    app_round,
                    plan.scheduling,
                    &mut active,
                    &mut dormant,
                ),
            };
            if quiescent && plane.idle() {
                break;
            }
        }
        if tick >= plan.max_rounds {
            return Err(model.round_limit_error(plan.max_rounds));
        }

        let round_start = P::ENABLED.then(std::time::Instant::now);
        if P::ENABLED {
            probe.on_round_start(tick);
        }
        let mut acc = RoundProfile::for_probe::<P>();
        if open && !(PL::GATED && quiescent) {
            match &mut mail {
                Mail::Inline {
                    inboxes,
                    staging,
                    send,
                } => {
                    let shard_start = split_probe.then(std::time::Instant::now);
                    let stage = DirectSink::<M> {
                        staging,
                        recv: &mut recv,
                    };
                    let mut sink = PL::sink(&mut pshards[0], stage, tick);
                    step_shard(
                        model,
                        0,
                        &mut nodes,
                        &mut inboxes[..],
                        &active,
                        app_round,
                        send,
                        &mut acc,
                        &mut sink,
                    )?;
                    if split_probe {
                        probe.on_shard(tick, 0, ns_since(shard_start), acc.messages, acc.volume);
                    }
                }
                Mail::Sharded(Shards {
                    meta,
                    arenas,
                    rows,
                    scratches,
                }) => {
                    // Every shard with an active actor steps on its own
                    // worker and pre-groups its outgoing lanes; workers
                    // time their own shard, callbacks stay here.
                    type ShardOut<M> = (Result<RoundProfile, <M as ExecModel>::Error>, u64);
                    let meta = &*meta;
                    let active = &active;
                    let results: Vec<Option<ShardOut<M>>> = std::thread::scope(|s| {
                        let handles: Vec<_> = split_by_bounds(&mut nodes, &meta.starts)
                            .into_iter()
                            .zip(arenas.iter_mut())
                            .zip(rows.iter_mut())
                            .zip(scratches.iter_mut())
                            .zip(pshards.iter_mut())
                            .enumerate()
                            .map(|(si, ((((shard_nodes, arena), lanes), scratch), pshard))| {
                                let base = meta.starts[si];
                                let act = &active[base..meta.starts[si + 1]];
                                act.iter().any(|&a| a).then(|| {
                                    s.spawn(move || {
                                        let shard_start = P::ENABLED.then(std::time::Instant::now);
                                        let mut acc = RoundProfile::for_probe::<P>();
                                        let stage = LaneSink::<M> {
                                            lanes,
                                            starts: &meta.starts,
                                            shard_of: &meta.shard_of,
                                        };
                                        let r = step_shard(
                                            model,
                                            base,
                                            shard_nodes,
                                            arena,
                                            act,
                                            app_round,
                                            &mut scratch.send,
                                            &mut acc,
                                            &mut PL::sink(pshard, stage, tick),
                                        );
                                        if r.is_ok() {
                                            scratch.group_row(lanes, meta);
                                        }
                                        (r.map(|()| acc), ns_since(shard_start))
                                    })
                                })
                            })
                            .collect();
                        handles
                            .into_iter()
                            .map(|h| {
                                h.map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                            })
                            .collect()
                    });
                    // The lowest-indexed shard's error is the
                    // lowest-indexed actor's error, as at one shard.
                    for (si, r) in results.into_iter().enumerate() {
                        let Some((r, shard_ns)) = r else { continue };
                        let p = r?;
                        if P::ENABLED {
                            probe.on_shard(tick, si, shard_ns, p.messages, p.volume);
                        }
                        acc.merge(&p);
                    }
                }
            }
            app_round += 1;
        }

        let exchange_start = split_probe.then(std::time::Instant::now);
        let stepped = acc.messages;
        delivered_now += plane.exchange(
            model,
            &mut pshards,
            tick,
            stepped,
            &mut mail,
            &mut recv,
            &mut acc,
        );
        if !PL::GATED {
            publish(model, &mut mail, &mut recv);
        }
        if split_probe {
            probe.on_exchange(tick, ns_since(exchange_start));
        }

        if M::TRACK_RECV {
            model.check_recv(&recv, tick)?;
        }
        if delivered_now > 0 {
            // Mail delivered now is consumed next round, so the plane
            // can only be quiet from the round after that.
            convergence = tick + 2;
        }
        delivered += delivered_now;
        model.end_round(&acc, &recv, tick, &mut metrics);
        if P::ENABLED {
            if PL::FAULTS {
                let now = plane.stats();
                let delta = FaultStats {
                    delivered: delivered_now,
                    ..now.since(&fault_seen)
                };
                probe.on_fault_event(tick, &delta, plane.depth());
                fault_seen = now;
            }
            probe.on_round_end(&RoundObs {
                round: tick,
                wall_ns: ns_since(round_start),
                messages: acc.messages,
                volume: acc.volume,
                peak_link: acc.peak_link,
                active: active.iter().filter(|&&a| a).count(),
                sizes: acc.sizes.as_deref(),
            });
        }
        if M::TRACK_RECV {
            recv.fill(0);
        }
        tick += 1;
    }

    // Every delivered copy was charged when it was sent (drops 0,
    // duplicates 2), and the run cannot end with mail still queued in
    // the plane, so this equals the models' whole-run message count.
    let stats = FaultStats {
        delivered,
        ..plane.stats()
    };
    model.finish(&mut metrics, &stats, convergence);
    if P::ENABLED {
        // Crashes activate before the sweep, so an actor whose crash
        // round is the final quiescence check is tallied without any
        // round having run; hand the probe that residual so its
        // whole-run tally matches the metrics.
        if PL::FAULTS && stats.crashed > fault_seen.crashed {
            let residual = FaultStats {
                crashed: stats.crashed - fault_seen.crashed,
                ..FaultStats::default()
            };
            probe.on_fault_event(tick, &residual, plane.depth());
        }
        probe.on_run_end(tick, ns_since(run_start));
    }
    Ok(Run {
        outputs: nodes
            .iter()
            .enumerate()
            .map(|(i, node)| model.output(node, i, app_round))
            .collect(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy model used to exercise the kernel directly: actors pass a
    /// token around a ring for a fixed number of hops; message charge is
    /// the payload value, capped by the model.
    struct RingModel {
        n: usize,
        charge_cap: usize,
        recv_cap: usize,
        /// Skewed per-actor costs for the balanced-sharding tests
        /// (uniform when false, matching the default hook).
        skewed_costs: bool,
        /// Whether sharded runs move packed words.
        packed: bool,
    }

    #[derive(Clone)]
    struct Token {
        hops_left: usize,
        charge: usize,
    }

    struct RingNode {
        started: bool,
        seen: usize,
        outbound: Option<Token>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum RingError {
        TooBig { at: usize, round: usize },
        RecvOverflow { at: usize, round: usize },
        RoundLimit { limit: usize },
    }

    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    struct RingMetrics {
        rounds: usize,
        messages: u64,
        volume: u64,
        profile: Vec<usize>,
        fault: FaultStats,
        convergence: usize,
    }

    impl ExecModel for RingModel {
        type Id = NodeId;
        type Node = RingNode;
        type Msg = Token;
        type Output = usize;
        type Error = RingError;
        type Metrics = RingMetrics;
        type SendScratch = ();
        type Packed = u64;

        const TRACK_RECV: bool = true;

        fn packs(&self) -> bool {
            self.packed
        }

        fn pack(&self, msg: &Token) -> u64 {
            ((msg.hops_left as u64) << 32) | msg.charge as u64
        }

        fn unpack(&self, word: u64) -> Token {
            Token {
                hops_left: (word >> 32) as usize,
                charge: (word & 0xFFFF_FFFF) as usize,
            }
        }

        fn actor_cost(&self, _node: &RingNode, idx: usize) -> u64 {
            if self.skewed_costs {
                // Heavy head: actor 0 carries half the total cost.
                if idx == 0 {
                    self.n as u64
                } else {
                    1
                }
            } else {
                1
            }
        }

        fn poll(&self, node: &Self::Node, _idx: usize, _round: usize) -> Poll {
            let done = node.started && node.outbound.is_none();
            Poll {
                done,
                skippable: done,
            }
        }

        fn output(&self, node: &Self::Node, _idx: usize, _round: usize) -> usize {
            node.seen
        }

        fn round_limit_error(&self, limit: usize) -> RingError {
            RingError::RoundLimit { limit }
        }

        fn step<S: MsgSink<Self>>(
            &self,
            node: &mut Self::Node,
            idx: usize,
            round: usize,
            inbox: &[(NodeId, Token)],
            _scratch: &mut (),
            acc: &mut RoundProfile,
            sink: &mut S,
        ) -> Result<(), RingError> {
            node.started = true;
            for (_, t) in inbox {
                node.seen += 1;
                if t.hops_left > 0 {
                    node.outbound = Some(Token {
                        hops_left: t.hops_left - 1,
                        charge: t.charge,
                    });
                }
            }
            if let Some(t) = node.outbound.take() {
                if t.charge > self.charge_cap {
                    return Err(RingError::TooBig { at: idx, round });
                }
                let charge = t.charge;
                let to = NodeId::from_index((idx + 1) % self.n);
                let copies = sink.deliver(self, to, NodeId::from_index(idx), t);
                acc.messages += u64::from(copies);
                acc.volume += u64::from(copies) * charge as u64;
                acc.peak_link = acc.peak_link.max(charge * copies as usize);
            }
            Ok(())
        }

        fn recv_charge(&self, msg: &Token) -> usize {
            msg.charge
        }

        fn check_recv(&self, recv: &[usize], round: usize) -> Result<(), RingError> {
            for (i, &w) in recv.iter().enumerate() {
                if w > self.recv_cap {
                    return Err(RingError::RecvOverflow { at: i, round });
                }
            }
            Ok(())
        }

        fn end_round(
            &self,
            acc: &RoundProfile,
            _recv: &[usize],
            round: usize,
            metrics: &mut RingMetrics,
        ) {
            metrics.rounds = round + 1;
            metrics.messages += acc.messages;
            metrics.volume += acc.volume;
            metrics.profile.push(acc.peak_link);
        }

        fn finish(&self, metrics: &mut RingMetrics, fault: &FaultStats, convergence_round: usize) {
            metrics.fault = *fault;
            metrics.convergence = convergence_round;
        }
    }

    fn ring_nodes(n: usize, hops: usize, charge: usize) -> Vec<RingNode> {
        (0..n)
            .map(|i| RingNode {
                started: false,
                seen: 0,
                outbound: (i == 0).then_some(Token {
                    hops_left: hops,
                    charge,
                }),
            })
            .collect()
    }

    fn model(n: usize) -> RingModel {
        RingModel {
            n,
            charge_cap: 8,
            recv_cap: 8,
            skewed_costs: false,
            packed: false,
        }
    }

    fn packed_model(n: usize) -> RingModel {
        RingModel {
            packed: true,
            ..model(n)
        }
    }

    /// Direct delivery on `shards` shards.
    fn plan(shards: usize, scheduling: Scheduling) -> Plan<'static> {
        Plan {
            max_rounds: 1_000,
            scheduling,
            shards,
            delivery: Delivery::Direct,
        }
    }

    /// Delivery through `adversary` on `shards` shards.
    fn faulty(shards: usize, adversary: &dyn Adversary) -> Plan<'_> {
        Plan {
            delivery: Delivery::Adversary(adversary),
            ..plan(shards, Scheduling::ActiveSet)
        }
    }

    fn run(
        model: &RingModel,
        nodes: Vec<RingNode>,
        plan: &Plan<'_>,
    ) -> Result<Run<usize, RingMetrics>, RingError> {
        run_kernel(model, nodes, plan, &NoopProbe)
    }

    #[test]
    fn sequential_completes_and_counts() {
        let run = run(
            &model(5),
            ring_nodes(5, 7, 2),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap();
        // 8 sends total (the origin's plus 7 forwards), one per round,
        // plus a final send-free round consuming the last token.
        assert_eq!(run.metrics.messages, 8);
        assert_eq!(run.metrics.rounds, 9);
        assert_eq!(run.metrics.volume, 16);
        let mut expected = vec![2; 8];
        expected.push(0);
        assert_eq!(run.metrics.profile, expected);
        assert_eq!(run.outputs.iter().sum::<usize>(), 8);
    }

    #[test]
    fn schedulings_and_executors_are_bit_identical() {
        let baseline = run(
            &model(16),
            ring_nodes(16, 40, 3),
            &plan(1, Scheduling::FullSweep),
        )
        .unwrap();
        for scheduling in [Scheduling::FullSweep, Scheduling::ActiveSet] {
            let seq = run(&model(16), ring_nodes(16, 40, 3), &plan(1, scheduling)).unwrap();
            assert_eq!(seq.outputs, baseline.outputs, "{scheduling:?}");
            assert_eq!(seq.metrics.rounds, baseline.metrics.rounds);
            assert_eq!(seq.metrics.profile, baseline.metrics.profile);
            for threads in [2, 3, 5, 8] {
                let par = run(
                    &model(16),
                    ring_nodes(16, 40, 3),
                    &plan(threads, scheduling),
                )
                .unwrap();
                assert_eq!(par.outputs, baseline.outputs, "{scheduling:?} t={threads}");
                assert_eq!(par.metrics.rounds, baseline.metrics.rounds);
                assert_eq!(par.metrics.messages, baseline.metrics.messages);
                assert_eq!(par.metrics.volume, baseline.metrics.volume);
                assert_eq!(par.metrics.profile, baseline.metrics.profile);
            }
        }
    }

    #[test]
    fn skewed_actor_costs_stay_bit_identical() {
        // A cost-skewed model shifts the shard boundaries; outputs,
        // metrics, and errors must not notice.
        let mk_model = |skewed| RingModel {
            skewed_costs: skewed,
            ..model(16)
        };
        let baseline = run(
            &mk_model(false),
            ring_nodes(16, 40, 3),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap();
        for threads in [2, 3, 5, 8] {
            let par = run(
                &mk_model(true),
                ring_nodes(16, 40, 3),
                &plan(threads, Scheduling::ActiveSet),
            )
            .unwrap();
            assert_eq!(par.outputs, baseline.outputs, "t={threads}");
            assert_eq!(par.metrics.profile, baseline.metrics.profile, "t={threads}");
        }
    }

    #[test]
    fn step_errors_match_across_executors() {
        // Charge 99 exceeds the cap at the origin in round 0.
        let seq = run(
            &model(8),
            ring_nodes(8, 3, 99),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap_err();
        assert_eq!(seq, RingError::TooBig { at: 0, round: 0 });
        for threads in [2, 4] {
            let par = run(
                &model(8),
                ring_nodes(8, 3, 99),
                &plan(threads, Scheduling::ActiveSet),
            )
            .unwrap_err();
            assert_eq!(par, seq, "t={threads}");
        }
    }

    #[test]
    fn recv_errors_match_across_executors() {
        // The send passes the charge cap but overflows the destination's
        // receive cap, so the error surfaces in the post-round check.
        let tight = RingModel {
            recv_cap: 4,
            ..model(8)
        };
        let seq = run(&tight, ring_nodes(8, 2, 5), &plan(1, Scheduling::ActiveSet)).unwrap_err();
        assert_eq!(seq, RingError::RecvOverflow { at: 1, round: 0 });
        for threads in [2, 4] {
            let par = run(
                &tight,
                ring_nodes(8, 2, 5),
                &plan(threads, Scheduling::ActiveSet),
            )
            .unwrap_err();
            assert_eq!(par, seq, "t={threads}");
        }
    }

    #[test]
    fn round_limit_errors_match() {
        let tight = Plan {
            max_rounds: 3,
            ..plan(1, Scheduling::ActiveSet)
        };
        let seq = run(
            &model(8),
            ring_nodes(8, 100, 1),
            &Plan { shards: 1, ..tight },
        )
        .unwrap_err();
        assert_eq!(seq, RingError::RoundLimit { limit: 3 });
        let par = run(
            &model(8),
            ring_nodes(8, 100, 1),
            &Plan { shards: 4, ..tight },
        )
        .unwrap_err();
        assert_eq!(par, seq);
    }

    #[test]
    fn packed_plane_is_bit_identical_to_enum_plane() {
        let baseline = run(
            &model(16),
            ring_nodes(16, 40, 3),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap();
        for threads in [2, 3, 5, 8] {
            let packed = run(
                &packed_model(16),
                ring_nodes(16, 40, 3),
                &plan(threads, Scheduling::ActiveSet),
            )
            .unwrap();
            assert_eq!(packed.outputs, baseline.outputs, "t={threads}");
            assert_eq!(packed.metrics.rounds, baseline.metrics.rounds);
            assert_eq!(packed.metrics.messages, baseline.metrics.messages);
            assert_eq!(packed.metrics.volume, baseline.metrics.volume);
            assert_eq!(packed.metrics.profile, baseline.metrics.profile);
        }
    }

    #[test]
    fn packed_plane_step_and_recv_errors_match() {
        // Step error (charge over the cap) and the receive-volume error
        // must surface identically on the packed plane.
        let seq = run(
            &model(8),
            ring_nodes(8, 3, 99),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap_err();
        let packed = run(
            &packed_model(8),
            ring_nodes(8, 3, 99),
            &plan(4, Scheduling::ActiveSet),
        )
        .unwrap_err();
        assert_eq!(packed, seq);

        let tight = RingModel {
            recv_cap: 4,
            ..model(8)
        };
        let tight_packed = RingModel {
            recv_cap: 4,
            ..packed_model(8)
        };
        let seq = run(&tight, ring_nodes(8, 2, 5), &plan(1, Scheduling::ActiveSet)).unwrap_err();
        let packed = run(
            &tight_packed,
            ring_nodes(8, 2, 5),
            &plan(4, Scheduling::ActiveSet),
        )
        .unwrap_err();
        assert_eq!(packed, seq);
    }

    #[test]
    fn run_config_builder_defaults_and_overrides() {
        let cfg = RunConfig::new();
        assert_eq!(cfg.engine, Engine::Sequential);
        assert_eq!(cfg.scheduling, Scheduling::ActiveSet);
        assert!(!cfg.codec);
        let cfg = RunConfig::new()
            .parallel_auto()
            .scheduling(Scheduling::FullSweep)
            .codec(true);
        assert_eq!(cfg.engine, Engine::Parallel { threads: 0 });
        assert_eq!(cfg.scheduling, Scheduling::FullSweep);
        assert!(cfg.codec);
        assert_eq!(
            RunConfig::new().sequential().parallel(3).engine,
            Engine::Parallel { threads: 3 }
        );
    }

    #[test]
    fn zero_actors_trivial() {
        let run = run(&model(1), Vec::new(), &plan(1, Scheduling::ActiveSet)).unwrap();
        assert_eq!(run.metrics.rounds, 0);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn sharded_falls_back_to_sequential_on_tiny_inputs() {
        // 4 actors on 8 threads: shards would hold under two actors.
        let run = run(
            &model(4),
            ring_nodes(4, 5, 1),
            &plan(8, Scheduling::ActiveSet),
        )
        .unwrap();
        assert_eq!(run.metrics.messages, 6);
    }

    // The balanced_partition unit suite lives with the implementation
    // in pga-graph now; this smoke test pins the re-export so the
    // engines' load balancer cannot silently detach from it.
    #[test]
    fn balanced_partition_reexport_smoke() {
        let mut costs = vec![1u64; 16];
        costs[0] = 16;
        let bounds = balanced_partition(&costs, 4);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), 16);
        assert_eq!(bounds[1], 1, "hub isolated into its own shard");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    /// A hand-scripted adversary: one fate override for the message at
    /// `(round 0, from 0, seq 0)`, an optionally muted sender whose every
    /// message is dropped, plus an explicit crash table.
    struct ScriptAdversary {
        fate0: Fate,
        mute: Option<u32>,
        crash: Vec<Option<u32>>,
    }

    impl Adversary for ScriptAdversary {
        fn fate(&self, round: u32, from: u32, seq: u32) -> Fate {
            if self.mute == Some(from) {
                Fate::Drop
            } else if round == 0 && from == 0 && seq == 0 {
                self.fate0
            } else {
                Fate::Deliver
            }
        }

        fn crash_round(&self, actor: u32) -> Option<u32> {
            self.crash.get(actor as usize).copied().flatten()
        }
    }

    fn deliver_all(n: usize) -> ScriptAdversary {
        ScriptAdversary {
            fate0: Fate::Deliver,
            mute: None,
            crash: vec![None; n],
        }
    }

    #[test]
    fn fault_none_is_bit_identical_to_clean_engines() {
        for packed in [false, true] {
            let mk = || RingModel {
                packed,
                ..model(16)
            };
            for scheduling in [Scheduling::ActiveSet, Scheduling::FullSweep] {
                let baseline = run(&mk(), ring_nodes(16, 40, 3), &plan(1, scheduling)).unwrap();
                let adversary = SeededAdversary::new(FaultSpec::none());
                for threads in [1, 2, 4, 8] {
                    let faulty = run(
                        &mk(),
                        ring_nodes(16, 40, 3),
                        &Plan {
                            delivery: Delivery::Adversary(&adversary),
                            ..plan(threads, scheduling)
                        },
                    )
                    .unwrap();
                    assert_eq!(
                        faulty.outputs, baseline.outputs,
                        "packed={packed} {scheduling:?} t={threads}"
                    );
                    assert_eq!(
                        faulty.metrics, baseline.metrics,
                        "packed={packed} {scheduling:?} t={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn fault_runs_bit_identical_across_threads_and_planes() {
        let spec = FaultSpec::seeded(7)
            .drop(0.15)
            .duplicate(0.1)
            .delay(0.1, 3)
            .crash(0.1, 6);
        let adversary = SeededAdversary::new(spec);
        let baseline = run(&model(16), ring_nodes(16, 40, 3), &faulty(1, &adversary)).unwrap();
        // The adversary must have actually interfered for this test to
        // mean anything.
        let f = &baseline.metrics.fault;
        assert!(
            f.dropped + f.duplicated + f.delayed + f.crashed > 0,
            "{f:?}"
        );
        for packed in [false, true] {
            for threads in [1, 2, 4, 8] {
                let run = run(
                    &RingModel {
                        packed,
                        ..model(16)
                    },
                    ring_nodes(16, 40, 3),
                    &faulty(threads, &adversary),
                )
                .unwrap();
                assert_eq!(run.outputs, baseline.outputs, "packed={packed} t={threads}");
                assert_eq!(run.metrics, baseline.metrics, "packed={packed} t={threads}");
            }
        }
    }

    #[test]
    fn trace_replay_is_bit_identical() {
        let spec = FaultSpec::seeded(21).drop(0.2).duplicate(0.1).delay(0.1, 2);
        let recorder = SeededAdversary::recording(spec);
        let recorded = run(&model(16), ring_nodes(16, 40, 3), &faulty(4, &recorder)).unwrap();
        let trace = recorder.into_trace(16);
        assert!(trace.fault_count() > 0);
        let replayer = TraceAdversary::new(&trace);
        for threads in [1, 4] {
            let replay = run(
                &model(16),
                ring_nodes(16, 40, 3),
                &faulty(threads, &replayer),
            )
            .unwrap();
            assert_eq!(replay.outputs, recorded.outputs, "t={threads}");
            assert_eq!(replay.metrics, recorded.metrics, "t={threads}");
        }
    }

    #[test]
    fn crashing_terminated_or_unreached_actors_changes_nothing() {
        let clean = run(&model(8), ring_nodes(8, 3, 2), &faulty(1, &deliver_all(8))).unwrap();
        // The token visits actors 1..=3; the run lasts 5 rounds. A
        // crash scheduled long after termination never activates.
        let mut late = deliver_all(8);
        late.crash[5] = Some(90);
        let unreached = run(&model(8), ring_nodes(8, 3, 2), &faulty(1, &late)).unwrap();
        assert_eq!(unreached.outputs, clean.outputs);
        assert_eq!(unreached.metrics, clean.metrics);
        // Crashing an actor that already finished its part mid-run
        // alters nothing but the crash counter.
        let mut done = deliver_all(8);
        done.crash[1] = Some(4);
        let crashed_done = run(&model(8), ring_nodes(8, 3, 2), &faulty(1, &done)).unwrap();
        assert_eq!(crashed_done.outputs, clean.outputs);
        assert_eq!(crashed_done.metrics.fault.crashed, 1);
        assert_eq!(crashed_done.metrics.messages, clean.metrics.messages);
        assert_eq!(crashed_done.metrics.rounds, clean.metrics.rounds);
    }

    #[test]
    fn crash_drops_in_flight_mail_and_terminates() {
        // Actor 3 halts at round 2; the token in flight toward it is
        // dropped and the ring goes quiet instead of wrapping forever.
        let mut adv = deliver_all(8);
        adv.crash[3] = Some(2);
        let run = run(&model(8), ring_nodes(8, 40, 2), &faulty(2, &adv)).unwrap();
        assert_eq!(run.metrics.fault.crashed, 1);
        assert_eq!(run.metrics.fault.dropped, 1);
        assert_eq!(run.outputs[3], 0, "the victim never saw the token");
        assert!(run.metrics.rounds <= 4, "{:?}", run.metrics);
    }

    #[test]
    fn dropped_mail_is_charged_at_delivery_meaning_not_at_all() {
        let adv = ScriptAdversary {
            fate0: Fate::Drop,
            ..deliver_all(8)
        };
        let run = run(&model(8), ring_nodes(8, 5, 2), &faulty(1, &adv)).unwrap();
        assert_eq!(run.metrics.messages, 0, "dropped mail is never charged");
        assert_eq!(run.metrics.volume, 0);
        assert_eq!(run.metrics.fault.dropped, 1);
        assert_eq!(run.metrics.fault.delivered, 0);
        assert_eq!(run.outputs.iter().sum::<usize>(), 0);
    }

    #[test]
    fn duplicated_mail_is_charged_twice_and_delivered_twice() {
        let clean = run(&model(8), ring_nodes(8, 1, 2), &faulty(1, &deliver_all(8))).unwrap();
        let adv = ScriptAdversary {
            fate0: Fate::Duplicate,
            ..deliver_all(8)
        };
        let run = run(&model(8), ring_nodes(8, 1, 2), &faulty(1, &adv)).unwrap();
        assert_eq!(run.metrics.fault.duplicated, 1);
        // Round 0 charges two copies of the origin's send.
        assert_eq!(run.metrics.profile[0], 2 * clean.metrics.profile[0]);
        assert_eq!(run.outputs[1], clean.outputs[1] + 1);
        assert_eq!(
            run.metrics.fault.delivered,
            clean.metrics.fault.delivered + 1
        );
    }

    #[test]
    fn delayed_mail_arrives_late_but_intact() {
        let clean = run(&model(8), ring_nodes(8, 3, 2), &faulty(1, &deliver_all(8))).unwrap();
        let adv = ScriptAdversary {
            fate0: Fate::Delay(3),
            ..deliver_all(8)
        };
        let run = run(&model(8), ring_nodes(8, 3, 2), &faulty(1, &adv)).unwrap();
        assert_eq!(run.outputs, clean.outputs, "a delayed token still lands");
        assert_eq!(run.metrics.rounds, clean.metrics.rounds + 3);
        assert_eq!(run.metrics.fault.delayed, 1);
        assert_eq!(run.metrics.fault.delivered, clean.metrics.fault.delivered);
        assert_eq!(run.metrics.messages, clean.metrics.messages);
    }

    #[test]
    fn seeded_adversary_decisions_are_pure() {
        let spec = FaultSpec::seeded(99).drop(0.3).duplicate(0.2).delay(0.2, 4);
        let a = SeededAdversary::new(spec);
        let b = SeededAdversary::new(spec);
        for round in 0..20 {
            for from in 0..10 {
                for seq in 0..4 {
                    assert_eq!(a.fate(round, from, seq), b.fate(round, from, seq));
                    assert_eq!(a.fate(round, from, seq), a.fate(round, from, seq));
                }
            }
        }
        for actor in 0..64 {
            assert_eq!(a.crash_round(actor), b.crash_round(actor));
        }
    }

    #[test]
    fn fault_round_limit_error_matches_model() {
        // A 100% delay loop can still exceed a tight round budget.
        let adv = SeededAdversary::new(FaultSpec::seeded(3).delay(1.0, 8));
        let tight = Plan {
            max_rounds: 2,
            ..faulty(1, &adv)
        };
        let err = run(&model(8), ring_nodes(8, 40, 2), &tight).unwrap_err();
        assert_eq!(err, RingError::RoundLimit { limit: 2 });
    }

    /// ARQ over `adversary` on `shards` shards.
    fn reliable(shards: usize, spec: ReliabilitySpec, adversary: &dyn Adversary) -> Plan<'_> {
        Plan {
            delivery: Delivery::Reliable(spec, adversary),
            ..plan(shards, Scheduling::ActiveSet)
        }
    }

    #[test]
    fn clean_arq_reproduces_direct_outputs_on_both_planes() {
        let clean = run(
            &model(16),
            ring_nodes(16, 40, 3),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap();
        let adv = deliver_all(16);
        let reference = run(
            &model(16),
            ring_nodes(16, 40, 3),
            &reliable(1, ReliabilitySpec::arq(), &adv),
        )
        .unwrap();
        assert_eq!(reference.outputs, clean.outputs);
        let f = &reference.metrics.fault;
        assert_eq!(
            (f.retransmitted, f.dropped, f.dead_links),
            (0, 0, 0),
            "{f:?}"
        );
        assert!(f.acks > 0, "every accepted frame is acknowledged");
        assert_eq!(f.delivered, clean.metrics.fault.delivered);
        // A fault-free link accepts each frame the tick after its send,
        // so application rounds never wait on the barrier.
        assert_eq!(reference.metrics.rounds, clean.metrics.rounds);
        for packed in [false, true] {
            for shards in [1, 3] {
                let m = RingModel {
                    packed,
                    ..model(16)
                };
                let arq = run(
                    &m,
                    ring_nodes(16, 40, 3),
                    &reliable(shards, ReliabilitySpec::arq(), &adv),
                )
                .unwrap();
                assert_eq!(
                    arq.outputs, clean.outputs,
                    "packed={packed} shards={shards}"
                );
                assert_eq!(
                    arq.metrics, reference.metrics,
                    "packed={packed} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn arq_recovers_a_scripted_drop() {
        let clean = run(
            &model(8),
            ring_nodes(8, 5, 2),
            &plan(1, Scheduling::ActiveSet),
        )
        .unwrap();
        let adv = ScriptAdversary {
            fate0: Fate::Drop,
            ..deliver_all(8)
        };
        for shards in [1, 3] {
            let run = run(
                &model(8),
                ring_nodes(8, 5, 2),
                &reliable(shards, ReliabilitySpec::arq(), &adv),
            )
            .unwrap();
            let f = &run.metrics.fault;
            assert_eq!(f.dropped, 1, "shards={shards}");
            assert!(f.retransmitted >= 1, "shards={shards}: {f:?}");
            assert_eq!(f.dead_links, 0);
            assert_eq!(run.outputs, clean.outputs, "shards={shards}");
        }
    }

    #[test]
    fn arq_counts_a_link_that_exhausts_its_retries_as_dead() {
        // Actor 0's every frame is dropped, so its link to actor 1 gives
        // up after two retransmissions and the token never leaves.
        let adv = ScriptAdversary {
            mute: Some(0),
            ..deliver_all(8)
        };
        let spec = ReliabilitySpec::arq().with_max_retries(2);
        for shards in [1, 3] {
            let run = run(
                &model(8),
                ring_nodes(8, 5, 2),
                &reliable(shards, spec, &adv),
            )
            .unwrap();
            let f = &run.metrics.fault;
            assert_eq!(f.dead_links, 1, "shards={shards}: {f:?}");
            assert_eq!(f.retransmitted, 2, "shards={shards}");
            assert_eq!(f.delivered, 0);
            assert_eq!(run.outputs.iter().sum::<usize>(), 0);
        }
    }
}
