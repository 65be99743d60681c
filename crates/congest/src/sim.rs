//! The synchronous round-based simulation engine.
//!
//! The round loop itself — termination, scheduling, message staging,
//! sharding, and the deterministic exchange — lives in the shared
//! [`pga_runtime`] kernel; this module supplies the CONGEST /
//! CONGESTED CLIQUE *model*: topology and addressing, per-message
//! validation and bit charging ([`check_message`]), and the mapping of
//! the kernel's per-round accounting onto [`Metrics`].

pub use crate::error::SimError;
use crate::Metrics;
use pga_graph::{Graph, NodeId};
use pga_runtime::{CodecFns, ExecModel, FaultStats, MsgSink, Plan, Poll, RoundProfile};

pub use pga_runtime::{
    Adversary, Engine, FaultSpec, FaultTrace, JsonlProbe, MsgCodec, NoopProbe, Probe, RunConfig,
    Scheduling, SeededAdversary, TraceAdversary, PARALLEL_MIN_NODES,
};

/// Communication topology of a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// Messages travel only along edges of the input graph (the CONGEST
    /// model of Peleg).
    Congest,
    /// Any vertex may message any other vertex (the CONGESTED CLIQUE model
    /// of Lotker et al.); the input graph remains each node's local
    /// knowledge.
    CongestedClique,
}

/// Size accounting for messages — the historical CONGEST name for the
/// runtime-level [`pga_runtime::MsgCost`] trait.
///
/// `id_bits = ⌈log₂ n⌉` is passed to
/// [`size_bits`](pga_runtime::MsgCost::size_bits) so message types can
/// charge the model-correct `O(log n)` bits for every node identifier
/// they carry. Existing `impl MsgSize for …` blocks compile unchanged;
/// the same impl now also powers MPC word charging through the defaulted
/// [`size_words`](pga_runtime::MsgCost::size_words).
pub use pga_runtime::MsgCost as MsgSize;

/// Per-node view of the network, passed to every [`Algorithm`] callback.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// This node's identifier.
    pub id: NodeId,
    /// Total number of nodes (globally known, as the paper assumes).
    pub n: usize,
    /// `⌈log₂ n⌉`, the number of bits of a node identifier.
    pub id_bits: usize,
    /// Neighbors of this node in the *input graph* `G` (sorted).
    pub graph_neighbors: &'a [NodeId],
    /// Current round number, starting at 0.
    pub round: usize,
    /// The communication topology.
    pub topology: Topology,
    /// The bandwidth `B` in bits available per directed edge per round.
    pub bandwidth_bits: usize,
}

impl Ctx<'_> {
    /// Whether this node may send a message to `to` in the current
    /// topology.
    pub fn can_send(&self, to: NodeId) -> bool {
        match self.topology {
            Topology::Congest => self.graph_neighbors.binary_search(&to).is_ok(),
            Topology::CongestedClique => to.index() < self.n && to != self.id,
        }
    }
}

/// A distributed algorithm, written as a per-node state machine.
///
/// The simulator calls [`Algorithm::round`] once per node per round (in
/// node-id order, though well-formed algorithms must not depend on that),
/// delivering the messages sent to this node in the previous round. The
/// run ends when every node reports [`Algorithm::is_done`] and no messages
/// are in flight.
pub trait Algorithm {
    /// Message type exchanged by this algorithm.
    type Msg: Clone + MsgSize;
    /// Per-node output produced at the end of the run.
    type Output;

    /// Executes one round: consume the inbox, return the outbox.
    ///
    /// The inbox contains `(sender, message)` pairs sorted by sender id.
    /// Each outbox entry `(to, msg)` must satisfy the topology
    /// ([`Ctx::can_send`]), at most one message per destination, each at
    /// most [`Ctx::bandwidth_bits`] bits — violations abort the run with a
    /// [`SimError`].
    fn round(&mut self, ctx: &Ctx, inbox: &[(NodeId, Self::Msg)]) -> Vec<(NodeId, Self::Msg)>;

    /// Whether this node has terminated (quiescent and output-ready).
    fn is_done(&self, ctx: &Ctx) -> bool;

    /// Whether the engine may *skip* this node's [`Algorithm::round`]
    /// call in rounds where its inbox is empty (the
    /// [`Scheduling::ActiveSet`] policy).
    ///
    /// **Contract:** if `can_skip` returns `true` and the node's inbox
    /// is empty, `round` must be a pure no-op — no state mutation and an
    /// empty outbox — and both `is_done` and `can_skip` must remain
    /// `true` for the unchanged state until a message arrives (the
    /// engine may stop re-polling a skippable quiet node). Skipping a
    /// call that would have done nothing is unobservable, so both
    /// scheduling policies stay bit-identical. The default (`is_done`)
    /// satisfies this for plain state machines that go quiet once
    /// finished; algorithms whose `round` has residual side effects
    /// after `is_done` (stale-flag clearing, per-cycle resets) override
    /// this to exclude those states and are then simply never skipped.
    fn can_skip(&self, ctx: &Ctx) -> bool {
        self.is_done(ctx)
    }

    /// The node's final output.
    fn output(&self, ctx: &Ctx) -> Self::Output;
}

/// Result of a completed run.
#[derive(Debug)]
pub struct Report<O> {
    /// Output of every node, indexed by node id.
    pub outputs: Vec<O>,
    /// Communication metrics of the run.
    pub metrics: Metrics,
}

impl<O> From<pga_runtime::Run<O, Metrics>> for Report<O> {
    fn from(run: pga_runtime::Run<O, Metrics>) -> Self {
        Report {
            outputs: run.outputs,
            metrics: run.metrics,
        }
    }
}

/// The simulation driver.
///
/// Construct with [`Simulator::congest`] or [`Simulator::congested_clique`]
/// and tune with the builder-style setters.
#[derive(Clone, Copy)]
pub struct Simulator<'g> {
    g: &'g Graph,
    topology: Topology,
    bandwidth_bits: usize,
    max_rounds: usize,
    scheduling: Scheduling,
}

/// Validates one outgoing message against the communication model and
/// returns its size in bits.
///
/// Shared by both engines so their model enforcement (and the errors they
/// raise) cannot drift apart. Public so external executors that simulate
/// the CONGEST model on another substrate (the `pga-mpc` adapter) apply
/// the exact same checks and raise the exact same errors.
///
/// `seen` accumulates the destinations this node has already sent to in
/// the current round (for the one-message-per-destination rule); pass the
/// same vector across all of a node's messages in one round.
///
/// # Errors
///
/// Returns the same [`SimError`] the engines raise: an illegal
/// destination for the topology, a duplicate destination, or a message
/// larger than the bandwidth `B`.
pub fn check_message<M: MsgSize>(
    ctx: &Ctx,
    seen: &mut Vec<NodeId>,
    to: NodeId,
    msg: &M,
) -> Result<usize, SimError> {
    if !ctx.can_send(to) {
        return Err(SimError::IllegalDestination {
            from: ctx.id,
            to,
            round: ctx.round,
        });
    }
    if seen.contains(&to) {
        return Err(SimError::DuplicateMessage {
            from: ctx.id,
            to,
            round: ctx.round,
        });
    }
    seen.push(to);
    let size = msg.size_bits(ctx.id_bits);
    if size > ctx.bandwidth_bits {
        return Err(SimError::BandwidthExceeded {
            from: ctx.id,
            to,
            size_bits: size,
            limit_bits: ctx.bandwidth_bits,
            round: ctx.round,
        });
    }
    Ok(size)
}

/// Default bandwidth: `16·⌈log₂ n⌉ + 64` bits.
///
/// The CONGEST model allows `B = O(log n)`; the constant is chosen so a
/// message can carry a small constant number of identifiers plus a tag and
/// a 64-bit numeric payload (used by the randomized estimator of Lemma 29).
pub fn default_bandwidth_bits(n: usize) -> usize {
    16 * id_bits(n) + 64
}

/// `⌈log₂ n⌉`, with a minimum of 1.
pub fn id_bits(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (n - 1).ilog2() as usize + 1
    }
}

/// The [`ExecModel`] instantiation that turns the shared round kernel
/// into the CONGEST / CONGESTED CLIQUE engine: per-message validation
/// via [`check_message`], bit charging, and [`Metrics`] accumulation
/// (including the per-round congestion profile).
///
/// `W` is the packed word type of the message codec, `()` when the run
/// uses the plain enum plane. When a codec is installed
/// ([`Simulator::run_cfg`] with [`RunConfig::codec`] on), the kernel's
/// sharded counting-sort exchange moves `W` words through its CSR inbox arenas
/// instead of cloned `A::Msg` enums; validation and charging still
/// happen here on the decoded messages, so both planes are
/// bit-identical by construction.
struct CongestModel<'s, 'g, A: Algorithm, W = ()> {
    sim: &'s Simulator<'g>,
    codec: Option<CodecFns<A::Msg, W>>,
    _algorithm: std::marker::PhantomData<fn(A)>,
}

impl<A: Algorithm, W: Copy + Send> ExecModel for CongestModel<'_, '_, A, W> {
    type Id = NodeId;
    type Node = A;
    type Msg = A::Msg;
    type Output = A::Output;
    type Error = SimError;
    type Metrics = Metrics;
    type SendScratch = Vec<NodeId>;
    type Packed = W;

    fn packs(&self) -> bool {
        self.codec.is_some()
    }

    fn pack(&self, msg: &A::Msg) -> W {
        let c = self.codec.expect("pack called without an installed codec");
        let word = (c.enc)(msg);
        debug_assert_eq!(
            (c.bits)(word, id_bits(self.sim.g.num_nodes())),
            msg.size_bits(id_bits(self.sim.g.num_nodes())),
            "MsgCodec::encoded_bits must agree with MsgCost::size_bits"
        );
        word
    }

    fn unpack(&self, word: W) -> A::Msg {
        (self
            .codec
            .expect("unpack called without an installed codec")
            .dec)(word)
    }

    fn actor_cost(&self, _node: &A, idx: usize) -> u64 {
        self.sim.vertex_cost(idx)
    }

    fn poll(&self, node: &A, idx: usize, round: usize) -> Poll {
        let ctx = self.sim.ctx(NodeId::from_index(idx), round);
        Poll {
            done: node.is_done(&ctx),
            skippable: node.can_skip(&ctx),
        }
    }

    fn output(&self, node: &A, idx: usize, round: usize) -> A::Output {
        node.output(&self.sim.ctx(NodeId::from_index(idx), round))
    }

    fn round_limit_error(&self, limit: usize) -> SimError {
        SimError::RoundLimitExceeded { limit }
    }

    fn step<S: MsgSink<Self>>(
        &self,
        node: &mut A,
        idx: usize,
        round: usize,
        inbox: &[(NodeId, A::Msg)],
        seen: &mut Vec<NodeId>,
        acc: &mut RoundProfile,
        sink: &mut S,
    ) -> Result<(), SimError> {
        let ctx = self.sim.ctx(NodeId::from_index(idx), round);
        let outbox = node.round(&ctx, inbox);
        seen.clear();
        // Accumulate in locals and fold into the shard profile once per
        // actor, so the hot loop keeps its counters in registers.
        let mut messages = 0u64;
        let mut volume = 0u64;
        let mut peak = 0usize;
        for (to, msg) in outbox {
            let size = check_message(&ctx, seen, to, &msg)?;
            // Congestion is charged at actual delivery: the sink
            // reports how many copies traverse the edge (always 1 on
            // the clean engines; an adversary's drop charges 0, a
            // duplicate 2, a delay 1 at the transmit round).
            let copies = sink.deliver(self, to, ctx.id, msg);
            messages += u64::from(copies);
            volume += u64::from(copies) * size as u64;
            peak = peak.max(size * copies as usize);
            // Telemetry only: a no-op unless a probe allocated the
            // histogram, so the clean path stays branch-plus-nothing.
            acc.observe_size(size as u64, copies);
        }
        acc.messages += messages;
        acc.volume += volume;
        acc.peak_link = acc.peak_link.max(peak);
        Ok(())
    }

    fn wire_charge(&self, msg: &A::Msg) -> u64 {
        msg.size_bits(id_bits(self.sim.g.num_nodes())) as u64
    }

    fn arq_header_charge(&self) -> u64 {
        // One fixed 64-bit control word per data copy: the per-link
        // sequence number (and piggyback room), same width as the
        // B = Θ(log n) message budget's id fields.
        64
    }

    fn arq_ack_charge(&self) -> u64 {
        // A cumulative ack is one control word.
        64
    }

    fn end_round(&self, acc: &RoundProfile, _recv: &[usize], round: usize, metrics: &mut Metrics) {
        metrics.messages += acc.messages;
        metrics.bits += acc.volume;
        metrics.max_message_bits = metrics.max_message_bits.max(acc.peak_link);
        metrics.rounds = round + 1;
        metrics.congestion_profile.push(acc.peak_link);
    }

    fn finish(&self, metrics: &mut Metrics, fault: &FaultStats, convergence_round: usize) {
        metrics.fault = *fault;
        metrics.convergence_round = convergence_round;
    }
}

impl<'g> Simulator<'g> {
    /// A CONGEST simulator over the communication graph `g`.
    pub fn congest(g: &'g Graph) -> Self {
        Simulator {
            g,
            topology: Topology::Congest,
            bandwidth_bits: default_bandwidth_bits(g.num_nodes()),
            max_rounds: 1_000_000,
            scheduling: Scheduling::default(),
        }
    }

    /// A CONGESTED CLIQUE simulator with input graph `g`.
    pub fn congested_clique(g: &'g Graph) -> Self {
        Simulator {
            topology: Topology::CongestedClique,
            ..Simulator::congest(g)
        }
    }

    /// Overrides the per-edge bandwidth `B` (bits per message).
    pub fn with_bandwidth_bits(mut self, bits: usize) -> Self {
        self.bandwidth_bits = bits;
        self
    }

    /// Overrides the safety round budget (default one million).
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Overrides the round-scheduling policy (default
    /// [`Scheduling::ActiveSet`]); both policies are bit-identical, see
    /// [`Algorithm::can_skip`].
    pub fn with_scheduling(mut self, scheduling: Scheduling) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// The per-vertex cost estimate the sharded engine balances on:
    /// `degree + 1` (a vertex's per-round message work is proportional
    /// to its adjacency; the constant covers poll/step overhead).
    pub fn vertex_cost(&self, idx: usize) -> u64 {
        self.g.degree(NodeId::from_index(idx)) as u64 + 1
    }

    /// The contiguous shard boundaries a parallel run on `threads`
    /// threads uses: the cost-balanced partition
    /// of [`pga_runtime::balanced_partition`] over
    /// [`Simulator::vertex_cost`]. Exposed so benches and tests can
    /// inspect per-shard load; boundaries never affect outputs, only
    /// wall-clock balance.
    pub fn shard_boundaries(&self, threads: usize) -> Vec<usize> {
        let costs: Vec<u64> = (0..self.g.num_nodes())
            .map(|i| self.vertex_cost(i))
            .collect();
        pga_runtime::balanced_partition(&costs, threads)
    }

    fn ctx(&self, id: NodeId, round: usize) -> Ctx<'_> {
        Ctx {
            id,
            n: self.g.num_nodes(),
            id_bits: id_bits(self.g.num_nodes()),
            graph_neighbors: self.g.neighbors(id),
            round,
            topology: self.topology,
            bandwidth_bits: self.bandwidth_bits,
        }
    }

    fn assert_node_count<T>(&self, nodes: &[T]) {
        assert_eq!(
            nodes.len(),
            self.g.num_nodes(),
            "one algorithm state per vertex required"
        );
    }

    /// Runs `nodes` (one algorithm state per vertex, indexed by id) to
    /// completion on the default configuration: the sequential engine
    /// with this simulator's scheduling policy and round budget, direct
    /// delivery, no probe.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if a node violates the communication model
    /// or the round budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run<A>(&self, nodes: Vec<A>) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        let cfg = RunConfig::new().scheduling(self.scheduling);
        self.exec(nodes, &cfg, None::<CodecFns<A::Msg, ()>>, None, &NoopProbe)
    }

    /// Runs `nodes` under a [`RunConfig`]: engine, scheduling policy,
    /// round budget, codec plane, fault plan, and reliable delivery in
    /// one value.
    ///
    /// Every configuration runs on the one [`pga_runtime::run_kernel`]
    /// round loop, and every engine, thread count, and codec plane
    /// produces bit-identical outputs, [`Metrics`] (congestion profile
    /// included) and errors. The configured [`RunConfig::scheduling`]
    /// overrides this simulator's policy, and [`RunConfig::max_rounds`]
    /// its round budget. With the auto-threaded parallel engine,
    /// instances below [`PARALLEL_MIN_NODES`] vertices run on one shard
    /// (see [`pga_runtime::Plan::new`]). With [`RunConfig::codec`] on,
    /// sharded runs move packed [`MsgCodec::Word`]s through the exchange
    /// (validation and charging still run on the decoded messages; debug
    /// builds assert that [`MsgCodec::encoded_bits`] agrees with
    /// [`MsgSize::size_bits`](pga_runtime::MsgCost::size_bits)).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if a node violates the communication model
    /// or the round budget is exhausted (which adversarially starved
    /// runs routinely do — bound the budget via
    /// [`RunConfig::max_rounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_cfg<A>(&self, nodes: Vec<A>, cfg: &RunConfig) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: MsgCodec + Send,
    {
        match JsonlProbe::from_run_config(cfg, "congest") {
            Some(probe) => self.run_cfg_probed(nodes, cfg, &probe),
            None => self.run_cfg_probed(nodes, cfg, &NoopProbe),
        }
    }

    /// [`Simulator::run_cfg`] with an explicit [`Probe`] attached.
    ///
    /// The probe observes the run without changing outputs, [`Metrics`],
    /// or errors (*observer neutrality*; see [`pga_runtime::probe`]).
    /// Passing [`NoopProbe`] is exactly the un-probed run: the kernel
    /// monomorphizes every callback and timer away.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] like [`Simulator::run_cfg`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_cfg_probed<A, P>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
        probe: &P,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: MsgCodec + Send,
        P: Probe,
    {
        let codec = cfg.codec.then(CodecFns::<A::Msg, _>::new);
        self.exec(nodes, cfg, codec, None, probe)
    }

    /// [`Simulator::run_cfg`] for algorithms whose message type has no
    /// [`MsgCodec`] impl: [`RunConfig::codec`] is ignored and the run
    /// always uses the enum plane.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] like [`Simulator::run_cfg`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_cfg_plain<A>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        let codec = None::<CodecFns<A::Msg, ()>>;
        match JsonlProbe::from_run_config(cfg, "congest") {
            Some(probe) => self.exec(nodes, cfg, codec, None, &probe),
            None => self.exec(nodes, cfg, codec, None, &NoopProbe),
        }
    }

    /// Runs `nodes` under `spec` while recording every inflicted fault,
    /// returning the report together with the [`FaultTrace`] that
    /// [`Simulator::run_replay`] re-executes bit for bit.
    ///
    /// Engine, scheduling, and round budget come from `cfg`;
    /// [`RunConfig::fault`], [`RunConfig::reliability`], and
    /// [`RunConfig::codec`] are ignored (`spec` is explicit, and the
    /// recording run uses the enum plane — the planes are bit-identical,
    /// so the trace is valid for both).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] like [`Simulator::run_cfg`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_traced<A>(
        &self,
        nodes: Vec<A>,
        spec: FaultSpec,
        cfg: &RunConfig,
    ) -> Result<(Report<A::Output>, FaultTrace), SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        let adversary = SeededAdversary::recording(spec);
        let codec = None::<CodecFns<A::Msg, ()>>;
        let schedule = Some((&adversary as &dyn Adversary, spec));
        let report = self.exec(nodes, cfg, codec, schedule, &NoopProbe)?;
        Ok((report, adversary.into_trace(self.g.num_nodes())))
    }

    /// Re-executes a recorded fault schedule: every coordinate in
    /// `trace` gets its recorded fate, everything else is delivered
    /// clean, so the run reproduces the recorded one bit for bit (same
    /// outputs, same [`Metrics`], at any engine/thread choice).
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] like [`Simulator::run_cfg`].
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the graph size.
    pub fn run_replay<A>(
        &self,
        nodes: Vec<A>,
        trace: &FaultTrace,
        cfg: &RunConfig,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
    {
        let adversary = TraceAdversary::new(trace);
        let codec = None::<CodecFns<A::Msg, ()>>;
        let schedule = Some((&adversary as &dyn Adversary, trace.spec));
        self.exec(nodes, cfg, codec, schedule, &NoopProbe)
    }

    /// The one engine dispatch every run method shares: resolves `cfg`
    /// into a [`Plan`] and runs the kernel. The adversary is the seeded
    /// one of [`RunConfig::fault`], unless `schedule` names an explicit
    /// adversary and the spec it plays, which then replaces the
    /// configured fault plan and reliability.
    fn exec<A, W, P>(
        &self,
        nodes: Vec<A>,
        cfg: &RunConfig,
        codec: Option<CodecFns<A::Msg, W>>,
        schedule: Option<(&dyn Adversary, FaultSpec)>,
        probe: &P,
    ) -> Result<Report<A::Output>, SimError>
    where
        A: Algorithm + Send,
        A::Msg: Send,
        W: Copy + Send,
        P: Probe,
    {
        self.assert_node_count(&nodes);
        let seeded = SeededAdversary::new(cfg.fault.unwrap_or_default());
        let (cfg, adversary): (RunConfig, &dyn Adversary) = match schedule {
            Some((adversary, spec)) => (
                RunConfig {
                    reliability: None,
                    ..cfg.adversary(spec)
                },
                adversary,
            ),
            None => (*cfg, &seeded),
        };
        let plan = Plan::new(&cfg, nodes.len(), self.max_rounds, adversary);
        let model = CongestModel {
            sim: self,
            codec,
            _algorithm: std::marker::PhantomData,
        };
        Ok(pga_runtime::run_kernel(&model, nodes, &plan, probe)?.into())
    }
}
