//! The DFS client driver: issues writes under every protocol the paper
//! evaluates, file-level reads, repair tasks and metadata operations, and
//! records their completions.
//!
//! One `ClientApp` runs above each client node's NIC. Jobs are taken from a
//! shared plan queue (filled by tests/benchmark harnesses before the run);
//! a configurable window of requests is kept in flight. Completion
//! semantics per protocol follow §IV-§VI (see [`WriteProtocol`]).
//!
//! Each state machine lives in its own module as `impl ClientApp` blocks:
//! `write` (placement, issue, acks, `Busy` retries, commit), `read`
//! (cache hits, resolve, fan-out or gathers, readahead, reconstruction),
//! `repair` (survivor fetch, rebuild, spare writes, commit) and `meta`
//! (namespace operations). They share one correlation table per wire key:
//! every outstanding message id and every fetch token names the one op
//! that owns it (`Owner`), so an ack or a landed piece is routed with a
//! single lookup.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use nadfs_gfec::ReedSolomon;
use nadfs_meta::{CachedEntry, LayoutSpec, MetaCache, MetaError, ReadPiece};
use nadfs_rdma::{NicApp, NicCore};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    Ctx, Dur, NodeId, ObsHub, OpKind, SharedObs, SharedTrace, SpanId, TenantId, Time, Trace,
    TENANT_REPAIR,
};
use nadfs_wire::{
    payload_checksum, AckPkt, Capability, DfsHeader, DfsOp, EcInfo, EcRole, Frame, GatherCopy,
    GatherReadHeader, GatherReconstruct, GatherSegment, HlConfigPkt, MsgId, ReadReqHeader,
    ReplicaCoord, Resiliency, Rights, RpcBody, RsScheme, Status, WriteReqHeader, MAX_GATHER_SEGS,
};

use crate::cache::ReadCache;
use crate::control::{FilePolicy, RepairPlan, RepairTask, Route, SharedControl, WritePlacement};

mod meta;
mod read;
mod repair;
mod write;

use meta::PendingMeta;
use read::{PendingReadOp, ReadIssue, ReadReq};
use repair::PendingRepair;
use write::{Pending, WriteOp};

/// Timer tag: start pulling jobs from the plan. Every other timer the
/// client arms carries a fresh tag from its deferred-step table.
pub const KICK: u64 = 0;

/// Write protocols (the paper's comparison axes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteProtocol {
    /// Speed-of-light: single RDMA write, no policy enforcement (§IV).
    Raw,
    /// Single RDMA write through sPIN handlers (validation on the NIC).
    Spin,
    /// SEND carrying the data; storage CPU validates, copies, stores (§IV).
    Rpc,
    /// SEND request; storage CPU validates then RDMA-reads the data (§IV).
    RpcRdma,
    /// Client writes each replica itself (k writes, full trust) (§V).
    RdmaFlat,
    /// Pre-posted triggered-WQE ring with remote WQE configuration (§V).
    HyperLoop { chunk: u32 },
    /// Storage CPUs forward along the file's broadcast schedule, chunked
    /// and pipelined (CPU-Ring / CPU-PBT depending on the file policy).
    CpuBcast { chunk: u32 },
    /// One write; sPIN handlers forward per packet (sPIN-Ring / sPIN-PBT
    /// depending on the file policy) (§V).
    SpinReplicated,
    /// Per-packet streaming TriEC on PsPIN (§VI-B). `interleave` controls
    /// the client-side packet interleaving of §VI-B-1 (the ablation).
    SpinTriec { interleave: bool },
    /// Per-chunk firmware TriEC on conventional RDMA NICs (§VI-A).
    InecTriec,
}

/// A metadata operation issued by a client (paths are absolute).
#[derive(Clone, Debug)]
pub enum MetaOp {
    Mkdir { path: String },
    Create { path: String, spec: LayoutSpec },
    Lookup { path: String },
    Readdir { path: String },
    Rename { from: String, to: String },
    Unlink { path: String },
}

impl MetaOp {
    pub fn kind(&self) -> MetaOpKind {
        match self {
            MetaOp::Mkdir { .. } => MetaOpKind::Mkdir,
            MetaOp::Create { .. } => MetaOpKind::Create,
            MetaOp::Lookup { .. } => MetaOpKind::Lookup,
            MetaOp::Readdir { .. } => MetaOpKind::Readdir,
            MetaOp::Rename { .. } => MetaOpKind::Rename,
            MetaOp::Unlink { .. } => MetaOpKind::Unlink,
        }
    }
}

/// Which metadata operation a [`MetaResult`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MetaOpKind {
    Mkdir,
    Create,
    Lookup,
    Readdir,
    Rename,
    Unlink,
}

/// How a file-level read travels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadProtocol {
    /// Per-extent fan-out of one-sided RDMA reads, capability-validated on
    /// the storage NIC (the read-side analog of the sPIN write path).
    Rdma,
    /// SEND request per extent; the storage CPU validates, then streams
    /// the bytes back (the CPU baseline).
    Rpc,
    /// NIC-offloaded gather: one request per storage node; sPIN handlers
    /// validate once, the NIC collects the node's segments (fetching
    /// remote survivors NIC-to-NIC and reconstructing degraded stripes on
    /// the firmware EC engine), and streams them back as a single flow.
    Offloaded,
}

/// Client-side read-path counters, shared out of the engine so the
/// cluster can export them after the app moves into the simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientReadStats {
    /// Degraded stripes reconstructed on the client CPU (fan-out paths).
    pub reconstructed_stripes: u64,
    /// Gather requests sent (offloaded protocol).
    pub offloaded_reads: u64,
    /// Degraded stripes delegated to on-NIC reconstruction.
    pub offloaded_degraded_stripes: u64,
    /// Background readahead-tail ops spawned by the async split.
    pub background_readaheads: u64,
}

pub type SharedClientReadStats = Rc<RefCell<ClientReadStats>>;

/// One unit of client work.
#[derive(Clone, Debug)]
pub enum Job {
    /// Append of `size` seed-generated bytes (what workloads and
    /// benchmarks submit). When the job starts it is lowered into the
    /// same write op as [`Job::WriteAt`]; the payload is generated then,
    /// once, and carried through issue, retries and completion.
    Write {
        file: u64,
        size: u32,
        protocol: WriteProtocol,
        seed: u64,
    },
    /// Handle-API write: explicit bytes at an explicit offset (`None` =
    /// append at the cursor). The typed completion lands in `slot`.
    WriteAt {
        file: u64,
        offset: Option<u64>,
        data: Bytes,
        protocol: WriteProtocol,
        slot: Option<WriteSlot>,
    },
    /// File-level ranged read: layout resolution, per-stripe fan-out,
    /// client-side reassembly, degraded reconstruction when a storage
    /// node is marked failed.
    Read {
        file: u64,
        offset: u64,
        len: u32,
        protocol: ReadProtocol,
        token: u64,
        slot: Option<ReadSlot>,
    },
    /// Execute one background repair task: fetch surviving shards,
    /// rebuild, write the re-protected shards to their spare nodes, and
    /// commit the extent-map update. Submitted by the repair driver.
    Repair {
        task: RepairTask,
        token: u64,
        slot: Option<RepairSlot>,
    },
    /// A metadata operation (namespace traffic).
    Meta { op: MetaOp, token: u64 },
}

/// Completion record.
#[derive(Clone, Debug)]
pub struct WriteResult {
    pub greq: u64,
    pub client: NodeId,
    pub protocol: WriteProtocol,
    pub size: u32,
    pub start: Time,
    pub end: Time,
    pub status: Status,
    pub retries: u32,
    /// Checksum of the payload as sent (reads can verify against it).
    pub checksum: u64,
    /// Placement used (lets tests verify stored bytes).
    pub placement: WritePlacement,
}

/// Typed completion of one file-level read.
#[derive(Clone, Debug)]
pub struct ReadCompletion {
    pub token: u64,
    pub client: NodeId,
    pub file: u64,
    pub protocol: ReadProtocol,
    pub offset: u64,
    /// Bytes actually returned (requests past EOF come back short).
    pub len: u32,
    pub start: Time,
    pub end: Time,
    pub status: Status,
    /// Stripes served through degraded reconstruction.
    pub degraded_stripes: u32,
    /// Served from the client read cache (no resolve, no fan-out).
    pub from_cache: bool,
    /// Checksum of `data` (compare against the writes' checksums).
    pub checksum: u64,
    pub data: Bytes,
}

/// Oneshot completion slot: the driver fills it exactly once when the op
/// completes; the submitter polls it between sim slices. This is the
/// typed per-op channel the `FsClient` facade uses instead of digging
/// through the shared [`ResultSink`].
pub type ReadSlot = Rc<RefCell<Option<ReadCompletion>>>;
pub type WriteSlot = Rc<RefCell<Option<WriteResult>>>;
pub type RepairSlot = Rc<RefCell<Option<RepairResult>>>;

/// What a finished repair task did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Erasure-coded shards (data or parity, by shard index) were
    /// reconstructed from k survivors and re-homed to spares.
    Rebuilt { shards: Vec<usize> },
    /// Lost replicas (by replica index) were cloned from a survivor.
    Cloned { replicas: Vec<usize> },
    /// Nothing referenced a failed node by the time the task ran.
    AlreadyHealthy,
    /// The extent cannot be re-protected (typed reason): plain extent on
    /// a failed node, more than m EC shards lost, or no spare node.
    Unrepairable(MetaError),
    /// The data path failed mid-repair (NACK, auth failure, busy): the
    /// driver may requeue and retry.
    Aborted(Status),
}

/// Typed completion of one repair task.
#[derive(Clone, Debug)]
pub struct RepairResult {
    pub token: u64,
    pub client: NodeId,
    pub task: RepairTask,
    pub status: Status,
    pub outcome: RepairOutcome,
    pub start: Time,
    pub end: Time,
    /// Data-path bytes this repair moved (shards fetched + written).
    pub bytes_moved: u64,
}

/// Completion record of one metadata operation.
#[derive(Clone, Debug)]
pub struct MetaResult {
    pub token: u64,
    pub client: NodeId,
    pub op: MetaOpKind,
    pub start: Time,
    pub end: Time,
    /// Answered from the client cache (no control round-trip).
    pub cache_hit: bool,
    /// Typed outcome: metadata misses surface as failed jobs.
    pub result: Result<(), MetaError>,
}

/// Shared sink for completions: every job the client starts lands
/// exactly one record in the vector of its kind (and, when the job
/// carried a oneshot slot, the same record in the slot).
#[derive(Default)]
pub struct ResultSink {
    pub writes: Vec<WriteResult>,
    pub file_reads: Vec<ReadCompletion>,
    pub metas: Vec<MetaResult>,
    pub repairs: Vec<RepairResult>,
}

/// A completion record and the [`ResultSink`] vector it lands in.
trait Completion: Clone {
    fn sink(results: &mut ResultSink) -> &mut Vec<Self>;
}

impl Completion for WriteResult {
    fn sink(results: &mut ResultSink) -> &mut Vec<Self> {
        &mut results.writes
    }
}

impl Completion for ReadCompletion {
    fn sink(results: &mut ResultSink) -> &mut Vec<Self> {
        &mut results.file_reads
    }
}

impl Completion for MetaResult {
    fn sink(results: &mut ResultSink) -> &mut Vec<Self> {
        &mut results.metas
    }
}

impl Completion for RepairResult {
    fn sink(results: &mut ResultSink) -> &mut Vec<Self> {
        &mut results.repairs
    }
}

pub type SharedResults = Rc<RefCell<ResultSink>>;
pub type SharedPlan = Rc<RefCell<VecDeque<Job>>>;

/// The op a wire message or fetch token belongs to. Each message id and
/// each token belongs to exactly one op.
#[derive(Clone, Copy)]
enum Owner {
    /// A write, by greq.
    Write(u64),
    /// A file-level read op, by op id.
    Read(u64),
    /// A repair op, by op id.
    Repair(u64),
}

/// A step waiting out a simulated delay: the client's timers (except
/// [`KICK`]) each resolve, by tag, to exactly one of these.
enum Deferred {
    /// A placed write waiting out its verbs post (doorbell) cost.
    Issue {
        op: WriteOp,
        placement: WritePlacement,
        start: Time,
    },
    /// A write backing off after a `Busy` NACK, re-placed under a fresh
    /// greq. It holds no window slot until the retry fires.
    Retry {
        op: WriteOp,
        placement: WritePlacement,
        retries: u32,
    },
    /// A metadata op whose outcome is decided, waiting out its latency.
    Meta(PendingMeta),
    /// A read answered from the read cache, waiting out the probe.
    CacheHit { req: ReadReq, data: Bytes },
    /// A read op's wire program waiting out its doorbell cost.
    ReadIssue {
        op_id: u64,
        issue: ReadIssue,
        dfs: DfsHeader,
    },
    /// A read op waiting out client-side degraded reconstruction.
    ReadFin(u64),
    /// A repair op waiting out its rebuild cost before the spare writes.
    RepairFin(u64),
}

/// The client node software.
pub struct ClientApp {
    control: SharedControl,
    results: SharedResults,
    plan: SharedPlan,
    window: usize,
    /// Jobs holding a window slot: started and not yet delivered. A write
    /// backing off after `Busy` gives its slot up until the retry fires.
    outstanding: usize,
    /// Deferred steps by timer tag, and the last tag handed out.
    deferred: HashMap<u64, Deferred>,
    last_tag: u64,
    /// In-flight writes by greq.
    in_flight: HashMap<u64, Pending>,
    /// The op each outstanding request message belongs to. A write's
    /// messages stay until it finishes or backs off; a read's or repair's
    /// message goes on its ack.
    msg_owners: HashMap<MsgId, Owner>,
    /// The op each outstanding fetch token belongs to.
    token_owners: HashMap<u64, Owner>,
    /// Capabilities by file and op, issued on first use.
    caps: HashMap<(u64, DfsOp), Capability>,
    /// Deliberately corrupt capabilities (security tests).
    pub forge_capabilities: bool,
    /// Abandon writes after the first packet (cleanup-handler tests):
    /// every Nth job is abandoned when set.
    pub abandon_every: Option<u64>,
    jobs_started: u64,
    /// In-flight file reads by op id (ordered: readahead parking picks
    /// the lowest).
    reads_in_flight: BTreeMap<u64, PendingReadOp>,
    /// Id of the next read or repair op.
    next_op: u64,
    /// Token of the next network fetch (read piece or repair survivor).
    next_sub: u64,
    /// Expiry stamped into issued READ capabilities (tests set this into
    /// the past to exercise capability-expired reads).
    pub read_cap_expires_at_ns: u64,
    /// Cached RS codecs for client-side degraded reconstruction.
    rs_cache: HashMap<(u8, u8), ReedSolomon>,
    /// Shared read-path counters (exported by the cluster's metrics
    /// snapshot; the handle survives the app moving into the engine).
    pub read_stats: SharedClientReadStats,
    /// In-flight repair tasks by op id.
    repairs_in_flight: HashMap<u64, PendingRepair>,
    /// Client-side metadata cache (registered with the control plane for
    /// invalidation callbacks at construction).
    pub meta_cache: Rc<RefCell<MetaCache>>,
    /// Disable to measure the uncached baseline (every op round-trips).
    pub cache_enabled: bool,
    /// Client-side read cache + readahead, keyed by the extent-map
    /// generation (registered with the control plane for generation
    /// callbacks at construction).
    pub read_cache: Rc<RefCell<ReadCache>>,
    /// Disable to measure the uncached read path (every `read_at` pays a
    /// resolve plus the full fan-out).
    pub read_cache_enabled: bool,
    /// Metadata ops started and not yet delivered (the bulk span stays
    /// open while any remain).
    meta_in_flight: usize,
    /// When true, a storm of [`Job::Meta`] ops shares one
    /// [`OpKind::MetaBulk`] span carrying op-count attribution in its
    /// label instead of minting one span per op, so bulk namespace
    /// workloads cannot saturate the completed-span ring.
    pub bulk_meta_spans: bool,
    /// Open bulk span (0 when none is active).
    bulk_meta_span: SpanId,
    /// Ops attributed to the open bulk span.
    bulk_meta_ops: u64,
    /// Failed ops among them (a bulk span closes `ok` only if all passed).
    bulk_meta_errs: u64,
    /// Observability hub: op spans + metrics. Constructed disabled; the
    /// cluster build replaces it with the shared, enabled hub.
    pub obs: SharedObs,
    /// Shared trace ring: control-plane calls this client makes (resolve,
    /// commit, repair planning) are annotated on the `control` track.
    pub trace: SharedTrace,
    /// Tenant id stamped into DFS headers for QoS scheduling at storage
    /// nodes. `None` means "use the node id" (each client its own tenant);
    /// the handle is shared with the cluster so tests can regroup clients
    /// after the app has moved into the engine. Repair traffic overrides
    /// this with [`TENANT_REPAIR`].
    pub tenant: Rc<Cell<Option<TenantId>>>,
}

impl ClientApp {
    pub fn new(
        control: SharedControl,
        results: SharedResults,
        plan: SharedPlan,
        window: usize,
    ) -> ClientApp {
        let meta_cache = Rc::new(RefCell::new(MetaCache::new()));
        control.borrow_mut().register_cache(meta_cache.clone());
        let read_cache = Rc::new(RefCell::new(ReadCache::default()));
        control.borrow_mut().register_read_cache(read_cache.clone());
        ClientApp {
            control,
            results,
            plan,
            window,
            outstanding: 0,
            deferred: HashMap::new(),
            last_tag: KICK,
            in_flight: HashMap::new(),
            msg_owners: HashMap::new(),
            token_owners: HashMap::new(),
            caps: HashMap::new(),
            forge_capabilities: false,
            abandon_every: None,
            jobs_started: 0,
            reads_in_flight: BTreeMap::new(),
            next_op: 0,
            next_sub: 0,
            read_cap_expires_at_ns: u64::MAX / 2,
            rs_cache: HashMap::new(),
            read_stats: Rc::new(RefCell::new(ClientReadStats::default())),
            repairs_in_flight: HashMap::new(),
            meta_cache,
            cache_enabled: true,
            read_cache,
            read_cache_enabled: true,
            meta_in_flight: 0,
            bulk_meta_spans: false,
            bulk_meta_span: 0,
            bulk_meta_ops: 0,
            bulk_meta_errs: 0,
            obs: ObsHub::disabled(),
            trace: Trace::disabled(),
            tenant: Rc::new(Cell::new(None)),
        }
    }

    /// Open a span for one client op. The label closure only runs when
    /// spans are enabled, so disabled hubs cost one branch.
    fn span_begin<F: FnOnce() -> String>(
        &self,
        kind: OpKind,
        nic: &NicCore,
        at: Time,
        label: F,
    ) -> SpanId {
        let mut obs = self.obs.borrow_mut();
        if !obs.spans.enabled() {
            return 0;
        }
        let track = format!("client-{}", nic.node());
        obs.spans.begin(kind, track, label(), at)
    }

    fn span_mark(&self, id: SpanId, name: &'static str, at: Time) {
        if id != 0 {
            self.obs.borrow_mut().spans.mark(id, name, at);
        }
    }

    fn span_end(&self, id: SpanId, at: Time, ok: bool) {
        if id != 0 {
            self.obs.borrow_mut().end_span(id, at, ok);
        }
    }

    /// Associate a wire-level request id with a span so storage-side
    /// validation can mark phases on it.
    fn span_correlate(&self, greq: u64, id: SpanId) {
        if id != 0 {
            self.obs.borrow_mut().spans.correlate(greq, id);
        }
    }

    fn span_decorrelate(&self, greq: u64) -> SpanId {
        self.obs.borrow_mut().spans.decorrelate(greq).unwrap_or(0)
    }

    /// DFS header for request `greq` on `file`, with a capability issued
    /// once per file and op. Writes carry an RW capability (tampered when
    /// `forge_capabilities` is set); reads a READ capability with the
    /// client's configured expiry, so tests can exercise expired tickets.
    /// The tenant is the configured group if one was set, else the node
    /// id (every client is its own tenant by default).
    fn dfs_header(&mut self, nic: &NicCore, file: u64, greq: u64, op: DfsOp) -> DfsHeader {
        let client = nic.node() as u32;
        let (rights, expires) = match op {
            DfsOp::Write => (Rights::RW, u64::MAX / 2),
            DfsOp::Read => (Rights::READ, self.read_cap_expires_at_ns),
        };
        let control = &self.control;
        let mut capability = *self.caps.entry((file, op)).or_insert_with(|| {
            control
                .borrow_mut()
                .issue_capability(client, file, rights, expires)
        });
        if self.forge_capabilities && op == DfsOp::Write {
            // Tamper: claim more rights without re-signing.
            capability.expires_at_ns = u64::MAX;
        }
        DfsHeader {
            greq_id: greq,
            op,
            client,
            tenant: self.tenant.get().unwrap_or(nic.node() as TenantId),
            capability,
        }
    }

    fn payload(seed: u64, len: u32) -> Bytes {
        // Deterministic, seed-dependent content (splitmix-ish stream).
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        // Capacity for whole words, so the last (partial) word does not
        // reallocate and copy the buffer. Appending words beats writing
        // into a zeroed buffer: the zeroing pass costs more than it saves.
        let mut v = Vec::with_capacity((len as usize).next_multiple_of(8));
        while v.len() < len as usize {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            v.extend_from_slice(&z.to_le_bytes());
        }
        v.truncate(len as usize);
        Bytes::from(v)
    }

    fn fill(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>) {
        while self.outstanding < self.window {
            let Some(job) = self.plan.borrow_mut().pop_front() else {
                return;
            };
            self.start_job(nic, ctx, job);
        }
    }

    /// Arm a timer that runs `step` after `delay`.
    fn defer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, delay: Dur, step: Deferred) {
        self.last_tag += 1;
        self.deferred.insert(self.last_tag, step);
        nic.set_timer(ctx, delay, self.last_tag);
    }

    /// Deliver one job's completion: into its oneshot slot, if it has one,
    /// and onto the shared sink. The job's window slot frees here.
    fn deliver<T: Completion>(&mut self, slot: Option<Rc<RefCell<Option<T>>>>, result: T) {
        self.outstanding -= 1;
        if let Some(slot) = slot {
            *slot.borrow_mut() = Some(result.clone());
        }
        T::sink(&mut self.results.borrow_mut()).push(result);
    }

    /// A fresh fetch token, owned by `owner` until its piece lands or the
    /// op is untracked.
    fn fetch_token(&mut self, owner: Owner) -> u64 {
        let token = self.next_sub;
        self.next_sub += 1;
        self.token_owners.insert(token, owner);
        token
    }

    /// Stop correlating an op's request messages and fetch tokens.
    fn untrack(&mut self, msgs: &[MsgId], tokens: &[u64]) {
        for m in msgs {
            self.msg_owners.remove(m);
        }
        for t in tokens {
            self.token_owners.remove(t);
        }
    }

    /// Lower one job into its op and start it. Every job takes a window
    /// slot here and gives it back when its completion is delivered.
    fn start_job(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, job: Job) {
        self.jobs_started += 1;
        self.outstanding += 1;
        match job {
            Job::Write {
                file,
                size,
                protocol,
                seed,
            } => {
                let op = WriteOp {
                    file,
                    offset: None,
                    data: Self::payload(seed, size),
                    protocol,
                    slot: None,
                };
                self.start_write(nic, ctx, op);
            }
            Job::WriteAt {
                file,
                offset,
                data,
                protocol,
                slot,
            } => {
                let op = WriteOp {
                    file,
                    offset,
                    data,
                    protocol,
                    slot,
                };
                self.start_write(nic, ctx, op);
            }
            Job::Read {
                file,
                offset,
                len,
                protocol,
                token,
                slot,
            } => {
                let start = ctx.now();
                let span = self.span_begin(OpKind::Read, nic, start, || {
                    format!("read f{file} @{offset}+{len}")
                });
                let req = ReadReq {
                    token,
                    file,
                    offset,
                    len,
                    protocol,
                    slot,
                    span,
                    start,
                };
                self.start_read(nic, ctx, req);
            }
            Job::Repair { task, token, slot } => self.start_repair(nic, ctx, task, token, slot),
            Job::Meta { op, token } => self.start_meta(nic, ctx, op, token),
        }
    }
}

impl NicApp for ClientApp {
    fn on_ack(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, _src: NodeId, ack: AckPkt) {
        match self.msg_owners.get(&ack.msg).copied() {
            Some(Owner::Read(op_id)) => self.read_nacked(nic, ctx, op_id, ack),
            Some(Owner::Repair(op_id)) => self.repair_acked(nic, ctx, op_id, ack),
            Some(Owner::Write(greq)) => self.write_acked(nic, ctx, Some(greq), ack),
            None => self.write_acked(nic, ctx, None, ack),
        }
    }

    fn on_read_done(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {
        match self.token_owners.remove(&token) {
            Some(Owner::Read(op_id)) => self.read_piece_landed(nic, ctx, op_id),
            Some(Owner::Repair(op_id)) => self.repair_shard_landed(nic, ctx, op_id),
            Some(Owner::Write(_)) | None => {}
        }
    }

    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == KICK {
            self.fill(nic, ctx);
            return;
        }
        let Some(step) = self.deferred.remove(&tag) else {
            return;
        };
        match step {
            Deferred::Issue {
                op,
                placement,
                start,
            } => self.issue_write(nic, ctx, op, placement, 0, start),
            Deferred::Retry {
                op,
                placement,
                retries,
            } => {
                self.outstanding += 1;
                self.issue_write(nic, ctx, op, placement, retries, ctx.now());
            }
            Deferred::Meta(pm) => self.finish_meta(nic, ctx, pm),
            Deferred::CacheHit { req, data } => self.finish_cache_hit(nic, ctx, req, data),
            Deferred::ReadIssue { op_id, issue, dfs } => {
                self.issue_read_fanout(nic, ctx, op_id, issue, dfs)
            }
            Deferred::ReadFin(op_id) => self.complete_read(nic, ctx, op_id),
            Deferred::RepairFin(op_id) => self.repair_rebuild_and_write(nic, ctx, op_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The payload stream in reference form (append whole words into a
    /// buffer of exactly `len` bytes, then truncate). `payload` must
    /// reproduce it byte for byte: stored data and every checksum derived
    /// from it depend on these exact bytes.
    fn payload_reference(seed: u64, len: u32) -> Vec<u8> {
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut v = Vec::with_capacity(len as usize);
        while v.len() < len as usize {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            v.extend_from_slice(&z.to_le_bytes());
        }
        v.truncate(len as usize);
        v
    }

    #[test]
    fn payload_bytes_match_the_reference_generator() {
        for seed in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            for len in [0, 1, 7, 8, 4097] {
                let got = ClientApp::payload(seed, len);
                assert_eq!(got.len(), len as usize);
                assert_eq!(
                    &got[..],
                    &payload_reference(seed, len)[..],
                    "seed {seed} len {len}"
                );
            }
        }
    }
}
