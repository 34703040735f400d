//! The three workloads: seeded job generation, cluster set-up, the
//! closed-loop measured phase, and the checks of every output.
//!
//! Every client keeps `client_window` (1) ops outstanding and issues its
//! next op only when one completes. The simulator is single-threaded, so
//! a whole run is one process on one thread.

use std::collections::{BTreeMap, BTreeSet};

use nadfs_core::client::KICK;
use nadfs_core::{
    ClusterSpec, FilePolicy, Job, MetaOp, MetaWorkload, ReadProtocol, ResultSink, SimCluster,
    StorageMode, WritePlacement, WriteProtocol,
};
use nadfs_rdma::AppTimer;
use nadfs_simnet::{ComponentId, Dur, OpKind, Time};
use nadfs_wire::{payload_checksum, BcastStrategy, RsScheme, Status};

use crate::layers::PhaseAcc;
use crate::measure::{payload_bytes, sample_offsets, Fingerprint, HostTimer, SplitMix};

const INGEST_CLIENTS: usize = 1024;
const INGEST_NODES: usize = 8;
const INGEST_WRITES: usize = 2;
const INGEST_MIN: u32 = 4 << 10;
const INGEST_MAX: u32 = 256 << 10;

const DR_CLIENTS: usize = 8;
const DR_NODES: usize = 6;
/// 64 KiB blocks each client writes and reads: 32 MiB per client, twice
/// the 16 MiB default read cache.
const DR_BLOCKS: usize = 512;
const DR_READS: usize = 1250;
const BLOCK: u32 = 64 << 10;

const NS_CLIENTS: usize = 32;
const NS_SHARDS: usize = 4;
const NS_NODES: usize = 4;
const NS_ROOT: &str = "/bench";

/// Seed of the fixed multiset a workload's shape is drawn from.
const SHAPE_SEED: u64 = 0x005E_ED0F_5A9E;

/// Independent sub-plans a run draws from one seed and averages its
/// simulated-time results over: enough that the seed-to-seed spread of
/// p99 stays small where one sub-plan's tail hangs on a few incast or
/// shard collisions.
pub fn sub_plans(w: Workload) -> usize {
    match w {
        Workload::Ingest => 8,
        Workload::DegradedRead => 1,
        Workload::Namespace => 16,
    }
}

/// Simulated-time budget of one measured phase; ops still open at this
/// point count as failed.
const SIM_DEADLINE_MS: u64 = 10_000;
const SIM_DEADLINE: Dur = Dur::from_ms(SIM_DEADLINE_MS);
/// Clients start at seeded offsets spread over this much simulated time.
const START_SPREAD: Dur = Dur::from_us(10);
/// Simulated time per engine slice between harvests of the result sink.
const SLICE: Dur = Dur::from_us(50);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    DegradedRead,
    Namespace,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "ingest" => Some(Workload::Ingest),
            "degraded_read" => Some(Workload::DegradedRead),
            "namespace" => Some(Workload::Namespace),
            _ => None,
        }
    }

    fn clients(self) -> usize {
        match self {
            Workload::Ingest => INGEST_CLIENTS,
            Workload::DegradedRead => DR_CLIENTS,
            Workload::Namespace => NS_CLIENTS,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::DegradedRead => "degraded_read",
            Workload::Namespace => "namespace",
        }
    }

    pub fn describe(self) -> String {
        match self {
            Workload::Ingest => format!(
                "{INGEST_CLIENTS} clients x {INGEST_WRITES} writes on {INGEST_NODES} storage nodes, \
                 clients split over sPIN plain / 3-way ring replication / RS(3,2) TriEC, \
                 sizes log-uniform {}..{} KiB",
                INGEST_MIN >> 10,
                INGEST_MAX >> 10
            ),
            Workload::DegradedRead => format!(
                "{DR_CLIENTS} clients x {DR_READS} uniform {} KiB offloaded reads over {} MiB \
                 RS(3,2) files each on {DR_NODES} storage nodes, one data node failed; \
                 read caches (16 MiB) emptied before the measured phase",
                BLOCK >> 10,
                (DR_BLOCKS as u64 * BLOCK as u64) >> 20
            ),
            Workload::Namespace => format!(
                "MetaWorkload mix (mkdir, create, stat storm, rename, unlink, readdir) on \
                 {NS_CLIENTS} clients, each with 4..12 dirs x 8..24 files and a 32..160-stat \
                 storm, {NS_SHARDS} metadata shards, client meta cache on, no data I/O"
            ),
        }
    }
}

/// What an ingest client writes: the three policies of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    Plain,
    Replicated,
    Ec,
}

impl Policy {
    pub const ALL: [Policy; 3] = [Policy::Plain, Policy::Replicated, Policy::Ec];

    fn of_client(i: usize) -> Policy {
        Policy::ALL[i % 3]
    }

    pub fn name(self) -> &'static str {
        match self {
            Policy::Plain => "plain",
            Policy::Replicated => "replicated",
            Policy::Ec => "ec",
        }
    }

    fn file_policy(self) -> FilePolicy {
        match self {
            Policy::Plain => FilePolicy::Plain,
            Policy::Replicated => FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
            Policy::Ec => FilePolicy::ErasureCoded {
                scheme: RsScheme::new(3, 2),
            },
        }
    }

    fn protocol(self) -> WriteProtocol {
        match self {
            Policy::Plain => WriteProtocol::Spin,
            Policy::Replicated => WriteProtocol::SpinReplicated,
            Policy::Ec => WriteProtocol::SpinTriec { interleave: true },
        }
    }
}

/// One generated write: its size, payload seed and the checksum of the
/// payload the reference model says it carries.
#[derive(Clone, Copy, Debug)]
struct WriteSpec {
    size: u32,
    seed: u64,
    checksum: u64,
}

impl WriteSpec {
    fn new(size: u32, seed: u64) -> WriteSpec {
        WriteSpec {
            size,
            seed,
            checksum: payload_checksum(&payload_bytes(seed, 0, size as usize)),
        }
    }
}

/// Every job of one sub-plan, generated once from its seed and replayed
/// by each repetition.
pub struct Plan {
    pub workload: Workload,
    /// Ingest: each client's writes. Degraded read: each client's
    /// prefill, block `b` at offset `b * BLOCK`.
    writes: Vec<Vec<WriteSpec>>,
    /// Degraded read: each client's measured-phase block indices.
    reads: Vec<Vec<u32>>,
    /// Namespace: each client's op mix.
    meta: Vec<MetaWorkload>,
    /// Each client's first op is issued this long after the measured
    /// phase starts (ps), so clients do not move in lockstep on the
    /// simulator's cost lattice.
    starts: Vec<u64>,
}

impl Plan {
    /// The shape of a workload (write sizes, per-client namespace
    /// shapes) is a fixed multiset drawn from `SHAPE_SEED`; `seed` draws
    /// its assignment to clients, the payloads and the read offsets. Every
    /// seed thus runs the same amount of work, in a different order.
    pub fn generate(workload: Workload, seed: u64) -> Plan {
        let mut shape = SplitMix::new(SHAPE_SEED);
        let mut rng = SplitMix::new(seed);
        let mut plan = Plan {
            workload,
            writes: Vec::new(),
            reads: Vec::new(),
            meta: Vec::new(),
            starts: Vec::new(),
        };
        match workload {
            Workload::Ingest => {
                let mut sizes: Vec<u32> = (0..INGEST_CLIENTS * INGEST_WRITES)
                    .map(|_| shape.log_uniform(INGEST_MIN, INGEST_MAX))
                    .collect();
                rng.shuffle(&mut sizes);
                plan.writes = sizes
                    .chunks(INGEST_WRITES)
                    .map(|c| {
                        c.iter()
                            .map(|&s| WriteSpec::new(s, rng.next_u64()))
                            .collect()
                    })
                    .collect();
            }
            Workload::DegradedRead => {
                plan.writes = (0..DR_CLIENTS)
                    .map(|_| {
                        (0..DR_BLOCKS)
                            .map(|_| WriteSpec::new(BLOCK, rng.next_u64()))
                            .collect()
                    })
                    .collect();
                plan.reads = (0..DR_CLIENTS)
                    .map(|_| {
                        (0..DR_READS)
                            .map(|_| rng.below(DR_BLOCKS as u64) as u32)
                            .collect()
                    })
                    .collect();
            }
            Workload::Namespace => {
                let mut shapes: Vec<(usize, usize, usize)> = (0..NS_CLIENTS)
                    .map(|_| {
                        let dirs = 4 + shape.below(9) as usize;
                        let files = 8 + shape.below(17) as usize;
                        (dirs, files, 32 + shape.below(129) as usize)
                    })
                    .collect();
                rng.shuffle(&mut shapes);
                plan.meta = shapes
                    .into_iter()
                    .map(|(dirs, files, storm)| {
                        MetaWorkload::new(NS_ROOT)
                            .with_dirs(dirs, files)
                            .with_storm(storm)
                            .with_seed(rng.next_u64())
                    })
                    .collect();
            }
        }
        plan.starts = (0..workload.clients())
            .map(|_| rng.below(START_SPREAD.ps()))
            .collect();
        plan
    }

    /// Ops of the measured phase.
    pub fn attempted(&self) -> u64 {
        match self.workload {
            Workload::Ingest => (INGEST_CLIENTS * INGEST_WRITES) as u64,
            Workload::DegradedRead => (DR_CLIENTS * DR_READS) as u64,
            Workload::Namespace => self.meta.iter().map(|m| m.ops_per_client() as u64).sum(),
        }
    }
}

/// Simulated outcome of one measured phase.
#[derive(Default)]
pub struct Tally {
    pub fingerprint: Fingerprint,
    /// Completions harvested (any status).
    pub done: u64,
    /// Completed with status Ok and output verified.
    pub ok: u64,
    /// Completed with status Ok but the output failed its check.
    pub wrong: u64,
    /// Latency of every verified op, in ps.
    pub lat_ps: Vec<u64>,
    /// Ingest: verified latencies by policy (index of [`Policy::ALL`]).
    pub by_policy: [Vec<u64>; 3],
    /// User bytes of verified ops.
    pub bytes: u64,
    /// Degraded read: reads that touched a lost stripe / came from cache.
    pub degraded: u64,
    pub from_cache: u64,
    first_start: Option<Time>,
    last_end: Time,
    /// Ingest: placements of verified writes, checked against storage
    /// memory after the phase.
    placed: Vec<(usize, usize, WritePlacement)>,
    /// Per-client count of harvested completions (their plan position:
    /// with window 1 a client's completions arrive in plan order).
    next: Vec<usize>,
}

impl Tally {
    fn record(&mut self, kind: u64, client: usize, start: Time, end: Time, status: u64) {
        for w in [kind, client as u64, start.ps(), end.ps(), status] {
            self.fingerprint.word(w);
        }
        self.done += 1;
        self.first_start = Some(self.first_start.map_or(start, |t| t.min(start)));
        self.last_end = self.last_end.max(end);
    }

    fn verified(&mut self, start: Time, end: Time, bytes: u64) -> u64 {
        let lat = end.since(start).ps();
        self.ok += 1;
        self.bytes += bytes;
        self.lat_ps.push(lat);
        lat
    }

    /// Simulated makespan of the measured phase, in seconds.
    pub fn makespan_s(&self) -> f64 {
        let t0 = self.first_start.unwrap_or(self.last_end);
        self.last_end.since(t0).ps() as f64 / 1e12
    }
}

fn status_code(s: Status) -> u64 {
    match s {
        Status::Ok => 0,
        Status::AuthFailed => 1,
        Status::Busy => 2,
        Status::Rejected => 3,
    }
}

/// One built cluster, ready for its measured phase.
pub struct Prepared {
    pub cl: SimCluster,
    /// Host CPU and wall seconds of cluster build, namespace creation,
    /// prefill and node failure.
    pub setup_cpu_s: f64,
    pub setup_wall_s: f64,
    /// Checks failed during set-up (prefill writes).
    pub setup_wrong: u64,
    files: Vec<u64>,
}

fn spec(traced: bool, n_clients: usize, n_storage: usize) -> ClusterSpec {
    let s = ClusterSpec::new(n_clients, n_storage, StorageMode::Spin).with_observability(traced);
    if traced {
        s.with_engine_profiling()
    } else {
        s
    }
}

/// Build the cluster and run the workload's set-up, timed.
pub fn prepare(plan: &Plan, traced: bool) -> Prepared {
    let timer = HostTimer::start();
    let mut setup_wrong = 0;
    let (cl, files) = match plan.workload {
        Workload::Ingest => {
            let cl = SimCluster::build(spec(traced, INGEST_CLIENTS, INGEST_NODES));
            let files = (0..INGEST_CLIENTS)
                .map(|i| {
                    let p = Policy::of_client(i).file_policy();
                    cl.control.borrow_mut().create_file(0, p).id
                })
                .collect();
            (cl, files)
        }
        Workload::DegradedRead => {
            let mut cl = SimCluster::build(spec(traced, DR_CLIENTS, DR_NODES));
            let files: Vec<u64> = (0..DR_CLIENTS)
                .map(|_| {
                    let p = Policy::Ec.file_policy();
                    cl.control.borrow_mut().create_file(0, p).id
                })
                .collect();
            for (c, blocks) in plan.writes.iter().enumerate() {
                for w in blocks {
                    cl.submit(c, write_job(files[c], Policy::Ec, w));
                }
            }
            cl.start();
            let n = DR_CLIENTS * DR_BLOCKS;
            cl.run_until_writes(n, SIM_DEADLINE_MS);
            let writes = std::mem::take(&mut cl.results.borrow_mut().writes);
            setup_wrong += (n - writes.len()) as u64;
            let mut next = [0usize; DR_CLIENTS];
            for w in &writes {
                let c = w.client;
                let b = next[c];
                next[c] += 1;
                let want = &plan.writes[c][b];
                let good = w.status == Status::Ok
                    && w.checksum == want.checksum
                    && w.placement.offset == b as u64 * BLOCK as u64;
                setup_wrong += u64::from(!good);
            }
            // Fail the node holding the first data chunk of client 0's
            // first block: about half of all stripes lose a data shard.
            let victim = writes
                .iter()
                .find(|w| w.client == 0 && w.placement.offset == 0)
                .and_then(|w| w.placement.data_chunks.first())
                .map_or(0, |c| c.node);
            cl.control.borrow_mut().mark_node_failed(victim);
            for rc in &cl.read_caches {
                rc.borrow_mut().clear();
            }
            (cl, files)
        }
        Workload::Namespace => {
            let cl =
                SimCluster::build(spec(traced, NS_CLIENTS, NS_NODES).with_meta_shards(NS_SHARDS));
            cl.control
                .borrow_mut()
                .mkdir_p(NS_ROOT, 0)
                .expect("fresh namespace root");
            (cl, Vec::new())
        }
    };
    let (setup_cpu_s, setup_wall_s) = timer.stop();
    Prepared {
        cl,
        setup_cpu_s,
        setup_wall_s,
        setup_wrong,
        files,
    }
}

fn write_job(file: u64, policy: Policy, w: &WriteSpec) -> Job {
    Job::Write {
        file,
        size: w.size,
        protocol: policy.protocol(),
        seed: w.seed,
    }
}

/// Queue the measured phase's jobs on every client.
pub fn submit(plan: &Plan, p: &Prepared) {
    let cl = &p.cl;
    match plan.workload {
        Workload::Ingest => {
            for (c, writes) in plan.writes.iter().enumerate() {
                for w in writes {
                    cl.submit(c, write_job(p.files[c], Policy::of_client(c), w));
                }
            }
        }
        Workload::DegradedRead => {
            for (c, blocks) in plan.reads.iter().enumerate() {
                for (i, &b) in blocks.iter().enumerate() {
                    cl.submit(
                        c,
                        Job::Read {
                            file: p.files[c],
                            offset: b as u64 * BLOCK as u64,
                            len: BLOCK,
                            protocol: ReadProtocol::Offloaded,
                            token: ((c as u64) << 32) | i as u64,
                            slot: None,
                        },
                    );
                }
            }
        }
        Workload::Namespace => {
            for (c, meta) in plan.meta.iter().enumerate() {
                for job in meta.jobs_for_client(c) {
                    cl.submit(c, job);
                }
            }
        }
    }
}

/// Take every completion out of the sink, check it against the plan,
/// fold it into the tally and drop it.
fn harvest(plan: &Plan, sink: &mut ResultSink, t: &mut Tally) {
    match plan.workload {
        Workload::Ingest => {
            for w in sink.writes.drain(..) {
                let c = w.client;
                let i = t.next[c];
                t.next[c] += 1;
                t.record(0, c, w.start, w.end, status_code(w.status));
                if w.status != Status::Ok {
                    continue;
                }
                let want = &plan.writes[c][i];
                if w.checksum != want.checksum || w.size != want.size {
                    t.wrong += 1;
                    continue;
                }
                let lat = t.verified(w.start, w.end, w.size as u64);
                t.by_policy[c % 3].push(lat);
                t.placed.push((c, i, w.placement));
            }
        }
        Workload::DegradedRead => {
            for r in sink.file_reads.drain(..) {
                let c = r.client;
                t.record(1, c, r.start, r.end, status_code(r.status));
                if r.status != Status::Ok {
                    continue;
                }
                let b = (r.offset / BLOCK as u64) as usize;
                let want = &plan.writes[c][b];
                let data_ok = r.data.len() == BLOCK as usize
                    && sample_offsets(r.data.len())
                        .all(|(o, n)| r.data[o..o + n] == payload_bytes(want.seed, o, n)[..]);
                if r.len != BLOCK
                    || r.offset % BLOCK as u64 != 0
                    || r.checksum != want.checksum
                    || !data_ok
                {
                    t.wrong += 1;
                    continue;
                }
                t.verified(r.start, r.end, r.len as u64);
                t.degraded += u64::from(r.degraded_stripes > 0);
                t.from_cache += u64::from(r.from_cache);
            }
        }
        Workload::Namespace => {
            for m in sink.metas.drain(..) {
                let status = match &m.result {
                    Ok(()) => 0,
                    Err(_) => 4,
                };
                t.record(2, m.client, m.start, m.end, status);
                if m.result.is_ok() {
                    t.verified(m.start, m.end, 0);
                }
            }
        }
    }
}

/// A measured phase's simulated outcome plus its host cost.
pub struct Phase {
    pub tally: Tally,
    pub cpu_s: f64,
    pub wall_s: f64,
}

/// Drive the engine in slices until every op completed, the event queue
/// drained, or the simulated deadline passed; harvest completions and
/// closed spans after every slice, folding the spans into `spans`.
pub fn measure(plan: &Plan, p: &mut Prepared, mut spans: Option<&mut PhaseAcc>) -> Phase {
    let expected = plan.attempted();
    let mut tally = Tally {
        next: vec![0; p.cl.client_nodes.len()],
        ..Tally::default()
    };
    let kind = match plan.workload {
        Workload::Ingest => OpKind::Write,
        Workload::DegradedRead => OpKind::Read,
        Workload::Namespace => OpKind::Meta,
    };
    // Set-up spans (the prefill) are not part of the measured phase.
    p.cl.obs.borrow_mut().spans.drain_closed();
    let cl = &mut p.cl;
    let deadline = cl.engine.now() + SIM_DEADLINE;
    let timer = HostTimer::start();
    // `SimCluster::start` kicks every client at once; kick each at its
    // own offset instead.
    let components = client_components(cl);
    for (&comp, &at) in components.iter().zip(&plan.starts) {
        cl.engine
            .schedule(Dur::from_ps(at), comp, Box::new(AppTimer { tag: KICK }));
    }
    loop {
        let target = (cl.engine.now() + SLICE).min(deadline);
        let drained = cl.engine.run_until(target);
        harvest(plan, &mut cl.results.borrow_mut(), &mut tally);
        let closed = cl.obs.borrow_mut().spans.drain_closed();
        if let Some(h) = spans.as_deref_mut() {
            h.absorb(closed, kind);
        }
        if tally.done >= expected || drained || cl.engine.now() >= deadline {
            break;
        }
    }
    let (cpu_s, wall_s) = timer.stop();
    Phase {
        tally,
        cpu_s,
        wall_s,
    }
}

/// Engine component of every client NIC, in client order (client `i` is
/// fabric node `i`, its NIC named `nic-<i>`).
fn client_components(cl: &SimCluster) -> Vec<ComponentId> {
    let n = 1 + cl.client_nodes.len() + cl.storage_nodes.len();
    let by_name: BTreeMap<String, ComponentId> = (0..n)
        .map(|id| (cl.engine.component(id).name(), id))
        .collect();
    cl.client_nodes
        .iter()
        .map(|node| by_name[&format!("nic-{node}")])
        .collect()
}

/// Post-phase checks of state the program left behind: stored bytes of
/// every verified ingest write, and the namespace listing of every
/// directory the namespace workload touched. Each failure moves one op
/// (ingest) or one directory (namespace) from verified to wrong.
pub fn check_state(plan: &Plan, p: &Prepared, t: &mut Tally) {
    let cl = &p.cl;
    let mut bad = 0;
    match plan.workload {
        Workload::Ingest => {
            for (c, i, pl) in std::mem::take(&mut t.placed) {
                let w = &plan.writes[c][i];
                let size = w.size as usize;
                // (node, addr, payload offset, length) of every stored copy.
                let copies: Vec<(u32, u64, usize, usize)> = match Policy::of_client(c) {
                    Policy::Plain => vec![(pl.primary.node, pl.primary.addr, 0, size)],
                    Policy::Replicated => pl
                        .replicas
                        .iter()
                        .map(|r| (r.node, r.addr, 0, size))
                        .collect(),
                    Policy::Ec => {
                        let chunk = pl.chunk_len as usize;
                        pl.data_chunks
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| k * chunk < size)
                            .map(|(k, d)| (d.node, d.addr, k * chunk, chunk.min(size - k * chunk)))
                            .collect()
                    }
                };
                let good = !copies.is_empty()
                    && copies.iter().all(|&(node, addr, off, len)| {
                        let mem = cl.storage_mems[cl.storage_index(node as usize)].borrow();
                        sample_offsets(len).all(|(o, n)| {
                            mem.read(addr + o as u64, n) == payload_bytes(w.seed, off + o, n)
                        })
                    });
                bad += u64::from(!good);
            }
        }
        Workload::DegradedRead => {}
        Workload::Namespace => {
            let want = expected_listing(&plan.meta);
            let control = cl.control.borrow();
            for (dir, names) in &want {
                let got: BTreeSet<String> = control
                    .meta
                    .ns
                    .readdir(dir)
                    .map(|v| v.into_iter().map(|(n, _)| n).collect())
                    .unwrap_or_default();
                if &got != names {
                    bad += 1;
                }
            }
        }
    }
    t.wrong += bad;
    t.ok -= bad.min(t.ok);
}

/// Directory listings the namespace jobs must leave behind, from a shadow
/// model that applies every generated op in order.
fn expected_listing(meta: &[MetaWorkload]) -> BTreeMap<String, BTreeSet<String>> {
    fn split(path: &str) -> (String, String) {
        let (d, n) = path.rsplit_once('/').expect("absolute path");
        (d.to_string(), n.to_string())
    }
    let mut dirs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (c, m) in meta.iter().enumerate() {
        for job in m.jobs_for_client(c) {
            let Job::Meta { op, .. } = job else { continue };
            match op {
                MetaOp::Mkdir { path } => {
                    dirs.entry(path).or_default();
                }
                MetaOp::Create { path, .. } => {
                    let (d, n) = split(&path);
                    dirs.entry(d).or_default().insert(n);
                }
                MetaOp::Rename { from, to } => {
                    let (fd, fname) = split(&from);
                    let (td, tname) = split(&to);
                    dirs.entry(fd).or_default().remove(&fname);
                    dirs.entry(td).or_default().insert(tname);
                }
                MetaOp::Unlink { path } => {
                    let (d, n) = split(&path);
                    dirs.entry(d).or_default().remove(&n);
                }
                MetaOp::Lookup { .. } | MetaOp::Readdir { .. } => {}
            }
        }
    }
    // A client's base directory lists its subdirectories.
    let subdirs: Vec<String> = dirs.keys().cloned().collect();
    for d in subdirs {
        let (parent, name) = split(&d);
        if let Some(e) = dirs.get_mut(&parent) {
            e.insert(name);
        }
    }
    dirs
}
