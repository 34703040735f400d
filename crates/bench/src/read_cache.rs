//! Client read-cache benchmark: `read_at` latency/throughput with the
//! generation-keyed cache + readahead on vs off, over the two read
//! patterns that matter for a cache — a sequential scan (readahead's
//! case) and a zipfian hot set (reuse's case).
//!
//! The uncached column pays the full pipeline per read: one control-plane
//! resolve plus the per-stripe fan-out of NIC-validated one-sided reads.
//! The cached column absorbs repeats and readahead-covered ranges in
//! client memory; the control-RPC ledger (`MetaOpStats::resolves`) shows
//! the round-trips that disappeared.

use nadfs_core::{
    ClusterSpec, FilePolicy, Job, ReadPattern, ReadProtocol, SimCluster, SizeDist, StorageMode,
    Workload, WriteProtocol,
};
use nadfs_wire::RsScheme;

use crate::report::{f, mean_p99, Table};

/// Reads per pattern (sequential = two full passes over the file).
const WRITES: usize = 64;
const BLOCK: u32 = 64 << 10;
const SEQ_READS: usize = 2 * WRITES;
const ZIPF_READS: usize = 256;

/// One (pattern, cache on/off) measurement.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    pub reads: usize,
    pub bytes: u64,
    pub mean_us: f64,
    pub p99_us: f64,
    /// Bytes served over the simulated span of the read phase.
    pub gbps: f64,
    /// Control-plane read resolves the phase cost.
    pub resolves: u64,
    pub hit_rate: f64,
    pub readahead_bytes: u64,
    /// Mean latency of the completions served from cache (0 when none
    /// were — e.g. the uncached baseline).
    pub hit_mean_us: f64,
}

/// Cached-vs-uncached comparison for one read pattern.
#[derive(Clone, Copy, Debug)]
pub struct PatternStats {
    pub pattern: &'static str,
    pub uncached: RunStats,
    pub cached: RunStats,
}

impl PatternStats {
    /// Mean-latency improvement of the cached run (misses, with their
    /// readahead overfetch, included).
    pub fn speedup(&self) -> f64 {
        if self.cached.mean_us > 0.0 {
            self.uncached.mean_us / self.cached.mean_us
        } else {
            0.0
        }
    }

    /// Latency improvement of a cache *hit* over the uncached path (the
    /// paper-style headline: what a hot read costs with and without the
    /// cache).
    pub fn hit_speedup(&self) -> f64 {
        if self.cached.hit_mean_us > 0.0 {
            self.uncached.mean_us / self.cached.hit_mean_us
        } else {
            0.0
        }
    }

    /// Fraction of per-read control round-trips the cache removed.
    pub fn rpc_reduction(&self) -> f64 {
        if self.uncached.resolves == 0 {
            0.0
        } else {
            1.0 - self.cached.resolves as f64 / self.uncached.resolves as f64
        }
    }
}

/// One uncached sequential scan of the EC file under one read protocol,
/// with the read-phase counter movement that proves *where* the work ran.
#[derive(Clone, Copy, Debug, Default)]
pub struct OffloadRun {
    pub reads: usize,
    pub bytes: u64,
    pub mean_us: f64,
    pub p99_us: f64,
    pub gbps: f64,
    /// Client-side stripe reconstructions (`reconstruct_into` on the
    /// host) during the read phase — must be 0 in the offloaded config.
    pub client_reconstructs: u64,
    /// Stripes rebuilt by storage-NIC EC engines during the read phase.
    pub nic_reconstructs: u64,
    /// Bytes pushed by gather responders (0 for the CPU fan-out).
    pub gather_bytes_streamed: u64,
}

/// CPU fan-out vs NIC gather streaming, healthy and degraded.
#[derive(Clone, Copy, Debug, Default)]
pub struct OffloadSection {
    pub cpu: OffloadRun,
    pub offloaded: OffloadRun,
    pub degraded_cpu: OffloadRun,
    pub degraded_offloaded: OffloadRun,
}

impl OffloadSection {
    /// Mean-latency win of gather streaming over the CPU fan-out on the
    /// healthy sequential scan.
    pub fn speedup(&self) -> f64 {
        if self.offloaded.mean_us > 0.0 {
            self.cpu.mean_us / self.offloaded.mean_us
        } else {
            0.0
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct ReadCacheReport {
    pub sections: Vec<PatternStats>,
    /// Read-side NIC offload: gather streaming vs client fan-out.
    pub offload: Option<OffloadSection>,
    /// `nadfs-metrics-v1` snapshot of the final cached run, embedded in
    /// the bench JSON so a regression diff carries the full component
    /// picture (cache counters, per-phase op latencies, engine totals).
    pub snapshot_json: String,
}

fn run_one(pattern: ReadPattern, reads: usize, cache_on: bool) -> (RunStats, String) {
    let spec = ClusterSpec::new(1, 4, StorageMode::Spin);
    let mut cl = SimCluster::build_with(spec, |app| app.read_cache_enabled = cache_on);
    let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
    let w = Workload::new(file.id, WriteProtocol::Spin, SizeDist::Fixed(BLOCK))
        .with_writes(WRITES)
        .with_reads(reads, ReadProtocol::Rdma)
        .with_read_pattern(pattern)
        .with_seed(0xCACE);
    for job in w.jobs_for_client(0) {
        cl.submit(0, job);
    }
    cl.start();
    assert_eq!(cl.run_until_writes(WRITES, 60_000), WRITES, "write phase");
    // Drop the write-through fills so the read phase measures the cache
    // from cold (miss → readahead → hit), not read-after-write reuse.
    cl.read_caches[0].borrow_mut().clear();
    assert_eq!(cl.run_until_file_reads(reads, 60_000), reads, "read phase");

    let (mean, p99, bytes, span_s, hit_mean) = {
        let results = cl.results.borrow();
        let mut us: Vec<f64> = results
            .file_reads
            .iter()
            .map(|r| r.end.since(r.start).ps() as f64 / 1e6)
            .collect();
        let (mean, p99) = mean_p99(&mut us);
        let bytes: u64 = results.file_reads.iter().map(|r| r.len as u64).sum();
        let t0 = results.file_reads.iter().map(|r| r.start).min().unwrap();
        let t1 = results.file_reads.iter().map(|r| r.end).max().unwrap();
        let hits_us: Vec<f64> = results
            .file_reads
            .iter()
            .filter(|r| r.from_cache)
            .map(|r| r.end.since(r.start).ps() as f64 / 1e6)
            .collect();
        let hit_mean = if hits_us.is_empty() {
            0.0
        } else {
            hits_us.iter().sum::<f64>() / hits_us.len() as f64
        };
        (mean, p99, bytes, t1.since(t0).ps() as f64 / 1e12, hit_mean)
    };
    let stats = cl.read_caches[0].borrow().stats;
    // Writes never call resolve_read, so the whole-run resolve count is
    // the read phase's control-RPC bill.
    let resolves = cl.control.borrow().meta.stats.resolves;
    let snapshot = cl.metrics_snapshot().to_json_indented(2);
    let run = RunStats {
        reads,
        bytes,
        mean_us: mean,
        p99_us: p99,
        gbps: bytes as f64 / span_s.max(1e-12) / 1e9,
        resolves,
        hit_rate: stats.hit_rate(),
        readahead_bytes: stats.readahead_bytes,
        hit_mean_us: hit_mean,
    };
    (run, snapshot)
}

/// One uncached sequential scan over an erasure-coded file under
/// `protocol`, optionally with a data node killed after the write phase.
/// The read-phase counter movement comes from a [`MetricsSnapshot`]
/// delta bracketing the reads, so write-phase noise cancels out.
fn run_offload(protocol: ReadProtocol, degraded: bool) -> OffloadRun {
    let scheme = RsScheme::new(3, 2);
    let spec = ClusterSpec::new(1, 6, StorageMode::Spin);
    // Uncached scans: the cache would hide where the read work runs.
    let mut cl = SimCluster::build_with(spec, |app| app.read_cache_enabled = false);
    let file = cl
        .control
        .borrow_mut()
        .create_file(0, FilePolicy::ErasureCoded { scheme });
    let w = Workload::new(
        file.id,
        WriteProtocol::SpinTriec { interleave: true },
        SizeDist::Fixed(BLOCK),
    )
    .with_writes(WRITES)
    .with_reads(WRITES, protocol)
    .with_read_pattern(ReadPattern::Sequential)
    .with_seed(0x0FF1);
    // Two-phase submission: queueing everything up front would let the
    // client's issue window race the scan's first reads against the tail
    // writes (legal zero-filled holes — but they'd dodge the gather path
    // and skew the comparison).
    let (writes, reads): (Vec<Job>, Vec<Job>) = w
        .jobs_for_client(0)
        .into_iter()
        .partition(|j| matches!(j, Job::Write { .. }));
    for job in writes {
        cl.submit(0, job);
    }
    cl.start();
    assert_eq!(cl.run_until_writes(WRITES, 60_000), WRITES, "write phase");
    if degraded {
        let victim = cl.results.borrow().writes[0].placement.data_chunks[0].node;
        cl.control.borrow_mut().mark_node_failed(victim);
    }
    let before = cl.metrics_snapshot();
    for job in reads {
        cl.submit(0, job);
    }
    cl.start();
    assert_eq!(
        cl.run_until_file_reads(WRITES, 60_000),
        WRITES,
        "read phase"
    );
    let delta = cl.metrics_snapshot().delta(&before);

    let (mean, p99, bytes, span_s) = {
        let results = cl.results.borrow();
        let mut us: Vec<f64> = results
            .file_reads
            .iter()
            .map(|r| r.end.since(r.start).ps() as f64 / 1e6)
            .collect();
        let (mean, p99) = mean_p99(&mut us);
        let bytes: u64 = results.file_reads.iter().map(|r| r.len as u64).sum();
        let t0 = results.file_reads.iter().map(|r| r.start).min().unwrap();
        let t1 = results.file_reads.iter().map(|r| r.end).max().unwrap();
        (mean, p99, bytes, t1.since(t0).ps() as f64 / 1e12)
    };
    let nic_sum = |suffix: &str| -> u64 {
        (0..6)
            .filter_map(|i| delta.counter(&format!("nic.{i}.gather.{suffix}")))
            .sum()
    };
    OffloadRun {
        reads: WRITES,
        bytes,
        mean_us: mean,
        p99_us: p99,
        gbps: bytes as f64 / span_s.max(1e-12) / 1e9,
        client_reconstructs: delta
            .counter("client.0.read.reconstructed_stripes")
            .unwrap_or(0),
        nic_reconstructs: nic_sum("chunks_reconstructed"),
        gather_bytes_streamed: nic_sum("bytes_streamed"),
    }
}

fn run_offload_section() -> OffloadSection {
    OffloadSection {
        cpu: run_offload(ReadProtocol::Rpc, false),
        offloaded: run_offload(ReadProtocol::Offloaded, false),
        degraded_cpu: run_offload(ReadProtocol::Rdma, true),
        degraded_offloaded: run_offload(ReadProtocol::Offloaded, true),
    }
}

fn run_pattern(name: &'static str, pattern: ReadPattern, reads: usize) -> (PatternStats, String) {
    let (uncached, _) = run_one(pattern, reads, false);
    let (cached, snapshot) = run_one(pattern, reads, true);
    (
        PatternStats {
            pattern: name,
            uncached,
            cached,
        },
        snapshot,
    )
}

pub fn run() -> ReadCacheReport {
    let (seq, _) = run_pattern("sequential", ReadPattern::Sequential, SEQ_READS);
    let (zipf, snapshot_json) = run_pattern(
        "zipfian",
        ReadPattern::Zipfian { exponent: 2.0 },
        ZIPF_READS,
    );
    ReadCacheReport {
        sections: vec![seq, zipf],
        offload: Some(run_offload_section()),
        snapshot_json,
    }
}

pub fn render(r: &ReadCacheReport) -> String {
    let mut t = Table::new(
        "read_cache — client read cache + readahead, off/on (64 KiB reads)",
        &[
            "pattern",
            "reads",
            "uncached mean us",
            "uncached GB/s",
            "cached mean us",
            "cached GB/s",
            "speedup",
            "hit mean us",
            "hit speedup",
            "hit rate",
            "resolve RPCs off/on",
        ],
    );
    for s in &r.sections {
        t.row(vec![
            s.pattern.to_string(),
            s.uncached.reads.to_string(),
            f(s.uncached.mean_us),
            f(s.uncached.gbps),
            f(s.cached.mean_us),
            f(s.cached.gbps),
            format!("{:.1}x", s.speedup()),
            f(s.cached.hit_mean_us),
            format!("{:.1}x", s.hit_speedup()),
            format!("{:.0}%", s.cached.hit_rate * 100.0),
            format!(
                "{}/{} (-{:.0}%)",
                s.uncached.resolves,
                s.cached.resolves,
                s.rpc_reduction() * 100.0
            ),
        ]);
    }
    t.note(format!(
        "file: {} MiB striped workload; sequential = two full passes; \
         zipfian exponent 2.0 (hot prefix)",
        (WRITES as u32 * BLOCK) >> 20
    ));
    t.note(
        "cache hits skip the control-plane resolve AND the per-stripe \
         fan-out; misses overfetch a ramping readahead window on \
         sequential streams",
    );
    let mut out = t.render();
    if let Some(o) = &r.offload {
        let mut t2 = Table::new(
            "offloaded_read — NIC gather streaming vs CPU fan-out \
             (uncached sequential scan, EC 3+2)",
            &[
                "config",
                "mean us",
                "p99 us",
                "GB/s",
                "client reconstructs",
                "NIC reconstructs",
                "gather bytes",
            ],
        );
        for (name, run) in [
            ("cpu fan-out", &o.cpu),
            ("offloaded", &o.offloaded),
            ("degraded cpu", &o.degraded_cpu),
            ("degraded offloaded", &o.degraded_offloaded),
        ] {
            t2.row(vec![
                name.to_string(),
                f(run.mean_us),
                f(run.p99_us),
                f(run.gbps),
                run.client_reconstructs.to_string(),
                run.nic_reconstructs.to_string(),
                run.gather_bytes_streamed.to_string(),
            ]);
        }
        t2.note(format!(
            "gather streaming is {:.1}x the CPU fan-out's mean latency; \
             degraded offloaded reads reconstruct on the storage NIC's EC \
             engine (client reconstructs = 0)",
            o.speedup()
        ));
        out.push('\n');
        out.push_str(&t2.render());
    }
    out
}

pub fn to_json(r: &ReadCacheReport) -> String {
    let mut s = String::from("{\n  \"bench\": \"read_cache\",\n  \"sections\": [\n");
    for (i, p) in r.sections.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"pattern\": \"{}\", \"reads\": {}, \
             \"uncached_mean_us\": {:.3}, \"uncached_p99_us\": {:.3}, \"uncached_gbps\": {:.3}, \
             \"cached_mean_us\": {:.3}, \"cached_p99_us\": {:.3}, \"cached_gbps\": {:.3}, \
             \"speedup\": {:.2}, \"hit_mean_us\": {:.3}, \"hit_speedup\": {:.2}, \"hit_rate\": {:.4}, \
             \"resolves_uncached\": {}, \"resolves_cached\": {}, \"rpc_reduction\": {:.4}, \
             \"readahead_bytes\": {}}}{}\n",
            p.pattern,
            p.uncached.reads,
            p.uncached.mean_us,
            p.uncached.p99_us,
            p.uncached.gbps,
            p.cached.mean_us,
            p.cached.p99_us,
            p.cached.gbps,
            p.speedup(),
            p.cached.hit_mean_us,
            p.hit_speedup(),
            p.cached.hit_rate,
            p.uncached.resolves,
            p.cached.resolves,
            p.rpc_reduction(),
            p.cached.readahead_bytes,
            if i + 1 < r.sections.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    if let Some(o) = &r.offload {
        let run = |name: &str, x: &OffloadRun, last: bool| {
            format!(
                "    \"{}\": {{\"reads\": {}, \"bytes\": {}, \"mean_us\": {:.3}, \
                 \"p99_us\": {:.3}, \"gbps\": {:.3}, \"client_reconstructs\": {}, \
                 \"nic_reconstructs\": {}, \"gather_bytes_streamed\": {}}}{}\n",
                name,
                x.reads,
                x.bytes,
                x.mean_us,
                x.p99_us,
                x.gbps,
                x.client_reconstructs,
                x.nic_reconstructs,
                x.gather_bytes_streamed,
                if last { "" } else { "," }
            )
        };
        s.push_str("  \"offloaded_read\": {\n");
        s.push_str(&format!("    \"speedup\": {:.2},\n", o.speedup()));
        s.push_str(&run("cpu_fanout", &o.cpu, false));
        s.push_str(&run("offloaded", &o.offloaded, false));
        s.push_str(&run("degraded_cpu_fanout", &o.degraded_cpu, false));
        s.push_str(&run("degraded_offloaded", &o.degraded_offloaded, true));
        s.push_str("  },\n");
    }
    if r.snapshot_json.is_empty() {
        s.push_str("  \"metrics_snapshot\": null\n");
    } else {
        s.push_str(&format!("  \"metrics_snapshot\": {}\n", r.snapshot_json));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance bar, asserted deterministically (simulated
    /// time): ≥5x mean-latency improvement and a measured control-RPC
    /// reduction for cache-hit sequential reads, with a steady-state hit
    /// rate high enough that regressions fail this test.
    #[test]
    fn sequential_cache_hits_are_5x_and_shed_control_rpcs() {
        let (s, snapshot) = run_pattern("sequential", ReadPattern::Sequential, SEQ_READS);
        assert!(
            snapshot.contains("nadfs-metrics-v1"),
            "cached run produced no metrics snapshot"
        );
        assert!(
            s.hit_speedup() >= 5.0,
            "cache-hit speedup {:.1}x < 5x (uncached {:.1}us, hit {:.1}us)",
            s.hit_speedup(),
            s.uncached.mean_us,
            s.cached.hit_mean_us
        );
        assert!(
            s.speedup() >= 1.5 && s.cached.gbps > s.uncached.gbps * 2.0,
            "whole-stream improvement regressed: {:.1}x latency, {:.1} vs {:.1} GB/s",
            s.speedup(),
            s.cached.gbps,
            s.uncached.gbps
        );
        assert!(
            s.cached.hit_rate >= 0.8,
            "steady-state hit rate regressed: {:.2}",
            s.cached.hit_rate
        );
        assert_eq!(
            s.uncached.resolves, s.uncached.reads as u64,
            "uncached baseline resolves once per read"
        );
        assert!(
            s.cached.resolves < s.uncached.resolves / 4,
            "control-RPC reduction regressed: {}/{}",
            s.cached.resolves,
            s.uncached.resolves
        );
        assert!(s.cached.readahead_bytes > 0, "readahead never fired");
    }

    /// The read-offload acceptance bar: gather streaming beats the CPU
    /// fan-out on an uncached sequential scan, and in the offloaded
    /// degraded config every reconstruction runs on a storage NIC's EC
    /// engine — the client's `reconstruct_into` count stays at zero
    /// (proved via the read-phase metrics-snapshot delta).
    #[test]
    fn offloaded_streaming_beats_cpu_fanout_and_moves_reconstruction_to_the_nic() {
        let o = run_offload_section();
        assert!(
            o.speedup() > 1.0,
            "gather streaming lost to the CPU fan-out: {:.1}us vs {:.1}us",
            o.offloaded.mean_us,
            o.cpu.mean_us
        );
        assert_eq!(o.cpu.bytes, o.offloaded.bytes, "both scans read the file");
        assert!(
            o.offloaded.gather_bytes_streamed >= o.offloaded.bytes,
            "the whole scan must stream through gather responders"
        );
        assert_eq!(
            o.offloaded.client_reconstructs, 0,
            "healthy offloaded scan reconstructed on the client"
        );
        // Degraded configs: the CPU baseline reconstructs on the client,
        // the offloaded one exclusively on the NIC.
        assert!(
            o.degraded_cpu.client_reconstructs > 0,
            "degraded CPU baseline never exercised client reconstruction"
        );
        assert_eq!(
            o.degraded_offloaded.client_reconstructs, 0,
            "offloaded config must never invoke client-side reconstruct_into"
        );
        assert!(
            o.degraded_offloaded.nic_reconstructs > 0,
            "offloaded degraded scan never reached the NIC EC engine"
        );
        assert_eq!(
            o.degraded_cpu.bytes, o.degraded_offloaded.bytes,
            "degraded scans served identical volume"
        );
    }

    #[test]
    fn zipfian_hot_set_hits_and_renders() {
        let (s, snapshot_json) = run_pattern(
            "zipfian",
            ReadPattern::Zipfian { exponent: 2.0 },
            ZIPF_READS,
        );
        assert!(
            s.cached.hit_rate > 0.4,
            "hot set missed: {}",
            s.cached.hit_rate
        );
        assert!(s.speedup() > 1.0);
        let report = ReadCacheReport {
            sections: vec![s],
            offload: None,
            snapshot_json,
        };
        let out = render(&report);
        assert!(out.contains("zipfian"));
        assert!(out.contains("hit rate"));
        let json = to_json(&report);
        assert!(json.contains("\"bench\": \"read_cache\""));
        assert!(json.contains("\"hit_rate\""));
        // The whole BENCH_*.json document — snapshot embedded — must
        // parse, and the embedded snapshot must carry the pinned schema.
        let v = nadfs_simnet::telemetry::json::parse(&json).expect("bench JSON parses");
        let snap = v.get("metrics_snapshot").expect("snapshot embedded");
        assert_eq!(
            snap.get("schema")
                .and_then(nadfs_simnet::telemetry::json::Json::as_str),
            Some(nadfs_simnet::SNAPSHOT_SCHEMA)
        );
    }
}
