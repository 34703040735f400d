//! Per-layer numbers of traced measured phases, read from instruments
//! the program already has: `Engine::profiles()` for host time by
//! component, closed `OpSpan`s for the simulated-time phase split, and
//! `SimCluster::metrics_snapshot()` counters for work done per layer.
//! Sums are pooled over the traced repetitions of a run's first pass.

use std::collections::BTreeMap;

use nadfs_core::SimCluster;
use nadfs_simnet::{ComponentProfile, MetricsSnapshot, OpKind, OpSpan};

use crate::measure::{pct, ratio, sampler, us};
use crate::work::{Policy, Tally, Workload};

/// Counters and engine profiles captured at the start of the measured
/// phase, so set-up work (the degraded_read prefill) cancels out.
pub struct Before {
    snap: MetricsSnapshot,
    profiles: Vec<ComponentProfile>,
    events: u64,
}

impl Before {
    pub fn capture(cl: &SimCluster) -> Before {
        Before {
            snap: cl.metrics_snapshot(),
            profiles: cl.engine.profiles().to_vec(),
            events: cl.engine.events_dispatched(),
        }
    }
}

/// Phases reported per op kind (span mark names), in the order ops pass
/// them.
const WRITE_PHASES: [&str; 6] = [
    "queued",
    "fanned-out",
    "nic-validated",
    "nic-pkt",
    "committed",
    "completed",
];
const READ_PHASES: [&str; 9] = [
    "resolved",
    "fanned-out",
    "nic-validated",
    "gathered",
    "nic-reconstructed",
    "streamed",
    "reassembled",
    "degraded",
    "completed",
];

/// Exact per-phase durations of every span of the measured op kind: for
/// each span, the summed duration of each phase (0 when the span lacks
/// it), so phase means add up to the mean end-to-end latency.
#[derive(Default)]
pub struct PhaseAcc {
    spans: usize,
    e2e_us: Vec<f64>,
    per: BTreeMap<&'static str, Vec<f64>>,
}

impl PhaseAcc {
    pub fn absorb(&mut self, spans: Vec<OpSpan>, kind: OpKind) {
        // Background readahead fills carry read spans of their own; they
        // are not reads a client asked for.
        for s in spans
            .iter()
            .filter(|s| s.kind == kind && !s.label.starts_with("readahead"))
        {
            for (name, d) in s.phase_durations() {
                let v = self.per.entry(name).or_default();
                v.resize(self.spans + 1, 0.0);
                v[self.spans] += us(d.ps());
            }
            self.spans += 1;
            self.e2e_us.push(us(s.e2e().ps()));
        }
    }

    /// Phase name -> (mean us, p99 us) over every span.
    pub fn stats(&self) -> BTreeMap<&'static str, (f64, f64)> {
        self.per
            .iter()
            .map(|(&name, v)| {
                let mut v = v.clone();
                v.resize(self.spans, 0.0);
                let s = sampler(v);
                (name, (s.mean(), pct(&s, 99.0)))
            })
            .collect()
    }

    pub fn spans(&self) -> usize {
        self.spans
    }

    pub fn e2e_mean_us(&self) -> f64 {
        sampler(self.e2e_us.iter().copied()).mean()
    }
}

/// Host nanoseconds and dispatches of one component class.
#[derive(Default, Clone, Copy)]
struct HostSplit {
    ns: f64,
    dispatches: f64,
}

impl HostSplit {
    fn add(&mut self, now: &ComponentProfile, before: Option<&ComponentProfile>) {
        let (d0, b0) = before.map_or((0, 0), |p| (p.dispatches, p.busy_host_ns));
        self.ns += now.busy_host_ns.saturating_sub(b0) as f64;
        self.dispatches += now.dispatches.saturating_sub(d0) as f64;
    }
}

const CLIENT: usize = 0;
const STORAGE: usize = 1;
const FABRIC: usize = 2;
const ALL: usize = 3;

/// Counter sums taken per phase: (key, name prefix, name suffix).
const SUMS: [(&str, &str, &str); 15] = [
    ("switch_holds", "fabric.switch_holds", ""),
    ("local_stalls", "flow.local_stalls", ""),
    ("remote_stalls", "flow.remote_stalls", ""),
    ("msgs_denied", "pspin.", ".msgs_denied"),
    ("remote_fetches", "nic.", ".gather.remote_fetches"),
    ("reconstructs", "nic.", ".gather.chunks_reconstructed"),
    ("rc_hits", "client.", ".read_cache.hits"),
    ("rc_misses", "client.", ".read_cache.misses"),
    ("rc_evictions", "client.", ".read_cache.evictions"),
    ("rc_readahead", "client.", ".read_cache.readahead_bytes"),
    ("shard_wait_ps", "meta.shard.", ".queue_wait_ps"),
    ("cross_shard", "meta.shard.", ".cross_shard_txns"),
    ("mc_hits", "client.", ".meta_cache.hits"),
    ("mc_misses", "client.", ".meta_cache.misses"),
    ("mc_invalidations", "client.", ".meta_cache.invalidations"),
];

/// Values of every entry named `<prefix>*<suffix>`.
fn matching<'a>(
    entries: &'a [(String, f64)],
    prefix: &'a str,
    suffix: &'a str,
) -> impl Iterator<Item = f64> + 'a {
    entries
        .iter()
        .filter(move |(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
        .map(|&(_, v)| v)
}

/// Per-layer sums pooled over the traced repetitions of a run.
#[derive(Default)]
pub struct LayerAcc {
    ops: f64,
    events: f64,
    host: [HostSplit; 4],
    sums: BTreeMap<&'static str, f64>,
    hosted_bytes: f64,
    user_bytes: f64,
    degraded: f64,
    shard_ops: Vec<f64>,
    oplog_max: f64,
    descriptor_peak: f64,
    spans_dropped: f64,
    by_policy: [Vec<u64>; 3],
    pub phases: PhaseAcc,
}

impl LayerAcc {
    /// Fold one traced measured phase in.
    pub fn absorb(&mut self, cl: &SimCluster, before: &Before, t: &Tally) {
        let after = cl.metrics_snapshot();
        let d = after.delta(&before.snap);
        let dc: Vec<(String, f64)> = d
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), *v as f64))
            .collect();
        self.ops += t.done as f64;
        self.events += (cl.engine.events_dispatched() - before.events) as f64;
        for (i, p) in cl.engine.profiles().iter().enumerate() {
            let prev = before.profiles.get(i);
            let node = p.name.strip_prefix("nic-").and_then(|n| n.parse().ok());
            let class = if p.name == "fabric" {
                Some(FABRIC)
            } else if node.is_some_and(|n| cl.client_nodes.contains(&n)) {
                Some(CLIENT)
            } else if node.is_some_and(|n| cl.storage_nodes.contains(&n)) {
                Some(STORAGE)
            } else {
                None
            };
            if let Some(c) = class {
                self.host[c].add(p, prev);
            }
            self.host[ALL].add(p, prev);
        }
        for (key, prefix, suffix) in SUMS {
            *self.sums.entry(key).or_default() += matching(&dc, prefix, suffix).sum::<f64>();
        }
        let hosted =
            |s: &MetricsSnapshot| matching(&s.gauges, "storage.", ".bytes_hosted").sum::<f64>();
        self.hosted_bytes += hosted(&after) - hosted(&before.snap);
        self.user_bytes += t.bytes as f64;
        self.degraded += t.degraded as f64;
        self.shard_ops.resize(cl.spec.meta_shards, 0.0);
        for (i, v) in self.shard_ops.iter_mut().enumerate() {
            *v += d.counter(&format!("meta.shard.{i}.ops")).unwrap_or(0) as f64;
        }
        let oplog = matching(&after.gauges, "meta.shard.", ".log_len").fold(0.0, f64::max);
        self.oplog_max = self.oplog_max.max(oplog);
        let peak = cl
            .pspin_telemetry
            .iter()
            .flatten()
            .map(|t| t.borrow().descriptor_peak_bytes)
            .max()
            .unwrap_or(0);
        self.descriptor_peak = self.descriptor_peak.max(peak as f64);
        self.spans_dropped += cl.obs.borrow().spans.dropped() as f64;
        for (acc, v) in self.by_policy.iter_mut().zip(&t.by_policy) {
            acc.extend_from_slice(v);
        }
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn spans_dropped(&self) -> f64 {
        self.spans_dropped
    }

    /// Every per-layer metric by its `BENCHMARK.json` name, with its unit.
    /// A metric of a layer the workload does not load reads 0.
    pub fn metrics(&self, w: Workload) -> Vec<(String, f64, &'static str)> {
        let ops = self.ops;
        // Op counts that are 0 outside the workload a metric is for.
        let only = |on: Workload| if w == on { ops } else { 0.0 };
        let (write_ops, read_ops, meta_ops) = (
            only(Workload::Ingest),
            only(Workload::DegradedRead),
            only(Workload::Namespace),
        );
        let (is_write, is_read, is_meta) = (
            f64::from(write_ops > 0.0),
            f64::from(read_ops > 0.0),
            f64::from(meta_ops > 0.0),
        );
        let h = &self.host;
        let mut m: Vec<(String, f64, &'static str)> = Vec::new();
        let mut put = |name: &str, v: f64, unit: &'static str| {
            m.push((name.to_string(), if v.is_finite() { v } else { 0.0 }, unit));
        };

        put("engine.events_per_op", ratio(self.events, ops), "count");
        put(
            "engine.host_ns_per_event",
            ratio(h[ALL].ns, h[ALL].dispatches),
            "ns",
        );
        put(
            "fabric.host_ns_per_dispatch",
            ratio(h[FABRIC].ns, h[FABRIC].dispatches),
            "ns",
        );
        put(
            "fabric.switch_holds_per_op",
            ratio(self.sum("switch_holds"), ops),
            "count",
        );
        let stalls = self.sum("local_stalls") + self.sum("remote_stalls");
        put("flow.stalls_per_op", ratio(stalls, ops), "count");
        put("client.host_ns_per_op", ratio(h[CLIENT].ns, ops), "ns");
        put("storage.host_ns_per_op", ratio(h[STORAGE].ns, ops), "ns");

        let phases = self.phases.stats();
        for (kind, names, on) in [
            ("write", &WRITE_PHASES[..], is_write),
            ("read", &READ_PHASES[..], is_read),
        ] {
            for name in names {
                let (mu, p99) = phases.get(name).copied().unwrap_or_default();
                put(&format!("{kind}.{name}_us"), mu * on, "us");
                put(&format!("{kind}.{name}_p99_us"), p99 * on, "us");
            }
        }
        for (p, lat) in Policy::ALL.iter().zip(&self.by_policy) {
            let v = pct(&sampler(lat.iter().map(|&p| us(p))), 50.0);
            put(&format!("write_p50_us.{}", p.name()), v, "us");
        }

        put("pspin.msgs_denied", self.sum("msgs_denied"), "count");
        put(
            "pspin.descriptor_peak_bytes",
            self.descriptor_peak * is_write,
            "bytes",
        );
        put(
            "storage.bytes_per_user_byte",
            ratio(self.hosted_bytes, self.user_bytes) * is_write,
            "ratio",
        );

        put(
            "gather.remote_fetches_per_read",
            ratio(self.sum("remote_fetches"), read_ops),
            "count",
        );
        put(
            "gather.reconstructs_per_read",
            ratio(self.sum("reconstructs"), read_ops),
            "count",
        );
        put(
            "read.degraded_frac",
            ratio(self.degraded, read_ops),
            "ratio",
        );
        let (hits, misses) = (self.sum("rc_hits"), self.sum("rc_misses"));
        put(
            "read_cache.hit_ratio",
            ratio(hits, hits + misses) * is_read,
            "ratio",
        );
        put(
            "read_cache.evictions_per_read",
            ratio(self.sum("rc_evictions"), read_ops),
            "count",
        );
        put(
            "read_cache.readahead_bytes_per_read",
            ratio(self.sum("rc_readahead"), read_ops),
            "bytes",
        );

        put(
            "control.shard_wait_us_per_op",
            ratio(self.sum("shard_wait_ps") / 1e6, meta_ops),
            "us",
        );
        let lo = self.shard_ops.iter().copied().fold(f64::MAX, f64::min);
        let hi = self.shard_ops.iter().copied().fold(0.0, f64::max);
        put("control.shard_balance", ratio(lo, hi) * is_meta, "ratio");
        put(
            "control.cross_shard_txns_per_op",
            ratio(self.sum("cross_shard"), meta_ops),
            "count",
        );
        put("control.oplog_len_max", self.oplog_max * is_meta, "count");
        let (mh, mm) = (self.sum("mc_hits"), self.sum("mc_misses"));
        put(
            "meta_cache.hit_ratio",
            ratio(mh, mh + mm) * is_meta,
            "ratio",
        );
        put(
            "meta_cache.invalidations_per_op",
            ratio(self.sum("mc_invalidations"), meta_ops),
            "count",
        );
        put("spans.dropped", self.spans_dropped, "count");
        m
    }
}
