//! Metadata-shard scaling benchmark.
//!
//! Drives the [`nadfs_core::MetaWorkload`] dir-op mix plus stat storm
//! through the simulated cluster at 1 → 2 → 4 → 8 metadata shards with
//! the client cache disabled, so every op lands on the control plane
//! and queues behind its shard's single-server admission point. The
//! headline is shard scaling: with enough client concurrency the
//! single-shard plane saturates at the mutation service rate, and the
//! sharded planes peel the queue apart — dir-op throughput must grow
//! monotonically with the shard count and clear 2x at 4 shards.
//!
//! Also reported per point: resolve (stat-storm) throughput, the mean
//! admission wait each routed op ate, 2PC cross-shard transactions
//! (unlinks and cross-directory renames), and the per-shard mutation
//! balance min/max — a routing-quality check on the splitmix ino hash.

use nadfs_core::{ClusterSpec, LayoutSpec, MetaOpKind, MetaWorkload, SimCluster, StorageMode};

use crate::report::{f, mean_p99, Table};

const MUTATIONS: [MetaOpKind; 4] = [
    MetaOpKind::Mkdir,
    MetaOpKind::Create,
    MetaOpKind::Rename,
    MetaOpKind::Unlink,
];
const RESOLVES: [MetaOpKind; 2] = [MetaOpKind::Lookup, MetaOpKind::Readdir];

/// One point on the shard-scaling curve.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardPoint {
    pub shards: usize,
    pub clients: usize,
    /// Completed mutations (mkdir/create/rename/unlink).
    pub dir_ops: usize,
    /// Completed resolves (lookup/readdir).
    pub resolves: usize,
    /// Mutations per simulated second over the mutation span.
    pub dir_ops_per_sec: f64,
    /// Resolves per simulated second over the resolve span.
    pub resolves_per_sec: f64,
    pub mutation_mean_us: f64,
    pub mutation_p99_us: f64,
    /// Mean shard-admission wait per routed op (queue_wait / ops), us.
    pub queue_wait_us_per_op: f64,
    /// Two-phase cross-shard transactions coordinated.
    pub cross_shard_txns: u64,
    /// min/max per-shard mutation count: 1.0 = perfectly balanced
    /// routing, 0 = at least one shard sat idle.
    pub balance: f64,
}

#[derive(Clone, Debug, Default)]
pub struct MetaShardReport {
    pub points: Vec<ShardPoint>,
    /// Dir-op throughput at 4 shards over 1 shard (0 if either point is
    /// missing) — the acceptance headline.
    pub speedup_at_4: f64,
    /// `nadfs-metrics-v1` snapshot of the largest-shard run (the
    /// `meta.shard.N.*` counters included) for regression diffs.
    pub snapshot_json: String,
}

/// Workload knobs, full vs CI-smoke sized.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub shard_points: Vec<usize>,
    pub clients: usize,
    pub dirs: usize,
    pub files_per_dir: usize,
    pub storm: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            shard_points: vec![1, 2, 4, 8],
            clients: 32,
            dirs: 4,
            files_per_dir: 16,
            storm: 96,
        }
    }

    /// CI smoke: keeps the 1-vs-4 headline, small enough for a test job.
    pub fn smoke() -> Sizes {
        Sizes {
            shard_points: vec![1, 4],
            clients: 16,
            dirs: 4,
            files_per_dir: 8,
            storm: 32,
        }
    }
}

/// Throughput of `kinds` ops over their own first-start..last-end span.
fn phase_rate(results: &nadfs_core::ResultSink, kinds: &[MetaOpKind]) -> (usize, f64, Vec<f64>) {
    let mine: Vec<_> = results
        .metas
        .iter()
        .filter(|m| kinds.contains(&m.op))
        .collect();
    if mine.is_empty() {
        return (0, 0.0, Vec::new());
    }
    let t0 = mine.iter().map(|m| m.start).min().unwrap();
    let t1 = mine.iter().map(|m| m.end).max().unwrap();
    let span_s = t1.since(t0).ps() as f64 / 1e12;
    let us: Vec<f64> = mine
        .iter()
        .map(|m| m.end.since(m.start).ps() as f64 / 1e6)
        .collect();
    (mine.len(), mine.len() as f64 / span_s.max(1e-12), us)
}

/// One scaling point: the full dir-op mix against `shards` shards.
fn run_point(shards: usize, sizes: &Sizes) -> (ShardPoint, String) {
    let spec = ClusterSpec::new(sizes.clients, 4, StorageMode::Plain).with_meta_shards(shards);
    let mut cl = SimCluster::build_with(spec, |app| {
        // Cache off: every lookup round-trips and queues on its shard —
        // the bench measures the plane, not the client cache.
        app.cache_enabled = false;
        app.bulk_meta_spans = true;
    });
    let w = MetaWorkload::new("/bench")
        .with_dirs(sizes.dirs, sizes.files_per_dir)
        .with_storm(sizes.storm)
        .with_layout(LayoutSpec::striped(2, 64 << 10))
        .with_seed(7);
    w.prepare(&cl.control);
    let mut n = 0;
    for c in 0..sizes.clients {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
            n += 1;
        }
    }
    cl.start();
    let done = cl.run_until_metas(n, 600_000);
    assert_eq!(done, n, "metadata storm must complete");

    let (dir_ops, dir_rate, mut mut_us, resolves, res_rate) = {
        let results = cl.results.borrow();
        assert!(
            results.metas.iter().all(|m| m.result.is_ok()),
            "the dir-op mix must not fail"
        );
        let (dir_ops, dir_rate, mut_us) = phase_rate(&results, &MUTATIONS);
        let (resolves, res_rate, _) = phase_rate(&results, &RESOLVES);
        (dir_ops, dir_rate, mut_us, resolves, res_rate)
    };
    let (mean, p99) = mean_p99(&mut mut_us);

    let stats = cl.control.borrow().shard_stats();
    let ops: u64 = stats.iter().map(|s| s.ops).sum();
    let wait_ps: u64 = stats.iter().map(|s| s.queue_wait_ps).sum();
    let txns: u64 = stats.iter().map(|s| s.cross_shard_txns).sum();
    let muts_min = stats.iter().map(|s| s.mutations).min().unwrap_or(0);
    let muts_max = stats.iter().map(|s| s.mutations).max().unwrap_or(0);
    let point = ShardPoint {
        shards,
        clients: sizes.clients,
        dir_ops,
        resolves,
        dir_ops_per_sec: dir_rate,
        resolves_per_sec: res_rate,
        mutation_mean_us: mean,
        mutation_p99_us: p99,
        queue_wait_us_per_op: wait_ps as f64 / ops.max(1) as f64 / 1e6,
        cross_shard_txns: txns,
        balance: muts_min as f64 / muts_max.max(1) as f64,
    };
    (point, cl.metrics_snapshot().to_json_indented(2))
}

pub fn run_sized(sizes: &Sizes) -> MetaShardReport {
    let mut points = Vec::new();
    let mut snapshot_json = String::new();
    for &s in &sizes.shard_points {
        let (p, snap) = run_point(s, sizes);
        snapshot_json = snap;
        points.push(p);
    }
    let at = |n: usize| points.iter().find(|p| p.shards == n);
    let speedup_at_4 = match (at(1), at(4)) {
        (Some(one), Some(four)) if one.dir_ops_per_sec > 0.0 => {
            four.dir_ops_per_sec / one.dir_ops_per_sec
        }
        _ => 0.0,
    };
    MetaShardReport {
        points,
        speedup_at_4,
        snapshot_json,
    }
}

pub fn run() -> MetaShardReport {
    run_sized(&Sizes::full())
}

pub fn run_smoke() -> MetaShardReport {
    run_sized(&Sizes::smoke())
}

pub fn render(r: &MetaShardReport) -> String {
    let mut t = Table::new(
        "meta_shard — dir-op / resolve throughput vs metadata shard count (client cache off)",
        &[
            "shards",
            "clients",
            "dir ops",
            "dir kops/s",
            "resolve kops/s",
            "mut mean us",
            "mut p99 us",
            "wait us/op",
            "2pc txns",
            "balance",
        ],
    );
    for p in &r.points {
        t.row(vec![
            p.shards.to_string(),
            p.clients.to_string(),
            p.dir_ops.to_string(),
            f(p.dir_ops_per_sec / 1e3),
            f(p.resolves_per_sec / 1e3),
            f(p.mutation_mean_us),
            f(p.mutation_p99_us),
            f(p.queue_wait_us_per_op),
            p.cross_shard_txns.to_string(),
            format!("{:.2}", p.balance),
        ]);
    }
    t.note(format!(
        "dir-op throughput at 4 shards is {:.2}x the single-shard plane; \
         acks land after the op-log append, mutate service is shard occupancy",
        r.speedup_at_4
    ));
    t.render()
}

pub fn to_json(r: &MetaShardReport) -> String {
    let mut s = String::from("{\n  \"bench\": \"meta_shard\",\n  \"points\": [\n");
    for (i, p) in r.points.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"shards\": {}, \"clients\": {}, \"dir_ops\": {}, \"resolves\": {}, \
             \"dir_ops_per_sec\": {:.1}, \"resolves_per_sec\": {:.1}, \
             \"mutation_mean_us\": {:.3}, \"mutation_p99_us\": {:.3}, \
             \"queue_wait_us_per_op\": {:.4}, \"cross_shard_txns\": {}, \
             \"balance\": {:.4}}}{}\n",
            p.shards,
            p.clients,
            p.dir_ops,
            p.resolves,
            p.dir_ops_per_sec,
            p.resolves_per_sec,
            p.mutation_mean_us,
            p.mutation_p99_us,
            p.queue_wait_us_per_op,
            p.cross_shard_txns,
            p.balance,
            if i + 1 < r.points.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"speedup_at_4\": {:.4},\n",
        r.speedup_at_4
    ));
    if r.snapshot_json.is_empty() {
        s.push_str("  \"metrics_snapshot\": null\n");
    } else {
        s.push_str(&format!("  \"metrics_snapshot\": {}\n", r.snapshot_json));
    }
    s.push_str("}\n");
    s
}

/// The CI smoke gate: the invariants the PR promises, asserted on a
/// report (the binary runs this on `--smoke`; tests run it too).
pub fn assert_invariants(r: &MetaShardReport) {
    assert!(!r.points.is_empty(), "at least one scaling point");
    // Monotonic scaling: each added shard must not lose dir-op
    // throughput (5% tolerance for routing noise at the top end).
    for w in r.points.windows(2) {
        assert!(
            w[1].dir_ops_per_sec >= w[0].dir_ops_per_sec * 0.95,
            "dir-op throughput regressed {} -> {} shards: {:.0} -> {:.0} ops/s",
            w[0].shards,
            w[1].shards,
            w[0].dir_ops_per_sec,
            w[1].dir_ops_per_sec
        );
        assert!(
            w[1].resolves_per_sec >= w[0].resolves_per_sec * 0.95,
            "resolve throughput regressed {} -> {} shards: {:.0} -> {:.0} ops/s",
            w[0].shards,
            w[1].shards,
            w[0].resolves_per_sec,
            w[1].resolves_per_sec
        );
    }
    // The acceptance headline: >= 2x dir-op throughput at 4 shards.
    if r.points.iter().any(|p| p.shards == 4) {
        assert!(
            r.speedup_at_4 >= 2.0,
            "4-shard plane must double single-shard dir-op throughput, got {:.2}x",
            r.speedup_at_4
        );
    }
    for p in &r.points {
        if p.shards > 1 {
            assert!(
                p.cross_shard_txns > 0,
                "{}-shard run coordinated no 2PC transactions — unlinks and \
                 renames should cross shards",
                p.shards
            );
            assert!(
                p.balance > 0.0,
                "{}-shard run left a shard with zero mutations",
                p.shards
            );
        }
    }
    // Sharding must relieve the admission queue, not just add capacity
    // on paper: the widest plane waits less per op than the monolith.
    let first = r.points.first().unwrap();
    let last = r.points.last().unwrap();
    if last.shards > first.shards {
        assert!(
            last.queue_wait_us_per_op < first.queue_wait_us_per_op,
            "per-op admission wait must drop with shards: {:.3}us at {} vs {:.3}us at {}",
            first.queue_wait_us_per_op,
            first.shards,
            last.queue_wait_us_per_op,
            last.shards
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance bar at smoke size: monotonic shard scaling,
    /// at least 2x dir-op throughput at 4 shards, 2PC traffic present,
    /// queue wait relieved.
    #[test]
    fn smoke_report_holds_the_scaling_invariants() {
        let r = run_smoke();
        assert_invariants(&r);
        let out = render(&r);
        assert!(out.contains("meta_shard"));
        assert!(out.contains("2pc txns"));
        let json = to_json(&r);
        assert!(json.contains("\"bench\": \"meta_shard\""));
        assert!(json.contains("\"speedup_at_4\""));
        let v = nadfs_simnet::telemetry::json::parse(&json).expect("bench JSON parses");
        let snap = v.get("metrics_snapshot").expect("snapshot embedded");
        assert_eq!(
            snap.get("schema")
                .and_then(nadfs_simnet::telemetry::json::Json::as_str),
            Some(nadfs_simnet::SNAPSHOT_SCHEMA)
        );
    }
}
