//! Directory-operation benchmark (the zippynfs-style metadata workload).
//!
//! Runs the [`nadfs_core::MetaWorkload`] touch/stat/rename/rm storm
//! through the simulated cluster twice — client metadata cache on and off
//! — and reports per-op latencies plus the control-plane round-trip
//! ledger. The cached column is the headline: repeated path lookups stop
//! round-tripping to the control node.

use nadfs_core::{ClusterSpec, LayoutSpec, MetaOpKind, MetaWorkload, SimCluster, StorageMode};

use crate::report::{f, mean_p99, Table};

const KINDS: [(MetaOpKind, &str); 6] = [
    (MetaOpKind::Mkdir, "mkdir"),
    (MetaOpKind::Create, "create"),
    (MetaOpKind::Lookup, "stat"),
    (MetaOpKind::Rename, "rename"),
    (MetaOpKind::Unlink, "unlink"),
    (MetaOpKind::Readdir, "readdir"),
];

struct RunStats {
    /// (mean_us, p99_us, count) per op kind, in `KINDS` order.
    ops: Vec<(f64, f64, usize)>,
    control_rpcs: u64,
    cache_hits: u64,
    cache_hit_rate: f64,
}

fn run(n_clients: usize, cache_enabled: bool) -> RunStats {
    let spec = ClusterSpec::new(n_clients, 4, StorageMode::Plain);
    let mut cl = SimCluster::build_with(spec, |app| {
        app.cache_enabled = cache_enabled;
        // One bulk span per storm instead of one per op: keeps the
        // completed-span ring from saturating during the storm phase.
        app.bulk_meta_spans = true;
    });
    let w = MetaWorkload::new("/bench")
        .with_dirs(4, 16)
        .with_storm(256)
        .with_layout(LayoutSpec::striped(2, 64 << 10))
        .with_seed(7);
    w.prepare(&cl.control);
    let mut n = 0;
    for c in 0..n_clients {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
            n += 1;
        }
    }
    cl.start();
    let done = cl.run_until_metas(n, 60_000);
    assert_eq!(done, n, "metadata storm must complete");

    let results = cl.results.borrow();
    let ops = KINDS
        .iter()
        .map(|&(kind, _)| {
            let mut us: Vec<f64> = results
                .metas
                .iter()
                .filter(|m| m.op == kind)
                .map(|m| m.end.since(m.start).ps() as f64 / 1e6)
                .collect();
            let (mean, p99) = mean_p99(&mut us);
            (mean, p99, us.len())
        })
        .collect();
    let control_rpcs = cl.control.borrow().meta.stats.total();
    let (hits, misses) = cl.client_caches.iter().fold((0u64, 0u64), |(h, m), c| {
        let s = c.borrow().stats;
        (h + s.hits, m + s.misses)
    });
    RunStats {
        ops,
        control_rpcs,
        cache_hits: hits,
        cache_hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}

/// The `dir_ops` table: latency per directory operation, cached vs
/// uncached, plus the round-trip ledger.
pub fn dir_ops() -> String {
    let n_clients = 2;
    let cold = run(n_clients, false);
    let warm = run(n_clients, true);

    let mut t = Table::new(
        "dir_ops — directory-operation latency, client metadata cache off/on (us)",
        &[
            "op",
            "count",
            "uncached mean",
            "uncached p99",
            "cached mean",
            "cached p99",
            "speedup",
        ],
    );
    for (i, &(_, name)) in KINDS.iter().enumerate() {
        let (cm, cp, cnt) = cold.ops[i];
        let (wm, wp, _) = warm.ops[i];
        t.row(vec![
            name.to_string(),
            cnt.to_string(),
            f(cm),
            f(cp),
            f(wm),
            f(wp),
            if wm > 0.0 {
                format!("{:.1}x", cm / wm)
            } else {
                "-".to_string()
            },
        ]);
    }
    t.note(format!(
        "control-plane round-trips: {} uncached vs {} cached ({} cache hits, {:.0}% hit rate)",
        cold.control_rpcs,
        warm.control_rpcs,
        warm.cache_hits,
        warm.cache_hit_rate * 100.0
    ));
    t.note(
        "workload: per-client subtree, 4 dirs x 16 files, 256-stat skewed storm, \
         25% renamed, 25% unlinked (zippynfs-style dir-ops mix)",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_ops_renders_and_cache_wins() {
        let out = dir_ops();
        assert!(out.contains("stat"));
        assert!(out.contains("cache hits"));
        // The cached stat mean must beat the uncached one.
        let cold = run(1, false);
        let warm = run(1, true);
        let stat = KINDS
            .iter()
            .position(|&(k, _)| k == MetaOpKind::Lookup)
            .unwrap();
        assert!(warm.ops[stat].0 < cold.ops[stat].0);
        assert!(warm.control_rpcs < cold.control_rpcs);
    }
}
