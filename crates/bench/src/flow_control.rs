//! Flow-control / QoS saturation benchmark: aggregate goodput as the
//! client count scales against a fixed storage fleet, plus per-tenant
//! fairness under deliberate contention.
//!
//! Three sections:
//!
//! - **scale** — N clients (4 → 64) flood 4 storage nodes with 64 KiB
//!   RPC writes under credit-based flow control. The headline is that
//!   aggregate goodput stays flat once the fleet saturates (~16
//!   clients): admission happens in the pending-WR queues, not by
//!   collapsing under overload.
//! - **weighted** — the starvation scenario: a 2-client tenant with
//!   weight 4 shares one storage node's RPC service point with a
//!   6-client weight-1 aggressor. The DRR scheduler must hold the
//!   protected tenant's mid-contention service share near its
//!   configured 4/5 regardless of the 3x client-count disadvantage.
//! - **equal** — four equal-weight tenants; the min/max per-tenant
//!   goodput ratio is the no-starvation floor CI asserts in smoke mode.

use nadfs_core::{
    ClusterSpec, CostModel, FilePolicy, QosConfig, SimCluster, SizeDist, StorageMode, Workload,
    WriteProtocol,
};
use nadfs_simnet::{CreditConfig, MetricsSnapshot};
use nadfs_wire::Status;

use crate::report::{f, mean_p99, Table};

const BLOCK: u32 = 64 << 10;

/// One point on the saturation curve.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScalePoint {
    pub clients: usize,
    pub writes: usize,
    pub bytes: u64,
    pub goodput_gbps: f64,
    pub mean_us: f64,
    pub p99_us: f64,
    /// WRs that waited in a pending queue for credit.
    pub queued: u64,
    /// Credit admission failures (local + remote).
    pub stalls: u64,
}

/// One tenant's outcome in a fairness scenario.
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantStat {
    pub tenant: u16,
    pub weight: u32,
    pub clients: usize,
    pub writes: usize,
    pub bytes: u64,
    /// Weight / sum-of-weights: the share DRR promises while every
    /// tenant stays backlogged.
    pub share_configured: f64,
    /// Fraction of dispatched service cost this tenant held at the last
    /// sample before any tenant drained its queue.
    pub share_measured: f64,
    pub mean_us: f64,
    pub p99_us: f64,
    /// This tenant's bytes over its own first-submit..last-complete span.
    pub goodput_gbps: f64,
}

/// A contention scenario: tenants, their shares, and the fairness floor.
#[derive(Clone, Debug, Default)]
pub struct FairnessSection {
    pub tenants: Vec<TenantStat>,
    /// min/max per-tenant goodput, weight-normalized (each tenant's
    /// goodput divided by its weight share) so weighted and equal
    /// scenarios read on the same scale: 1.0 = perfectly fair.
    pub min_max_ratio: f64,
}

#[derive(Clone, Debug, Default)]
pub struct FlowControlReport {
    pub scale: Vec<ScalePoint>,
    /// Goodput at the largest scale over goodput at the saturation knee
    /// (the first scale point with >= 16 clients): ~1.0 means overload
    /// queues instead of collapsing.
    pub scale_flatness: f64,
    pub weighted: FairnessSection,
    pub equal: FairnessSection,
    /// `nadfs-metrics-v1` snapshot of the largest scale run (flow.* and
    /// tenant.* counters included) for regression diffs.
    pub snapshot_json: String,
}

/// Workload knobs, full vs CI-smoke sized.
#[derive(Clone, Debug)]
pub struct Sizes {
    pub scale_points: Vec<usize>,
    pub scale_writes_per_client: usize,
    pub fair_writes_per_client: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            scale_points: vec![4, 16, 64],
            scale_writes_per_client: 12,
            fair_writes_per_client: 24,
        }
    }

    /// CI smoke: same shape, small enough to ride a test job.
    pub fn smoke() -> Sizes {
        Sizes {
            scale_points: vec![4, 16],
            scale_writes_per_client: 6,
            fair_writes_per_client: 12,
        }
    }
}

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

/// One saturation point: `n_clients` each RPC-writing a private file
/// through the credit-gated send path into 4 storage nodes.
fn run_scale(n_clients: usize, writes_per_client: usize) -> (ScalePoint, String) {
    // Budgets tighter than the client window so the deep issue stream
    // actually lands in the pending-WR queue and drains on credit.
    let qos = QosConfig {
        enabled: true,
        credit: CreditConfig {
            max_send_data: 2,
            max_send_imm: 2,
            max_send_read: 4,
            max_send_write: 4,
        },
        ..Default::default()
    };
    let spec = ClusterSpec::new(n_clients, 4, StorageMode::Plain)
        .with_window(8)
        .with_qos(qos);
    let mut cl = SimCluster::build(spec);
    for c in 0..n_clients {
        let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
        let w = Workload::new(file.id, WriteProtocol::Rpc, SizeDist::Fixed(BLOCK))
            .with_writes(writes_per_client)
            .with_seed(0xF70 + c as u64);
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
        }
    }
    cl.start();
    let n = n_clients * writes_per_client;
    let done = cl.run_until_writes(n, 600_000);
    assert_eq!(done, n, "saturation run must complete");

    let (bytes, span_s, mean, p99) = {
        let results = cl.results.borrow();
        assert!(
            results.writes.iter().all(|w| w.status == Status::Ok),
            "flow control must not fail writes"
        );
        let bytes: u64 = results.writes.iter().map(|w| w.size as u64).sum();
        let t0 = results.writes.iter().map(|w| w.start).min().unwrap();
        let t1 = results.writes.iter().map(|w| w.end).max().unwrap();
        let mut us: Vec<f64> = results
            .writes
            .iter()
            .map(|w| w.end.since(w.start).ps() as f64 / 1e6)
            .collect();
        let (mean, p99) = mean_p99(&mut us);
        (bytes, t1.since(t0).ps() as f64 / 1e12, mean, p99)
    };
    let m = cl.metrics_snapshot();
    let point = ScalePoint {
        clients: n_clients,
        writes: n,
        bytes,
        goodput_gbps: bytes as f64 / span_s.max(1e-12) / 1e9,
        mean_us: mean,
        p99_us: p99,
        queued: counter(&m, "flow.queued"),
        stalls: counter(&m, "flow.local_stalls") + counter(&m, "flow.remote_stalls"),
    };
    (point, m.to_json_indented(2))
}

/// One contention scenario: `tenants` = (weight, n_clients) per tenant,
/// every client hammering its own file on ONE storage node whose RPC
/// service point runs at concurrency 1 — all fairness comes from the
/// DRR scheduler. Returns per-tenant stats with the mid-contention
/// service share (sampled just before the first tenant drains).
fn run_fairness(tenants: &[(u32, usize)], writes_per_client: usize) -> FairnessSection {
    let qos = QosConfig {
        enabled: true,
        rpc_concurrency: 1,
        quantum: 16 << 10,
        weights: tenants
            .iter()
            .enumerate()
            .map(|(i, &(w, _))| (i as u16 + 1, w))
            .collect(),
        ..Default::default()
    };
    let n_clients: usize = tenants.iter().map(|&(_, n)| n).sum();
    // Make the host CPU the bottleneck the scheduler protects: with the
    // wire outpacing the store path, RPCs pile up in the DRR queues and
    // service shares are the scheduler's to hand out. (At the default
    // costs the single ingress link paces arrivals instead, and the
    // queue never builds.) Deep windows keep even a 2-client tenant
    // backlogged: the DRR share is only promised to queued work.
    let mut cost = CostModel::paper();
    cost.nic.cpu.memcpy_bw = nadfs_simnet::Bandwidth::from_gbyte_per_sec(4);
    let spec = ClusterSpec::new(n_clients, 1, StorageMode::Plain)
        .with_window(8)
        .with_cost(cost)
        .with_qos(qos);
    let mut cl = SimCluster::build(spec);

    // Client c -> tenant id, in declaration order.
    let mut tenant_of = Vec::with_capacity(n_clients);
    for (i, &(_, n)) in tenants.iter().enumerate() {
        for _ in 0..n {
            tenant_of.push(i as u16 + 1);
        }
    }
    for (c, &t) in tenant_of.iter().enumerate() {
        cl.set_client_tenant(c, t);
        let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain);
        let w = Workload::new(file.id, WriteProtocol::Rpc, SizeDist::Fixed(BLOCK))
            .with_writes(writes_per_client)
            .with_seed(0x7E17 + c as u64);
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
        }
    }
    cl.start();

    // Sample dispatched-cost shares while EVERY tenant is still
    // backlogged: step in small slices, keep the latest ledger snapshot,
    // stop as soon as any tenant has completed its full write count.
    let totals: Vec<usize> = tenants
        .iter()
        .map(|&(_, n)| n * writes_per_client)
        .collect();
    let node_tenant: Vec<u16> = (0..n_clients).map(|c| tenant_of[c]).collect();
    let done_per_tenant = |cl: &SimCluster| -> Vec<usize> {
        let results = cl.results.borrow();
        let mut done = vec![0usize; tenants.len()];
        for w in results.writes.iter() {
            let c = cl
                .client_nodes
                .iter()
                .position(|&n| n == w.client)
                .expect("write from a known client");
            done[node_tenant[c] as usize - 1] += 1;
        }
        done
    };
    let n: usize = totals.iter().sum();
    let mut shares: Option<Vec<u64>> = None;
    for k in 1..=n {
        cl.run_until_writes(k, 600_000);
        let done = done_per_tenant(&cl);
        if done.iter().zip(&totals).any(|(d, t)| d >= t) {
            break;
        }
        let m = cl.metrics_snapshot();
        let costs: Vec<u64> = (1..=tenants.len())
            .map(|t| counter(&m, &format!("tenant.{t}.cost_dispatched")))
            .collect();
        if costs.iter().sum::<u64>() > 0 {
            shares = Some(costs);
        }
    }
    let done = cl.run_until_writes(n, 600_000);
    assert_eq!(done, n, "fairness run must complete");
    let costs = shares.expect("sampled at least one mid-contention ledger");
    let cost_total: u64 = costs.iter().sum();
    let weight_total: u32 = tenants.iter().map(|&(w, _)| w).sum();

    let results = cl.results.borrow();
    assert!(results.writes.iter().all(|w| w.status == Status::Ok));
    let mut stats = Vec::new();
    for (i, &(weight, clients)) in tenants.iter().enumerate() {
        let t = i as u16 + 1;
        let mine: Vec<_> = results
            .writes
            .iter()
            .filter(|w| {
                let c = cl
                    .client_nodes
                    .iter()
                    .position(|&n| n == w.client)
                    .expect("known client");
                node_tenant[c] == t
            })
            .collect();
        let bytes: u64 = mine.iter().map(|w| w.size as u64).sum();
        let t0 = mine.iter().map(|w| w.start).min().unwrap();
        let t1 = mine.iter().map(|w| w.end).max().unwrap();
        let span_s = t1.since(t0).ps() as f64 / 1e12;
        let mut us: Vec<f64> = mine
            .iter()
            .map(|w| w.end.since(w.start).ps() as f64 / 1e6)
            .collect();
        let (mean, p99) = mean_p99(&mut us);
        stats.push(TenantStat {
            tenant: t,
            weight,
            clients,
            writes: mine.len(),
            bytes,
            share_configured: weight as f64 / weight_total as f64,
            share_measured: costs[i] as f64 / cost_total.max(1) as f64,
            mean_us: mean,
            p99_us: p99,
            goodput_gbps: bytes as f64 / span_s.max(1e-12) / 1e9,
        });
    }
    // Weight-normalized goodput floor: a starved tenant drags this to 0.
    let norm: Vec<f64> = stats
        .iter()
        .map(|s| s.goodput_gbps / s.share_configured.max(1e-12))
        .collect();
    let min = norm.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = norm.iter().cloned().fold(0.0f64, f64::max);
    FairnessSection {
        tenants: stats,
        min_max_ratio: if max > 0.0 { min / max } else { 0.0 },
    }
}

pub fn run_sized(sizes: &Sizes) -> FlowControlReport {
    let mut scale = Vec::new();
    let mut snapshot_json = String::new();
    for &n in &sizes.scale_points {
        let (p, snap) = run_scale(n, sizes.scale_writes_per_client);
        snapshot_json = snap;
        scale.push(p);
    }
    let knee = scale
        .iter()
        .find(|p| p.clients >= 16)
        .or(scale.first())
        .copied()
        .unwrap_or_default();
    let last = scale.last().copied().unwrap_or_default();
    let scale_flatness = if knee.goodput_gbps > 0.0 {
        last.goodput_gbps / knee.goodput_gbps
    } else {
        0.0
    };
    FlowControlReport {
        scale,
        scale_flatness,
        // The starvation scenario: weight 4 on 2 clients vs weight 1
        // spread over 6 aggressor clients.
        weighted: run_fairness(&[(4, 2), (1, 6)], sizes.fair_writes_per_client),
        equal: run_fairness(
            &[(1, 2), (1, 2), (1, 2), (1, 2)],
            sizes.fair_writes_per_client,
        ),
        snapshot_json,
    }
}

pub fn run() -> FlowControlReport {
    run_sized(&Sizes::full())
}

pub fn run_smoke() -> FlowControlReport {
    run_sized(&Sizes::smoke())
}

pub fn render(r: &FlowControlReport) -> String {
    let mut t = Table::new(
        "flow_control — aggregate goodput vs client count (64 KiB RPC writes, 4 storage nodes)",
        &[
            "clients",
            "writes",
            "GB/s",
            "mean us",
            "p99 us",
            "credit-queued",
            "stalls",
        ],
    );
    for p in &r.scale {
        t.row(vec![
            p.clients.to_string(),
            p.writes.to_string(),
            f(p.goodput_gbps),
            f(p.mean_us),
            f(p.p99_us),
            p.queued.to_string(),
            p.stalls.to_string(),
        ]);
    }
    t.note(format!(
        "goodput at max scale is {:.2}x the saturation knee: overload lands in \
         the pending-WR queues, not on the floor",
        r.scale_flatness
    ));
    let mut out = t.render();
    for (name, s) in [("weighted", &r.weighted), ("equal", &r.equal)] {
        let mut t2 = Table::new(
            format!(
                "flow_control/{name} — per-tenant DRR fairness (1 storage node, rpc concurrency 1)"
            ),
            &[
                "tenant",
                "weight",
                "clients",
                "share conf",
                "share meas",
                "mean us",
                "p99 us",
                "GB/s",
            ],
        );
        for s in &s.tenants {
            t2.row(vec![
                s.tenant.to_string(),
                s.weight.to_string(),
                s.clients.to_string(),
                format!("{:.2}", s.share_configured),
                format!("{:.2}", s.share_measured),
                f(s.mean_us),
                f(s.p99_us),
                f(s.goodput_gbps),
            ]);
        }
        t2.note(format!(
            "weight-normalized min/max goodput ratio {:.2} (1.0 = perfectly fair)",
            s.min_max_ratio
        ));
        out.push('\n');
        out.push_str(&t2.render());
    }
    out
}

pub fn to_json(r: &FlowControlReport) -> String {
    let mut s = String::from("{\n  \"bench\": \"flow_control\",\n  \"scale\": [\n");
    for (i, p) in r.scale.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"clients\": {}, \"writes\": {}, \"bytes\": {}, \
             \"goodput_gbps\": {:.3}, \"mean_us\": {:.3}, \"p99_us\": {:.3}, \
             \"queued\": {}, \"stalls\": {}}}{}\n",
            p.clients,
            p.writes,
            p.bytes,
            p.goodput_gbps,
            p.mean_us,
            p.p99_us,
            p.queued,
            p.stalls,
            if i + 1 < r.scale.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"scale_flatness\": {:.4},\n",
        r.scale_flatness
    ));
    for (name, sec) in [("weighted", &r.weighted), ("equal", &r.equal)] {
        s.push_str(&format!("  \"{name}\": {{\n    \"tenants\": [\n"));
        for (i, t) in sec.tenants.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"tenant\": {}, \"weight\": {}, \"clients\": {}, \
                 \"writes\": {}, \"bytes\": {}, \"share_configured\": {:.4}, \
                 \"share_measured\": {:.4}, \"mean_us\": {:.3}, \"p99_us\": {:.3}, \
                 \"goodput_gbps\": {:.3}}}{}\n",
                t.tenant,
                t.weight,
                t.clients,
                t.writes,
                t.bytes,
                t.share_configured,
                t.share_measured,
                t.mean_us,
                t.p99_us,
                t.goodput_gbps,
                if i + 1 < sec.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "    ],\n    \"min_max_ratio\": {:.4}\n  }},\n",
            sec.min_max_ratio
        ));
    }
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
pub fn assert_invariants(r: &FlowControlReport) {
    let knee = r
        .scale
        .iter()
        .find(|p| p.clients >= 16)
        .or(r.scale.first())
        .expect("at least one scale point");
    let last = r.scale.last().expect("at least one scale point");
    if last.clients > knee.clients {
        assert!(
            (0.90..=1.15).contains(&r.scale_flatness),
            "aggregate goodput must stay flat past saturation: {:.2} GB/s at {} \
             clients vs {:.2} GB/s at {} clients (ratio {:.2})",
            last.goodput_gbps,
            last.clients,
            knee.goodput_gbps,
            knee.clients,
            r.scale_flatness
        );
    }
    assert!(
        last.queued > 0,
        "the largest scale point must exercise the pending-WR queue"
    );
    // The starvation promise: the protected (max-weight) tenant keeps
    // its configured share within 20% despite the aggressor's client
    // count; every other tenant still gets at least half its share (the
    // aggressor may legitimately soak up slack the protected tenant's
    // closed loop leaves behind).
    let protected = r
        .weighted
        .tenants
        .iter()
        .max_by_key(|t| t.weight)
        .expect("at least one tenant");
    let err =
        (protected.share_measured - protected.share_configured).abs() / protected.share_configured;
    assert!(
        err <= 0.20,
        "protected tenant {} mid-contention share {:.2} strays >20% from configured {:.2}",
        protected.tenant,
        protected.share_measured,
        protected.share_configured
    );
    for t in &r.weighted.tenants {
        assert!(
            t.share_measured >= t.share_configured * 0.5,
            "tenant {} starved: share {:.2} under half of configured {:.2}",
            t.tenant,
            t.share_measured,
            t.share_configured
        );
    }
    assert!(
        r.equal.min_max_ratio >= 0.6,
        "equal-weight tenants diverged: min/max goodput ratio {:.2} < 0.6",
        r.equal.min_max_ratio
    );
    for sec in [&r.weighted, &r.equal] {
        for t in &sec.tenants {
            assert!(
                t.p99_us > 0.0 && t.p99_us <= t.mean_us * 20.0,
                "tenant {} p99 unbounded: {:.1}us vs mean {:.1}us",
                t.tenant,
                t.p99_us,
                t.mean_us
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR's acceptance bar at smoke size: goodput flat past the
    /// knee, the protected tenant holds its configured share within
    /// 20%, equal tenants stay within the fairness floor, p99 bounded.
    #[test]
    fn smoke_report_holds_the_flow_invariants() {
        let r = run_smoke();
        assert_invariants(&r);
        assert_eq!(r.weighted.tenants.len(), 2);
        assert!(
            r.weighted.tenants[0].mean_us < r.weighted.tenants[1].mean_us,
            "the weight-4 tenant must see lower mean latency than the aggressor"
        );
        let out = render(&r);
        assert!(out.contains("flow_control"));
        assert!(out.contains("weighted"));
        let json = to_json(&r);
        assert!(json.contains("\"bench\": \"flow_control\""));
        assert!(json.contains("\"share_measured\""));
        let v = nadfs_simnet::telemetry::json::parse(&json).expect("bench JSON parses");
        let snap = v.get("metrics_snapshot").expect("snapshot embedded");
        assert_eq!(
            snap.get("schema")
                .and_then(nadfs_simnet::telemetry::json::Json::as_str),
            Some(nadfs_simnet::SNAPSHOT_SCHEMA)
        );
    }
}
