//! End-to-end and per-layer benchmark of the simulated DFS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|degraded_read|namespace> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run draws a fixed number of sub-plans from `--seed` and generates
//! every job itself. It runs each sub-plan once — cluster build, set-up,
//! measured phase, checks — for the simulated-time results, then replays
//! sub-plans until `--seconds` of host time is used. A replay must match
//! its first run bit for bit (the completion fingerprint); host-clock
//! numbers are medians over every repetition.
//!
//! `--trace 0` runs with observability and profiling off and prints the
//! end-to-end metrics. `--trace 1` alternates untraced and traced
//! repetitions and prints the per-layer metrics of the traced ones. The
//! last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod layers;
mod measure;
mod work;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Before, LayerAcc};
use measure::{pct, peak_rss_mb, ratio, sampler, us, Fingerprint, SplitMix};
use work::{Plan, Policy, Tally, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or(format!("bad seconds {val}"))?,
                )
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Host cost of one repetition of one sub-plan.
struct Rep {
    /// Ops the measured phase completed (any status).
    done: u64,
    cpu_s: f64,
    wall_s: f64,
    setup_cpu_s: f64,
    setup_wall_s: f64,
}

impl Rep {
    fn host_kops(&self) -> f64 {
        ratio(self.done as f64, self.cpu_s) / 1e3
    }
}

/// Run `plan` once: set-up, measured phase, checks. A traced repetition
/// builds the cluster with observability and engine profiling on; with
/// `acc` it also folds its per-layer numbers in.
fn one_rep(plan: &Plan, traced: bool, acc: Option<&mut LayerAcc>) -> (Rep, Tally) {
    let mut p = work::prepare(plan, traced);
    work::submit(plan, &p);
    let mut phase = match acc {
        Some(acc) => {
            let before = Before::capture(&p.cl);
            let phase = work::measure(plan, &mut p, Some(&mut acc.phases));
            acc.absorb(&p.cl, &before, &phase.tally);
            phase
        }
        None => work::measure(plan, &mut p, None),
    };
    work::check_state(plan, &p, &mut phase.tally);
    phase.tally.wrong += p.setup_wrong;
    let rep = Rep {
        done: phase.tally.done,
        cpu_s: phase.cpu_s,
        wall_s: phase.wall_s,
        setup_cpu_s: p.setup_cpu_s,
        setup_wall_s: p.setup_wall_s,
    };
    (rep, phase.tally)
}

/// Whether two repetitions of one sub-plan agree in simulated time.
fn same_sim(a: &Tally, b: &Tally) -> bool {
    (a.fingerprint, a.done, a.ok, a.wrong) == (b.fingerprint, b.done, b.ok, b.wrong)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let mut seeds = SplitMix::new(args.seed);
    let plans: Vec<Plan> = (0..work::sub_plans(w))
        .map(|_| Plan::generate(w, seeds.next_u64()))
        .collect();
    println!(
        "workload {}, seed {}: {}",
        w.name(),
        args.seed,
        w.describe()
    );
    println!(
        "load: closed loop, client_window 1 (next op issued when the previous completes), \
         StorageMode::Spin, one thread; {} sub-plan(s) drawn from the seed",
        plans.len()
    );

    // First pass: every sub-plan once (the simulated-time result). Then
    // replay sub-plans round-robin until the time budget is spent; each
    // replay must match its first run exactly.
    let budget = Duration::from_secs_f64(args.seconds);
    let t0 = Instant::now();
    let mut first: Vec<Tally> = Vec::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut acc = LayerAcc::default();
    let mut problems = Vec::new();
    for i in 0.. {
        let k = i % plans.len();
        let (rep, tally) = one_rep(&plans[k], false, None);
        if i < plans.len() {
            first.push(tally);
        } else if !same_sim(&first[k], &tally) {
            problems.push(format!(
                "replay {i} of sub-plan {k} differs in simulated time"
            ));
        }
        plain.push(rep);
        if args.trace {
            let (rep, tally) = one_rep(&plans[k], true, (i < plans.len()).then_some(&mut acc));
            if !same_sim(&first[k], &tally) {
                problems.push(format!(
                    "traced run of sub-plan {k} differs in simulated time: \
                     fingerprint {:#018x} vs {:#018x}",
                    tally.fingerprint.0, first[k].fingerprint.0
                ));
            }
            traced.push(rep);
        }
        let n = i as u32 + 1;
        if i + 1 >= plans.len() && t0.elapsed() + t0.elapsed() / n > budget {
            break;
        }
    }

    // Simulated-time results of the first pass. Latency percentiles are
    // taken per sub-plan and averaged over the sub-plans; the cost model's
    // fixed service times put single-run percentiles on a lattice.
    let mut fp = Fingerprint::default();
    let (mut done, mut ok, mut wrong, mut bytes) = (0, 0, 0, 0);
    let (mut makespan, mut degraded, mut from_cache) = (0.0, 0, 0);
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let (mut n, mut beyond) = (0, usize::MAX);
    let mut by_policy: [Vec<u64>; 3] = Default::default();
    for t in &first {
        fp.word(t.fingerprint.0);
        done += t.done;
        ok += t.ok;
        wrong += t.wrong;
        bytes += t.bytes;
        makespan += t.makespan_s();
        degraded += t.degraded;
        from_cache += t.from_cache;
        let lat = sampler(t.lat_ps.iter().map(|&p| us(p)));
        let p99 = pct(&lat, 99.0);
        p50s.push(pct(&lat, 50.0));
        p99s.push(p99);
        n += lat.len();
        beyond = beyond.min(lat.samples().iter().filter(|&&v| v > p99).count());
        for (acc, v) in by_policy.iter_mut().zip(&t.by_policy) {
            acc.extend_from_slice(v);
        }
    }
    let (p50, p99) = (sampler(p50s).mean(), sampler(p99s).mean());
    let goodput_gbps = ratio(bytes as f64 * 8.0, makespan) / 1e9;
    let sim_kops = ratio(ok as f64, makespan) / 1e3;
    if wrong > 0 {
        problems.push(format!("{wrong} ops returned wrong output"));
    }
    let attempted: u64 = plans.iter().map(Plan::attempted).sum();
    let failed = attempted - ok;

    // Host-clock results: medians over every untraced repetition.
    let med = |f: &dyn Fn(&Rep) -> f64| pct(&sampler(plain.iter().map(f)), 50.0);
    let host_kops = med(&Rep::host_kops);
    let (cpu_s, wall_s) = (med(&|r| r.cpu_s), med(&|r| r.wall_s));
    let (setup_s, setup_wall) = (med(&|r| r.setup_cpu_s), med(&|r| r.setup_wall_s));
    let class = match w {
        Workload::Ingest => "write",
        Workload::DegradedRead => "read",
        Workload::Namespace => "meta",
    };

    println!(
        "repetitions: {} untraced, {} traced",
        plain.len(),
        traced.len()
    );
    println!(
        "{class}_p50_us {p50:.6} us, {class}_p99_us {p99:.6} us (n={n} over {} sub-plan(s), \
         at least {beyond} beyond p99 in each)",
        first.len()
    );
    if w == Workload::Ingest {
        for (p, v) in Policy::ALL.iter().zip(&by_policy) {
            let v = sampler(v.iter().map(|&p| us(p)));
            println!(
                "  write_p50_us.{} {:.6} us, p99 {:.6} us (n={})",
                p.name(),
                pct(&v, 50.0),
                pct(&v, 99.0),
                v.len()
            );
        }
    }
    if w == Workload::DegradedRead {
        println!(
            "  degraded reads {:.4}, served from read cache {:.4} (cache empty at phase start)",
            ratio(degraded as f64, ok as f64),
            ratio(from_cache as f64, ok as f64)
        );
    }
    println!("goodput_gbps {goodput_gbps:.6} Gb/s");
    println!("sim_kops {sim_kops:.6} kops/s (simulated)");
    println!(
        "host_kops {host_kops:.6} kops per CPU second (median phase: {cpu_s:.4} s CPU, \
         {wall_s:.4} s wall)"
    );
    let per_rep: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.3}", r.host_kops()))
        .collect();
    println!("  host_kops per repetition: {}", per_rep.join(" "));
    println!("setup_s {setup_s:.6} s CPU ({setup_wall:.6} s wall)");
    let rss = peak_rss_mb();
    println!("host_peak_rss_mb {rss:.3} MiB");
    println!(
        "failed_frac {:.6} ({failed} of {attempted} ops: non-Ok, wrong output or never \
         completed; {done} completed)",
        ratio(failed as f64, attempted as f64)
    );
    println!("sim_fingerprint {:#018x}", fp.0);

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let mut m = acc.metrics(w);
        let traced_kops = pct(&sampler(traced.iter().map(Rep::host_kops)), 50.0);
        m.push(("trace.host_kops_untraced".into(), host_kops, "kops/s"));
        m.push(("trace.host_kops_traced".into(), traced_kops, "kops/s"));
        m.push((
            "trace.overhead".into(),
            ratio(host_kops, traced_kops),
            "ratio",
        ));
        m.push(("goodput_gbps".into(), goodput_gbps, "Gb/s"));
        m.push((
            "failed_frac".into(),
            ratio(failed as f64, attempted as f64),
            "ratio",
        ));
        if acc.spans_dropped() > 0.0 {
            problems.push(format!("{} spans dropped", acc.spans_dropped()));
        }
        println!(
            "phases of {} {class} spans, mean / p99 us (means sum to the e2e mean {:.6} us):",
            acc.phases.spans(),
            acc.phases.e2e_mean_us()
        );
        for (name, (mu, p99)) in acc.phases.stats() {
            println!("  {name:<18} {mu:>12.6} {p99:>12.6}");
        }
        println!("per-layer:");
        for (name, v, unit) in &m {
            println!("  {name:<40} {v:>16.6} {unit}");
        }
        m
    } else {
        vec![
            ("p50_us".into(), p50, "us"),
            ("p99_us".into(), p99, "us"),
            ("sim_kops".into(), sim_kops, "kops/s"),
            ("host_kops".into(), host_kops, "kops/s"),
            ("host_peak_rss_mb".into(), rss, "MiB"),
            ("setup_s".into(), setup_s, "s"),
        ]
    };
    for p in &problems {
        println!("NOT CORRECT: {p}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    );
    ExitCode::SUCCESS
}
