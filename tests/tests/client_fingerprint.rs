//! Golden fingerprint of the client driver: one fixed mixed scenario that
//! walks every client op path — seeded `Job::Write` and byte-carrying
//! `Job::WriteAt` on Spin, Rpc, HyperLoop, SpinReplicated and SpinTriec,
//! `Busy` retries under a tiny descriptor budget, cache-hit, parked
//! readahead and degraded reads, bulk and per-op metadata spans, and a
//! repair drain. Every completion in the [`ResultSink`] and the exported
//! Chrome trace are folded into one FNV-1a hash. The scenario runs on the
//! simulated clock only, so the hash is a pure function of the event
//! sequence: a refactor of the client that moves any event, reorders any
//! completion or changes any span changes it.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_core::{
    ClusterSpec, CostModel, FilePolicy, Job, LayoutSpec, MetaOp, ReadProtocol, RepairDriver,
    ResultSink, SimCluster, StorageMode, WriteProtocol, WriteResult,
};
use nadfs_simnet::telemetry::phase;
use nadfs_wire::{BcastStrategy, RsScheme, Status};

/// The hash of [`scenario_fingerprint`]. A change to the client that
/// keeps every simulated event in place keeps this value.
const GOLDEN: u64 = 0xe14e_46e4_72d3_7ef4;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn status(&mut self, s: Status) {
        self.bytes(format!("{s:?}").as_bytes());
    }
}

/// Fold every completion (kind, token or greq, start, end, status,
/// retries, checksum) and the Chrome trace of `cl` into `h`.
fn fold(h: &mut Fnv, cl: &SimCluster) {
    let r: &ResultSink = &cl.results.borrow();
    for w in &r.writes {
        h.u64(0);
        for v in [
            w.greq,
            w.start.ps(),
            w.end.ps(),
            w.retries as u64,
            w.checksum,
        ] {
            h.u64(v);
        }
        h.status(w.status);
    }
    for rd in &r.file_reads {
        h.u64(1);
        for v in [
            rd.token,
            rd.start.ps(),
            rd.end.ps(),
            rd.len as u64,
            rd.checksum,
        ] {
            h.u64(v);
        }
        h.u64(rd.degraded_stripes as u64 | (rd.from_cache as u64) << 32);
        h.status(rd.status);
    }
    for m in &r.metas {
        h.u64(2);
        for v in [m.token, m.start.ps(), m.end.ps(), m.cache_hit as u64] {
            h.u64(v);
        }
        h.bytes(format!("{:?}", m.result).as_bytes());
    }
    for rp in &r.repairs {
        h.u64(3);
        for v in [rp.token, rp.start.ps(), rp.end.ps(), rp.bytes_moved] {
            h.u64(v);
        }
        h.status(rp.status);
        h.bytes(format!("{:?}", rp.outcome).as_bytes());
    }
    h.bytes(cl.export_chrome_trace().as_bytes());
}

fn bytes_of(seed: u8, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| seed ^ (i % 251) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Writes under every sPIN-mode protocol, then cache-hit, parked-readahead,
/// degraded and rejected reads, metadata storms, and one repair drain.
fn mixed_cluster() -> SimCluster {
    let spec = ClusterSpec::new(3, 6, StorageMode::Spin).with_window(4);
    // Client 1 attributes its metadata storm to one bulk span; client 2
    // mints one span per op.
    let mut nth = 0;
    let mut cl = SimCluster::build_with(spec, |app| {
        app.bulk_meta_spans = nth == 1;
        nth += 1;
    });
    let (plain, repl, ec, stream) = {
        let mut c = cl.control.borrow_mut();
        (
            c.create_file(0, FilePolicy::Plain).id,
            c.create_file(
                0,
                FilePolicy::Replicated {
                    k: 3,
                    strategy: BcastStrategy::Ring,
                },
            )
            .id,
            c.create_file(
                0,
                FilePolicy::ErasureCoded {
                    scheme: RsScheme::new(3, 2),
                },
            )
            .id,
            c.create_file(0, FilePolicy::Plain).id,
        )
    };

    // Every sPIN-mode write protocol through both job shapes; the first
    // WriteAt overwrites in place. An unknown file fails at placement.
    let cases = [
        (plain, WriteProtocol::Spin),
        (plain, WriteProtocol::Rpc),
        (repl, WriteProtocol::SpinReplicated),
        (ec, WriteProtocol::SpinTriec { interleave: true }),
    ];
    let mut slots: Vec<Rc<RefCell<Option<WriteResult>>>> = Vec::new();
    for (i, &(file, protocol)) in cases.iter().enumerate() {
        cl.submit(
            0,
            Job::Write {
                file,
                size: 48 << 10,
                protocol,
                seed: i as u64,
            },
        );
        let slot = Rc::new(RefCell::new(None));
        cl.submit(
            0,
            Job::WriteAt {
                file,
                offset: (i == 0).then_some(4096),
                data: bytes_of(i as u8, 40 << 10),
                protocol,
                slot: Some(slot.clone()),
            },
        );
        slots.push(slot);
    }
    cl.submit(
        0,
        Job::Write {
            file: 0xDEAD,
            size: 4096,
            protocol: WriteProtocol::Spin,
            seed: 9,
        },
    );
    // A block-wise sequential file for the readahead stream.
    for b in 0..12u64 {
        cl.submit(
            2,
            Job::Write {
                file: stream,
                size: 64 << 10,
                protocol: WriteProtocol::Spin,
                seed: 100 + b,
            },
        );
    }
    cl.start();
    assert_eq!(cl.run_until_writes(21, 1_000), 21);
    for slot in &slots {
        let got = slot.borrow().clone().expect("WriteAt slot filled");
        assert_eq!(got.status, Status::Ok);
    }
    {
        let r = cl.results.borrow();
        let failed: Vec<_> = r.writes.iter().filter(|w| w.status != Status::Ok).collect();
        assert_eq!(failed.len(), 1, "only the unknown-file write fails");
    }

    // Read-after-write hits client 0's cache; a cold sequential stream
    // on client 1 splits readahead fills that later reads park on; an
    // unknown file is rejected at resolve.
    let mut token = 0;
    let mut read = |cl: &mut SimCluster, client, file, offset, len, protocol| {
        token += 1;
        cl.submit(
            client,
            Job::Read {
                file,
                offset,
                len,
                protocol,
                token,
                slot: None,
            },
        );
    };
    read(&mut cl, 0, plain, 0, 32 << 10, ReadProtocol::Rdma);
    for b in 0..12u64 {
        read(
            &mut cl,
            1,
            stream,
            b * (64 << 10),
            64 << 10,
            ReadProtocol::Rdma,
        );
    }
    read(&mut cl, 0, 0xBEEF, 0, 4096, ReadProtocol::Rdma);
    cl.start();
    assert_eq!(cl.run_until_file_reads(14, 1_000), 14);

    // Degraded reads: fail the node holding the EC file's first data
    // chunk; reconstruct on the client (Rdma) and on the NIC (Offloaded).
    let victim = {
        let r = cl.results.borrow();
        let w = r.writes.iter().find(|w| w.placement.data_chunks.len() == 3);
        w.expect("EC write").placement.data_chunks[0].node
    };
    cl.control.borrow_mut().mark_node_failed(victim);
    for rc in &cl.read_caches {
        rc.borrow_mut().clear();
    }
    read(&mut cl, 0, ec, 0, 48 << 10, ReadProtocol::Rdma);
    read(&mut cl, 0, ec, 0, 48 << 10, ReadProtocol::Offloaded);
    cl.start();
    assert_eq!(cl.run_until_file_reads(16, 1_000), 16);
    let report = RepairDriver::new(0).drain(&mut cl);
    assert!(
        report.repaired >= 1,
        "the failed node's stripes get repaired"
    );

    // Metadata storms on both span modes.
    let mut meta_token = 0;
    for (client, dir) in [(1, "/bulk"), (2, "/each")] {
        let ops = [
            MetaOp::Mkdir { path: dir.into() },
            MetaOp::Create {
                path: format!("{dir}/a"),
                spec: LayoutSpec::SINGLE,
            },
            MetaOp::Lookup {
                path: format!("{dir}/a"),
            },
            MetaOp::Readdir { path: dir.into() },
            MetaOp::Rename {
                from: format!("{dir}/a"),
                to: format!("{dir}/b"),
            },
            MetaOp::Unlink {
                path: format!("{dir}/b"),
            },
            MetaOp::Lookup {
                path: format!("{dir}/missing"),
            },
        ];
        for op in ops {
            meta_token += 1;
            cl.submit(
                client,
                Job::Meta {
                    op,
                    token: meta_token,
                },
            );
        }
    }
    cl.start();
    assert_eq!(cl.run_until_metas(14, 1_000), 14);
    cl.run_ms(5);
    cl
}

/// HyperLoop's triggered-WQE ring needs conventional storage NICs: both
/// job shapes on a 3-way replicated file over plain storage.
fn hyperloop_cluster() -> SimCluster {
    let mut cl = SimCluster::build(ClusterSpec::new(1, 3, StorageMode::Plain));
    let policy = FilePolicy::Replicated {
        k: 3,
        strategy: BcastStrategy::Ring,
    };
    let file = cl.control.borrow_mut().create_file(0, policy).id;
    let protocol = WriteProtocol::HyperLoop { chunk: 16 << 10 };
    cl.submit(
        0,
        Job::Write {
            file,
            size: 48 << 10,
            protocol,
            seed: 7,
        },
    );
    cl.submit(
        0,
        Job::WriteAt {
            file,
            offset: None,
            data: bytes_of(7, 40 << 10),
            protocol,
            slot: None,
        },
    );
    cl.start();
    assert_eq!(cl.run_until_writes(2, 1_000), 2);
    cl
}

/// Four clients against one sPIN node with a two-descriptor budget:
/// writes are NACKed `Busy` and retried.
fn busy_cluster() -> SimCluster {
    let mut cost = CostModel::paper();
    cost.pspin_state_bytes = cost.pspin.total_mem_bytes() - 2 * 77;
    let spec = ClusterSpec::new(4, 1, StorageMode::Spin)
        .with_cost(cost)
        .with_window(2);
    let mut cl = SimCluster::build(spec);
    let file = cl.control.borrow_mut().create_file(0, FilePolicy::Plain).id;
    for c in 0..4usize {
        for i in 0..3u64 {
            let job = if i == 1 {
                Job::WriteAt {
                    file,
                    offset: None,
                    data: bytes_of(c as u8, 128 << 10),
                    protocol: WriteProtocol::Spin,
                    slot: None,
                }
            } else {
                Job::Write {
                    file,
                    size: 192 << 10,
                    protocol: WriteProtocol::Spin,
                    seed: c as u64 * 10 + i,
                }
            };
            cl.submit(c, job);
        }
    }
    cl.start();
    assert_eq!(cl.run_until_writes(12, 5_000), 12);
    cl
}

fn scenario_fingerprint() -> u64 {
    let mixed = mixed_cluster();
    let hyperloop = hyperloop_cluster();
    let busy = busy_cluster();

    // The scenario must really walk the paths it claims to pin.
    {
        let r = mixed.results.borrow();
        assert!(r.file_reads.iter().any(|r| r.from_cache));
        assert!(r.file_reads.iter().any(|r| r.degraded_stripes > 0));
        assert!(r.file_reads.iter().any(|r| r.status == Status::Rejected));
        assert!(r.repairs.iter().any(|r| r.status == Status::Ok));
        assert!(r.metas.iter().any(|m| m.cache_hit));
        assert!(r.metas.iter().any(|m| m.result.is_err()));
        let obs = mixed.obs.borrow();
        let parked = obs
            .spans
            .done()
            .filter(|sp| sp.has_mark(phase::READAHEAD) && sp.has_mark(phase::CACHE_HIT))
            .count();
        assert!(parked > 0, "a read parked on a readahead fill");
        assert!(obs.spans.done().any(|sp| sp.label.starts_with("meta-bulk")));
        assert!(obs.spans.done().any(|sp| sp.label.starts_with("meta ")));
        assert_eq!(obs.spans.dropped(), 0);
    }
    for cl in [&hyperloop, &busy] {
        let r = cl.results.borrow();
        assert!(r.writes.iter().all(|w| w.status == Status::Ok));
    }
    let retried = busy.results.borrow().writes.iter().any(|w| w.retries > 0);
    assert!(retried, "the descriptor budget forces Busy retries");

    let mut h = Fnv::new();
    fold(&mut h, &mixed);
    fold(&mut h, &hyperloop);
    fold(&mut h, &busy);
    h.0
}

#[test]
fn client_paths_keep_their_golden_fingerprint() {
    let got = scenario_fingerprint();
    assert_eq!(got, GOLDEN, "client fingerprint moved: {got:#018x}");
}
