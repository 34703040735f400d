//! The network fabric: every node connects to a single switch through a
//! full-duplex link. This is the SST-replacement topology used throughout
//! the reproduction (the paper configures SST as a 400 Gbit/s network with
//! 2048 B MTU and 20 ns link latency).
//!
//! Model, per direction:
//!
//! ```text
//!  NIC --egress gate--> [up_q] --serialize@bw--> link(lat) --> switch(delay)
//!      --> [down_q] --serialize@bw--> link(lat) --> NIC ingress (gated)
//! ```
//!
//! Backpressure is lossless end to end:
//! * the NIC can only submit while the per-node egress gate has credits
//!   (`up_q` space) — PsPIN handlers block on this, which is how the paper's
//!   PBT goodput halving and IPC collapse emerge;
//! * an uplink will not start serializing a packet whose destination
//!   `down_q` is full (PFC-like hold, with head-of-line blocking);
//! * a downlink will not start serializing until the destination NIC's
//!   ingress gate grants a credit (returned by the NIC when it has admitted
//!   the packet into its own buffers).

use std::any::Any;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::engine::{Component, ComponentId, Ctx};
use crate::gate::{Gate, GateWake, SharedGate};
use crate::packet::{Arrive, NetPacket, NodeId, Payload};
use crate::time::{Bandwidth, Dur};

/// Fabric configuration; defaults follow §III-D of the paper.
#[derive(Clone, Debug)]
pub struct FabricConfig {
    pub link_bw: Bandwidth,
    pub link_latency: Dur,
    pub switch_delay: Dur,
    /// NIC egress queue depth (packets) — credits of the egress gate.
    pub up_queue_cap: usize,
    /// Switch per-output-port queue depth (packets).
    pub down_queue_cap: usize,
    /// Default NIC ingress buffer depth (packets) — credits of ingress gate.
    pub ingress_cap: usize,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link_bw: Bandwidth::from_gbit_per_sec(400),
            link_latency: Dur::from_ns(20),
            switch_delay: Dur::from_ns(100),
            up_queue_cap: 16,
            down_queue_cap: 64,
            ingress_cap: 32,
        }
    }
}

/// Handle a NIC keeps to interact with the fabric.
#[derive(Clone)]
pub struct NodePort {
    pub node: NodeId,
    pub fabric: ComponentId,
    /// Credits for the node's uplink queue. Take one, then send
    /// [`Submit`]; the fabric returns the credit when the packet has left
    /// the uplink.
    pub egress_gate: SharedGate,
    /// Credits for the NIC's own ingress buffer. The fabric takes one per
    /// delivered packet; the NIC must release it once the packet has been
    /// consumed from its ingress stage.
    pub ingress_gate: SharedGate,
}

impl NodePort {
    /// Convenience: attempt to take an egress credit and submit in one go.
    /// Returns false if the gate is exhausted (caller should register as a
    /// waiter on `egress_gate` and retry on wake).
    pub fn try_submit<P: Payload>(&self, ctx: &mut Ctx<'_>, pkt: NetPacket<P>) -> bool {
        if self.egress_gate.borrow_mut().try_take() {
            ctx.schedule(Dur::ZERO, self.fabric, Box::new(Submit { pkt }));
            true
        } else {
            false
        }
    }
}

/// NIC → fabric: inject a packet (an egress credit must have been taken).
pub struct Submit<P: Payload> {
    pub pkt: NetPacket<P>,
}

/// Byte/packet accounting per node, for goodput measurements.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    pub tx_pkts: u64,
    pub tx_bytes: u64,
    pub rx_pkts: u64,
    pub rx_bytes: u64,
}

#[derive(Debug, Default)]
pub struct FabricStats {
    pub per_node: Vec<NodeStats>,
    /// Times an uplink had to hold because a destination queue was full.
    pub switch_holds: u64,
}

struct UpLink<P: Payload> {
    q: VecDeque<NetPacket<P>>,
    busy: bool,
    /// Parked on the `hol_waiters` list of its head packet's destination.
    /// The head cannot change while parked (only a started transmission
    /// pops it), so one flag covers the one list an uplink can be on.
    hol_parked: bool,
}

struct DownLink<P: Payload> {
    q: VecDeque<NetPacket<P>>,
    busy: bool,
}

struct NodeState<P: Payload> {
    delivery: ComponentId,
    up: UpLink<P>,
    down: DownLink<P>,
    egress_gate: SharedGate,
    ingress_gate: SharedGate,
    /// Uplinks (by node id) whose head packet targets this node and is
    /// waiting for `down.q` space.
    hol_waiters: Vec<NodeId>,
}

// Internal self-events.
struct UpTxDone {
    node: NodeId,
}
struct SwArrive<P: Payload> {
    pkt: NetPacket<P>,
}
struct DownTxDone {
    node: NodeId,
}

/// The fabric component. Register all nodes before adding it to the engine.
pub struct Fabric<P: Payload> {
    cfg: FabricConfig,
    nodes: Vec<NodeState<P>>,
    stats: Rc<RefCell<FabricStats>>,
    self_id: ComponentId,
}

impl<P: Payload> Fabric<P> {
    /// `self_id` must be pre-reserved with [`crate::engine::Engine::reserve_id`]
    /// so NICs can be wired to it.
    pub fn new(cfg: FabricConfig, self_id: ComponentId) -> Fabric<P> {
        Fabric {
            cfg,
            nodes: Vec::new(),
            stats: Rc::new(RefCell::new(FabricStats::default())),
            self_id,
        }
    }

    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    pub fn stats(&self) -> Rc<RefCell<FabricStats>> {
        self.stats.clone()
    }

    /// Register a node delivered to component `delivery`; `ingress_cap`
    /// overrides the config default when `Some`.
    pub fn register_node(&mut self, delivery: ComponentId, ingress_cap: Option<usize>) -> NodePort {
        let node = self.nodes.len();
        let egress_gate = Gate::new(self.cfg.up_queue_cap);
        let ingress_gate = Gate::new(ingress_cap.unwrap_or(self.cfg.ingress_cap));
        self.nodes.push(NodeState {
            delivery,
            up: UpLink {
                q: VecDeque::new(),
                busy: false,
                hol_parked: false,
            },
            down: DownLink {
                q: VecDeque::new(),
                busy: false,
            },
            egress_gate: egress_gate.clone(),
            ingress_gate: ingress_gate.clone(),
            hol_waiters: Vec::new(),
        });
        self.stats.borrow_mut().per_node.push(NodeStats::default());
        NodePort {
            node,
            fabric: self.self_id,
            egress_gate,
            ingress_gate,
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn try_start_uplink(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        if self.nodes[n].up.busy {
            return;
        }
        let Some(head) = self.nodes[n].up.q.front() else {
            return;
        };
        let dst = head.dst;
        // PFC-like hold: don't serialize into a full destination queue.
        if dst != n && self.nodes[dst].down.q.len() >= self.cfg.down_queue_cap {
            self.stats.borrow_mut().switch_holds += 1;
            if !self.nodes[n].up.hol_parked {
                debug_assert!(
                    !self.nodes[dst].hol_waiters.contains(&n),
                    "uplink {n} already waits on {dst}"
                );
                self.nodes[n].up.hol_parked = true;
                self.nodes[dst].hol_waiters.push(n);
            }
            return;
        }
        let bytes = head.wire_bytes() as u64;
        self.nodes[n].up.busy = true;
        let t = self.cfg.link_bw.tx_time(bytes);
        ctx.schedule_self(t, Box::new(UpTxDone { node: n }));
    }

    fn try_start_downlink(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        if self.nodes[n].down.busy {
            return;
        }
        let Some(head) = self.nodes[n].down.q.front() else {
            return;
        };
        // Credit-based delivery into the NIC ingress buffer.
        let granted = self.nodes[n].ingress_gate.borrow_mut().try_take();
        if !granted {
            let fid = self.self_id;
            self.nodes[n]
                .ingress_gate
                .borrow_mut()
                .register_waiter(fid, n as u64);
            return;
        }
        let bytes = head.wire_bytes() as u64;
        self.nodes[n].down.busy = true;
        let t = self.cfg.link_bw.tx_time(bytes);
        ctx.schedule_self(t, Box::new(DownTxDone { node: n }));
    }

    fn on_up_tx_done(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        let pkt = self.nodes[n]
            .up
            .q
            .pop_front()
            .expect("UpTxDone with empty queue");
        self.nodes[n].up.busy = false;
        {
            let mut st = self.stats.borrow_mut();
            st.per_node[n].tx_pkts += 1;
            st.per_node[n].tx_bytes += pkt.wire_bytes() as u64;
        }
        // The uplink queue freed a slot: return the egress credit.
        self.nodes[n].egress_gate.borrow_mut().release(ctx);
        let flight = self.cfg.link_latency + self.cfg.switch_delay;
        ctx.schedule_self(flight, Box::new(SwArrive { pkt }));
        self.try_start_uplink(ctx, n);
    }

    fn on_sw_arrive(&mut self, ctx: &mut Ctx<'_>, pkt: NetPacket<P>) {
        let dst = pkt.dst;
        self.nodes[dst].down.q.push_back(pkt);
        self.try_start_downlink(ctx, dst);
    }

    fn on_down_tx_done(&mut self, ctx: &mut Ctx<'_>, n: NodeId) {
        let pkt = self.nodes[n]
            .down
            .q
            .pop_front()
            .expect("DownTxDone with empty queue");
        self.nodes[n].down.busy = false;
        {
            let mut st = self.stats.borrow_mut();
            st.per_node[n].rx_pkts += 1;
            st.per_node[n].rx_bytes += pkt.wire_bytes() as u64;
        }
        let delivery = self.nodes[n].delivery;
        ctx.schedule(self.cfg.link_latency, delivery, Box::new(Arrive { pkt }));
        // A down-queue slot freed: retry uplinks that were held on it.
        let waiters = std::mem::take(&mut self.nodes[n].hol_waiters);
        for &w in &waiters {
            self.nodes[w].up.hol_parked = false;
        }
        for w in waiters {
            self.try_start_uplink(ctx, w);
        }
        self.try_start_downlink(ctx, n);
    }
}

impl<P: Payload> Component for Fabric<P> {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let ev = match ev.downcast::<Submit<P>>() {
            Ok(s) => {
                let n = s.pkt.src;
                debug_assert!(
                    self.nodes[n].up.q.len() < self.cfg.up_queue_cap,
                    "Submit without egress credit"
                );
                self.nodes[n].up.q.push_back(s.pkt);
                self.try_start_uplink(ctx, n);
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<UpTxDone>() {
            Ok(u) => {
                self.on_up_tx_done(ctx, u.node);
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<SwArrive<P>>() {
            Ok(a) => {
                self.on_sw_arrive(ctx, a.pkt);
                return;
            }
            Err(e) => e,
        };
        let ev = match ev.downcast::<DownTxDone>() {
            Ok(d) => {
                self.on_down_tx_done(ctx, d.node);
                return;
            }
            Err(e) => e,
        };
        match ev.downcast::<GateWake>() {
            Ok(w) => {
                // An ingress gate released a credit; retry that downlink.
                self.try_start_downlink(ctx, w.token as NodeId);
            }
            Err(_) => panic!("fabric: unknown event type"),
        }
    }

    fn name(&self) -> String {
        "fabric".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::Time;

    #[derive(Clone, Debug)]
    struct Raw(u32);
    impl Payload for Raw {
        fn wire_bytes(&self) -> u32 {
            self.0
        }
    }

    /// Sink NIC: consumes packets *serially*, holding each ingress credit
    /// for `consume` time, so it models a processing-rate-limited receiver.
    struct Sink {
        port: Option<NodePort>,
        consume: Dur,
        backlog: u32,
        busy: bool,
        log: Rc<RefCell<Vec<(u64, u32)>>>,
    }
    struct ConsumeDone;
    impl Sink {
        fn try_consume(&mut self, ctx: &mut Ctx<'_>) {
            if !self.busy && self.backlog > 0 {
                self.busy = true;
                self.backlog -= 1;
                ctx.schedule_self(self.consume, Box::new(ConsumeDone));
            }
        }
    }
    impl Component for Sink {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let ev = match ev.downcast::<Arrive<Raw>>() {
                Ok(a) => {
                    self.log
                        .borrow_mut()
                        .push((ctx.now().ps(), a.pkt.wire_bytes()));
                    self.backlog += 1;
                    self.try_consume(ctx);
                    return;
                }
                Err(e) => e,
            };
            if ev.downcast::<ConsumeDone>().is_ok() {
                self.busy = false;
                let port = self.port.as_ref().unwrap().clone();
                port.ingress_gate.borrow_mut().release(ctx);
                self.try_consume(ctx);
            }
        }
    }

    /// Source NIC: sends `n` packets of `size` bytes as fast as credits allow.
    struct Source {
        port: Option<NodePort>,
        dst: NodeId,
        remaining: u32,
        size: u32,
    }
    struct Kick;
    impl Source {
        fn pump(&mut self, ctx: &mut Ctx<'_>) {
            while self.remaining > 0 {
                let port = self.port.as_ref().unwrap();
                let pkt = NetPacket::new(port.node, self.dst, Raw(self.size));
                if port.try_submit(ctx, pkt) {
                    self.remaining -= 1;
                } else {
                    let id = ctx.self_id;
                    port.egress_gate.borrow_mut().register_waiter(id, 0);
                    break;
                }
            }
        }
    }
    impl Component for Source {
        fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Box<dyn Any>) {
            self.pump(ctx); // Kick and GateWake both just pump.
        }
    }

    #[allow(clippy::type_complexity)]
    fn build(
        consume: Dur,
        n_pkts: u32,
        size: u32,
        cfg: FabricConfig,
    ) -> (
        Engine,
        Rc<RefCell<Vec<(u64, u32)>>>,
        Rc<RefCell<FabricStats>>,
    ) {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let fid = e.reserve_id();
        let src_id = e.reserve_id();
        let snk_id = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(cfg, fid);
        let sport = fab.register_node(src_id, None);
        let dport = fab.register_node(snk_id, None);
        let stats = fab.stats();
        e.install(fid, Box::new(fab));
        e.install(
            src_id,
            Box::new(Source {
                dst: dport.node,
                port: Some(sport),
                remaining: n_pkts,
                size,
            }),
        );
        e.install(
            snk_id,
            Box::new(Sink {
                port: Some(dport),
                consume,
                backlog: 0,
                busy: false,
                log: log.clone(),
            }),
        );
        e.schedule(Dur::ZERO, src_id, Box::new(Kick));
        (e, log, stats)
    }

    #[test]
    fn single_packet_end_to_end_latency() {
        let cfg = FabricConfig::default();
        let (mut e, log, _) = build(Dur::ZERO, 1, 2048, cfg.clone());
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // serialize(2048B@400G)=40.96ns + link 20 + switch 100
        // + serialize 40.96 + link 20 = 221.92 ns
        let expect = cfg.link_bw.tx_time(2048) * 2 + cfg.link_latency * 2 + cfg.switch_delay;
        assert_eq!(log[0].0, expect.ps());
    }

    #[test]
    fn back_to_back_packets_arrive_at_line_rate() {
        let (mut e, log, _) = build(Dur::ZERO, 100, 2048, FabricConfig::default());
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 100);
        // Steady state: one packet per serialization time (40.96 ns).
        let gaps: Vec<u64> = log.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps.iter().all(|&g| g == 40_960), "{gaps:?}");
    }

    #[test]
    fn slow_consumer_throttles_sender_without_loss() {
        // Consumer takes 10x the serialization time per packet.
        let (mut e, log, stats) = build(Dur::from_ps(409_600), 64, 2048, FabricConfig::default());
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), 64, "lossless: every packet must arrive");
        // Arrival rate must eventually degrade to the consume rate.
        let tail: Vec<u64> = log[40..].windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(
            tail.iter().all(|&g| g >= 409_600),
            "tail gaps show backpressure: {tail:?}"
        );
        assert_eq!(stats.borrow().per_node[1].rx_pkts, 64);
    }

    #[test]
    fn stats_count_bytes() {
        let (mut e, _, stats) = build(Dur::ZERO, 10, 1000, FabricConfig::default());
        e.run_to_completion();
        let st = stats.borrow();
        assert_eq!(st.per_node[0].tx_pkts, 10);
        assert_eq!(st.per_node[0].tx_bytes, 10_000);
        assert_eq!(st.per_node[1].rx_bytes, 10_000);
    }

    #[test]
    fn two_senders_share_one_destination_fairly_enough() {
        // Both sources target node 2; aggregated arrival rate is line rate.
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let fid = e.reserve_id();
        let s1 = e.reserve_id();
        let s2 = e.reserve_id();
        let snk = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(FabricConfig::default(), fid);
        let p1 = fab.register_node(s1, None);
        let p2 = fab.register_node(s2, None);
        let pd = fab.register_node(snk, None);
        e.install(fid, Box::new(fab));
        let dst = pd.node;
        e.install(
            s1,
            Box::new(Source {
                dst,
                port: Some(p1),
                remaining: 50,
                size: 2048,
            }),
        );
        e.install(
            s2,
            Box::new(Source {
                dst,
                port: Some(p2),
                remaining: 50,
                size: 2048,
            }),
        );
        e.install(
            snk,
            Box::new(Sink {
                port: Some(pd),
                consume: Dur::ZERO,
                backlog: 0,
                busy: false,
                log: log.clone(),
            }),
        );
        e.schedule(Dur::ZERO, s1, Box::new(Kick));
        e.schedule(Dur::ZERO, s2, Box::new(Kick));
        e.run_to_completion();
        assert_eq!(log.borrow().len(), 100);
        // Delivery is serialized by the shared downlink: gaps ≥ one
        // serialization time each.
        let l = log.borrow();
        let gaps: Vec<u64> = l.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps.iter().all(|&g| g >= 40_960), "{gaps:?}");
        assert!(e.now() >= Time(100 * 40_960));
    }

    #[test]
    fn incast_retry_order_is_deterministic() {
        // 64 senders into one sink through a 4-deep switch queue: most
        // uplinks spend the run parked on the sink's HOL waiter list, so
        // the arrival log pins the order in which parked uplinks retry.
        // Sender `i` sends packets of `1024 + i` bytes, so the log also
        // names who got each slot.
        const SENDERS: usize = 64;
        const PKTS: u32 = 8;
        let cfg = FabricConfig {
            down_queue_cap: 4,
            ..FabricConfig::default()
        };
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let fid = e.reserve_id();
        let srcs: Vec<ComponentId> = (0..SENDERS).map(|_| e.reserve_id()).collect();
        let snk = e.reserve_id();
        let mut fab: Fabric<Raw> = Fabric::new(cfg, fid);
        let ports: Vec<NodePort> = srcs.iter().map(|&s| fab.register_node(s, None)).collect();
        let pd = fab.register_node(snk, None);
        let stats = fab.stats();
        e.install(fid, Box::new(fab));
        for (i, (&id, port)) in srcs.iter().zip(ports).enumerate() {
            e.install(
                id,
                Box::new(Source {
                    dst: pd.node,
                    port: Some(port),
                    remaining: PKTS,
                    size: 1024 + i as u32,
                }),
            );
            e.schedule(Dur::ZERO, id, Box::new(Kick));
        }
        e.install(
            snk,
            Box::new(Sink {
                port: Some(pd),
                consume: Dur::from_ps(60_000),
                backlog: 0,
                busy: false,
                log: log.clone(),
            }),
        );
        e.run_to_completion();
        let log = log.borrow();
        assert_eq!(log.len(), SENDERS * PKTS as usize, "lossless under incast");
        // FNV-1a over (arrival ps, bytes), plus the hold count: together
        // they pin the order parked uplinks retry in. A change to either
        // moves simulated time, so it is a model change, not a refactor.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &(t, bytes) in log.iter() {
            for b in t.to_le_bytes().into_iter().chain(bytes.to_le_bytes()) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(h, 0x1c25_b63d_ebd9_a09e, "arrival log hash {h:#018x}");
        assert_eq!(stats.borrow().switch_holds, 28_480);
    }
}
