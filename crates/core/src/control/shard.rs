//! Metadata shards, per-shard op logs, and the cross-shard transaction
//! protocol.
//!
//! Each shard owns the `FileMeta` / `ExtentMap` state for the inos the
//! [`super::router::ShardRouter`] maps to it, plus an append-only op log.
//! Mutations are *asynchronous* (AsyncFS-style): the owning shard appends
//! the mutation to its log and the client is acked after the append — the
//! in-memory apply and the cache-callback fan-out happen off the ack path.
//! The log is therefore the unit of durability, and (ROADMAP item 3) the
//! natural unit of replication for a per-shard consensus group.
//!
//! Operations whose participants span shards (rename across parent
//! directories, unlink whose parent and target hash apart) run a
//! two-phase intent/commit protocol: every participant logs an `Intent`,
//! the coordinator applies and logs `Applied`, then all participants log
//! `Commit`. [`super::ControlPlane::recover_shards`] replays the logs
//! after a crash: a dangling intent rolls forward iff some shard logged
//! `Applied`, and rolls back otherwise — exercised by the fault harness
//! via [`CrashPoint`].

use super::*;

/// A namespace mutation as recorded in a shard's op log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaMutation {
    Mkdir { ino: u64 },
    Create { ino: u64 },
    Rename { from: String, to: String },
    Unlink { ino: u64 },
    AttrFlush { ino: u64 },
    ExtentCommit { ino: u64, generation: u64 },
    RepairRehome { ino: u64, rec: usize },
}

/// One record in a shard's append-only op log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogEntry {
    /// A single-shard mutation: logged and acked, applied in place.
    Apply { op: MetaMutation },
    /// Cross-shard transaction phase 1: this shard is a participant.
    Intent { txid: u64, op: MetaMutation },
    /// Coordinator-only marker: the transaction's mutation has been
    /// applied to the namespace (the roll-forward witness).
    Applied { txid: u64 },
    /// Cross-shard transaction phase 2: the transaction is durable
    /// everywhere; recovery ignores it.
    Commit { txid: u64 },
    /// Recovery rolled the transaction back (no `Applied` witness).
    Abort { txid: u64 },
}

/// A shard's append-only mutation log.
#[derive(Debug, Default)]
pub struct OpLog {
    entries: Vec<LogEntry>,
}

impl OpLog {
    pub fn append(&mut self, e: LogEntry) {
        self.entries.push(e);
    }

    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Transaction ids with an `Intent` on this shard but no terminal
    /// `Commit`/`Abort` — what recovery has to resolve.
    pub fn dangling_intents(&self) -> Vec<u64> {
        let mut dangling: Vec<u64> = Vec::new();
        for e in &self.entries {
            match e {
                LogEntry::Intent { txid, .. } => dangling.push(*txid),
                LogEntry::Commit { txid } | LogEntry::Abort { txid } => {
                    dangling.retain(|t| t != txid);
                }
                _ => {}
            }
        }
        dangling
    }

    /// Whether this shard witnessed the apply of `txid` (coordinator).
    pub fn has_applied(&self, txid: u64) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e, LogEntry::Applied { txid: t } if *t == txid))
    }
}

/// Per-shard observable counters, exported as `meta.shard.N.*`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Every routed operation (mutations + resolves).
    pub ops: u64,
    /// Namespace/extent mutations routed here.
    pub mutations: u64,
    /// Read-side resolves routed here.
    pub resolves: u64,
    /// Total simulated time ops spent queued behind this shard
    /// (admission-control wait, picoseconds).
    pub queue_wait_ps: u64,
    /// Cross-shard transactions this shard coordinated.
    pub cross_shard_txns: u64,
    /// Extent-map compactions run on files this shard owns.
    pub compactions: u64,
    /// Fully-shadowed extent records dropped by those compactions.
    pub records_dropped: u64,
}

/// One metadata shard: the partition's file/extent state, its op log,
/// and the single-server queue the admission model charges against.
#[derive(Debug)]
pub struct MetaShard {
    pub id: usize,
    /// FileMeta for inos this shard owns.
    pub files: HashMap<u64, FileMeta>,
    /// Committed extent maps for files this shard owns.
    pub extents: HashMap<u64, ExtentMap>,
    /// The shard's append-only mutation log.
    pub log: OpLog,
    /// When this shard next becomes free (simulated ps) — the
    /// single-server queue behind which routed ops wait.
    pub busy_until_ps: u64,
    pub stats: ShardStats,
    /// Per-file compaction watermark: the map length after the last
    /// compaction, so the next one only triggers after real growth.
    pub compact_floor: HashMap<u64, usize>,
}

impl MetaShard {
    pub fn new(id: usize) -> MetaShard {
        MetaShard {
            id,
            files: HashMap::new(),
            extents: HashMap::new(),
            log: OpLog::default(),
            busy_until_ps: 0,
            stats: ShardStats::default(),
            compact_floor: HashMap::new(),
        }
    }
}

/// Which service-time bucket a routed op occupies its shard for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceClass {
    Mutation,
    Resolve,
}

/// The receipt of one routed op: the shard it occupies and for how long
/// ([`ControlPlane::admit`] charges it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Route {
    pub(crate) shard: usize,
    pub(crate) class: ServiceClass,
}

/// Deterministic mid-transaction kill switch for the fault harness: the
/// next cross-shard transaction dies at the given point (the switch
/// clears itself — one kill per arm).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die after every participant logged `Intent`, before the apply:
    /// recovery must roll the transaction back.
    AfterIntent,
    /// Die after the apply and the coordinator's `Applied` record,
    /// before any `Commit`: recovery must roll the transaction forward.
    AfterApply,
}

/// What [`ControlPlane::recover_shards`] did with the dangling intents
/// it found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxRecovery {
    pub rolled_forward: u64,
    pub rolled_back: u64,
}

impl ControlPlane {
    /// Arm the deterministic crash switch: the next cross-shard
    /// transaction dies at `point` (and disarms it).
    pub fn set_crash_point(&mut self, point: CrashPoint) {
        self.crash_point = Some(point);
    }

    /// Admission control for one routed op: charge the queueing delay of
    /// its shard and occupy the shard for the op's service time. Returns
    /// the wait (ps) the caller must add to the op's completion latency.
    /// Callers that never admit a route (direct test drivers) simply skip
    /// the queueing model — state effects are identical either way.
    pub fn admit(&mut self, route: Route, now_ps: u64) -> u64 {
        let service_ps = match route.class {
            ServiceClass::Mutation => self.costs.mutate_service.ps(),
            ServiceClass::Resolve => self.costs.resolve_service.ps(),
        };
        let sh = &mut self.shards[route.shard];
        let wait = sh.busy_until_ps.saturating_sub(now_ps);
        sh.busy_until_ps = now_ps + wait + service_ps;
        sh.stats.queue_wait_ps += wait;
        wait
    }

    /// Count a public op routed to `shard` and hand back its receipt.
    pub(super) fn route(&mut self, shard: usize, class: ServiceClass) -> Route {
        let st = &mut self.shards[shard].stats;
        st.ops += 1;
        match class {
            ServiceClass::Mutation => st.mutations += 1,
            ServiceClass::Resolve => st.resolves += 1,
        }
        Route { shard, class }
    }

    /// Log a single-shard mutation on `shard` (the async-ack point).
    pub(super) fn log_apply(&mut self, shard: usize, op: MetaMutation) {
        self.shards[shard].log.append(LogEntry::Apply { op });
    }

    fn alloc_txid(&mut self) -> u64 {
        let t = self.next_txid;
        self.next_txid += 1;
        t
    }

    /// Phase 1 of a cross-shard transaction: log `Intent` on every
    /// participant. Returns `Err(TxAborted)` if the armed crash point
    /// kills the coordinator here (namespace untouched; recovery will
    /// roll back).
    fn tx_intent(
        &mut self,
        txid: u64,
        participants: &[usize],
        op: MetaMutation,
    ) -> Result<(), MetaError> {
        for &s in participants {
            self.shards[s].log.append(LogEntry::Intent {
                txid,
                op: op.clone(),
            });
        }
        if self.crash_point == Some(CrashPoint::AfterIntent) {
            self.crash_point = None;
            return Err(MetaError::TxAborted);
        }
        Ok(())
    }

    /// Phase 2: the coordinator witnessed the apply. Returns
    /// `Err(TxAborted)` if the armed crash point kills the coordinator
    /// here (mutation applied but unacked; recovery rolls forward).
    fn tx_applied(&mut self, txid: u64, coordinator: usize) -> Result<(), MetaError> {
        self.shards[coordinator]
            .log
            .append(LogEntry::Applied { txid });
        if self.crash_point == Some(CrashPoint::AfterApply) {
            self.crash_point = None;
            return Err(MetaError::TxAborted);
        }
        Ok(())
    }

    /// Phase 3: commit everywhere; the coordinator counts the
    /// transaction.
    fn tx_commit(&mut self, txid: u64, participants: &[usize], coordinator: usize) {
        for &s in participants {
            self.shards[s].log.append(LogEntry::Commit { txid });
        }
        self.shards[coordinator].stats.cross_shard_txns += 1;
    }

    /// Run `apply` as a namespace mutation coordinated by `coordinator`:
    /// logged in place when the coordinator is the only participant,
    /// under the two-phase intent/apply/commit protocol otherwise.
    pub(super) fn run_mutation<T>(
        &mut self,
        coordinator: usize,
        participants: &[usize],
        op: MetaMutation,
        apply: impl FnOnce(&mut Self) -> Result<T, MetaError>,
    ) -> Result<T, MetaError> {
        let txid = if participants.len() > 1 {
            let txid = self.alloc_txid();
            self.tx_intent(txid, participants, op.clone())?;
            Some(txid)
        } else {
            None
        };
        let r = apply(self);
        match (&r, txid) {
            (Ok(_), Some(txid)) => {
                self.tx_applied(txid, coordinator)?;
                self.tx_commit(txid, participants, coordinator);
            }
            (Err(_), Some(txid)) => {
                // Validation rejected the op: the intents are dead on
                // arrival — abort them so recovery has nothing to do.
                for &s in participants {
                    self.shards[s].log.append(LogEntry::Abort { txid });
                }
            }
            (Ok(_), None) => self.log_apply(coordinator, op),
            (Err(_), None) => {}
        }
        r
    }

    /// Crash recovery for the shard logs: resolve every dangling intent.
    /// A transaction some shard witnessed as `Applied` rolls forward
    /// (append the missing `Commit`s); one with no witness rolls back
    /// (append `Abort`s — the namespace mutation never happened, per
    /// the intent-before-apply protocol order).
    pub fn recover_shards(&mut self) -> TxRecovery {
        let mut dangling: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.log.dangling_intents())
            .collect();
        dangling.sort_unstable();
        dangling.dedup();
        let mut rec = TxRecovery::default();
        for txid in dangling {
            let applied = self.shards.iter().any(|s| s.log.has_applied(txid));
            for s in &mut self.shards {
                if s.log.dangling_intents().contains(&txid) {
                    s.log.append(if applied {
                        LogEntry::Commit { txid }
                    } else {
                        LogEntry::Abort { txid }
                    });
                }
            }
            if applied {
                rec.rolled_forward += 1;
            } else {
                rec.rolled_back += 1;
            }
        }
        rec
    }

    /// Per-shard stats snapshot (index = shard id).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Per-shard op-log lengths (index = shard id).
    pub fn shard_log_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.log.len()).collect()
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }
}
