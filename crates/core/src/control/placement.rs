//! Write placement and commit: where every byte (and parity) goes, plus
//! the hosted-capacity ledgers that track what each storage node holds.

use super::*;

/// How a placement relates to the file's cursor.
#[derive(Clone, Copy, Debug)]
pub(super) enum PlaceMode {
    /// Append at the cursor (the cursor advances by `len`).
    Append,
    /// Explicit offset; the cursor advances only past `offset + len`.
    At(u64),
    /// Busy-retry re-placement at the original offset; no cursor motion.
    Retry(u64),
}

impl ControlPlane {
    pub(super) fn home_of(&self, layout: &StripedLayout) -> usize {
        self.storage_nodes
            .iter()
            .position(|&n| n as u32 == layout.nodes[0])
            .expect("layout node")
    }

    pub(super) fn alloc_on(&mut self, node: NodeId, len: u64) -> u64 {
        let a = self.next_addr.get_mut(&node).expect("storage node");
        let addr = *a;
        // Page-align so concurrent placements never overlap.
        *a += len.div_ceil(4096).max(1) * 4096;
        addr
    }

    fn count_stripe_placement(&mut self, node: NodeId) {
        if self.storage_stats.is_empty() {
            return;
        }
        if let Some(i) = self.storage_nodes.iter().position(|&n| n == node) {
            self.storage_stats[i].borrow_mut().stripe_chunks_placed += 1;
        }
    }

    /// Allocate a fresh request id.
    pub fn alloc_greq(&mut self) -> u64 {
        let g = self.next_greq;
        self.next_greq += 1;
        g
    }

    /// Metadata service: place one write of `len` bytes for `file`,
    /// appending at the file's placement cursor. Unknown file ids are a
    /// typed error the client surfaces as a failed job.
    pub fn place_write(&mut self, file: u64, len: u32) -> Result<WritePlacement, MetaError> {
        self.place_write_inner(file, len, PlaceMode::Append)
    }

    /// Place a write at an explicit logical offset (`pwrite` semantics):
    /// the placement cursor only advances past `offset + len` when the
    /// write extends the file, so overwrites don't grow it.
    pub fn place_write_at(
        &mut self,
        file: u64,
        len: u32,
        offset: u64,
    ) -> Result<WritePlacement, MetaError> {
        self.place_write_inner(file, len, PlaceMode::At(offset))
    }

    /// Re-place a retried write at its original logical offset: fresh
    /// physical addresses (the old descriptors are gone), but the
    /// placement cursor does NOT advance again — a retry re-writes the
    /// same logical extent, it does not append new bytes.
    pub fn replace_write(
        &mut self,
        file: u64,
        len: u32,
        offset: u64,
    ) -> Result<WritePlacement, MetaError> {
        self.place_write_inner(file, len, PlaceMode::Retry(offset))
    }

    fn place_write_inner(
        &mut self,
        file: u64,
        len: u32,
        mode: PlaceMode,
    ) -> Result<WritePlacement, MetaError> {
        let meta = self.lookup(file)?.clone();
        self.route(self.shard_of(file), ServiceClass::Mutation);
        let greq = self.alloc_greq();
        let n = self.storage_nodes.len();
        let home = meta.home;
        let base = match mode {
            PlaceMode::Append => meta.cursor,
            PlaceMode::At(o) => o,
            PlaceMode::Retry(o) => o,
        };
        // Cursor: appends and extending writes advance it; retries never
        // do (their original placement already did). Only the cursor
        // moves here — the committed size advances when the write's
        // placement is committed, so a rejected or abandoned write never
        // inflates what `stat` and read planning see.
        let appended = match mode {
            PlaceMode::Retry(_) => 0,
            _ => (base + len as u64).saturating_sub(meta.cursor),
        };
        if appended > 0 {
            if let Some(f) = self.file_mut(file) {
                f.cursor += appended;
            }
        }
        let placement = match meta.policy {
            FilePolicy::Plain => {
                // Striped placement: split the extent over the file's
                // layout; width-1 layouts degenerate to the seed's
                // single-node placement.
                let extents = meta.layout.extents(base, len);
                let mut stripes = Vec::with_capacity(extents.len());
                for e in &extents {
                    let node = e.node as NodeId;
                    let addr = self.alloc_on(node, e.len.max(1) as u64);
                    self.count_stripe_placement(node);
                    stripes.push(StripeTarget {
                        coord: ReplicaCoord { node: e.node, addr },
                        len: e.len,
                        file_offset: e.file_offset,
                    });
                }
                let primary = stripes[0].coord;
                WritePlacement {
                    greq,
                    primary,
                    replicas: vec![primary],
                    data_chunks: vec![],
                    parities: vec![],
                    chunk_len: 0,
                    offset: base,
                    appended,
                    stripes: if stripes.len() > 1 { stripes } else { vec![] },
                }
            }
            FilePolicy::Replicated { k, .. } => {
                assert!(k as usize <= n, "replication factor exceeds cluster");
                let mut replicas = Vec::with_capacity(k as usize);
                for r in 0..k as usize {
                    let node = self.storage_nodes[(home + r) % n];
                    let addr = self.alloc_on(node, len as u64);
                    replicas.push(ReplicaCoord {
                        node: node as u32,
                        addr,
                    });
                }
                WritePlacement {
                    greq,
                    primary: replicas[0],
                    replicas,
                    data_chunks: vec![],
                    parities: vec![],
                    chunk_len: 0,
                    offset: base,
                    appended,
                    stripes: vec![],
                }
            }
            FilePolicy::ErasureCoded { scheme } => {
                let (k, m) = (scheme.k as usize, scheme.m as usize);
                assert!(k + m <= n, "RS(k,m) needs k+m storage nodes");
                let chunk_len = (len as u64).div_ceil(k as u64).max(1) as u32;
                let mut data_chunks = Vec::with_capacity(k);
                for j in 0..k {
                    let node = self.storage_nodes[(home + j) % n];
                    let addr = self.alloc_on(node, chunk_len as u64);
                    data_chunks.push(ReplicaCoord {
                        node: node as u32,
                        addr,
                    });
                }
                let mut parities = Vec::with_capacity(m);
                for p in 0..m {
                    let node = self.storage_nodes[(home + k + p) % n];
                    // Parity region: final parity plus k staging slots
                    // (used by the INEC firmware path).
                    let addr = self.alloc_on(node, chunk_len as u64 * (1 + k as u64));
                    parities.push(ReplicaCoord {
                        node: node as u32,
                        addr,
                    });
                }
                WritePlacement {
                    greq,
                    primary: data_chunks[0],
                    replicas: vec![],
                    data_chunks,
                    parities,
                    chunk_len,
                    offset: base,
                    appended,
                    stripes: vec![],
                }
            }
        };
        Ok(placement)
    }

    /// Commit a completed write's placement into the file's extent map
    /// (called by clients when the write acknowledges `Ok`): this is what
    /// makes the bytes *readable* — and what advances the committed size
    /// (`stat` / read-plan clamping). The map's generation bump is fanned
    /// out to registered read caches so cached data for the file drops.
    /// A file unlinked while the write was in flight is silently skipped.
    /// Returns the committed-size growth — what the client's write-back
    /// attr update must carry (placement-time deltas would over-count
    /// when an earlier placement was abandoned and never committed).
    pub fn commit_write(&mut self, file: u64, placement: &WritePlacement, len: u32) -> u64 {
        let shard = self.shard_of(file);
        if len == 0 || !self.shards[shard].files.contains_key(&file) {
            return 0;
        }
        self.route(shard, ServiceClass::Mutation);
        let scheme = match self.file(file).map(|m| &m.policy) {
            Some(FilePolicy::ErasureCoded { scheme }) => Some(*scheme),
            _ => None,
        };
        let map = self.shards[shard].extents.entry(file).or_default();
        let first_new = map.len();
        if !placement.stripes.is_empty() {
            for st in &placement.stripes {
                map.record(ExtentRecord::Plain {
                    offset: st.file_offset,
                    len: st.len,
                    coord: st.coord,
                });
            }
        } else if !placement.data_chunks.is_empty() {
            let scheme = scheme.expect("EC placement on a non-EC file");
            map.record(ExtentRecord::Ec {
                offset: placement.offset,
                len,
                chunk_len: placement.chunk_len,
                scheme,
                data: placement.data_chunks.clone(),
                parities: placement.parities.clone(),
            });
        } else if placement.replicas.len() > 1 {
            map.record(ExtentRecord::Replicated {
                offset: placement.offset,
                len,
                replicas: placement.replicas.clone(),
            });
        } else {
            map.record(ExtentRecord::Plain {
                offset: placement.offset,
                len,
                coord: placement.primary,
            });
        }
        let generation = map.generation();
        self.log_apply(
            shard,
            MetaMutation::ExtentCommit {
                ino: file,
                generation,
            },
        );
        // The bytes are durable now: this (and only this) advances the
        // committed size the read path clamps against.
        let mut growth = 0;
        if let Some(f) = self.file_mut(file) {
            let new_size = f.size.max(placement.offset + len as u64);
            growth = new_size - f.size;
            f.size = new_size;
        }
        // The committed shards are live on their nodes now: charge the
        // hosted-capacity gauges per coordinate.
        {
            let map = &self.shards[shard].extents[&file];
            let mut adds: Vec<(u32, u64)> = Vec::new();
            for rec in first_new..map.len() {
                let r = &map.records()[rec];
                let bytes = r.shard_len() as u64;
                for (_, coord) in r.shard_coords() {
                    adds.push((coord.node, bytes));
                }
            }
            for (node, bytes) in adds {
                self.hosted_add(node, bytes);
            }
        }
        // A write that raced a failure commits an extent referencing an
        // already-failed node (the placement predates `mark_node_failed`,
        // whose scan could not see this record): queue it now, or the
        // mid-write kill would leave a permanently degraded extent.
        if !self.failed_nodes.is_empty() {
            let map = &self.shards[shard].extents[&file];
            let mut racing: Vec<RepairTask> = Vec::new();
            for rec in first_new..map.len() {
                if self
                    .failed_nodes
                    .iter()
                    .any(|&n| map.records()[rec].references_node(n))
                {
                    racing.push(RepairTask { file, rec });
                }
            }
            for t in racing {
                self.repair_queue.push_back(t);
            }
        }
        // Fan the generation bump out to client read caches (same
        // callback channel every namespace mutation rides).
        self.meta.note_extent_commit(file, generation);
        self.publish_invalidations();
        // Overwrite-heavy files accrete fully-shadowed records; fold
        // them while the cluster is quiescent.
        self.maybe_compact(file);
        growth
    }

    /// The stats sink for storage node `node`, if one is attached (unit
    /// tests build planes without sinks; every ledger update degrades to
    /// a no-op there).
    pub(super) fn node_stats(&self, node: u32) -> Option<&SharedStorageStats> {
        self.storage_nodes
            .iter()
            .position(|&n| n as u32 == node)
            .and_then(|i| self.storage_stats.get(i))
    }

    /// A shard became live on `node`: bump its hosted gauges.
    pub(super) fn hosted_add(&self, node: u32, bytes: u64) {
        if let Some(stats) = self.node_stats(node) {
            let mut s = stats.borrow_mut();
            s.chunks_hosted += 1;
            s.bytes_hosted += bytes;
        }
    }

    /// A shard stopped being live on `node` (re-homed away, or its file
    /// unlinked): drop it from the hosted gauges. The gauges track what
    /// the extent maps currently say, so this happens at the metadata
    /// mutation — even while the node is down (the stale physical copy
    /// moves to the orphan ledger via [`Self::orphan_add`]).
    pub(super) fn hosted_sub(&self, node: u32, bytes: u64) {
        if let Some(stats) = self.node_stats(node) {
            let mut s = stats.borrow_mut();
            s.chunks_hosted = s.chunks_hosted.saturating_sub(1);
            s.bytes_hosted = s.bytes_hosted.saturating_sub(bytes);
        }
    }

    /// Record a stale copy stranded on failed node `node`: the metadata
    /// no longer references it, but the node was down when it died, so
    /// the physical chunk sits there until recovery reconciliation.
    pub(super) fn orphan_add(&mut self, node: u32, bytes: u64) {
        let led = self.orphaned.entry(node).or_default();
        led.chunks += 1;
        led.bytes += bytes;
    }

    /// Un-home one extent record's shards after the record leaves the
    /// metadata (unlink / rename-replace / compaction): every coordinate
    /// drops off the hosted gauges, and coordinates on currently-failed
    /// nodes are remembered as orphans for recovery-time reclamation.
    pub(super) fn unhost_record(&mut self, rec: &ExtentRecord) {
        let bytes = rec.shard_len() as u64;
        for (_, coord) in rec.shard_coords() {
            self.hosted_sub(coord.node, bytes);
            if self.failed_nodes.contains(&coord.node) {
                self.orphan_add(coord.node, bytes);
            }
        }
    }
}
