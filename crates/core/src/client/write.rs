//! The write path: placement, the doorbell-delayed issue of each
//! protocol's wire program, ack counting, `Busy` retries, and the commit
//! that publishes a durable write.

use super::*;

/// Buffered write-back attr updates are flushed to the control plane once
/// this many files are dirty (one round-trip for the whole batch).
const WRITEBACK_BATCH: usize = 8;

/// One write job, lowered from [`Job::Write`] or [`Job::WriteAt`]. It
/// travels from placement through the doorbell delay, every `Busy`
/// retry, and completion.
pub(super) struct WriteOp {
    pub(super) file: u64,
    /// Placement offset; `None` appends at the file's cursor.
    pub(super) offset: Option<u64>,
    pub(super) data: Bytes,
    pub(super) protocol: WriteProtocol,
    pub(super) slot: Option<WriteSlot>,
}

impl WriteOp {
    fn size(&self) -> u32 {
        self.data.len() as u32
    }
}

/// One in-flight write (issued, awaiting acks).
pub(super) struct Pending {
    op: WriteOp,
    placement: WritePlacement,
    start: Time,
    /// HyperLoop config acks still awaited; the data write goes out when
    /// the last arrives.
    hl_config_left: u32,
    /// Completion acks still awaited for the data.
    acks_left: u32,
    retries: u32,
    /// Message ids belonging to this request (for greq-less acks).
    msgs: Vec<MsgId>,
}

impl Pending {
    /// The extents a plain write lands in: one per stripe unit, or a
    /// width-1 layout's single extent at `primary`. Each extent's bytes
    /// must land at that extent's address, never overrun the first
    /// extent's allocation.
    fn extents(&self) -> Vec<(ReplicaCoord, u32)> {
        let p = &self.placement;
        if p.stripes.len() > 1 {
            p.stripes.iter().map(|s| (s.coord, s.len)).collect()
        } else {
            vec![(p.primary, self.op.size())]
        }
    }
}

impl ClientApp {
    /// Place one write and arm the doorbell timer that issues it. The
    /// measured latency starts when the driver decides to write; the verbs
    /// post (doorbell, WQE build) delays actual injection — a real cost
    /// every protocol pays.
    pub(super) fn start_write(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op: WriteOp) {
        let (file, size) = (op.file, op.size());
        let placed = match op.offset {
            None => self.control.borrow_mut().place_write(file, size),
            Some(o) => self.control.borrow_mut().place_write_at(file, size, o),
        };
        let start = ctx.now();
        let span = self.span_begin(OpKind::Write, nic, start, || {
            format!("write f{file} {size}B")
        });
        let Ok(placement) = placed else {
            // Typed metadata miss: the job fails, the client moves on.
            self.fail_write(nic, ctx, op, 0, start, span);
            return;
        };
        self.span_mark(span, phase::RESOLVED, start);
        self.span_correlate(placement.greq, span);
        self.trace.borrow_mut().emit_with(start, "control", || {
            format!("place-write f{file} {size}B greq={}", placement.greq)
        });
        let t_post = nic.cpu.exec(start, nic.cpu.costs.post_send);
        let step = Deferred::Issue {
            op,
            placement,
            start,
        };
        self.defer(nic, ctx, t_post.since(start), step);
    }

    /// Complete a write that failed before any byte moved (metadata miss,
    /// file gone, protocol the file's policy cannot take) with `Rejected`
    /// instead of letting it vanish, and refill the window.
    fn fail_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op: WriteOp,
        retries: u32,
        start: Time,
        span: SpanId,
    ) {
        self.span_end(span, ctx.now(), false);
        let greq = self.control.borrow_mut().alloc_greq();
        let result = WriteResult {
            greq,
            client: nic.node(),
            protocol: op.protocol,
            size: op.size(),
            start,
            end: ctx.now(),
            status: Status::Rejected,
            retries,
            checksum: 0,
            placement: WritePlacement::rejected(greq),
        };
        self.deliver(op.slot, result);
        self.fill(nic, ctx);
    }

    /// The write's doorbell cost (or `Busy` backoff) elapsed: put its
    /// protocol's wire program on the NIC.
    pub(super) fn issue_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op: WriteOp,
        placement: WritePlacement,
        retries: u32,
        start: Time,
    ) {
        let greq = placement.greq;
        let span = self.obs.borrow().spans.corr_span(greq).unwrap_or(0);
        let (file, size, protocol) = (op.file, op.size(), op.protocol);
        let data = op.data.clone();
        let abandon = self
            .abandon_every
            .map(|n| self.jobs_started.is_multiple_of(n))
            .unwrap_or(false);
        let policy = self.control.borrow().lookup(file).map(|m| m.policy.clone());
        let Ok(policy) = policy else {
            // The file vanished between placement and issue (e.g. an
            // unlink raced a retry): fail the job, don't panic.
            self.span_decorrelate(greq);
            self.fail_write(nic, ctx, op, retries, start, span);
            return;
        };
        let mut pending = Pending {
            op,
            placement: placement.clone(),
            start,
            hl_config_left: 0,
            acks_left: 1,
            retries,
            msgs: Vec::new(),
        };
        match (protocol, policy) {
            (WriteProtocol::Raw, _) => send_extents(&mut pending, nic, ctx, &data, None),
            (WriteProtocol::Spin, _) => {
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                if abandon {
                    // Abandon after the first packet of the first (or
                    // only) extent; remaining extents never leave the
                    // client, modeling a mid-stream client failure.
                    let (target, len) = match placement.stripes.first() {
                        Some(st) => (st.coord, st.len),
                        None => (placement.primary, size),
                    };
                    let wrh = WriteReqHeader {
                        target_addr: target.addr,
                        len,
                        resiliency: Resiliency::None,
                    };
                    let (msg, mut frames) =
                        nic.build_write_frames(Some(dfs), wrh, data.slice(..len as usize));
                    frames.truncate(1);
                    nic.send_frames(ctx, target.node as NodeId, frames);
                    pending.msgs.push(msg);
                    pending.acks_left = u32::MAX; // never completes
                } else {
                    send_extents(&mut pending, nic, ctx, &data, Some(dfs));
                }
            }
            (WriteProtocol::Rpc | WriteProtocol::RpcRdma, _) => {
                let inline = protocol == WriteProtocol::Rpc;
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                // One independent RPC per extent.
                let extents = pending.extents();
                pending.acks_left = extents.len() as u32;
                let mut off = 0usize;
                for (coord, len) in extents {
                    let wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len,
                        resiliency: Resiliency::None,
                    };
                    let slice = data.slice(off..off + len as usize);
                    let src_addr = if inline {
                        0
                    } else {
                        // Stage the extent in client memory for the
                        // storage-side RDMA read.
                        let a = nic.memory().borrow_mut().alloc(len as u64);
                        nic.memory().borrow_mut().write(a, &slice);
                        a
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh,
                        inline_data: inline,
                        src_addr,
                        chunk_off: 0,
                        full_len: len,
                    };
                    let msg = nic.send_rpc(
                        ctx,
                        coord.node as NodeId,
                        body,
                        if inline { slice } else { Bytes::new() },
                    );
                    pending.msgs.push(msg);
                    off += len as usize;
                }
            }
            (WriteProtocol::RdmaFlat, _) => {
                // One independent write per replica; full client trust.
                pending.acks_left = placement.replicas.len() as u32;
                for coord in &placement.replicas {
                    let wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len: size,
                        resiliency: Resiliency::None,
                    };
                    let msg = nic.send_write(ctx, coord.node as NodeId, None, wrh, data.clone());
                    pending.msgs.push(msg);
                }
            }
            (WriteProtocol::HyperLoop { chunk }, _) => {
                // Phase 1: configure the ring (k parallel WQE writes).
                let k = placement.replicas.len();
                pending.hl_config_left = k as u32;
                pending.acks_left = 1; // the tail data ack
                for (i, coord) in placement.replicas.iter().enumerate() {
                    let cfg = HlConfigPkt {
                        msg: MsgId::new(0, 0),
                        greq_id: greq,
                        local_addr: coord.addr,
                        total_len: size,
                        chunk,
                        next: placement.replicas.get(i + 1).copied(),
                        ack_client: i == k - 1,
                        frag: 0,
                        total_frags: 1,
                    };
                    let msg = nic.send_hl_config(ctx, coord.node as NodeId, cfg);
                    pending.msgs.push(msg);
                }
            }
            (WriteProtocol::CpuBcast { chunk }, FilePolicy::Replicated { strategy, .. }) => {
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                let k = placement.replicas.len() as u32;
                pending.acks_left = k;
                let chunk = chunk.max(1).min(size.max(1));
                let mut off = 0u32;
                while off < size || (size == 0 && off == 0) {
                    let len = chunk.min(size - off);
                    let wrh = WriteReqHeader {
                        target_addr: placement.primary.addr + off as u64,
                        len,
                        resiliency: Resiliency::Replicate {
                            strategy,
                            vrank: 0,
                            coords: placement.replicas.clone(),
                        },
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh,
                        inline_data: true,
                        src_addr: 0,
                        chunk_off: off,
                        full_len: size,
                    };
                    let msg = nic.send_rpc(
                        ctx,
                        placement.primary.node as NodeId,
                        body,
                        data.slice(off as usize..(off + len) as usize),
                    );
                    pending.msgs.push(msg);
                    off += len;
                    if size == 0 {
                        break;
                    }
                }
            }
            (WriteProtocol::SpinReplicated, FilePolicy::Replicated { strategy, .. }) => {
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                pending.acks_left = placement.replicas.len() as u32;
                let wrh = WriteReqHeader {
                    target_addr: placement.primary.addr,
                    len: size,
                    resiliency: Resiliency::Replicate {
                        strategy,
                        vrank: 0,
                        coords: placement.replicas.clone(),
                    },
                };
                let msg =
                    nic.send_write(ctx, placement.primary.node as NodeId, Some(dfs), wrh, data);
                pending.msgs.push(msg);
            }
            (
                WriteProtocol::SpinTriec { .. } | WriteProtocol::InecTriec,
                FilePolicy::ErasureCoded { scheme },
            ) => {
                let interleave = match protocol {
                    WriteProtocol::SpinTriec { interleave } => interleave,
                    _ => false,
                };
                let dfs = self.dfs_header(nic, file, greq, DfsOp::Write);
                let k = scheme.k as usize;
                let m = scheme.m as usize;
                pending.acks_left = (k + m) as u32;
                let chunk_len = placement.chunk_len;
                // Split the block into k chunks. Full chunks are zero-copy
                // windows into the block; only a ragged tail chunk needs
                // staging (zero-padded), and that buffer comes from the
                // NIC's recycled ring.
                let mut per_chunk_frames: Vec<(NodeId, Vec<Frame>)> = Vec::with_capacity(k);
                for (j, coord) in placement.data_chunks.iter().enumerate() {
                    let startb = (j as u32 * chunk_len).min(size) as usize;
                    let endb = ((j as u32 + 1) * chunk_len).min(size) as usize;
                    let chunk_data = if endb - startb == chunk_len as usize {
                        data.slice(startb..endb)
                    } else {
                        let mut staged = nic.buf_pool().borrow_mut().get(chunk_len as usize);
                        staged[..endb - startb].copy_from_slice(&data[startb..endb]);
                        Bytes::from(staged)
                    };
                    let wrh = WriteReqHeader {
                        target_addr: coord.addr,
                        len: chunk_len,
                        resiliency: Resiliency::ErasureCode(EcInfo {
                            scheme,
                            role: EcRole::Data { chunk_idx: j as u8 },
                            stripe: greq,
                            parity_coords: placement.parities.clone(),
                        }),
                    };
                    let (msg, frames) = nic.build_write_frames(Some(dfs), wrh, chunk_data);
                    pending.msgs.push(msg);
                    per_chunk_frames.push((coord.node as NodeId, frames));
                }
                if interleave {
                    // §VI-B-1: interleave packets across chunks so the
                    // parity node can aggregate as streams progress.
                    let mut mixed = Vec::new();
                    let max_len = per_chunk_frames
                        .iter()
                        .map(|(_, f)| f.len())
                        .max()
                        .unwrap_or(0);
                    for i in 0..max_len {
                        for (dst, frames) in &per_chunk_frames {
                            if let Some(f) = frames.get(i) {
                                mixed.push((*dst, f.clone()));
                            }
                        }
                    }
                    nic.send_mixed(ctx, mixed);
                } else {
                    for (dst, frames) in per_chunk_frames {
                        nic.send_frames(ctx, dst, frames);
                    }
                }
            }
            _ => {
                // Replication and TriEC need a file policy of their kind;
                // the job is rejected before any byte moves.
                self.span_decorrelate(greq);
                self.fail_write(nic, ctx, pending.op, retries, start, span);
                return;
            }
        }
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        for m in &pending.msgs {
            self.msg_owners.insert(*m, Owner::Write(greq));
        }
        self.in_flight.insert(greq, pending);
    }

    /// Stop tracking a write: drop its message and span correlations.
    fn take_write(&mut self, greq: u64) -> (Pending, SpanId) {
        let p = self.in_flight.remove(&greq).expect("pending");
        let span = self.span_decorrelate(greq);
        self.untrack(&p.msgs, &[]);
        (p, span)
    }

    /// Complete a write whose acks settled it with `status`.
    fn finish(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, greq: u64, status: Status) {
        let (p, span) = self.take_write(greq);
        let (file, size) = (p.op.file, p.op.size());
        // The application observes completion one poll interval after the
        // ack reaches the NIC (CQ polling cost, charged to every protocol).
        let end = ctx.now() + nic.cpu.costs.poll_notify;
        if status == Status::Ok {
            // The bytes are durable: commit the placement into the file's
            // extent map so reads can find them. The commit reports how
            // far the committed size actually grew — the attr write-back
            // carries that, not the placement-time delta (which would
            // count bytes of earlier placements that never committed).
            let appended = self
                .control
                .borrow_mut()
                .commit_write(file, &p.placement, size);
            self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
                format!("commit-write f{file} {size}B greq={greq}")
            });
            if self.cache_enabled {
                // Write-back metadata: absorb the size/mtime update
                // locally; a batch flush pays one round-trip for many
                // writes.
                self.meta_cache
                    .borrow_mut()
                    .buffer_append(file, appended, end.as_ns() as u64);
                if self.meta_cache.borrow().dirty_count() >= WRITEBACK_BATCH {
                    self.flush_writeback();
                }
            } else {
                // Write-through: an uncached client pays one attr-update
                // round-trip per write (and never goes stale).
                let _ = self.control.borrow_mut().flush_attrs(&[(
                    file,
                    nadfs_meta::DirtyAttr {
                        appended,
                        mtime_ns: end.as_ns() as u64,
                    },
                )]);
            }
            if self.read_cache_enabled {
                // Write-through cache population: a read-after-write is
                // served locally without a resolve or fan-out. The fill
                // carries the post-commit generation, so the commit's own
                // invalidation callback does not immediately evict it.
                let generation = self.control.borrow().extent_generation(file);
                self.read_cache.borrow_mut().fill_from_write(
                    file,
                    generation,
                    p.placement.offset,
                    &p.op.data,
                );
            }
            self.span_mark(span, phase::COMMITTED, ctx.now());
        }
        self.span_end(span, end, status == Status::Ok);
        let result = WriteResult {
            greq,
            client: nic.node(),
            protocol: p.op.protocol,
            size,
            start: p.start,
            end,
            status,
            retries: p.retries,
            checksum: payload_checksum(&p.op.data),
            placement: p.placement,
        };
        self.deliver(p.op.slot, result);
        self.fill(nic, ctx);
    }

    /// One ack for a write: `by_msg` is the write its message belongs to.
    /// The ack's own greq, when it names a write in flight, wins.
    pub(super) fn write_acked(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        by_msg: Option<u64>,
        ack: AckPkt,
    ) {
        let greq = ack
            .greq_id
            .filter(|g| self.in_flight.contains_key(g))
            .or(by_msg);
        let Some(greq) = greq else {
            return; // stale (e.g. ack after cleanup-driven completion)
        };
        let Some(p) = self.in_flight.get_mut(&greq) else {
            return;
        };
        match ack.status {
            Status::Busy => {
                // Descriptor exhaustion: retry the whole request later
                // (§III-B: "the request is denied, and the client will
                // retry later").
                let (p, span) = self.take_write(greq);
                let retries = p.retries + 1;
                // Re-place the same logical extent (fresh addresses, no
                // cursor advance) and retry after a backoff. If the file
                // is gone by now (unlinked under us), the job fails.
                // Attr accounting needs no carrying: the write-back uses
                // the committed-size growth `commit_write` reports when
                // the retry eventually lands.
                let placed = self.control.borrow_mut().replace_write(
                    p.op.file,
                    p.op.size(),
                    p.placement.offset,
                );
                let Ok(placement) = placed else {
                    self.fail_write(nic, ctx, p.op, retries, ctx.now(), span);
                    return;
                };
                // Backing off, the write holds no window slot; the retry
                // takes one back when it fires.
                self.outstanding -= 1;
                // The retry travels under a fresh greq: re-key the span.
                self.span_correlate(placement.greq, span);
                self.span_mark(span, phase::RETRIED, ctx.now());
                let backoff = Dur::from_us(5 * retries as u64);
                let step = Deferred::Retry {
                    op: p.op,
                    placement,
                    retries,
                };
                self.defer(nic, ctx, backoff, step);
            }
            // A rejection terminates the request immediately.
            Status::AuthFailed | Status::Rejected => self.finish(nic, ctx, greq, ack.status),
            Status::Ok if p.hl_config_left > 0 => {
                p.hl_config_left -= 1;
                if p.hl_config_left == 0 {
                    // Ring armed: push the data to the head node.
                    let head = p.placement.replicas[0];
                    let wrh = WriteReqHeader {
                        target_addr: head.addr,
                        len: p.op.size(),
                        resiliency: Resiliency::None,
                    };
                    let data = p.op.data.clone();
                    let msg = nic.send_write(ctx, head.node as NodeId, None, wrh, data);
                    p.msgs.push(msg);
                    self.msg_owners.insert(msg, Owner::Write(greq));
                }
            }
            Status::Ok => {
                p.acks_left = p.acks_left.saturating_sub(1);
                if p.acks_left == 0 {
                    self.finish(nic, ctx, greq, Status::Ok);
                }
            }
        }
    }
}

/// Fan a plain write out as one write per extent (with the DFS header
/// when going through the NIC handlers), acked independently.
fn send_extents(
    pending: &mut Pending,
    nic: &mut NicCore,
    ctx: &mut Ctx<'_>,
    data: &Bytes,
    dfs: Option<DfsHeader>,
) {
    let extents = pending.extents();
    pending.acks_left = extents.len() as u32;
    let mut off = 0usize;
    for (coord, len) in extents {
        let wrh = WriteReqHeader {
            target_addr: coord.addr,
            len,
            resiliency: Resiliency::None,
        };
        let msg = nic.send_write(
            ctx,
            coord.node as NodeId,
            dfs,
            wrh,
            data.slice(off..off + len as usize),
        );
        pending.msgs.push(msg);
        off += len as usize;
    }
}
