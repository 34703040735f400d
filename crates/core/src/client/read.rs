//! The read path: read-cache hits, parking on an in-flight readahead,
//! the control-plane resolve, the fan-out (or offloaded gathers) with an
//! async readahead tail, client-side degraded reconstruction, and the
//! completion that fills the cache.

use super::*;

/// One degraded erasure-coded stripe within an in-flight read: the k
/// surviving shards land in `scratch`; reconstruction fills the `copy`
/// ranges of the destination buffer.
struct DegradedFetch {
    scheme: RsScheme,
    chunk_len: u32,
    /// Client-memory staging base: fetched shard `s` lands at
    /// `scratch + s * chunk_len` (slot order follows `fetched`).
    scratch: u64,
    /// Shard index (0..k+m) of each fetched slot.
    fetched: Vec<usize>,
    copy: Vec<nadfs_meta::ChunkCopy>,
}

/// One in-flight file-level read op (fan-out issued, awaiting pieces):
/// a caller's request, or the background readahead tail split off one.
pub(super) struct PendingReadOp {
    /// The range requested, its span, and where the completion goes. A
    /// readahead tail carries its own range and span, no token and no
    /// slot.
    req: ReadReq,
    /// Clamped length being *fetched* (caller's range plus any readahead
    /// window, clamped to the committed size).
    len: u32,
    /// Bytes of the fetch actually delivered to the caller (`<= len`;
    /// the rest is readahead that only populates the cache).
    serve_len: u32,
    /// Length the fetch asked the resolver for, pre-clamp: when
    /// `len < fetch_want` the clamp proved the committed EOF.
    fetch_want: u32,
    /// Extent-map generation of the plan — the staleness tag the cache
    /// fill carries.
    generation: u64,
    /// Destination buffer in client memory.
    dest: u64,
    subs_left: u32,
    status: Status,
    degraded: Vec<DegradedFetch>,
    /// Degraded stripes the offloaded path delegated to on-NIC
    /// reconstruction (reported in the completion; no client rebuild).
    offloaded_degraded: u32,
    /// A readahead-tail op: fills the cache, delivers no completion, and
    /// does not occupy a window slot.
    background: bool,
    /// Reads parked on this (background) op because its range covers
    /// theirs: instead of a duplicate resolve + fan-out they resume from
    /// the cache when the fill lands.
    waiters: Vec<ReadReq>,
    /// Request message ids (for NACK routing and cleanup).
    msgs: Vec<MsgId>,
    /// Sub-fetch tokens (for cleanup: a NACKed piece never fires
    /// `on_read_done`, so its token must be untracked at completion).
    subs: Vec<u64>,
    /// Wire-level request id the fan-out travels under (span correlation).
    greq: u64,
}

impl PendingReadOp {
    /// An op fetching exactly `req`'s range into `dest` and delivering all
    /// of it.
    fn new(req: ReadReq, greq: u64, dest: u64, generation: u64) -> PendingReadOp {
        PendingReadOp {
            len: req.len,
            serve_len: req.len,
            fetch_want: req.len,
            generation,
            dest,
            subs_left: 0,
            status: Status::Ok,
            degraded: Vec::new(),
            offloaded_degraded: 0,
            background: false,
            waiters: Vec::new(),
            msgs: Vec::new(),
            subs: Vec::new(),
            greq,
            req,
        }
    }
}

/// The wire program a read op injects once its doorbell cost elapses.
pub(super) enum ReadIssue {
    /// Per-piece fan-out: (node, remote addr, len, local addr) fetches.
    Fanout(Vec<(NodeId, u64, u32, u64)>),
    /// Offloaded gathers: one request per storage node (or per degraded
    /// stripe); each streams back as a single NIC-validated flow.
    Gather(Vec<(NodeId, GatherReadHeader)>),
}

/// One file-level read request (original parameters + its open span):
/// what a [`Job::Read`] lowers to, the unit the miss path consumes, and
/// what parks on an in-flight background readahead covering its range.
pub(super) struct ReadReq {
    pub(super) token: u64,
    pub(super) file: u64,
    pub(super) offset: u64,
    pub(super) len: u32,
    pub(super) protocol: ReadProtocol,
    pub(super) slot: Option<ReadSlot>,
    pub(super) span: SpanId,
    pub(super) start: Time,
}

impl ReadCompletion {
    /// The completion of `req` returning `data`: the one place a read's
    /// completion record is built. A read that did not end `Ok` returns
    /// no data and carries checksum 0.
    fn new(req: &ReadReq, client: NodeId, end: Time, status: Status, data: Bytes) -> Self {
        ReadCompletion {
            token: req.token,
            client,
            file: req.file,
            protocol: req.protocol,
            offset: req.offset,
            len: data.len() as u32,
            start: req.start,
            end,
            status,
            degraded_stripes: 0,
            from_cache: false,
            checksum: if status == Status::Ok {
                payload_checksum(&data)
            } else {
                0
            },
            data,
        }
    }
}

impl ClientApp {
    /// Resolve, fan out, and track one file-level read. A read-cache hit
    /// skips everything — the control-plane resolve, the capability
    /// header, the per-stripe fan-out — and completes from client memory
    /// after a probe latency. A miss resolves the range (plus a readahead
    /// window for sequential streams), fans out one network fetch per
    /// plan piece (one-sided read or RPC read), lands bytes at their
    /// destination offsets in a client-memory buffer, and stages degraded
    /// stripes' surviving shards for reconstruction at completion time.
    pub(super) fn start_read(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, req: ReadReq) {
        let Some(req) = self.serve_from_cache(nic, ctx, req) else {
            return;
        };
        if self.read_cache_enabled {
            // A range covered by an in-flight background readahead parks
            // here instead of double-fetching: the waiter resumes from
            // the cache (or the full miss path) when the fill lands.
            // The lowest op id wins when several tails cover the range.
            let covering = self.reads_in_flight.values_mut().find(|op| {
                op.background
                    && op.req.file == req.file
                    && op.req.offset <= req.offset
                    && req.offset + req.len as u64 <= op.req.offset + op.len as u64
            });
            if let Some(op) = covering {
                let (span, start) = (req.span, req.start);
                op.waiters.push(req);
                self.span_mark(span, phase::READAHEAD, start);
                return;
            }
        }
        self.start_read_miss(nic, ctx, req);
    }

    /// Serve `req` from the read cache when it holds the whole range. The
    /// completion waits out the cache probe (the copy-out is not charged —
    /// the uncached path's completion doesn't charge one either; bytes
    /// land by DMA there). A miss hands the request back.
    fn serve_from_cache(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        req: ReadReq,
    ) -> Option<ReadReq> {
        if !self.read_cache_enabled {
            return Some(req);
        }
        let hit = self
            .read_cache
            .borrow_mut()
            .lookup(req.file, req.offset, req.len);
        let Some(hit) = hit else {
            return Some(req);
        };
        self.span_mark(req.span, phase::CACHE_HIT, ctx.now());
        let data = Bytes::from(hit.data);
        let probe = self.control.borrow().meta_costs().cache_probe;
        self.defer(nic, ctx, probe, Deferred::CacheHit { req, data });
        None
    }

    /// A cache hit's probe latency elapsed: deliver it.
    pub(super) fn finish_cache_hit(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        req: ReadReq,
        data: Bytes,
    ) {
        let end = ctx.now() + nic.cpu.costs.poll_notify;
        self.span_end(req.span, end, true);
        let completion = ReadCompletion {
            from_cache: true,
            ..ReadCompletion::new(&req, nic.node(), end, Status::Ok, data)
        };
        self.deliver(req.slot, completion);
        self.fill(nic, ctx);
    }

    /// The miss path of one read request: control-plane resolve (with
    /// readahead overfetch), async readahead split, destination alloc,
    /// and doorbell-delayed injection. `req.start` is the original
    /// request time (a parked read resumes here with its span open).
    fn start_read_miss(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, req: ReadReq) {
        let (file, offset, len) = (req.file, req.offset, req.len);
        // Miss: one control-plane resolve, overfetching a readahead
        // window when the access continues a sequential stream. A
        // resolve that fails only because the *readahead* tail crossed
        // an unreadable extent retries with the caller's exact range.
        let ra = if self.read_cache_enabled {
            self.read_cache
                .borrow_mut()
                .plan_readahead(file, offset, len)
        } else {
            0
        };
        let mut fetch_want = len.saturating_add(ra);
        let (mut plan, mut route) = self
            .control
            .borrow_mut()
            .resolve_read(file, offset, fetch_want);
        if plan.is_err() && fetch_want > len {
            fetch_want = len;
            (plan, route) = self.control.borrow_mut().resolve_read(file, offset, len);
        }
        // The resolve queued behind its metadata shard: the fan-out below
        // cannot start until the shard served it.
        let resolve_wait =
            Dur::from_ps(route.map_or(0, |r| self.control.borrow_mut().admit(r, ctx.now().ps())));
        let plan = match plan {
            Ok(p) => p,
            Err(_) => {
                // Unknown file, failed-node range, unrecoverable stripe:
                // the read completes Rejected with no data.
                self.span_end(req.span, ctx.now(), false);
                let status = Status::Rejected;
                let completion =
                    ReadCompletion::new(&req, nic.node(), ctx.now(), status, Bytes::new());
                self.deliver(req.slot, completion);
                return;
            }
        };
        // Async readahead split: when the plan extends past the caller's
        // range, the tail pieces are fetched by a background op that only
        // fills the cache — the triggering miss completes without waiting
        // on readahead traffic. The piece holding the caller's last byte
        // cannot be split, so the boundary is that piece's end.
        let serve_len = plan.len.min(len);
        let mut critical_len = plan.len;
        if plan.len > serve_len {
            let mut boundary = serve_len;
            for piece in &plan.pieces {
                let (s, e) = piece_bounds(piece);
                if s < serve_len {
                    boundary = boundary.max(e);
                }
            }
            if boundary < plan.len {
                critical_len = boundary;
            }
        }
        let (critical_pieces, tail_pieces): (Vec<ReadPiece>, Vec<ReadPiece>) = plan
            .pieces
            .iter()
            .cloned()
            .partition(|p| piece_bounds(p).0 < critical_len);
        let dest = nic.memory().borrow_mut().alloc(plan.len.max(1) as u64);
        let greq = self.control.borrow_mut().alloc_greq();
        let (span, protocol) = (req.span, req.protocol);
        self.span_mark(span, phase::RESOLVED, ctx.now());
        self.span_correlate(greq, span);
        self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
            format!("resolve-read f{file} @{offset}+{fetch_want} greq={greq}")
        });
        let op = PendingReadOp {
            len: critical_len,
            serve_len,
            // When a tail split off, the critical fetch is not EOF-clamped
            // (the tail op inherits the clamp evidence).
            fetch_want: if critical_len < plan.len {
                critical_len
            } else {
                fetch_want
            },
            ..PendingReadOp::new(req, greq, dest, plan.generation)
        };
        // The verbs post (doorbell, WQE build) delays actual injection —
        // the same per-job cost the write path charges. The exec base is
        // the current time plus the resolve's shard-queue wait, not
        // `start`: a parked read resumes here after its original request
        // time.
        let t_post = nic
            .cpu
            .exec(ctx.now() + resolve_wait, nic.cpu.costs.post_send);
        self.spawn_read_op(nic, ctx, op, &critical_pieces, 0, t_post);
        if !tail_pieces.is_empty() {
            self.span_mark(span, phase::READAHEAD, ctx.now());
            let tail_len = plan.len - critical_len;
            let tail_off = offset + critical_len as u64;
            let tail_greq = self.control.borrow_mut().alloc_greq();
            let tail_span = self.span_begin(OpKind::Read, nic, ctx.now(), || {
                format!("readahead f{file} @{tail_off}+{tail_len}")
            });
            self.span_mark(tail_span, phase::READAHEAD, ctx.now());
            self.span_correlate(tail_greq, tail_span);
            let tail = ReadReq {
                token: 0,
                file,
                offset: tail_off,
                len: tail_len,
                protocol,
                slot: None,
                span: tail_span,
                start: ctx.now(),
            };
            let tail_dest = dest + critical_len as u64;
            let tail_op = PendingReadOp {
                serve_len: 0,
                fetch_want: fetch_want - critical_len,
                background: true,
                ..PendingReadOp::new(tail, tail_greq, tail_dest, plan.generation)
            };
            self.read_stats.borrow_mut().background_readaheads += 1;
            // Second doorbell for the background fan-out, chained after
            // the critical one on the same CPU.
            let t_tail = nic.cpu.exec(t_post, nic.cpu.costs.post_send);
            self.spawn_read_op(nic, ctx, tail_op, &tail_pieces, critical_len, t_tail);
        }
    }

    /// Register one read op (critical or background readahead), build its
    /// wire program, and arm the doorbell timer that injects it.
    fn spawn_read_op(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        mut op: PendingReadOp,
        pieces: &[ReadPiece],
        rebase: u32,
        issue_at: Time,
    ) {
        let op_id = self.next_op;
        self.next_op += 1;
        let dfs = self.dfs_header(nic, op.req.file, op.greq, DfsOp::Read);
        let issue = self.build_read_issue(nic, &mut op, pieces, rebase);
        self.reads_in_flight.insert(op_id, op);
        let step = Deferred::ReadIssue { op_id, issue, dfs };
        self.defer(nic, ctx, issue_at.since(ctx.now()), step);
    }

    /// Build the wire program for one read op: per-piece fetches for the
    /// fan-out protocols, or per-node gather requests for the offloaded
    /// path (a degraded stripe becomes one gather to the first survivor's
    /// node, which reconstructs on its firmware EC engine). `rebase`
    /// shifts plan-relative offsets into a background tail op's own
    /// destination window.
    fn build_read_issue(
        &mut self,
        nic: &NicCore,
        op: &mut PendingReadOp,
        pieces: &[ReadPiece],
        rebase: u32,
    ) -> ReadIssue {
        if op.req.protocol == ReadProtocol::Offloaded {
            let mut gathers: Vec<(NodeId, GatherReadHeader)> = Vec::new();
            // Per-node batches of healthy segments (split past the cap).
            let mut direct: Vec<(NodeId, Vec<GatherSegment>, u64)> = Vec::new();
            for piece in pieces {
                match piece {
                    ReadPiece::Hole { .. } => {} // fresh buffer reads zero
                    ReadPiece::Direct {
                        coord,
                        len,
                        dest_off,
                    } => {
                        let node = coord.node as NodeId;
                        let seg = GatherSegment {
                            coord: *coord,
                            len: *len,
                            dest_off: *dest_off - rebase,
                            shard: 0,
                        };
                        match direct
                            .iter_mut()
                            .find(|(n, segs, _)| *n == node && segs.len() < MAX_GATHER_SEGS)
                        {
                            Some((_, segs, total)) => {
                                segs.push(seg);
                                *total += *len as u64;
                            }
                            None => direct.push((node, vec![seg], *len as u64)),
                        }
                    }
                    ReadPiece::Degraded {
                        scheme,
                        chunk_len,
                        fetch,
                        copy,
                        ..
                    } => {
                        let coordinator = fetch[0].1.node as NodeId;
                        let segments = fetch
                            .iter()
                            .map(|(shard, coord)| GatherSegment {
                                coord: *coord,
                                len: *chunk_len,
                                dest_off: 0,
                                shard: *shard as u8,
                            })
                            .collect();
                        let gcopy: Vec<GatherCopy> = copy
                            .iter()
                            .map(|c| GatherCopy {
                                chunk: c.chunk as u8,
                                chunk_off: c.chunk_off,
                                len: c.len,
                                dest_off: c.dest_off - rebase,
                            })
                            .collect();
                        let total: u64 = gcopy.iter().map(|c| c.len as u64).sum();
                        op.offloaded_degraded += 1;
                        self.read_stats.borrow_mut().offloaded_degraded_stripes += 1;
                        gathers.push((
                            coordinator,
                            GatherReadHeader {
                                total_len: total as u32,
                                segments,
                                reconstruct: Some(GatherReconstruct {
                                    scheme: *scheme,
                                    chunk_len: *chunk_len,
                                    copy: gcopy,
                                }),
                            },
                        ));
                    }
                }
            }
            for (node, segments, total) in direct {
                gathers.push((
                    node,
                    GatherReadHeader {
                        total_len: total as u32,
                        segments,
                        reconstruct: None,
                    },
                ));
            }
            return ReadIssue::Gather(gathers);
        }
        let mut fetches: Vec<(NodeId, u64, u32, u64)> = Vec::new(); // (node, addr, len, local)
        for piece in pieces {
            match piece {
                ReadPiece::Hole { .. } => {} // fresh buffer reads zero
                ReadPiece::Direct {
                    coord,
                    len,
                    dest_off,
                } => {
                    fetches.push((
                        coord.node as NodeId,
                        coord.addr,
                        *len,
                        op.dest + (*dest_off - rebase) as u64,
                    ));
                }
                ReadPiece::Degraded {
                    scheme,
                    chunk_len,
                    fetch,
                    copy,
                    ..
                } => {
                    let scratch = nic
                        .memory()
                        .borrow_mut()
                        .alloc(fetch.len() as u64 * *chunk_len as u64);
                    for (slot_i, (_, coord)) in fetch.iter().enumerate() {
                        fetches.push((
                            coord.node as NodeId,
                            coord.addr,
                            *chunk_len,
                            scratch + slot_i as u64 * *chunk_len as u64,
                        ));
                    }
                    let mut rcopy = copy.clone();
                    for c in &mut rcopy {
                        c.dest_off -= rebase;
                    }
                    op.degraded.push(DegradedFetch {
                        scheme: *scheme,
                        chunk_len: *chunk_len,
                        scratch,
                        fetched: fetch.iter().map(|(i, _)| *i).collect(),
                        copy: rcopy,
                    });
                }
            }
        }
        ReadIssue::Fanout(fetches)
    }

    /// Inject the wire program of a read whose doorbell cost has elapsed.
    pub(super) fn issue_read_fanout(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        issue: ReadIssue,
        dfs: DfsHeader,
    ) {
        let Some((protocol, dest)) = self
            .reads_in_flight
            .get(&op_id)
            .map(|op| (op.req.protocol, op.dest))
        else {
            return;
        };
        let owner = Owner::Read(op_id);
        // (request message, fetch token) of every piece sent.
        let mut sent = Vec::new();
        match issue {
            ReadIssue::Fanout(fetches) => {
                for (node, addr, flen, local) in fetches {
                    let sub = self.fetch_token(owner);
                    let rrh = ReadReqHeader { addr, len: flen };
                    let msg = match protocol {
                        ReadProtocol::Rdma | ReadProtocol::Offloaded => {
                            nic.send_read(ctx, node, rrh, Some(dfs), local, sub)
                        }
                        ReadProtocol::Rpc => {
                            let msg = nic.send_rpc(
                                ctx,
                                node,
                                RpcBody::ReadReq { dfs, rrh },
                                Bytes::new(),
                            );
                            nic.expect_read_resp(msg, local, sub);
                            msg
                        }
                    };
                    sent.push((msg, sub));
                }
            }
            ReadIssue::Gather(gathers) => {
                for (node, grh) in gathers {
                    let sub = self.fetch_token(owner);
                    // Segment offsets in the header are relative to the
                    // op's destination window; the streamed flow lands
                    // there packet by packet.
                    sent.push((nic.send_gather(ctx, node, dfs, grh, dest, sub), sub));
                    self.read_stats.borrow_mut().offloaded_reads += 1;
                }
            }
        }
        let op = self.reads_in_flight.get_mut(&op_id).expect("checked above");
        for (msg, sub) in sent {
            self.msg_owners.insert(msg, owner);
            op.msgs.push(msg);
            op.subs.push(sub);
            op.subs_left += 1;
        }
        let (span, settled) = (op.req.span, op.subs_left == 0);
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        if settled {
            // Zero-length or all-holes read: complete immediately.
            self.complete_read(nic, ctx, op_id);
        }
    }

    /// All pieces landed (or failed): reconstruct any degraded stripes,
    /// assemble the payload, and deliver the typed completion.
    pub(super) fn complete_read(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(op) = self.reads_in_flight.remove(&op_id) else {
            return;
        };
        self.untrack(&op.msgs, &op.subs);
        let mut status = op.status;
        let mut degraded_stripes = op.offloaded_degraded;
        if status == Status::Ok {
            for d in &op.degraded {
                if self.reconstruct_stripe(nic, op.dest, d).is_err() {
                    status = Status::Rejected;
                    break;
                }
                degraded_stripes += 1;
            }
        }
        let ok = status == Status::Ok;
        let mut fetched = Vec::new();
        if ok {
            fetched = nic.memory().borrow().read(op.dest, op.len as usize);
        }
        if ok && self.read_cache_enabled {
            // Everything fetched — the caller's range, the readahead
            // tail, and any degraded-reconstructed bytes — populates the
            // cache under the plan's generation, so this client never
            // re-fetches (or re-reconstructs) it while the generation
            // holds. An EOF-clamped fetch also teaches the cache where
            // the committed size is.
            let mut rc = self.read_cache.borrow_mut();
            rc.fill(
                op.req.file,
                op.generation,
                op.req.offset,
                &fetched,
                op.fetch_want,
            );
            rc.stats.readahead_bytes += (op.len - op.serve_len) as u64;
        }
        self.span_decorrelate(op.greq);
        if op.background {
            // Readahead tail: it only populates the cache. The caller's
            // miss already completed without waiting on this.
            self.span_end(op.req.span, ctx.now(), ok);
            // Reads that parked on this fill resume now: from the cache
            // when the fill landed, else through the full miss path.
            for w in op.waiters {
                if let Some(w) = self.serve_from_cache(nic, ctx, w) {
                    self.start_read_miss(nic, ctx, w);
                }
            }
            self.fill(nic, ctx);
            return;
        }
        // Shed the readahead tail before handing the payload out: slicing
        // (or truncating without shrinking) would pin the whole overfetch
        // allocation for as long as the completion lives, and ResultSink
        // retains every completion for the run.
        if op.len > op.serve_len {
            fetched.truncate(op.serve_len as usize);
            fetched.shrink_to_fit();
        }
        // The application observes completion one poll interval later
        // (CQ polling cost, same as the write path).
        let end = ctx.now() + nic.cpu.costs.poll_notify;
        let span = op.req.span;
        if degraded_stripes > 0 {
            self.span_mark(span, phase::DEGRADED, ctx.now());
        }
        self.span_mark(span, phase::REASSEMBLED, ctx.now());
        self.span_end(span, end, ok);
        let data = Bytes::from(fetched);
        let completion = ReadCompletion {
            degraded_stripes,
            ..ReadCompletion::new(&op.req, nic.node(), end, status, data)
        };
        self.deliver(op.req.slot, completion);
        self.fill(nic, ctx);
    }

    /// Rebuild the missing data chunks of one degraded stripe from the
    /// staged survivors and copy the requested ranges into the
    /// destination buffer at `dest`.
    fn reconstruct_stripe(
        &mut self,
        nic: &NicCore,
        dest: u64,
        d: &DegradedFetch,
    ) -> Result<(), nadfs_gfec::RsError> {
        let mut want: Vec<usize> = d.copy.iter().map(|c| c.chunk).collect();
        want.sort_unstable();
        want.dedup();
        let fetched = d.fetched.iter().copied();
        let outs = self.rebuild_shards(nic, d.scheme, d.chunk_len, d.scratch, fetched, &want)?;
        self.read_stats.borrow_mut().reconstructed_stripes += 1;
        let mem = nic.memory();
        let mut memory = mem.borrow_mut();
        for c in &d.copy {
            let o = want.binary_search(&c.chunk).expect("wanted chunk");
            let lo = c.chunk_off as usize;
            memory.write(dest + c.dest_off as u64, &outs[o][lo..lo + c.len as usize]);
        }
        let pool = nic.buf_pool();
        let mut p = pool.borrow_mut();
        for buf in outs {
            p.put(buf);
        }
        Ok(())
    }

    /// Rebuild shards `want` (sorted shard indices) of one RS stripe from
    /// survivors staged in client memory: fetch slot `i` holds shard
    /// `fetched[i]` at `scratch + i * chunk_len`. The survivors are staged
    /// into pooled buffers and returned to the pool; the rebuilt shards
    /// come back in pooled buffers, in `want` order. Shard buffers come
    /// from the NIC's recycled ring; the decode matrix from the codec's
    /// per-pattern cache.
    pub(super) fn rebuild_shards(
        &mut self,
        nic: &NicCore,
        scheme: RsScheme,
        chunk_len: u32,
        scratch: u64,
        fetched: impl Iterator<Item = usize>,
        want: &[usize],
    ) -> Result<Vec<Vec<u8>>, nadfs_gfec::RsError> {
        let (k, m) = (scheme.k as usize, scheme.m as usize);
        let rs = self
            .rs_cache
            .entry((scheme.k, scheme.m))
            .or_insert_with(|| ReedSolomon::new(k, m).expect("valid RS scheme"));
        let mem = nic.memory();
        let pool = nic.buf_pool();
        let clen = chunk_len as usize;
        let mut staged: Vec<(usize, Vec<u8>)> = Vec::with_capacity(k);
        for (slot_i, idx) in fetched.enumerate() {
            let mut buf = pool.borrow_mut().get_dirty(clen);
            mem.borrow()
                .read_into(scratch + slot_i as u64 * clen as u64, &mut buf);
            staged.push((idx, buf));
        }
        let mut shards: Vec<Option<&[u8]>> = vec![None; k + m];
        for (idx, buf) in &staged {
            shards[*idx] = Some(buf);
        }
        let mut outs: Vec<Vec<u8>> = {
            let mut p = pool.borrow_mut();
            want.iter().map(|_| p.get_dirty(clen)).collect()
        };
        let r = rs.reconstruct_into(&shards, want, &mut outs);
        let mut p = pool.borrow_mut();
        for (_, buf) in staged {
            p.put(buf);
        }
        match r {
            Ok(()) => Ok(outs),
            Err(e) => {
                for buf in outs {
                    p.put(buf);
                }
                Err(e)
            }
        }
    }

    /// A read request was NACKed (capability failure, rejected region):
    /// the piece will never stream back, so account it and fail the op
    /// when the rest of the fan-out settles.
    pub(super) fn read_nacked(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        ack: AckPkt,
    ) {
        self.msg_owners.remove(&ack.msg);
        nic.cancel_read(ack.msg);
        let Some(op) = self.reads_in_flight.get_mut(&op_id) else {
            return;
        };
        if ack.status != Status::Ok {
            op.status = ack.status;
        }
        op.subs_left = op.subs_left.saturating_sub(1);
        if op.subs_left == 0 {
            self.complete_read(nic, ctx, op_id);
        }
    }

    /// One piece of a read op landed in client memory.
    pub(super) fn read_piece_landed(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(op) = self.reads_in_flight.get_mut(&op_id) else {
            return;
        };
        op.subs_left = op.subs_left.saturating_sub(1);
        if op.subs_left > 0 {
            return;
        }
        if op.degraded.is_empty() || op.status != Status::Ok {
            self.complete_read(nic, ctx, op_id);
        } else {
            // Model the reconstruction cost: the client CPU walks k
            // shards per degraded stripe before the data is usable.
            let bytes: u64 = op
                .degraded
                .iter()
                .map(|d| d.scheme.k as u64 * d.chunk_len as u64)
                .sum();
            let now = ctx.now();
            let t = nic.cpu.exec(now, nic.cpu.memcpy_cost(bytes));
            self.defer(nic, ctx, t.since(now), Deferred::ReadFin(op_id));
        }
    }
}

/// Plan-relative `[start, end)` byte range one read piece covers.
fn piece_bounds(piece: &ReadPiece) -> (u32, u32) {
    match piece {
        ReadPiece::Hole { dest_off, len } | ReadPiece::Direct { dest_off, len, .. } => {
            (*dest_off, dest_off + len)
        }
        ReadPiece::Degraded { copy, .. } => copy.iter().fold((u32::MAX, 0), |(s, e), c| {
            (s.min(c.dest_off), e.max(c.dest_off + c.len))
        }),
    }
}
