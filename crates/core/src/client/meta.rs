//! Metadata operations: answered from the client cache or the control
//! plane, admitted on the shard they routed to, and completed after their
//! simulated latency.

use super::*;

/// A metadata op whose (already-determined) outcome is waiting out its
/// simulated latency.
pub(super) struct PendingMeta {
    token: u64,
    kind: MetaOpKind,
    start: Time,
    cache_hit: bool,
    result: Result<(), MetaError>,
    span: SpanId,
}

impl ClientApp {
    /// Close the open bulk-meta span once the storm drains: no meta op in
    /// flight and none left in the plan. Stamps the final op count into
    /// the label so the single span still attributes the whole batch.
    fn finish_bulk_meta_span(&mut self, ctx: &Ctx<'_>) {
        if self.bulk_meta_span == 0
            || self.meta_in_flight > 0
            || self
                .plan
                .borrow()
                .iter()
                .any(|j| matches!(j, Job::Meta { .. }))
        {
            return;
        }
        let id = std::mem::take(&mut self.bulk_meta_span);
        let n = std::mem::take(&mut self.bulk_meta_ops);
        let errs = std::mem::take(&mut self.bulk_meta_errs);
        self.obs
            .borrow_mut()
            .spans
            .relabel(id, format!("meta-bulk n={n}"));
        self.span_end(id, ctx.now(), errs == 0);
    }

    /// Flush buffered write-back attrs (one control round-trip for the
    /// whole batch). Returns the flush's route if a flush happened.
    pub(super) fn flush_writeback(&mut self) -> Option<Route> {
        let dirty = self.meta_cache.borrow_mut().take_dirty();
        if dirty.is_empty() {
            return None;
        }
        Some(self.control.borrow_mut().flush_attrs(&dirty).1)
    }

    /// Execute a metadata op against cache + control plane. State changes
    /// apply immediately; the completion is reported after the op's
    /// simulated latency (cache probe vs. control round-trip).
    pub(super) fn start_meta(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op: MetaOp,
        token: u64,
    ) {
        let start = ctx.now();
        let span = if self.bulk_meta_spans {
            if self.bulk_meta_span == 0 {
                self.bulk_meta_span =
                    self.span_begin(OpKind::MetaBulk, nic, start, || "meta-bulk".to_string());
            }
            self.bulk_meta_ops += 1;
            0
        } else {
            self.span_begin(OpKind::Meta, nic, start, || format!("meta {:?}", op.kind()))
        };
        let now_ns = start.as_ns() as u64;
        let costs = self.control.borrow().meta_costs().clone();
        let mut cost = Dur::ZERO;
        let mut cache_hit = false;
        // The shard op this call admits: the last one it routed.
        let mut route = None;
        let result: Result<(), MetaError> = match &op {
            MetaOp::Lookup { path } => {
                // A lookup must observe our own buffered appends: flush
                // write-back state first (counts as its own round-trip).
                if self.cache_enabled && self.meta_cache.borrow().dirty_count() > 0 {
                    route = self.flush_writeback();
                    cost += costs.control_rtt;
                }
                let cached = if self.cache_enabled {
                    self.meta_cache.borrow_mut().get(path)
                } else {
                    None
                };
                match cached {
                    Some(_) => {
                        cache_hit = true;
                        cost += costs.cache_probe;
                        Ok(())
                    }
                    None => {
                        cost += costs.control_rtt;
                        let (entry, r) = self.control.borrow_mut().lookup_entry(path);
                        route = Some(r);
                        entry.map(|(attr, layout)| {
                            if self.cache_enabled {
                                self.meta_cache
                                    .borrow_mut()
                                    .insert(path.clone(), CachedEntry::from_attr(&attr, layout));
                            }
                        })
                    }
                }
            }
            MetaOp::Mkdir { path } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                let (r, rt) = self.control.borrow_mut().mkdir(path, now_ns);
                route = Some(rt);
                r.map(|_| ())
            }
            MetaOp::Create { path, spec } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                let (created, rt) =
                    self.control
                        .borrow_mut()
                        .create_file_at(path, *spec, FilePolicy::Plain);
                route = Some(rt);
                if created.is_ok() && self.cache_enabled {
                    // Write-allocate: the create response already carries
                    // everything a later lookup needs, so fill the cache
                    // without another counted round-trip.
                    if let Ok((attr, layout)) = self.control.borrow().peek_entry(path) {
                        self.meta_cache
                            .borrow_mut()
                            .insert(path.clone(), CachedEntry::from_attr(&attr, layout));
                    }
                }
                created.map(|_| ())
            }
            MetaOp::Readdir { path } => {
                cost += costs.control_rtt;
                let (listing, rt) = self.control.borrow_mut().readdir(path);
                route = Some(rt);
                listing.map(|entries| {
                    if self.cache_enabled {
                        // Version check (defense in depth): a readdir
                        // response reveals current child versions — evict
                        // any cached child it proves stale.
                        let mut cache = self.meta_cache.borrow_mut();
                        let base = path.trim_end_matches('/');
                        for (name, attr) in &entries {
                            cache.note_version(&format!("{base}/{name}"), attr.version);
                        }
                    }
                })
            }
            MetaOp::Rename { from, to } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                let (r, rt) = self.control.borrow_mut().rename(from, to, now_ns);
                route = Some(rt);
                r
            }
            MetaOp::Unlink { path } => {
                cost = cost + costs.control_rtt + costs.oplog_append;
                let (r, rt) = self.control.borrow_mut().unlink(path, now_ns);
                route = Some(rt);
                r.map(|_| ())
            }
        };
        // Async metadata updates (AsyncFS-style): a mutation acks after
        // its shard's op-log append — `mutate_service` is shard occupancy
        // paid through the admission model, not ack latency. The op queues
        // behind the shard it routed to; a cache hit that flushed nothing
        // routed nowhere and waits for no shard.
        if let Some(route) = route {
            cost += Dur::from_ps(self.control.borrow_mut().admit(route, start.ps()));
        }
        if cache_hit {
            self.span_mark(span, phase::CACHE_HIT, start);
        }
        self.meta_in_flight += 1;
        let pm = PendingMeta {
            token,
            kind: op.kind(),
            start,
            cache_hit,
            result,
            span,
        };
        self.defer(nic, ctx, cost, Deferred::Meta(pm));
    }

    /// A metadata op's latency elapsed: deliver its completion.
    pub(super) fn finish_meta(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, pm: PendingMeta) {
        self.meta_in_flight -= 1;
        self.span_end(pm.span, ctx.now(), pm.result.is_ok());
        if self.bulk_meta_span != 0 && pm.result.is_err() {
            self.bulk_meta_errs += 1;
        }
        let result = MetaResult {
            token: pm.token,
            client: nic.node(),
            op: pm.kind,
            start: pm.start,
            end: ctx.now(),
            cache_hit: pm.cache_hit,
            result: pm.result,
        };
        self.deliver(None, result);
        self.fill(nic, ctx);
        self.finish_bulk_meta_span(ctx);
    }
}
