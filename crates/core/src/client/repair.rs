//! The repair path: plan a task against the control plane, fetch the
//! surviving shards, rebuild on the client CPU, write the re-protected
//! shards to their spares, and commit the extent-map update.

use super::*;

/// One repair job's identity: what its completion reports, and where
/// that completion goes.
pub(super) struct RepairReq {
    token: u64,
    task: RepairTask,
    start: Time,
    slot: Option<RepairSlot>,
    span: SpanId,
}

/// One in-flight repair task: surviving shards stream into `scratch`,
/// rebuilt shards fan out as writes to their spare coordinates, and the
/// extent-map update commits once every write acknowledges.
pub(super) struct PendingRepair {
    req: RepairReq,
    plan: RepairPlan,
    /// Client-memory staging base for fetched shards (fetch-slot order).
    scratch: u64,
    fetch_left: u32,
    /// Spare-write acks still awaited: 0 while fetching survivors (the
    /// last ack commits, so the op never idles at 0 once writes are out).
    write_acks_left: u32,
    bytes_moved: u64,
    msgs: Vec<MsgId>,
    subs: Vec<u64>,
    /// Wire-level request ids the task used (fetch + spare writes), all
    /// correlated to the span for storage-side phase marks.
    greqs: Vec<u64>,
}

impl ClientApp {
    /// Deliver a repair completion (success, typed unrepairable, or
    /// abort) and refill the window. An unrepairable task completes
    /// `Rejected`, an aborted one with its abort status.
    fn deliver_repair(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        req: RepairReq,
        outcome: RepairOutcome,
        bytes_moved: u64,
    ) {
        let status = match outcome {
            RepairOutcome::Aborted(status) => status,
            RepairOutcome::Unrepairable(_) => Status::Rejected,
            _ => Status::Ok,
        };
        let result = RepairResult {
            token: req.token,
            client: nic.node(),
            task: req.task,
            status,
            outcome,
            start: req.start,
            end: ctx.now() + nic.cpu.costs.poll_notify,
            bytes_moved,
        };
        self.span_end(req.span, result.end, status == Status::Ok);
        self.deliver(req.slot, result);
        self.fill(nic, ctx);
    }

    /// Start one repair task: plan it against the control plane, then
    /// fan out the surviving-shard fetches over the NIC (capability-
    /// validated one-sided reads — repair traffic is data-path traffic).
    pub(super) fn start_repair(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        task: RepairTask,
        token: u64,
        slot: Option<RepairSlot>,
    ) {
        let start = ctx.now();
        let span = self.span_begin(OpKind::Repair, nic, start, || {
            format!("repair f{}", task.file)
        });
        let req = RepairReq {
            token,
            task,
            start,
            slot,
            span,
        };
        let planned = self.control.borrow_mut().plan_repair(task);
        self.trace
            .borrow_mut()
            .emit_with(start, "control", || format!("plan-repair f{}", task.file));
        let plan = match planned {
            Ok(p) => p,
            Err(e) => {
                // Typed: the extent cannot be re-protected (or vanished).
                // The task dies here — release its compaction pin.
                self.control.borrow_mut().abandon_repair(task);
                let outcome = RepairOutcome::Unrepairable(e);
                self.deliver_repair(nic, ctx, req, outcome, 0);
                return;
            }
        };
        let fetches: Vec<(ReplicaCoord, u32)> = match &plan {
            RepairPlan::AlreadyHealthy => {
                // Nothing to move, nothing to commit: the task is done —
                // release its compaction pin.
                self.control.borrow_mut().abandon_repair(task);
                let outcome = RepairOutcome::AlreadyHealthy;
                self.deliver_repair(nic, ctx, req, outcome, 0);
                return;
            }
            RepairPlan::EcRebuild {
                chunk_len, fetch, ..
            } => fetch.iter().map(|&(_, c)| (c, *chunk_len)).collect(),
            RepairPlan::ReplicaClone { len, src, .. } => vec![(*src, *len)],
        };
        let total: u64 = fetches.iter().map(|&(_, l)| l as u64).sum();
        let scratch = nic.memory().borrow_mut().alloc(total.max(1));
        let op_id = self.next_op;
        self.next_op += 1;
        let greq = self.control.borrow_mut().alloc_greq();
        let mut dfs = self.dfs_header(nic, task.file, greq, DfsOp::Read);
        dfs.tenant = TENANT_REPAIR;
        self.span_mark(span, phase::RESOLVED, ctx.now());
        self.span_correlate(greq, span);
        let mut op = PendingRepair {
            req,
            plan,
            scratch,
            fetch_left: fetches.len() as u32,
            write_acks_left: 0,
            bytes_moved: 0,
            msgs: Vec::new(),
            subs: Vec::new(),
            greqs: vec![greq],
        };
        let mut off = 0u64;
        for (coord, flen) in fetches {
            let sub = self.fetch_token(Owner::Repair(op_id));
            let rrh = ReadReqHeader {
                addr: coord.addr,
                len: flen,
            };
            let msg = nic.send_read(
                ctx,
                coord.node as NodeId,
                rrh,
                Some(dfs),
                scratch + off,
                sub,
            );
            self.msg_owners.insert(msg, Owner::Repair(op_id));
            op.msgs.push(msg);
            op.subs.push(sub);
            op.bytes_moved += flen as u64;
            off += flen as u64;
        }
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        self.repairs_in_flight.insert(op_id, op);
    }

    /// Stop tracking a repair op: drop its message, sub-fetch and span
    /// correlations.
    fn take_repair(&mut self, op_id: u64) -> Option<PendingRepair> {
        let op = self.repairs_in_flight.remove(&op_id)?;
        self.untrack(&op.msgs, &op.subs);
        for g in &op.greqs {
            self.span_decorrelate(*g);
        }
        Some(op)
    }

    /// Abort an in-flight repair (a fetch NACKed or a spare write
    /// failed): cancel outstanding reads, drop the tracking state, and
    /// deliver a typed `Aborted` completion the driver can retry.
    fn fail_repair(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64, status: Status) {
        let Some(op) = self.take_repair(op_id) else {
            return;
        };
        for m in &op.msgs {
            nic.cancel_read(*m);
        }
        let outcome = RepairOutcome::Aborted(status);
        self.deliver_repair(nic, ctx, op.req, outcome, 0);
    }

    /// All survivors landed: rebuild the lost shards (CPU cost already
    /// charged via the REPAIR_FIN timer) and write them to their spares.
    pub(super) fn repair_rebuild_and_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op_id: u64,
    ) {
        let Some((task, scratch, plan)) = self
            .repairs_in_flight
            .get(&op_id)
            .map(|op| (op.req.task, op.scratch, op.plan.clone()))
        else {
            return;
        };
        // (dest coord, bytes) per spare write, built per plan kind.
        let writes: Vec<(ReplicaCoord, Bytes)> = match &plan {
            RepairPlan::AlreadyHealthy => vec![],
            RepairPlan::ReplicaClone { len, dest, .. } => {
                let data = Bytes::from(nic.memory().borrow().read(scratch, *len as usize));
                dest.iter().map(|&(_, c)| (c, data.clone())).collect()
            }
            RepairPlan::EcRebuild {
                scheme,
                chunk_len,
                fetch,
                rebuild,
            } => {
                let mut want: Vec<usize> = rebuild.iter().map(|&(s, _)| s).collect();
                want.sort_unstable();
                let fetched = fetch.iter().map(|&(i, _)| i);
                let rebuilt =
                    self.rebuild_shards(nic, *scheme, *chunk_len, scratch, fetched, &want);
                let Ok(outs) = rebuilt else {
                    // Shard-count/size mismatch is a programming error in
                    // the plan, but surface it as an abort, not a panic.
                    self.fail_repair(nic, ctx, op_id, Status::Rejected);
                    return;
                };
                let mut outs: Vec<Option<Vec<u8>>> = outs.into_iter().map(Some).collect();
                rebuild
                    .iter()
                    .map(|&(slot, coord)| {
                        let o = want.binary_search(&slot).expect("wanted shard");
                        let buf = outs[o].take().expect("each shard written once");
                        (coord, Bytes::from(buf))
                    })
                    .collect()
            }
        };
        let greq = self.control.borrow_mut().alloc_greq();
        let mut dfs = self.dfs_header(nic, task.file, greq, DfsOp::Write);
        dfs.tenant = TENANT_REPAIR;
        let span = {
            let op = self.repairs_in_flight.get_mut(&op_id).expect("checked");
            op.write_acks_left = writes.len() as u32;
            op.greqs.push(greq);
            op.req.span
        };
        self.span_mark(span, phase::REBUILT, ctx.now());
        self.span_correlate(greq, span);
        if writes.is_empty() {
            // Defensive: a plan with nothing to write commits directly.
            self.commit_and_complete_repair(nic, ctx, op_id);
            return;
        }
        for (coord, data) in writes {
            let wrh = WriteReqHeader {
                target_addr: coord.addr,
                len: data.len() as u32,
                resiliency: Resiliency::None,
            };
            let len = data.len() as u64;
            let msg = nic.send_write(ctx, coord.node as NodeId, Some(dfs), wrh, data);
            self.msg_owners.insert(msg, Owner::Repair(op_id));
            let op = self.repairs_in_flight.get_mut(&op_id).expect("in flight");
            op.msgs.push(msg);
            op.bytes_moved += len;
        }
    }

    /// Every spare write acknowledged: commit the re-homing into the
    /// extent map (generation bump + cache invalidation) and complete.
    fn commit_and_complete_repair(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(op) = self.take_repair(op_id) else {
            return;
        };
        let replacements = op.plan.replacements();
        let task = op.req.task;
        let committed =
            self.control
                .borrow_mut()
                .commit_repair(task, &replacements, ctx.now().as_ns() as u64);
        self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
            format!("commit-repair f{}", task.file)
        });
        let outcome = match committed {
            Ok(()) => {
                self.span_mark(op.req.span, phase::COMMITTED, ctx.now());
                match &op.plan {
                    RepairPlan::EcRebuild { rebuild, .. } => RepairOutcome::Rebuilt {
                        shards: rebuild.iter().map(|&(s, _)| s).collect(),
                    },
                    RepairPlan::ReplicaClone { dest, .. } => RepairOutcome::Cloned {
                        replicas: dest.iter().map(|&(s, _)| s).collect(),
                    },
                    RepairPlan::AlreadyHealthy => RepairOutcome::AlreadyHealthy,
                }
            }
            // The file vanished mid-repair (unlink/rename-replace): the
            // moved bytes are moot, not an error worth retrying.
            Err(e) => RepairOutcome::Unrepairable(e),
        };
        self.deliver_repair(nic, ctx, op.req, outcome, op.bytes_moved);
    }

    /// An ack for a repair message: a NACKed survivor fetch aborts the
    /// task; spare-write acks count down toward the extent-map commit.
    pub(super) fn repair_acked(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op_id: u64,
        ack: AckPkt,
    ) {
        self.msg_owners.remove(&ack.msg);
        let Some(op) = self.repairs_in_flight.get_mut(&op_id) else {
            return;
        };
        if op.write_acks_left == 0 {
            // Fetch phase: the only acks are NACKs (auth failure,
            // rejected region) — the shard will never stream back.
            nic.cancel_read(ack.msg);
            let status = if ack.status == Status::Ok {
                Status::Rejected
            } else {
                ack.status
            };
            self.fail_repair(nic, ctx, op_id, status);
        } else if ack.status != Status::Ok {
            self.fail_repair(nic, ctx, op_id, ack.status);
        } else {
            op.write_acks_left = op.write_acks_left.saturating_sub(1);
            if op.write_acks_left == 0 {
                self.commit_and_complete_repair(nic, ctx, op_id);
            }
        }
    }

    /// One surviving shard of a repair op landed in client memory.
    pub(super) fn repair_shard_landed(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, op_id: u64) {
        let Some(op) = self.repairs_in_flight.get_mut(&op_id) else {
            return;
        };
        op.fetch_left = op.fetch_left.saturating_sub(1);
        if op.fetch_left > 0 {
            return;
        }
        // Model the rebuild cost: the client CPU walks every fetched
        // byte before the re-protected shards exist.
        let bytes = op.bytes_moved;
        let now = ctx.now();
        let t = nic.cpu.exec(now, nic.cpu.memcpy_cost(bytes));
        self.defer(nic, ctx, t.since(now), Deferred::RepairFin(op_id));
    }
}
