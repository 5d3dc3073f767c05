package main

import (
	"context"
	"path/filepath"
	"time"
)

// runTraced produces the per-layer ledger of one workload. The window is
// split between four instruments that never run at the same time: a pass
// over a cluster of processes, read from outside (exit metrics, /proc); two
// traced passes over an in-process cluster, volatile and durable; and timed
// calls into each layer.
func runTraced(ctx context.Context, bin, workDir string, sp *spec, seed int64, window time.Duration, r *report) (result, error) {
	pass, err := runPass(ctx, bin, workDir, sp, seed, window*2/5)
	if err != nil {
		return result{}, err
	}
	cpuPerTxn, txnsPerBatch, orderedShare := pass.fromOutside(r)

	volatile, tracedP50, err := tracedPass(ctx, filepath.Join(workDir, "traced"), sp, seed, window/5, false)
	if err != nil {
		return result{}, err
	}
	durable, _, err := tracedPass(ctx, filepath.Join(workDir, "traced"), sp, seed, window/5, true)
	if err != nil {
		return result{}, err
	}
	reportPhases(r, volatile, durable, tracedP50, r.metrics["client.p50_ms"].Value)

	costs, err := measureLayers(ctx, workDir, sp, seed, window/5)
	if err != nil {
		return result{}, err
	}
	costs.report(r)
	est := costs.budget(txnsPerBatch, orderedShare, sp.durable)
	r.add("budget.cpu_us_per_txn_est", est, "us", "the timed calls times how often one decision makes them, per txn")
	r.add("budget.coverage", ratio(est, cpuPerTxn), "ratio", "estimate over the measured replica CPU per txn; the rest is not yet attributed to a layer")
	return closeResult(r, pass), nil
}

// fromOutside reports what the pass shows from outside the replica
// processes, and returns the figures the CPU budget needs: the replicas' CPU
// per txn, transactions per batch, and the ordered share of all requests.
func (p *passResult) fromOutside(r *report) (cpuPerTxn, txnsPerBatch, orderedShare float64) {
	completed, _ := p.completions()
	n := float64(max(completed, 1))
	perTxn := func(d time.Duration) float64 { return float64(d.Microseconds()) / n }

	lat := latencies(p.samples, 0, p.window)
	p999, used := tail(lat, 0.999)
	r.add("client.p50_ms", quantile(lat, 0.5), "ms", "this pass, untraced; the base of trace.p50_ratio")
	r.add("client.p999_ms", p999, "ms", percentileNote(used, len(lat)))
	r.add("client.max_ms", quantile(lat, 1), "ms", "")
	r.add("client.cpu_us_per_txn", perTxn(p.after.genCPU-p.before.genCPU), "us", "the generator's own user+system time")
	lag := make([]float64, len(p.lag))
	for i, d := range p.lag {
		lag[i] = msOf(d)
	}
	lagP99, _ := tail(sorted(lag), 0.99)
	r.add("bench.gen_lag_p99_ms", lagP99, "ms", "how late the dispatcher handed arrivals over; 0 in a closed loop")

	// Replica 0 leads view 0; replicas 2 and 3 lead neither view 0 nor the
	// view 1 that follows a crash of replica 0. A killed replica's last
	// reading is carried into p.after.
	primaryTxns := n
	if p.killAt > 0 {
		primaryTxns = 0
		for _, s := range p.samples {
			if s.ok && s.done < p.killAt {
				primaryTxns++
			}
		}
	}
	primary := p.after.replicaCPU[0] - p.before.replicaCPU[0]
	r.add("poeserver.cpu_us_per_txn_primary", ratio(float64(primary.Microseconds()), primaryTxns), "us", "replica 0, until it is killed if it is")
	backups := (p.after.replicaCPU[2] - p.before.replicaCPU[2] + p.after.replicaCPU[3] - p.before.replicaCPU[3]) / 2
	r.add("poeserver.cpu_us_per_txn_backup", perTxn(backups), "us", "mean of replicas 2 and 3")
	r.add("poeserver.rss_mb_max", p.rssMB, "MiB", "largest VmHWM of a replica")
	r.add("network.lo_bytes_per_txn", float64(p.after.loBytes-p.before.loBytes)/n, "B", "loopback interface, clients included")
	r.add("network.lo_pkts_per_txn", float64(p.after.loPackets-p.before.loPackets)/n, "count", "")
	r.add("storage.disk_kb_per_ktxn", float64(p.after.diskBytes-p.before.diskBytes)/1024/n*1000, "KiB", "write_bytes of /proc/<pid>/io")

	// The exit metrics cover a replica's whole life, set-up and warm-up
	// included: ratios are taken over that life, counts are totals.
	var live, txns, batches, msgsIn, depth, groups, grouped, spec, strong, fallback, grants, started, done, rollbacks float64
	for _, m := range p.exit {
		if m == nil {
			continue
		}
		live++
		txns += float64(m.ExecutedTxns)
		batches += float64(m.ExecutedBatches)
		msgsIn += float64(m.MessagesIn)
		depth = max(depth, float64(m.EgressMaxDepth))
		groups += float64(m.WALGroups)
		grouped += float64(m.WALGroupedRecords)
		spec += float64(m.SpecReads)
		strong += float64(m.StrongReads)
		fallback += float64(m.ReadFallbacks)
		grants += float64(m.LeaseGrants)
		started += float64(m.ViewChanges)
		done += float64(m.ViewChangesDone)
		rollbacks += float64(m.Rollbacks)
	}
	ordered := ratio(txns, live) // every live replica executed each ordered txn
	txnsPerBatch = ratio(txns, batches)
	r.add("protocol.txns_per_batch", txnsPerBatch, "count", "")
	r.add("protocol.msgs_in_per_txn", ratio(msgsIn, ordered), "count", "messages the live replicas took in, per executed txn")
	r.add("protocol.egress_max_depth", depth, "count", "deepest signing backlog of a replica")
	r.add("storage.recs_per_group", ratio(grouped, groups), "count", "WAL records per group commit")
	r.add("storage.fsyncs_per_ktxn", ratio(groups*1000, txns), "count", "")
	r.add("protocol.spec_reads", spec, "count", "served by a replica without ordering")
	r.add("protocol.strong_reads", strong, "count", "served by the primary under its lease")
	r.add("protocol.read_fallback_share", ratio(fallback, spec+strong+fallback), "ratio", "tiered reads that were ordered after all")
	r.add("protocol.lease_grants", grants, "count", "")
	r.add("poe.view_changes_started", started, "count", "")
	r.add("poe.view_changes_done", done, "count", "started minus done are wasted attempts")
	r.add("poe.rollbacks", rollbacks, "count", "")

	return p.replicaCPU() / n, txnsPerBatch, ratio(ordered, ordered+spec+strong)
}

// reportPhases prints the phase table of the traced passes.
func reportPhases(r *report, v, d phases, tracedP50, untracedP50 float64) {
	r.add("client.submit_to_send_us", v.submitToSend*1000, "us", "sign and encode")
	r.add("client.send_to_first_inform_ms", v.sendToFirstInform, "ms", "")
	r.add("client.first_to_quorum_ms", v.firstToQuorum, "ms", "the wait for the slowest of nf replies")
	r.add("client.retransmits_per_ktxn", v.retransmits, "count", "")
	r.add("client.read_rtt_ms", v.readRTT, "ms", "tiered read sent to its reply; 0 where the workload has none")
	r.add("poe.req_to_propose_ms", v.reqToPropose, "ms", "primary: verify, batch linger, sign")
	r.add("poe.propose_to_support_ms", v.proposeToSupport, "ms", "backup: verify the batch, sign")
	r.add("poe.support_to_quorum_ms", v.supportToQuorum, "ms", "backup: until nf SUPPORTs are in")
	r.add("poe.quorum_to_inform_ms", v.quorumToInform, "ms", "backup: execute, MAC, send")
	r.add("poe.quorum_to_inform_durable_ms", d.quorumToInform, "ms", "the same on durable, fsyncing replicas")
	r.add("storage.wal_wait_ms", d.quorumToInform-v.quorumToInform, "ms", "what the group commit adds before a reply may leave")
	r.add("network.hops_ms", v.hops, "ms", "the three one-way deliveries on the reply path: request, PROPOSE, INFORM")
	r.add("network.msgs_per_decision", v.msgsPerDecision, "count", "replica to replica")
	r.add("network.bytes_per_decision", v.bytesPerDecision, "B", "replica to replica, encoded bodies")
	r.add("network.propose_bytes", v.proposeBytes, "B", "")
	r.add("trace.ordered_p50_ms", v.orderedP50, "ms", "SubmitTxn call to return, traced")
	r.add("trace.parts_over_e2e", ratio(v.parts(), v.orderedP50), "ratio", "sum of the phase medians over trace.ordered_p50_ms")
	r.add("trace.p50_ratio", ratio(tracedP50, untracedP50), "ratio", "traced in-process p50 over the untraced processes' p50: topology and tracing overhead")
}

// ratio is a/b, and 0 where there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints the timed calls.
func (c layerCosts) report(r *report) {
	r.add("wire.encode_propose_us", c.encodePropose, "us", "a 100-request PROPOSE into a frame")
	r.add("wire.decode_propose_us", c.decodePropose, "us", "")
	r.add("crypto.ed_sign_us", c.edSign, "us", "")
	r.add("crypto.ed_verify_us", c.edVerify, "us", "")
	r.add("crypto.mac_us", c.mac, "us", "")
	r.add("types.batch_digest_us", c.batchDigest, "us", "a freshly decoded batch: 100 request digests and their hash")
	r.add("store.apply_batch_us", c.applyBatch, "us", "")
	r.add("exec.run_batch_us", c.runBatch, "us", "the parallel engine on the same batch; poeserver does not enable it")
	r.add("ledger.append_us", c.ledgerAppend, "us", "")
	r.add("storage.append_sync_us", c.appendSync, "us", "one record, written and fsynced")
	r.add("storage.group_append_us_per_rec", c.groupAppendPerRec, "us", "32 AppendAsync and a Flush")
	r.add("network.tcp_rtt_us", c.tcpRTT, "us", "a SUPPORT there and back over loopback TCPNet")
	r.add("network.tcp_msg_cpu_us", c.tcpMsgCPU, "us", "process CPU per small message sent and received")
	r.add("network.tcp_bcast_propose_us", c.tcpBcast, "us", "PROPOSE to three peers until each acknowledged")
	r.add("protocol.verifier_reqs_per_s", c.verifierReqsPerS, "1/s", "first-seen signed requests through the ingress pipeline")
	r.add("protocol.egress_jobs_per_s", c.egressJobsPS, "1/s", "three-MAC broadcast authenticators through the egress pipeline")
	r.add("workload.gen_us", c.workloadGen, "us", "")
	r.add("baseline.exec_only_txn_s", c.execOnlyTxnS, "txn/s", "executor, store and ledger with no consensus")
}
