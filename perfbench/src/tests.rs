//! The benchmark's own tests: short runs of the real workloads.

use super::*;
use crate::lb::{Mode, Phase};

fn args(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 11,
        seconds: 0.6,
        trace,
    }
}

/// Spans of a traced run nest inside their parents, and every self time
/// lies between 0 and the span's duration.
#[test]
fn traced_run_spans_nest_with_nonnegative_self_time() {
    let args = args(Workload::LbKeepalive, true);
    let (report, tracer) = run(&args);
    assert!(report.correct(), "{report:?}");
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.name == "client.request"));
    assert!(spans.iter().any(|s| s.name == "replay.compiler.vm_route"));
    let self_times = tracer.self_times();
    for (id, span) in spans.iter().enumerate() {
        assert!(
            span.end_ns >= span.start_ns,
            "span {id} ends before it starts"
        );
        if let Some(p) = span.parent {
            let parent = &spans[p];
            assert!(
                parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                "span {id} ({}) escapes its parent {p} ({})",
                span.name,
                parent.name
            );
        }
        assert!(self_times[id] <= span.duration_ns());
    }
}

/// The replay inputs are the first requests and replies of the measured
/// window, byte for byte, and replaying them passes every replay check.
#[test]
fn replay_inputs_come_from_the_measured_window() {
    let args = args(Workload::LbKeepalive, true);
    let mut ctx = prepare(&args);
    let (d, _) = setup(&mut ctx, 0).expect("set-up");
    let phase = Phase {
        addr: &d.addr,
        seed: args.seed,
        mode: Mode::KeepAlive,
        body: &ctx.body,
        clients: ctx.clients,
        seconds: 0.2,
        warmup: 3,
        record: 8,
        phase_id: 5,
    };
    let quiet = ctx.tracer.child_disabled();
    let out = lb::run_phase(&phase, &quiet, || {});
    for (client, c) in out.clients.iter().enumerate() {
        assert_eq!(c.reqs.len(), 8);
        for (k, req) in c.reqs.iter().enumerate() {
            // Window requests follow the warm-up ones.
            let index = (5u64 << 32) + 3 + 1 + k as u64;
            let mut expected = Vec::new();
            gen::request_bytes(
                &gen::request_path(args.seed, client, index),
                false,
                &mut expected,
            );
            assert_eq!(req, &expected);
            lb::check_reply(&c.resps[k], &ctx.body).expect("recorded reply is correct");
        }
    }
    let recorded = layers::Recorded {
        http_reqs: out.clients.iter().flat_map(|c| c.reqs.clone()).collect(),
        http_resps: out.clients.iter().flat_map(|c| c.resps.clone()).collect(),
        kv_streams: Vec::new(),
    };
    let target = layers::Target {
        source: ctx.program.source,
        process: ctx.program.process,
        options: &ctx.program.options,
        service: &d.compiled,
        backend_addrs: &ctx.backend_addrs,
    };
    let mut tracer = Tracer::new(Instant::now(), true);
    layers::replay_all(&target, &recorded, &mut tracer).expect("replay");
}

/// The aggregator's recorded streams are the first measured round's.
#[test]
fn aggregator_records_the_first_measured_round() {
    let args = args(Workload::HadoopAgg, false);
    let mut ctx = prepare(&args);
    let (d, _) = setup(&mut ctx, 0).expect("set-up");
    let rounds = hadoop::Rounds {
        addr: &d.addr,
        seed: args.seed,
        mappers: ctx.clients,
        dict: &ctx.dict,
        bytes_per_mapper: 4096,
        backends: &ctx.backends,
        verdicts: &ctx.verdicts,
    };
    let mut quiet = ctx.tracer.child_disabled();
    let (round, streams) = rounds.run(77, &mut quiet);
    round.verdict.expect("totals match");
    for (m, stream) in streams.iter().enumerate() {
        assert_eq!(
            stream.bytes,
            gen::mapper_stream(args.seed, 77, m, &ctx.dict, 4096).bytes
        );
    }
}

/// Keep-alive traffic builds no graphs and opens no connections in the
/// window; churn builds at least one of each per request. The layer self
/// times plus the unattributed rest add up to the traced median, and none
/// of them is negative: the model attributes no more than was measured.
#[test]
fn counts_separate_keepalive_from_churn_and_attribution_adds_up() {
    for (workload, per_req) in [(Workload::LbKeepalive, false), (Workload::LbChurn, true)] {
        let args = args(workload, true);
        let (report, _) = run(&args);
        assert!(report.correct(), "{report:?}");
        let graphs = report.get("runtime.graphs_per_req").unwrap();
        let conns = report.get("net.conns_per_req").unwrap();
        if per_req {
            assert!(graphs >= 1.0 && conns >= 1.0, "{graphs} {conns}");
        } else {
            assert_eq!((graphs, conns), (0.0, 0.0));
        }
        let parts: Vec<f64> = [
            "self.grammar_us",
            "self.compiler_us",
            "self.runtime_us",
            "self.net_us",
            "self.backend_us",
            "unattributed_us",
        ]
        .iter()
        .map(|m| report.get(m).unwrap())
        .collect();
        assert!(
            parts.iter().all(|&v| v >= 0.0),
            "{workload:?}: negative attribution {parts:?}"
        );
        let parts: f64 = parts.iter().sum();
        let p50 = report.get("trace.p50_us").unwrap();
        assert!(
            (parts - p50).abs() < 1e-6 * p50.max(1.0),
            "{parts} vs {p50}"
        );
    }
}
