//! The measured windows of each workload, their output checks, and the
//! per-layer metrics derived from counters, replays and spans.

use crate::backend::Backends;
use crate::gen::MapperStream;
use crate::hadoop::{Round, Rounds};
use crate::layers::{self, Recorded, Target};
use crate::lb::{self, Mode, Phase, PhaseOut};
use crate::report::Report;
use crate::stats::{median, peak_rss_mb, quantile, thread_cpu_ns, Histogram};
use crate::trace::Tracer;
use crate::{Ctx, Deployment, SetupTime, Workload};
use crate::{BYTES_PER_MAPPER, HTTP_BACKENDS, RECORD_REQS, SETUP_REPS, WARMUP_REQS};
use flick_net::StatsSnapshot;
use flick_runtime::MetricsSnapshot;
use std::time::{Duration, Instant};

/// Public counters of every layer at one instant.
struct Counters {
    runtime: MetricsSnapshot,
    net: StatsSnapshot,
    shard_runs: Vec<u64>,
}

impl Counters {
    fn take(d: &Deployment) -> Self {
        Counters {
            runtime: d.platform.metrics().snapshot(),
            net: d.platform.tcp_stack().stats().snapshot(),
            shard_runs: d
                .platform
                .shard_status()
                .iter()
                .map(|s| s.load.runs)
                .collect(),
        }
    }
}

/// Counter differences over a window, per request (or per record).
struct Window {
    before: Counters,
    after: Counters,
    units: f64,
}

impl Window {
    fn per(&self, f: impl Fn(&Counters) -> u64) -> f64 {
        (f(&self.after) as f64 - f(&self.before) as f64) / self.units.max(1.0)
    }

    fn rt(&self, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
        self.per(|c| f(&c.runtime))
    }

    fn net(&self, f: impl Fn(&StatsSnapshot) -> u64) -> f64 {
        self.per(|c| f(&c.net))
    }
}

/// Waits briefly so graphs torn down after a window do not overlap the
/// next one's counters.
fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}

fn report_setup(report: &mut Report, setup_times: &[SetupTime]) {
    let mut cpu: Vec<f64> = setup_times.iter().map(|t| t.cpu_s).collect();
    let mut wall: Vec<f64> = setup_times.iter().map(|t| t.wall_s).collect();
    report.metric("setup_s", "s", median(&mut cpu), SETUP_REPS);
    report.metric("setup_wall_s", "s", median(&mut wall), SETUP_REPS);
}

fn lb_phase<'a>(
    ctx: &'a Ctx<'_>,
    d: &'a Deployment,
    seconds: f64,
    id: u64,
    record: usize,
) -> Phase<'a> {
    Phase {
        addr: &d.addr,
        seed: ctx.args.seed,
        mode: if ctx.args.workload == Workload::LbChurn {
            Mode::Churn
        } else {
            Mode::KeepAlive
        },
        body: &ctx.body,
        clients: ctx.clients,
        seconds,
        warmup: WARMUP_REQS,
        record,
        phase_id: id,
    }
}

/// Output checks of one balancer window: no failed reply, and the
/// back-ends served exactly the completed requests, spread over at least
/// two of them.
fn check_lb(report: &mut Report, out: &PhaseOut, backends: &Backends, served_before: &[u64]) {
    report.attempts(out.completed() + out.failed(), out.failed());
    if backends.bad_requests() > 0 {
        report.error("back-ends received requests that are not a GET");
    }
    let served_after = backends.served();
    for c in &out.clients {
        for e in &c.errors {
            report.error(format!("request failed: {e}"));
        }
    }
    let served: Vec<u64> = served_after
        .iter()
        .zip(served_before)
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = served.iter().sum();
    if total != out.completed() {
        report.error(format!(
            "back-ends served {total} requests but {} completed",
            out.completed()
        ));
    }
    let hit = served.iter().filter(|&&n| n > 0).count();
    if hit < 2 {
        report.error(format!(
            "only {hit} back-end(s) served requests: {served:?}"
        ));
    }
}

pub fn run_lb(ctx: &mut Ctx<'_>, d: &Deployment, setup_times: &[SetupTime], report: &mut Report) {
    let seconds = ctx.args.seconds;
    if !ctx.args.trace {
        let mut served_before = Vec::new();
        let mut cpu_before = 0;
        let out = lb::run_phase(&lb_phase(ctx, d, seconds, 1, 0), &ctx.tracer, || {
            served_before = ctx.backends.served();
            cpu_before = platform_cpu_ns();
        });
        let cpu_ns = platform_cpu_ns() - cpu_before;
        check_lb(report, &out, &ctx.backends, &served_before);
        lb_end_to_end(report, &out, cpu_ns);
        report_setup(report, setup_times);
        report.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
        return;
    }

    // Untraced half: counters, latency tail, recorded inputs.
    let quiet = ctx.tracer.child_disabled();
    let mut before = None;
    let mut served_before = Vec::new();
    ctx.backends.take_service_ns();
    ctx.backends.set_recording(true);
    let untraced = lb::run_phase(
        &lb_phase(ctx, d, seconds / 2.0, 1, RECORD_REQS),
        &quiet,
        || {
            before = Some(Counters::take(d));
            served_before = ctx.backends.served();
        },
    );
    let after = Counters::take(d);
    ctx.backends.set_recording(false);
    let service_ns: Vec<f64> = ctx
        .backends
        .take_service_ns()
        .into_iter()
        .map(|n| n as f64)
        .collect();
    check_lb(report, &untraced, &ctx.backends, &served_before);
    let window = Window {
        before: before.expect("window opened"),
        after,
        units: untraced.completed() as f64,
    };
    settle();

    // Traced half: one span per client request.
    let load = ctx.tracer.begin("load.traced", 0);
    let mut served_before = Vec::new();
    let mut traced = lb::run_phase(&lb_phase(ctx, d, seconds / 2.0, 2, 0), &ctx.tracer, || {
        served_before = ctx.backends.served()
    });
    for c in &mut traced.clients {
        let spans = std::mem::replace(&mut c.tracer, Tracer::new(Instant::now(), false));
        ctx.tracer.adopt(spans);
    }
    ctx.tracer.end(load);
    check_lb(report, &traced, &ctx.backends, &served_before);

    let recorded = Recorded {
        http_reqs: untraced
            .clients
            .iter()
            .flat_map(|c| c.reqs.clone())
            .collect(),
        http_resps: untraced
            .clients
            .iter()
            .flat_map(|c| c.resps.clone())
            .collect(),
        kv_streams: Vec::new(),
    };
    replay(ctx, d, &recorded, report);

    let rate = |o: &PhaseOut| o.completed() as f64 / o.elapsed.as_secs_f64();
    let measured = Measured {
        latencies: untraced.latencies(),
        agg_mb_s: sent_mb_s(&untraced),
        traced_p50_us: traced.latencies().quantile(0.5) / 1000.0,
        rate_untraced: rate(&untraced),
        rate_traced: rate(&traced),
        gaps: untraced.gaps(),
        service_ns,
    };
    per_layer(ctx, report, &window, measured, Model::Balancer);
}

/// The platform's own threads (shard workers, dispatchers, OS reactors).
fn platform_cpu_ns() -> u64 {
    thread_cpu_ns("flick-")
}

fn lb_end_to_end(report: &mut Report, out: &PhaseOut, cpu_ns: u64) {
    let lat = out.latencies();
    let us = |q: f64| lat.quantile(q) / 1000.0;
    let n = lat.count();
    let completed = out.completed() as f64;
    let secs = out.elapsed.as_secs_f64();
    report.metric("p10_us", "us", us(0.10), n);
    report.metric(
        "cpu_us_per_req",
        "us",
        cpu_ns as f64 / 1000.0 / completed,
        n,
    );
    report.metric("rps", "1/s", completed / secs, n);
    report.metric("p50_us", "us", us(0.50), n);
    report.metric("p95_us", "us", us(0.95), n);
    report.metric("p99_us", "us", us(0.99), n);
    report.metric("agg_mb_s", "MB/s", sent_mb_s(out), n);
}

/// Request bytes the clients sent per second, in MB.
fn sent_mb_s(out: &PhaseOut) -> f64 {
    let sent: u64 = out.clients.iter().map(|c| c.sent_bytes).sum();
    sent as f64 / out.elapsed.as_secs_f64() / 1e6
}

/// Runs aggregation rounds for `seconds` (at least one); also returns the
/// first round's mapper streams.
fn hadoop_window(
    rounds: &Rounds<'_>,
    first_id: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Vec<Round>, Vec<MapperStream>) {
    let started = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    let mut kept = Vec::new();
    let mut id = first_id;
    while out.is_empty() || started.elapsed() < deadline {
        let (round, streams) = rounds.run(id, tracer);
        if kept.is_empty() {
            kept = streams;
        }
        id += 1;
        let failed = round.verdict.is_err();
        out.push(round);
        if failed {
            break;
        }
    }
    (out, kept)
}

fn check_rounds(report: &mut Report, rounds: &[Round]) {
    let failed = rounds.iter().filter(|r| r.verdict.is_err()).count() as u64;
    report.attempts(rounds.len() as u64, failed);
    for r in rounds {
        if let Err(e) = &r.verdict {
            report.error(format!("aggregation round: {e}"));
        }
    }
}

/// Median per-round records per second and MB per second, and the round
/// latencies in µs.
fn round_rates(rounds: &[Round]) -> (f64, f64, Vec<f64>) {
    let rate = |amount: fn(&Round) -> u64| {
        let mut r: Vec<f64> = rounds
            .iter()
            .map(|r| amount(r) as f64 / r.elapsed.as_secs_f64())
            .collect();
        median(&mut r)
    };
    let lat = rounds
        .iter()
        .map(|r| r.elapsed.as_secs_f64() * 1e6)
        .collect();
    (rate(|r| r.records), rate(|r| r.bytes) / 1e6, lat)
}

pub fn run_hadoop(
    ctx: &mut Ctx<'_>,
    d: &Deployment,
    setup_times: &[SetupTime],
    report: &mut Report,
) {
    let mut tracer = std::mem::replace(&mut ctx.tracer, Tracer::new(Instant::now(), false));
    let seconds = ctx.args.seconds;
    let rounds = Rounds {
        addr: &d.addr,
        seed: ctx.args.seed,
        mappers: ctx.clients,
        dict: &ctx.dict,
        bytes_per_mapper: BYTES_PER_MAPPER,
        backends: &ctx.backends,
        verdicts: &ctx.verdicts,
    };
    let mut quiet = tracer.child_disabled();
    // Warm-up rounds: connections, graph placement and the VM caches.
    for id in 1..=2 {
        if let Err(e) = rounds.run(id, &mut quiet).0.verdict {
            report.error(format!("warm-up round: {e}"));
        }
    }
    if !ctx.args.trace {
        let cpu_before = platform_cpu_ns();
        let (done, _) = hadoop_window(&rounds, 1000, seconds, &mut quiet);
        let cpu_ns = platform_cpu_ns() - cpu_before;
        check_rounds(report, &done);
        let records: u64 = done.iter().map(|r| r.records).sum();
        let (rps, mb_s, mut lat) = round_rates(&done);
        let n = lat.len();
        report.metric("p10_us", "us", quantile(&mut lat, 0.10), n);
        report.metric(
            "cpu_us_per_req",
            "us",
            cpu_ns as f64 / 1000.0 / records as f64,
            n,
        );
        report.metric("rps", "1/s", rps, n);
        report.metric("p50_us", "us", quantile(&mut lat, 0.50), n);
        report.metric("p95_us", "us", quantile(&mut lat, 0.95), n);
        report.metric("agg_mb_s", "MB/s", mb_s, n);
        report_setup(report, setup_times);
        report.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
        ctx.tracer = tracer;
        return;
    }

    let before = Counters::take(d);
    let (untraced, streams) = hadoop_window(&rounds, 1000, seconds / 2.0, &mut quiet);
    let after = Counters::take(d);
    check_rounds(report, &untraced);
    settle();
    let load = tracer.begin("load.traced", 0);
    let (traced, _) = hadoop_window(&rounds, 1_000_000, seconds / 2.0, &mut tracer);
    tracer.end(load);
    check_rounds(report, &traced);
    ctx.tracer = tracer;

    let records: u64 = untraced.iter().map(|r| r.records).sum();
    let window = Window {
        before,
        after,
        units: records as f64,
    };
    let recorded = Recorded {
        kv_streams: streams,
        ..Default::default()
    };
    replay(ctx, d, &recorded, report);

    let (rate_untraced, agg_mb_s, _) = round_rates(&untraced);
    let (rate_traced, _, mut traced_us) = round_rates(&traced);
    let per_round = traced.iter().map(|r| r.records as f64).sum::<f64>() / traced.len() as f64;
    let measured = Measured {
        latencies: Histogram::from_ns(untraced.iter().map(|r| r.elapsed.as_nanos() as u64)),
        agg_mb_s,
        traced_p50_us: median(&mut traced_us) / per_round,
        rate_untraced,
        rate_traced,
        gaps: Histogram::from_ns(
            untraced
                .windows(2)
                .map(|w| (w[1].started - w[0].ended).as_nanos() as u64),
        ),
        service_ns: Vec::new(),
    };
    per_layer(ctx, report, &window, measured, Model::Aggregator);
}

fn replay(ctx: &mut Ctx<'_>, d: &Deployment, recorded: &Recorded, report: &mut Report) {
    let target = Target {
        source: ctx.program.source,
        process: ctx.program.process,
        options: &ctx.program.options,
        service: &d.compiled,
        backend_addrs: &ctx.backend_addrs,
    };
    if let Err(e) = layers::replay_all(&target, recorded, &mut ctx.tracer) {
        report.error(format!("replay: {e}"));
    }
}

/// What the client side measured in the trace run.
struct Measured {
    /// Untraced latencies (ns per request, or per round).
    latencies: Histogram,
    agg_mb_s: f64,
    /// Traced median latency per request (per record for the aggregator).
    traced_p50_us: f64,
    rate_untraced: f64,
    rate_traced: f64,
    /// Client gaps from a reply (or round) to the next send (ns).
    gaps: Histogram,
    service_ns: Vec<f64>,
}

/// How a workload's request crosses the layers, for attribution.
#[derive(Clone, Copy, PartialEq)]
enum Model {
    /// One request: client → balancer → back-end → balancer → client.
    Balancer,
    /// One record: mapper → aggregator, folded into the reducer's stream.
    Aggregator,
}

fn per_layer(ctx: &mut Ctx<'_>, report: &mut Report, w: &Window, mut m: Measured, model: Model) {
    // Replay costs: median span self time per operation.
    let self_times = ctx.tracer.self_times();
    let mut cost = std::collections::BTreeMap::new();
    for (metric, span, per) in layers::LAYERS {
        let mut samples = ctx.tracer.self_times_of(span, &self_times);
        let n = samples.len();
        let ns = if n == 0 {
            0.0
        } else {
            median(&mut samples) / *per as f64
        };
        let (value, unit) = if metric.ends_with("_us") {
            (ns / 1000.0, "us")
        } else {
            (ns, "ns")
        };
        cost.insert(*metric, value);
        report.metric(*metric, unit, value, n * per);
    }
    let c = |name: &str| cost[name];

    // Counters per request (per record for the aggregator).
    let n = w.units as usize;
    let task_runs = w.rt(|s| s.task_runs);
    let msgs_in = w.rt(|s| s.messages_in);
    let msgs_out = w.rt(|s| s.messages_out);
    let graphs = w.rt(|s| s.graphs_created);
    let reads = w.net(|s| s.read_calls);
    let conns = w.net(|s| s.connections_opened);
    report.metric("runtime.task_runs_per_req", "count", task_runs, n);
    report.metric("runtime.msgs_in_per_req", "count", msgs_in, n);
    report.metric("runtime.msgs_out_per_req", "count", msgs_out, n);
    report.metric(
        "runtime.yields_per_req",
        "count",
        w.rt(|s| s.cooperative_yields),
        n,
    );
    report.metric(
        "runtime.steals_per_req",
        "count",
        w.rt(|s| s.tasks_stolen),
        n,
    );
    report.metric(
        "runtime.backend_checkouts_per_req",
        "count",
        w.rt(|s| s.backend_checkouts),
        n,
    );
    let runs: Vec<f64> = w
        .after
        .shard_runs
        .iter()
        .zip(&w.before.shard_runs)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let total_runs: f64 = runs.iter().sum::<f64>().max(1.0);
    for shard in 0..runs.len().max(2) {
        let share = runs.get(shard).map_or(0.0, |r| r / total_runs * 100.0);
        report.metric(format!("runtime.shard{shard}_util_pct"), "%", share, n);
    }
    report.metric("runtime.graphs_per_req", "count", graphs, n);
    report.metric("net.reads_per_req", "count", reads, n);
    report.metric("net.writes_per_req", "count", w.net(|s| s.write_calls), n);
    report.metric(
        "net.writev_per_req",
        "count",
        w.net(|s| s.vectored_writes),
        n,
    );
    report.metric("net.conns_per_req", "count", conns, n);
    // Bytes carried across ingest chunks. A balancer message always fits
    // the read that delivers it, so the zero-copy law (DESIGN.md §11)
    // demands 0; a record stream legitimately carries the partial record
    // at a chunk switch.
    let copies = w.after.net.ingest_copies - w.before.net.ingest_copies;
    report.metric("net.ingest_copies", "count", copies as f64, n);
    if model == Model::Balancer && copies != 0 {
        report.error(format!(
            "{copies} ingest copies; the zero-copy path must make none"
        ));
    }

    // Harness.
    report.metric(
        "gen.client_gap_ns",
        "ns",
        m.gaps.quantile(0.5),
        m.gaps.count(),
    );
    let services = m.service_ns.len();
    let service_ns = median(&mut m.service_ns);
    report.metric("backend.service_ns", "ns", service_ns, services);
    report.metric(
        "trace.overhead_pct",
        "%",
        (m.rate_untraced / m.rate_traced - 1.0) * 100.0,
        2,
    );
    let lat_n = m.latencies.count();
    let lat_us = |q: f64| m.latencies.quantile(q) / 1000.0;
    report.metric("rps", "1/s", m.rate_untraced, lat_n);
    report.metric("p50_us", "us", lat_us(0.50), lat_n);
    report.metric("p95_us", "us", lat_us(0.95), lat_n);
    report.metric("p99_us", "us", lat_us(0.99), lat_n);
    report.metric("p999_us", "us", lat_us(0.999), lat_n);
    report.metric("agg_mb_s", "MB/s", m.agg_mb_s, lat_n);

    // Attribution: each layer's cost times its count per request.
    let backend_conns_per_graph = match model {
        Model::Balancer => HTTP_BACKENDS as f64,
        Model::Aggregator => 1.0,
    };
    let client_conns_per_graph = match model {
        Model::Balancer => 1.0,
        Model::Aggregator => ctx.clients as f64,
    };
    // Graph build includes its eager back-end connects; count those once,
    // under the network.
    let build_self = (c("runtime.graph_build_us")
        - backend_conns_per_graph * c("runtime.backend_connect_us"))
    .max(0.0);
    let grammar_us = match model {
        Model::Balancer => {
            (c("grammar.http_req_parse_ns")
                + c("grammar.http_resp_parse_ns") * (msgs_in - 1.0).max(0.0)
                + c("grammar.http_serialize_ns") * msgs_out)
                / 1000.0
        }
        Model::Aggregator => c("grammar.kv_parse_ns") / 1000.0,
    };
    let compiler_us = match model {
        Model::Balancer => c("compiler.vm_route_ns") / 1000.0,
        Model::Aggregator => c("compiler.foldt_ns_per_record") / 1000.0,
    };
    // Every message crosses one channel. A parked task is woken once per
    // read that delivers input; the other task runs of a request follow on
    // a worker that is already awake.
    let runtime_us = c("runtime.channel_hop_ns") / 1000.0 * (msgs_in + msgs_out)
        + c("runtime.wakeup_us") * reads
        + build_self * graphs;
    // A loopback round trip is two one-way deliveries. The balancer's
    // reads are half of a request's four deliveries (the back-end and the
    // client read the other two); each aggregator read is one delivery.
    let deliveries = match model {
        Model::Balancer => reads + 2.0,
        Model::Aggregator => reads,
    };
    let net_us = c("net.loopback_rtt_us") / 2.0 * deliveries
        + graphs
            * (client_conns_per_graph * c("net.connect_accept_us")
                + backend_conns_per_graph * c("runtime.backend_connect_us"));
    let backend_us = service_ns / 1000.0;
    let layers = [
        ("self.grammar_us", grammar_us),
        ("self.compiler_us", compiler_us),
        ("self.runtime_us", runtime_us),
        ("self.net_us", net_us),
        ("self.backend_us", backend_us),
    ];
    let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
    for (name, value) in layers {
        report.metric(name, "us", value, n);
    }
    let unattributed = m.traced_p50_us - attributed;
    report.metric("trace.p50_us", "us", m.traced_p50_us, n);
    report.metric("unattributed_us", "us", unattributed, n);
    // A model that attributes more than the traced median has a wrong
    // cost or count term. The replay costs are medians of separate
    // measurements, so this is flagged rather than failing the outputs.
    if unattributed < 0.0 {
        report.note(format!(
            "attribution exceeds the traced p50 by {:.3} us",
            -unattributed
        ));
    }
}
