//! The repository benchmark: compiled FLICK services over loopback TCP.
//!
//! ```text
//! perfbench --workload <lb_keepalive|lb_churn|hadoop_agg> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run compiles the workload's FLICK program, deploys it with
//! `Platform::deploy_tcp` (bytecode VM, one worker per core, default
//! shards), drives it in a closed loop from this process and checks every
//! reply. `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced and a traced half, replays recorded inputs through each
//! crate's public functions and prints the per-layer metrics. The last
//! stdout line is one JSON object; see `perfbench/README.md`.

mod backend;
mod gen;
mod hadoop;
mod layers;
mod lb;
mod report;
mod stats;
mod sys;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use backend::Backends;
use flick_compiler::{CompileOptions, CompiledService};
use flick_runtime::{DeployedService, Platform, PlatformConfig, ServiceSpec};
use report::Report;
use std::sync::{mpsc, Arc};
use std::time::Instant;
use trace::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 51;
const HTTP_BACKENDS: usize = 4;
/// Untimed requests per client before each window, warming connections
/// and the VM's field caches.
const WARMUP_REQS: usize = 200;
/// Requests (and replies) per client kept for the layer replay.
const RECORD_REQS: usize = 256;
const WORDS: usize = 128;
const WORD_LEN: usize = 8;
const BYTES_PER_MAPPER: usize = 128 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    LbKeepalive,
    LbChurn,
    HadoopAgg,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "lb_keepalive" => Some(Workload::LbKeepalive),
            "lb_churn" => Some(Workload::LbChurn),
            "hadoop_agg" => Some(Workload::HadoopAgg),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::LbKeepalive => "lb_keepalive",
            Workload::LbChurn => "lb_churn",
            Workload::HadoopAgg => "hadoop_agg",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.2..=60.0).contains(&s) {
                    return Err(format!("--seconds must be within 0.2..=60, got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <lb_keepalive|lb_churn|hadoop_agg> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (mut report, tracer) = run(&args);
    if args.trace {
        let path = std::path::Path::new("perfbench/out").join(format!(
            "trace_{}_{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match tracer.write_jsonl(&path) {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report.error(format!("writing spans: {e}")),
        }
    }
    let correct = report.print();
    if !correct {
        std::process::exit(1);
    }
}

/// The workload's FLICK program and how to compile and deploy it.
struct Program {
    source: &'static str,
    process: &'static str,
    options: CompileOptions,
}

/// One deployed copy of the service. Fields drop in order: the service
/// (held only to stop it on drop) stops before its platform shuts down.
struct Deployment {
    _service: DeployedService,
    platform: Platform,
    compiled: Arc<CompiledService>,
    addr: String,
}

/// What one set-up cost.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    /// On-CPU seconds of every thread of the process: the work set-up
    /// does. It depends less on the hypervisor's scheduling delays than
    /// the wall-clock time, which is mostly thread hand-offs.
    cpu_s: f64,
    wall_s: f64,
}

/// Shared state of one run.
struct Ctx<'a> {
    args: &'a Args,
    program: Program,
    backends: Backends,
    backend_addrs: Vec<String>,
    verdicts: mpsc::Receiver<backend::RoundVerdict>,
    clients: usize,
    /// `PlatformConfig::shards`: the default (0, one per core) except
    /// where noted in `prepare`.
    shards: usize,
    body: Vec<u8>,
    dict: Vec<String>,
    tracer: Tracer,
}

/// Starts the back-ends and prepares the workload's program.
fn prepare(args: &Args) -> Ctx<'_> {
    let nproc = stats::nproc();
    // One client thread and connection per core at most, two at most.
    let clients = nproc.min(2);
    let body = gen::http_body(args.seed);
    let (verdict_tx, verdicts) = mpsc::channel();
    let (program, backends) = match args.workload {
        Workload::LbKeepalive | Workload::LbChurn => (
            Program {
                source: flick_services::http::HTTP_LB_FLICK_SOURCE,
                process: "HttpBalancer",
                options: CompileOptions::default(),
            },
            Backends::start(HTTP_BACKENDS, body.clone(), None),
        ),
        Workload::HadoopAgg => (
            Program {
                source: flick_services::hadoop::HADOOP_AGGREGATOR_FLICK_SOURCE,
                process: "hadoop",
                options: CompileOptions::default().with_client_connections(clients),
            },
            Backends::start(0, Vec::new(), Some(verdict_tx)),
        ),
    };
    let backend_addrs = match backends.reducer_addr() {
        Some(reducer) => vec![reducer.to_string()],
        None => backends.http_addrs().to_vec(),
    };
    Ctx {
        args,
        program,
        backends,
        backend_addrs,
        verdicts,
        clients,
        // The aggregator groups several client connections into one graph,
        // but `deploy_tcp` accept-shards over SO_REUSEPORT and groups
        // pending connections per shard: when the kernel hashes a round's
        // mappers to different shards no graph is ever built and the round
        // hangs. Until the platform groups across shards, hadoop_agg runs
        // on one shard (one listener).
        shards: match args.workload {
            Workload::HadoopAgg => 1,
            _ => 0,
        },
        body,
        dict: gen::word_dictionary(args.seed, WORDS, WORD_LEN),
        tracer: Tracer::new(Instant::now(), args.trace),
    }
}

/// One whole run: set-up, the measured windows, checks and metrics.
fn run(args: &Args) -> (Report, Tracer) {
    let nproc = stats::nproc();
    let mut ctx = prepare(args);
    let mut report = Report::new(args.workload.name(), args.seed, args.trace);
    let run_span = ctx.tracer.begin("run", 0);

    let mut setup_times = Vec::new();
    let mut deployment = None;
    for rep in 0..SETUP_REPS {
        drop(deployment.take());
        match setup(&mut ctx, rep as u64) {
            Ok((d, time)) => {
                setup_times.push(time);
                deployment = Some(d);
            }
            Err(e) => {
                report.error(format!("set-up: {e}"));
                return (report, ctx.tracer);
            }
        }
    }
    let deployment = deployment.expect("at least one set-up");
    report.fingerprint(&[
        ("nproc", nproc.to_string()),
        ("fd_limit", stats::fd_limit()),
        ("workers", deployment.platform.config().workers.to_string()),
        ("shards", deployment.platform.shard_count().to_string()),
        ("gen_threads", ctx.clients.to_string()),
        ("gen_conns", ctx.clients.to_string()),
        (
            "exec_mode",
            format!("{:?}", deployment.platform.config().exec_mode),
        ),
    ]);
    assert!(
        ctx.clients <= nproc,
        "the generator may not outnumber the cores"
    );

    match args.workload {
        Workload::LbKeepalive | Workload::LbChurn => {
            workloads::run_lb(&mut ctx, &deployment, &setup_times, &mut report)
        }
        Workload::HadoopAgg => {
            workloads::run_hadoop(&mut ctx, &deployment, &setup_times, &mut report)
        }
    }
    ctx.tracer.end(run_span);
    drop(deployment);
    (report, ctx.tracer)
}

/// Compile, deploy, first correct reply. Returns the deployment and what
/// it cost.
fn setup(ctx: &mut Ctx<'_>, rep: u64) -> Result<(Deployment, SetupTime), String> {
    let started = Instant::now();
    let cpu_started = sys::process_cpu_time();
    let span = ctx.tracer.begin("setup", 0);
    let typed = ctx
        .tracer
        .scope("setup.compile.front", 0, |_| {
            flick_lang::compile_to_ast(ctx.program.source)
        })
        .map_err(|e| format!("front end: {e}"))?;
    let compiled = ctx
        .tracer
        .scope("setup.compile.lower", 0, |_| {
            flick_compiler::compile(&typed, ctx.program.process, &ctx.program.options)
        })
        .map_err(|e| format!("lowering: {e}"))?;
    let deploy = ctx.tracer.scope("setup.deploy", 0, |_| {
        let platform = Platform::new(PlatformConfig {
            workers: stats::nproc(),
            shards: ctx.shards,
            ..Default::default()
        });
        let spec = ServiceSpec::new(ctx.args.workload.name(), 0, compiled.clone())
            .with_tcp_backends(ctx.backend_addrs.clone());
        platform
            .deploy_tcp(spec, "127.0.0.1:0")
            .map(|service| (platform, service))
    });
    let (platform, service) = deploy.map_err(|e| format!("deploy: {e}"))?;
    let deployment = Deployment {
        addr: format!("127.0.0.1:{}", service.port()),
        _service: service,
        platform,
        compiled,
    };
    let first = ctx.tracer.begin("setup.first_reply", 0);
    let reply = match ctx.args.workload {
        Workload::HadoopAgg => {
            let rounds = hadoop::Rounds {
                addr: &deployment.addr,
                seed: ctx.args.seed,
                mappers: ctx.clients,
                dict: &ctx.dict,
                bytes_per_mapper: 512,
                backends: &ctx.backends,
                verdicts: &ctx.verdicts,
            };
            rounds.run(u32::MAX as u64 + rep, &mut ctx.tracer).0.verdict
        }
        _ => lb::first_reply(&deployment.addr, ctx.args.seed, &ctx.body),
    };
    ctx.tracer.end(first);
    ctx.tracer.end(span);
    reply?;
    let time = SetupTime {
        cpu_s: (sys::process_cpu_time() - cpu_started).as_secs_f64(),
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok((deployment, time))
}
