//! Per-layer replay: times calls into each crate's public functions on
//! inputs recorded from the measured workload. Every call (or batch of
//! calls, for operations too short to time alone) is wrapped in a span
//! named after its layer; the layer costs are the spans' self times.

use crate::gen::MapperStream;
use crate::trace::Tracer;
use bytes::Bytes;
use flick_compiler::interp::{CollectSink, RtVal};
use flick_compiler::logic::FoldtLogic;
use flick_compiler::vm::Vm;
use flick_compiler::{CompileOptions, CompiledService};
use flick_grammar::hadoop::HadoopKvCodec;
use flick_grammar::http::{load_balancer_projection, HttpCodec};
use flick_grammar::{Message, ParseOutcome, WireCodec};
use flick_net::{Endpoint, SimNetwork, StackModel, TcpStack};
use flick_runtime::graph::TaskIdAllocator;
use flick_runtime::{
    BackendPool, ComputeTask, ExecMode, GraphFactory, OutputMode, RuntimeMetrics, Scheduler,
    SchedulingPolicy, ServiceEnv, SharedDict, Task, TaskChannel, TaskContext, TaskId, TaskStatus,
    Value,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Operations per span for layers too fast to time one call at a time.
pub const BATCH: usize = 64;

/// Inputs recorded from the measured window.
#[derive(Debug, Default)]
pub struct Recorded {
    pub http_reqs: Vec<Vec<u8>>,
    pub http_resps: Vec<Vec<u8>>,
    pub kv_streams: Vec<MapperStream>,
}

/// What the replay needs to know about the deployed service.
pub struct Target<'a> {
    pub source: &'a str,
    pub process: &'a str,
    pub options: &'a CompileOptions,
    pub service: &'a CompiledService,
    /// Back-end addresses the service's pool connects to.
    pub backend_addrs: &'a [String],
}

/// Span names, ops per span, and the metric each feeds.
pub const LAYERS: &[(&str, &str, usize)] = &[
    ("lang.front_us", "replay.lang.front", 1),
    ("compiler.lower_us", "replay.compiler.lower", 1),
    ("compiler.vm_route_ns", "replay.compiler.vm_route", BATCH),
    (
        "compiler.foldt_ns_per_record",
        "replay.compiler.foldt",
        BATCH,
    ),
    (
        "grammar.http_req_parse_ns",
        "replay.grammar.http_req_parse",
        BATCH,
    ),
    (
        "grammar.http_resp_parse_ns",
        "replay.grammar.http_resp_parse",
        BATCH,
    ),
    (
        "grammar.http_serialize_ns",
        "replay.grammar.http_serialize",
        BATCH,
    ),
    ("grammar.kv_parse_ns", "replay.grammar.kv_parse", BATCH),
    (
        "runtime.channel_hop_ns",
        "replay.runtime.channel_hop",
        BATCH,
    ),
    ("runtime.wakeup_us", "replay.runtime.wakeup", 1),
    ("runtime.graph_build_us", "replay.runtime.graph_build", 1),
    (
        "runtime.backend_connect_us",
        "replay.runtime.backend_connect",
        1,
    ),
    ("net.loopback_rtt_us", "replay.net.loopback_rtt", 1),
    ("net.connect_accept_us", "replay.net.connect_accept", 1),
];

/// Runs every replay that has recorded inputs. Replays check their own
/// outputs; the first failure is returned.
pub fn replay_all(target: &Target<'_>, rec: &Recorded, tracer: &mut Tracer) -> Result<(), String> {
    let root = tracer.begin("replay", 0);
    let result = replay_layers(target, rec, tracer);
    tracer.end(root);
    result
}

fn replay_layers(target: &Target<'_>, rec: &Recorded, tracer: &mut Tracer) -> Result<(), String> {
    front_and_lower(target, tracer)?;
    let http_reqs = parse_all(&HttpCodec::new(), &rec.http_reqs, "request")?;
    let http_resps = parse_all(&HttpCodec::new(), &rec.http_resps, "reply")?;
    let kv: Vec<Message> = rec
        .kv_streams
        .iter()
        .map(|s| parse_stream(&s.bytes))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    if !http_reqs.is_empty() {
        vm_route(target.service, &http_reqs, tracer)?;
        parse_batches(&rec.http_reqs, "replay.grammar.http_req_parse", tracer)?;
        parse_batches(&rec.http_resps, "replay.grammar.http_resp_parse", tracer)?;
        serialize_batches(&http_reqs, &http_resps, tracer)?;
    }
    if !kv.is_empty() {
        kv_parse(&rec.kv_streams, tracer)?;
        foldt(target.service, &rec.kv_streams, tracer)?;
    }
    let hop_values: Vec<Value> = http_reqs
        .iter()
        .chain(&kv)
        .take(4 * BATCH)
        .map(|m| Value::Msg(m.clone()))
        .collect();
    channel_hop(&hop_values, tracer);
    wakeup(tracer)?;
    let (ping, pong) = match (rec.http_reqs.first(), rec.http_resps.first()) {
        (Some(q), Some(r)) => (q.clone(), r.clone()),
        _ => {
            let stream = &rec.kv_streams.first().ok_or("nothing recorded")?.bytes;
            let chunk = stream[..stream.len().min(256)].to_vec();
            (chunk.clone(), chunk)
        }
    };
    tcp_layers(target, &ping, &pong, tracer)
}

fn front_and_lower(target: &Target<'_>, tracer: &mut Tracer) -> Result<(), String> {
    for _ in 0..40 {
        let typed = tracer
            .scope("replay.lang.front", 0, |_| {
                flick_lang::compile_to_ast(black_box(target.source))
            })
            .map_err(|e| format!("front end: {e}"))?;
        let service = tracer
            .scope("replay.compiler.lower", 0, |_| {
                flick_compiler::compile(&typed, target.process, target.options)
            })
            .map_err(|e| format!("lowering: {e}"))?;
        black_box(service);
    }
    Ok(())
}

fn parse_all(codec: &HttpCodec, raw: &[Vec<u8>], what: &str) -> Result<Vec<Message>, String> {
    let projection = load_balancer_projection();
    raw.iter()
        .map(
            |bytes| match codec.parse_bytes(&Bytes::from(bytes.clone()), Some(&projection)) {
                Ok(ParseOutcome::Complete { message, consumed }) if consumed == bytes.len() => {
                    Ok(message)
                }
                other => Err(format!("recorded {what} does not parse whole: {other:?}")),
            },
        )
        .collect()
}

fn parse_stream(stream: &[u8]) -> Result<Vec<Message>, String> {
    flick_grammar::hadoop::parse_batch(&HadoopKvCodec::new(), stream)
        .map_err(|e| format!("recorded mapper stream does not parse: {e}"))
}

/// Cycles `items` into `spans` batches of [`BATCH`].
fn batches<T>(items: &[T], spans: usize) -> impl Iterator<Item = Vec<&T>> {
    (0..spans).map(move |b| {
        (0..BATCH)
            .map(|i| &items[(b * BATCH + i) % items.len()])
            .collect()
    })
}

fn vm_route(
    service: &CompiledService,
    reqs: &[Message],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let compiled = service.compiled();
    let index = service
        .program()
        .functions
        .iter()
        .position(|f| f.name == "pick_backend")
        .ok_or("balancer has no `pick_backend`")?;
    let mut cache = compiled.field_offsets.clone();
    let mut vm = Vm::new(compiled, &mut cache);
    let mut sink = CollectSink::default();
    let channels: Vec<usize> = (0..4).collect();
    for batch in batches(reqs, 300) {
        let args: Vec<Vec<RtVal>> = batch
            .into_iter()
            .map(|m| {
                vec![
                    RtVal::ChannelArray(channels.clone()),
                    RtVal::Val(Value::Msg(m.clone())),
                ]
            })
            .collect();
        sink.sent.clear();
        let result = tracer.scope("replay.compiler.vm_route", 0, |_| {
            for a in args {
                vm.call_function(index, a, &mut sink)?;
            }
            Ok::<_, flick_runtime::RuntimeError>(())
        });
        result.map_err(|e| format!("vm route: {e}"))?;
        if sink.sent.len() != BATCH || sink.sent.iter().any(|(c, _)| *c >= channels.len()) {
            return Err(format!(
                "vm route sent {} messages for {BATCH}",
                sink.sent.len()
            ));
        }
    }
    Ok(())
}

fn parse_batches(raw: &[Vec<u8>], span: &'static str, tracer: &mut Tracer) -> Result<(), String> {
    let codec = HttpCodec::new();
    let projection = load_balancer_projection();
    let shared: Vec<Bytes> = raw.iter().map(|b| Bytes::from(b.clone())).collect();
    for batch in batches(&shared, 300) {
        let complete = tracer.scope(span, 0, |_| {
            batch
                .iter()
                .filter(|b| {
                    matches!(
                        codec.parse_bytes(b, Some(&projection)),
                        Ok(ParseOutcome::Complete { .. })
                    )
                })
                .count()
        });
        if complete != BATCH {
            return Err(format!("{span}: {complete} of {BATCH} parsed"));
        }
    }
    Ok(())
}

fn serialize_batches(
    reqs: &[Message],
    resps: &[Message],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let codec = HttpCodec::new();
    let both: Vec<&Message> = reqs.iter().zip(resps).flat_map(|(a, b)| [a, b]).collect();
    let mut out = Vec::with_capacity(1024);
    for batch in batches(&both, 300) {
        let ok = tracer.scope("replay.grammar.http_serialize", 0, |_| {
            batch.iter().all(|m| {
                out.clear();
                codec.serialize_parts(m, &mut out).is_ok()
            })
        });
        if !ok {
            return Err("serialize_parts failed on a recorded message".into());
        }
    }
    Ok(())
}

fn kv_parse(streams: &[MapperStream], tracer: &mut Tracer) -> Result<(), String> {
    let codec = HadoopKvCodec::new();
    for stream in streams {
        let buf = Bytes::from(stream.bytes.clone());
        let mut at = 0;
        while at < buf.len() {
            let parsed = tracer.scope("replay.grammar.kv_parse", 0, |_| {
                let mut n = 0;
                while n < BATCH && at < buf.len() {
                    match codec.parse_bytes(&buf.slice(at..), None) {
                        Ok(ParseOutcome::Complete { consumed, message }) => {
                            black_box(message);
                            at += consumed;
                            n += 1;
                        }
                        _ => return None,
                    }
                }
                Some(n)
            });
            match parsed {
                Some(n) if n == BATCH || at == buf.len() => {}
                _ => return Err("recorded mapper stream stopped parsing".into()),
            }
        }
    }
    Ok(())
}

fn foldt(
    service: &CompiledService,
    streams: &[MapperStream],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let inputs: Vec<Vec<Value>> = streams
        .iter()
        .map(|s| {
            parse_stream(&s.bytes).map(|ms| ms.into_iter().map(Value::Msg).collect::<Vec<_>>())
        })
        .collect::<Result<_, _>>()?;
    let expected = crate::gen::merge_totals(streams);
    let mut ctx = TaskContext::new(
        SchedulingPolicy::NonCooperative,
        RuntimeMetrics::new_shared(),
    );
    let (producers, consumers): (Vec<_>, Vec<_>) = (0..inputs.len())
        .map(|i| TaskChannel::bounded(BATCH, TaskId(u64::MAX - 10 - i as u64)))
        .unzip();
    let (out_tx, out_rx) = TaskChannel::bounded(1 << 16, TaskId(u64::MAX - 1));
    let logic = FoldtLogic::with_vm(
        Arc::clone(service.program()),
        Arc::clone(service.compiled()),
        inputs.len(),
        0,
    );
    let mut task = ComputeTask::new("replay-foldt", consumers, vec![out_tx], Box::new(logic));
    // Interleave the mappers a batch at a time, as the platform's input
    // tasks would deliver them.
    let mut cursors = vec![0usize; inputs.len()];
    loop {
        let mut pushed = 0;
        for (i, values) in inputs.iter().enumerate() {
            let end = (cursors[i] + BATCH).min(values.len());
            let take = end - cursors[i];
            if take == 0 {
                continue;
            }
            for v in &values[cursors[i]..end] {
                producers[i]
                    .push(v.clone())
                    .map_err(|_| "foldt input full")?;
            }
            cursors[i] = end;
            pushed += take;
            if take == BATCH {
                tracer.scope("replay.compiler.foldt", 0, |_| task.run(&mut ctx));
            } else {
                task.run(&mut ctx);
            }
        }
        if pushed == 0 {
            break;
        }
    }
    for p in &producers {
        p.close();
    }
    if task.run(&mut ctx) != TaskStatus::Finished {
        return Err("foldt replay did not finish".into());
    }
    let mut got = BTreeMap::new();
    while let Some(v) = out_rx.pop() {
        let msg = v.into_msg().ok_or("foldt emitted a non-message")?;
        let key = msg.str_field("key").ok_or("foldt output without key")?;
        let count = flick_grammar::hadoop::count_of(&msg).ok_or("foldt output count")?;
        got.insert(key.to_string(), count);
    }
    if got != expected {
        return Err("foldt replay totals differ from ground truth".into());
    }
    Ok(())
}

fn channel_hop(values: &[Value], tracer: &mut Tracer) {
    if values.is_empty() {
        return;
    }
    let (tx, rx) = TaskChannel::bounded(1024, TaskId(u64::MAX - 2));
    for batch in batches(values, 500) {
        let owned: Vec<Value> = batch.into_iter().cloned().collect();
        tracer.scope("replay.runtime.channel_hop", 0, |_| {
            for v in owned {
                let _ = tx.push(v);
                black_box(rx.pop());
            }
        });
    }
}

/// A task that reports the instant it starts running.
struct Stamp(mpsc::Sender<Instant>);

impl Task for Stamp {
    fn label(&self) -> &str {
        "stamp"
    }

    fn run(&mut self, _ctx: &mut TaskContext) -> TaskStatus {
        let _ = self.0.send(Instant::now());
        TaskStatus::Idle
    }
}

/// Times `Scheduler::schedule` until the task starts running, on a
/// one-worker scheduler.
fn wakeup(tracer: &mut Tracer) -> Result<(), String> {
    let mut scheduler =
        Scheduler::start(1, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
    let (tx, rx) = mpsc::channel();
    let id = TaskId(u64::MAX - 3);
    scheduler.register(id, Box::new(Stamp(tx)));
    let mut result = Ok(());
    for _ in 0..300 {
        let span = tracer.begin("replay.runtime.wakeup", 0);
        scheduler.schedule(id);
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(ran) => tracer.end_at(span, ran),
            Err(_) => {
                tracer.end(span);
                result = Err("scheduled task never ran".into());
                break;
            }
        }
    }
    scheduler.shutdown();
    result
}

fn close_all(endpoints: &[Endpoint]) {
    for e in endpoints {
        e.close();
    }
}

/// Graph build, back-end connect, loopback echo and connect+accept, all
/// on a kernel TCP stack of the replay's own.
fn tcp_layers(
    target: &Target<'_>,
    ping: &[u8],
    pong: &[u8],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let stack = TcpStack::new(StackModel::Free);
    let listener = stack
        .listen("127.0.0.1:0")
        .map_err(|e| format!("replay listen: {e}"))?;
    let addr = format!("127.0.0.1:{}", listener.port());
    let pair = || -> Result<(Endpoint, Endpoint), String> {
        let a = stack
            .connect(&addr)
            .map_err(|e| format!("replay connect: {e}"))?;
        let b = listener
            .accept_timeout(Duration::from_secs(5))
            .map_err(|e| format!("replay accept: {e}"))?;
        Ok((a, b))
    };

    let env = ServiceEnv {
        net: SimNetwork::new(StackModel::Free),
        globals: SharedDict::new(),
        backends: BackendPool::new_tcp(Arc::clone(&stack), target.backend_addrs.to_vec(), false),
        allocator: Arc::new(TaskIdAllocator::new()),
        channel_capacity: 1024,
        output_mode: OutputMode::default(),
        exec_mode: ExecMode::Vm,
    };
    let per_graph = target.service.connections_per_graph();
    for _ in 0..60 {
        let (near, far): (Vec<_>, Vec<_>) = (0..per_graph)
            .map(|_| pair())
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .unzip();
        let built = tracer
            .scope("replay.runtime.graph_build", 0, |_| {
                target.service.build(far, &env)
            })
            .map_err(|e| format!("graph build: {e}"))?;
        let endpoints: Vec<Endpoint> = built.watchers.iter().map(|w| w.endpoint.clone()).collect();
        drop(built);
        close_all(&endpoints);
        close_all(&near);
    }
    for i in 0..120 {
        let endpoint = tracer
            .scope("replay.runtime.backend_connect", 0, |_| {
                env.backends.connect(i % env.backends.len())
            })
            .map_err(|e| format!("backend connect: {e}"))?;
        endpoint.close();
    }
    for _ in 0..120 {
        let span = tracer.begin("replay.net.connect_accept", 0);
        let connected = pair();
        tracer.end(span);
        let (a, b) = connected?;
        close_all(&[a, b]);
    }

    let (a, b) = pair()?;
    let rounds = 400;
    let echo = std::thread::scope(|s| {
        let echo = s.spawn(|| -> Result<(), String> {
            let mut buf = vec![0u8; ping.len()];
            for _ in 0..rounds {
                b.read_exact_timeout(&mut buf, Duration::from_secs(5))
                    .map_err(|e| format!("echo read: {e}"))?;
                b.write_all(pong).map_err(|e| format!("echo write: {e}"))?;
            }
            Ok(())
        });
        let mut buf = vec![0u8; pong.len()];
        let mut result = Ok(());
        for _ in 0..rounds {
            let span = tracer.begin("replay.net.loopback_rtt", 0);
            let io = a
                .write_all(ping)
                .and_then(|_| a.read_exact_timeout(&mut buf, Duration::from_secs(5)));
            tracer.end(span);
            if let Err(e) = io {
                result = Err(format!("echo: {e}"));
                break;
            }
            if buf != pong {
                result = Err("echo returned other bytes".into());
                break;
            }
        }
        a.close();
        let echoed = echo.join().expect("echo thread panicked");
        result.and(echoed)
    });
    close_all(&[a, b]);
    listener.close();
    echo
}
