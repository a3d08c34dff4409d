//! Assembling compiled FLICK programs into deployable graph factories.
//!
//! A [`CompiledService`] implements the runtime's `GraphFactory` trait. The
//! convention for binding a process signature to the network is:
//!
//! * the **first** channel parameter binds to the inbound client
//!   connection(s) accepted by the application dispatcher (a channel-array
//!   first parameter, as in the Hadoop aggregator, binds to
//!   [`CompileOptions::client_connections`] inbound connections per graph);
//! * every **subsequent** channel parameter binds to outbound back-end
//!   connections: an array parameter takes one connection per configured
//!   back-end, a scalar parameter takes the next back-end in order.
//!
//! Wire codecs are chosen per record type: synthesised from the type's
//! serialisation annotations when possible, otherwise taken from the
//! [`CompileOptions::codecs`] registry (pre-populated with the framework's
//! reusable HTTP, Memcached and Hadoop grammars).

use crate::bytecode::{self, CompiledProgram};
use crate::error::CompileError;
use crate::grammar_gen;
use crate::ir::{lower, ProgramIr};
use crate::logic::{ChannelBindings, CompiledGlobals, FoldtLogic, InterpreterLogic, ParamBinding};
use crate::projection;
use crate::vm::VmLogic;
use flick_grammar::{
    hadoop::HadoopKvCodec, http::HttpCodec, memcached::MemcachedCodec, Projection, WireCodec,
};
use flick_lang::TypedProgram;
use flick_net::Endpoint;
use flick_runtime::platform::BuiltGraph;
use flick_runtime::tasks::{ExecMode, InputTask, OutputTask};
use flick_runtime::{
    ComputeTask, GraphBuilder, GraphFactory, RuntimeError, ServiceEnv, TaskId, Watch,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling compilation and deployment binding.
#[derive(Clone)]
pub struct CompileOptions {
    /// Registry mapping record type names to protocol codecs, consulted when
    /// a type carries no serialisation annotations.
    pub codecs: HashMap<String, Arc<dyn WireCodec>>,
    /// Number of inbound client connections per graph when the first channel
    /// parameter is an array (e.g. the number of Hadoop mappers).
    pub client_connections: usize,
}

impl std::fmt::Debug for CompileOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompileOptions")
            .field("codecs", &self.codecs.keys().collect::<Vec<_>>())
            .field("client_connections", &self.client_connections)
            .finish()
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        let mut codecs: HashMap<String, Arc<dyn WireCodec>> = HashMap::new();
        // The framework provides reusable grammars for common protocols
        // (§4.2); the conventional FLICK type names map onto them.
        codecs.insert("cmd".into(), Arc::new(MemcachedCodec::new()));
        codecs.insert("kv".into(), Arc::new(HadoopKvCodec::new()));
        codecs.insert("http".into(), Arc::new(HttpCodec::new()));
        codecs.insert("request".into(), Arc::new(HttpCodec::new()));
        CompileOptions {
            codecs,
            client_connections: 1,
        }
    }
}

impl CompileOptions {
    /// Registers (or overrides) the codec used for a record type.
    pub fn with_codec(mut self, type_name: impl Into<String>, codec: Arc<dyn WireCodec>) -> Self {
        self.codecs.insert(type_name.into(), codec);
        self
    }

    /// Sets the number of inbound connections per graph for array-typed
    /// client parameters.
    pub fn with_client_connections(mut self, n: usize) -> Self {
        self.client_connections = n.max(1);
        self
    }
}

/// Per-parameter compiled artefacts.
struct ParamPlan {
    codec: Arc<dyn WireCodec>,
    projection: Projection,
}

/// A compiled FLICK service, deployable on the platform.
pub struct CompiledService {
    program: Arc<ProgramIr>,
    /// The bytecode lowering of `program`, executed when the deployment
    /// environment selects `ExecMode::Vm` (the default).
    compiled: Arc<CompiledProgram>,
    globals: Arc<CompiledGlobals>,
    plans: Vec<ParamPlan>,
    client_connections: usize,
}

impl std::fmt::Debug for CompiledService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledService")
            .field("process", &self.program.process.name)
            .finish()
    }
}

impl CompiledService {
    /// Compiles `proc_name` of the typed program.
    pub fn compile(
        typed: &TypedProgram,
        proc_name: &str,
        options: &CompileOptions,
    ) -> Result<Self, CompileError> {
        let program = Arc::new(lower(typed, proc_name)?);
        let globals = CompiledGlobals::for_process(&program.process);
        let mut plans = Vec::new();
        let mut layouts: Vec<(String, Vec<String>)> = Vec::new();
        for param in &program.process.params {
            let record = typed
                .record(&param.record)
                .ok_or_else(|| CompileError::MissingCodec(param.record.clone()))?;
            let codec: Arc<dyn WireCodec> = if grammar_gen::can_synthesise(record) {
                Arc::new(grammar_gen::synthesise(record)?)
            } else if let Some(codec) = options.codecs.get(&param.record) {
                Arc::clone(codec)
            } else {
                return Err(CompileError::MissingCodec(param.record.clone()));
            };
            let proj = projection::derive(typed, &param.record);
            if !layouts.iter().any(|(name, _)| *name == param.record) {
                // The grammar's field layout for this record, restricted
                // to the fields the projection materialises — the parse
                // order messages of this unit carry at run time. Seeds the
                // VM's field-offset sites (verified per message, so codecs
                // with a different emission order stay correct).
                let fields: Vec<String> = record
                    .fields
                    .iter()
                    .filter_map(|f| f.name.clone())
                    .filter(|name| proj.requires(name))
                    .collect();
                layouts.push((param.record.clone(), fields));
            }
            plans.push(ParamPlan {
                codec,
                projection: proj,
            });
        }
        let compiled = Arc::new(bytecode::compile_with_layouts(&program, &layouts));
        Ok(CompiledService {
            program,
            compiled,
            globals,
            plans,
            client_connections: options.client_connections,
        })
    }

    /// The name of the compiled process.
    pub fn process_name(&self) -> &str {
        &self.program.process.name
    }

    /// The lowered program (for inspection and tests).
    pub fn program(&self) -> &Arc<ProgramIr> {
        &self.program
    }

    /// The bytecode lowering of the program (for inspection, benches and
    /// tests).
    pub fn compiled(&self) -> &Arc<CompiledProgram> {
        &self.compiled
    }

    /// The per-service globals.
    pub fn globals(&self) -> &Arc<CompiledGlobals> {
        &self.globals
    }

    /// Whether this service aggregates with `foldt`.
    pub fn is_foldt(&self) -> bool {
        self.program.process.foldt.is_some()
    }
}

impl GraphFactory for CompiledService {
    fn connections_per_graph(&self) -> usize {
        if self
            .program
            .process
            .params
            .first()
            .map(|p| p.is_array)
            .unwrap_or(false)
        {
            self.client_connections
        } else {
            1
        }
    }

    fn build(&self, clients: Vec<Endpoint>, env: &ServiceEnv) -> Result<BuiltGraph, RuntimeError> {
        let process = &self.program.process;
        let mut builder = GraphBuilder::new(process.name.clone(), &env.allocator)
            .with_channel_capacity(env.channel_capacity);
        let compute_node = builder.declare_node();

        let mut bindings = ChannelBindings::default();
        let mut compute_inputs = Vec::new();
        let mut compute_outputs = Vec::new();
        let mut installs: Vec<(flick_runtime::NodeId, Box<dyn flick_runtime::Task>)> = Vec::new();
        let mut watchers: Vec<Watch> = Vec::new();
        let mut client_tasks: Vec<TaskId> = Vec::new();

        // Helper that wires one endpoint to the compute task according to the
        // parameter's direction, returning the (input, output) indices used.
        let wire_endpoint =
            |builder: &mut GraphBuilder<'_>,
             endpoint: &Endpoint,
             plan: &ParamPlan,
             readable: bool,
             writable: bool,
             label: &str,
             is_client: bool,
             compute_inputs: &mut Vec<flick_runtime::ChannelConsumer>,
             compute_outputs: &mut Vec<flick_runtime::ChannelProducer>,
             installs: &mut Vec<(flick_runtime::NodeId, Box<dyn flick_runtime::Task>)>,
             watchers: &mut Vec<Watch>,
             client_tasks: &mut Vec<TaskId>|
             -> (Option<usize>, Option<usize>) {
                let mut input_idx = None;
                let mut output_idx = None;
                if readable {
                    let node = builder.declare_node();
                    let (tx, rx) = builder.channel(compute_node);
                    installs.push((
                        node,
                        Box::new(InputTask::new(
                            format!("{label}-in"),
                            endpoint.clone(),
                            Arc::clone(&plan.codec),
                            Some(plan.projection.clone()),
                            tx,
                        )),
                    ));
                    watchers.push(Watch::readable(node.task_id(), endpoint.clone()));
                    if is_client {
                        client_tasks.push(node.task_id());
                    }
                    input_idx = Some(compute_inputs.len());
                    compute_inputs.push(rx);
                }
                if writable {
                    let node = builder.declare_node();
                    let (tx, rx) = builder.channel(node);
                    let out_task = OutputTask::new(
                        format!("{label}-out"),
                        endpoint.clone(),
                        Arc::clone(&plan.codec),
                        rx,
                    );
                    installs.push((node, Box::new(out_task)));
                    watchers.push(Watch::writable(node.task_id(), endpoint.clone()));
                    output_idx = Some(compute_outputs.len());
                    compute_outputs.push(tx);
                }
                (input_idx, output_idx)
            };

        let mut backend_cursor = 0usize;
        let mut clients = clients;
        for (param_idx, param) in process.params.iter().enumerate() {
            let plan = &self.plans[param_idx];
            let mut binding = ParamBinding::default();
            if param_idx == 0 {
                // Client-facing parameter: one endpoint per accepted connection.
                let endpoints: Vec<Endpoint> = std::mem::take(&mut clients);
                for (i, endpoint) in endpoints.iter().enumerate() {
                    let (inp, out) = wire_endpoint(
                        &mut builder,
                        endpoint,
                        plan,
                        param.dir.readable,
                        param.dir.writable,
                        &format!("{}-{i}", param.name),
                        true,
                        &mut compute_inputs,
                        &mut compute_outputs,
                        &mut installs,
                        &mut watchers,
                        &mut client_tasks,
                    );
                    if let Some(i) = inp {
                        binding.inputs.push(i);
                    }
                    if let Some(o) = out {
                        binding.outputs.push(o);
                    }
                }
            } else {
                // Back-end parameter(s): outbound connections.
                let indices: Vec<usize> = if param.is_array {
                    (0..env.backends.len()).collect()
                } else {
                    let idx = backend_cursor;
                    backend_cursor += 1;
                    vec![idx]
                };
                if indices.is_empty() || indices.iter().any(|i| *i >= env.backends.len()) {
                    return Err(RuntimeError::Config(format!(
                        "process `{}` parameter `{}` needs more back-ends than configured",
                        process.name, param.name
                    )));
                }
                for i in indices {
                    let endpoint = env.backends.checkout(i)?;
                    let (inp, out) = wire_endpoint(
                        &mut builder,
                        &endpoint,
                        plan,
                        param.dir.readable,
                        param.dir.writable,
                        &format!("{}-{i}", param.name),
                        false,
                        &mut compute_inputs,
                        &mut compute_outputs,
                        &mut installs,
                        &mut watchers,
                        &mut client_tasks,
                    );
                    if let Some(i) = inp {
                        binding.inputs.push(i);
                    }
                    if let Some(o) = out {
                        binding.outputs.push(o);
                    }
                }
            }
            bindings.params.push(binding);
        }

        // Build the compute logic: the specialised foldt merge or the
        // general per-rule dispatch, each executing on the engine the
        // environment selects (`ExecMode::Vm` bytecode by default,
        // `ExecMode::Interp` tree-walking as the ablation baseline).
        let logic: Box<dyn flick_runtime::ComputeLogic> = if let Some(foldt) = &process.foldt {
            let total_inputs = bindings.params[foldt.source_param].inputs.len();
            let sink_output = bindings.params[foldt.sink_param]
                .outputs
                .first()
                .copied()
                .ok_or_else(|| {
                    RuntimeError::Config("foldt output channel is not writable".into())
                })?;
            match env.exec_mode {
                ExecMode::Vm => Box::new(FoldtLogic::with_vm(
                    Arc::clone(&self.program),
                    Arc::clone(&self.compiled),
                    total_inputs,
                    sink_output,
                )),
                ExecMode::Interp => Box::new(FoldtLogic::new(
                    Arc::clone(&self.program),
                    total_inputs,
                    sink_output,
                )),
            }
        } else {
            match env.exec_mode {
                ExecMode::Vm => Box::new(VmLogic::new(
                    Arc::clone(&self.compiled),
                    bindings,
                    Arc::clone(&self.globals),
                )),
                ExecMode::Interp => Box::new(InterpreterLogic::new(
                    Arc::clone(&self.program),
                    bindings,
                    Arc::clone(&self.globals),
                )),
            }
        };
        builder.install(
            compute_node,
            Box::new(ComputeTask::new(
                format!("{}-compute", process.name),
                compute_inputs,
                compute_outputs,
                logic,
            )),
        );
        for (node, task) in installs {
            builder.install(node, task);
        }
        Ok(BuiltGraph {
            graph: builder.build(),
            watchers,
            initial: vec![],
            client_tasks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flick_runtime::{Platform, PlatformConfig, ServiceSpec};
    use std::time::Duration;

    const PROXY: &str = r#"
type cmd: record
  key : string

proc Memcached: (cmd/cmd client, [cmd/cmd] backends)
  backends => client
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;

    #[test]
    fn compiles_proxy_with_registry_codec() {
        let service =
            crate::compile_source(PROXY, "Memcached", &CompileOptions::default()).unwrap();
        assert_eq!(service.process_name(), "Memcached");
        assert!(!service.is_foldt());
        assert_eq!(service.connections_per_graph(), 1);
    }

    #[test]
    fn missing_codec_is_reported() {
        let src = r#"
type custom: record
  key : string

proc P: (custom/custom client)
  client => client
"#;
        let err = crate::compile_source(src, "P", &CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::MissingCodec(_)));
    }

    #[test]
    fn annotated_types_get_synthesised_codecs() {
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        assert_eq!(service.process_name(), "Echo");
    }

    #[test]
    fn end_to_end_compiled_echo_service() {
        // A FLICK program with a synthesised wire format, deployed on the
        // platform and exercised over the simulated network.
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let deployed = platform
            .deploy(ServiceSpec::new("echo", 7100, service))
            .unwrap();
        let net = platform.net();
        let client = net.connect(7100).unwrap();
        // tag=9, key="ping".
        let wire = [9u8, 0, 4, b'p', b'i', b'n', b'g'];
        client.write_all(&wire).unwrap();
        let mut buf = [0u8; 16];
        client
            .read_exact_timeout(&mut buf[..7], Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..7], &wire);
        drop(deployed);
    }

    #[test]
    fn exec_mode_interp_still_serves_end_to_end() {
        // The ablation switch: the same program deployed with
        // `ExecMode::Interp` runs on the tree-walking interpreter and
        // behaves identically on the wire.
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=2}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let deployed = platform
            .deploy(ServiceSpec::new("echo-interp", 7150, service).with_exec_mode(ExecMode::Interp))
            .unwrap();
        let net = platform.net();
        let client = net.connect(7150).unwrap();
        let wire = [3u8, 0, 2, b'h', b'i'];
        client.write_all(&wire).unwrap();
        let mut buf = [0u8; 8];
        client
            .read_exact_timeout(&mut buf[..5], Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..5], &wire);
        drop(deployed);
    }

    #[test]
    fn vm_mode_service_still_closes_malformed_frames() {
        // §14 behaviour is a property of the parsing layer, not the
        // execution engine: a VM-mode service (the default) fed a hostile
        // length declaration must slam the connection and draw
        // `malformed_closes`, and a clean sibling connection must still be
        // served. The 4-byte length field lets the declaration exceed the
        // 16 MiB per-field parse limit.
        let src = r#"
type pkt: record
  tag : integer {signed=false, size=1}
  keylen : integer {signed=false, size=4}
  key : string {size=keylen}

proc Echo: (pkt/pkt client)
  client => client
"#;
        let service = crate::compile_source(src, "Echo", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let deployed = platform
            .deploy(ServiceSpec::new("echo-vm-hostile", 7151, service))
            .unwrap();
        let net = platform.net();
        let hostile = net.connect(7151).unwrap();
        // tag=1, keylen=0xFFFFFFFF: a 4 GiB key against the 16 MiB cap.
        hostile.write_all(&[1u8, 0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while net.stats().snapshot().malformed_closes < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "malformed close never recorded in VM mode: {:?}",
                net.stats().snapshot()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The service survives the poison: a well-formed frame on a fresh
        // connection still echoes.
        let clean = net.connect(7151).unwrap();
        let wire = [2u8, 0, 0, 0, 2, b'h', b'i'];
        clean.write_all(&wire).unwrap();
        let mut buf = [0u8; 8];
        clean
            .read_exact_timeout(&mut buf[..7], Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..7], &wire);
        drop(deployed);
    }

    #[test]
    fn end_to_end_compiled_memcached_proxy_routes_to_backend() {
        use flick_grammar::{memcached, ParseOutcome, WireCodec};
        let service =
            crate::compile_source(PROXY, "Memcached", &CompileOptions::default()).unwrap();
        let platform = Platform::new(PlatformConfig::default());
        let net = platform.net();
        // One fake backend that answers every request with a response echoing
        // the key.
        let backend_listener = net.listen(7201).unwrap();
        let backend_thread = std::thread::spawn(move || {
            let codec = memcached::MemcachedCodec::new();
            let conn = backend_listener
                .accept_timeout(Duration::from_secs(5))
                .unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match conn.read_timeout(&mut chunk, Duration::from_secs(5)) {
                    Ok(n) => {
                        buf.extend_from_slice(&chunk[..n]);
                        if let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(&buf, None)
                        {
                            let key = message.str_field("key").unwrap_or("").as_bytes().to_vec();
                            let resp =
                                memcached::response(memcached::opcode::GETK, 0, &key, b"value!");
                            let mut out = Vec::new();
                            codec.serialize(&resp, &mut out).unwrap();
                            conn.write_all(&out).unwrap();
                            return;
                        }
                    }
                    Err(e) => panic!("backend read failed: {e}"),
                }
            }
        });
        let deployed = platform
            .deploy(ServiceSpec::new("memcached", 7200, service).with_backends(vec![7201]))
            .unwrap();

        let codec = memcached::MemcachedCodec::new();
        let client = net.connect(7200).unwrap();
        let request = memcached::request(memcached::opcode::GETK, b"user:1", b"", b"");
        let mut wire = Vec::new();
        codec.serialize(&request, &mut wire).unwrap();
        client.write_all(&wire).unwrap();

        // Read the proxied response.
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let response = loop {
            let n = client
                .read_timeout(&mut chunk, Duration::from_secs(5))
                .unwrap();
            buf.extend_from_slice(&chunk[..n]);
            if let Ok(ParseOutcome::Complete { message, .. }) = codec.parse(&buf, None) {
                break message;
            }
        };
        assert_eq!(response.str_field("key"), Some("user:1"));
        assert_eq!(response.bytes_field("value"), Some(&b"value!"[..]));
        backend_thread.join().unwrap();
        drop(deployed);
    }
}
