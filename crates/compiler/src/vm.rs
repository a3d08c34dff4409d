//! The direct-threaded bytecode VM.
//!
//! Executes the [`Chunk`]s produced by [`crate::bytecode`] with a single
//! flat dispatch loop — `loop { match op }` over pre-decoded operands —
//! instead of the interpreter's recursive walk over boxed IR nodes. All
//! value semantics (operator coercions, equality, builtins, the
//! string-exploding `fold`/`map`/`filter` list coercion) are the
//! *interpreter's own* `pub(crate)` helpers, so the two execution modes
//! share one implementation of every observable behaviour and cannot
//! drift; the differential property test in `tests/language_properties.rs`
//! holds them to that.
//!
//! Field projections (`req.key`) execute through per-site inline caches:
//! each `Op::Field`/`Op::LoadField` carries a site id into a per-logic
//! offset table, seeded from the grammar's record layouts at compile time
//! and verified (name check) on every hit, so a projection is an index
//! read instead of a name scan once the first message of a shape has been
//! seen. `Op::LoadField` projects a frame local in place, so reading one
//! field never clones the whole message.
//!
//! Runtime logic errors are annotated `[at fn \`name\`, pc N]` via the
//! shared helpers in [`crate::error`], mirroring the interpreter's
//! `[at fn \`name\`, stmt N]` so diagnostics stay comparable.

use crate::bytecode::{Chunk, CompiledProgram, Op, NO_OFFSET};
use crate::error::{locate, locate_frame};
use crate::interp::{binary, dict_key, eval_builtin, list_items, to_msg_value, EmitSink, RtVal};
use crate::logic::{ChannelBindings, CompiledGlobals, OutputsSink};
use flick_grammar::{Message, MsgValue};
use flick_lang::ast::UnOp;
use flick_runtime::{ComputeLogic, Outputs, RuntimeError, Value};
use std::sync::Arc;

/// Pops the top of the operand stack. Compiled chunks are stack-balanced
/// by construction, so an underflow is a compiler bug, not a program
/// error.
fn pop(stack: &mut Vec<RtVal>) -> RtVal {
    stack.pop().expect("vm operand stack underflow")
}

fn msg_field_value(value: &MsgValue) -> Value {
    match value {
        MsgValue::UInt(v) => Value::Int(*v as i64),
        MsgValue::Int(v) => Value::Int(*v),
        MsgValue::Bool(b) => Value::Bool(*b),
        MsgValue::Str(s) => Value::Str(s.clone()),
        MsgValue::Bytes(b) => Value::Bytes(b.clone()),
    }
}

/// A bytecode executor borrowing the program and a mutable field-site
/// offset cache (owned by the logic instance so it warms up across
/// messages).
pub struct Vm<'p> {
    program: &'p CompiledProgram,
    field_cache: &'p mut [u32],
}

impl<'p> Vm<'p> {
    /// Creates an executor. `field_cache` must have
    /// [`CompiledProgram::field_sites`] entries (start from a copy of
    /// [`CompiledProgram::field_offsets`]).
    pub fn new(program: &'p CompiledProgram, field_cache: &'p mut [u32]) -> Self {
        debug_assert_eq!(field_cache.len(), program.field_sites());
        Vm {
            program,
            field_cache,
        }
    }

    /// Calls function `index` with the given arguments, mirroring
    /// `Interpreter::call_function` (same arity errors, same `Unit`
    /// default).
    pub fn call_function(
        &mut self,
        index: usize,
        args: Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let argc = args.len();
        let mut stack = Vec::with_capacity(argc + 8);
        stack.extend(args);
        self.call_indexed(index, argc, &mut stack, sink)
    }

    fn call_indexed(
        &mut self,
        index: usize,
        argc: usize,
        stack: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let function = self
            .program
            .functions
            .get(index)
            .ok_or_else(|| RuntimeError::Logic(format!("unknown function index {index}")))?;
        if argc != function.params {
            // Drop the staged arguments so the caller's stack stays
            // balanced past the error.
            stack.truncate(stack.len() - argc);
            return Err(RuntimeError::Logic(format!(
                "function `{}` expects {} arguments, got {}",
                function.name, function.params, argc
            )));
        }
        let mut frame = vec![RtVal::Val(Value::Unit); function.chunk.frame_size.max(argc)];
        for i in (0..argc).rev() {
            frame[i] = pop(stack);
        }
        self.run_chunk(&function.chunk, &mut frame, stack, sink)
            .map_err(|e| locate_frame(e, &function.name))
    }

    /// Runs one chunk to its `Return`, leaving the operand stack at its
    /// entry depth (also on error).
    pub fn run_chunk(
        &mut self,
        chunk: &Chunk,
        frame: &mut Vec<RtVal>,
        stack: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        let base = stack.len();
        let result = self.dispatch(chunk, frame, stack, sink);
        stack.truncate(base);
        result
    }

    /// The dispatch loop. Failing ops annotate the error with the program
    /// counter (innermost location wins); the enclosing call adds the
    /// function name.
    fn dispatch(
        &mut self,
        chunk: &Chunk,
        frame: &mut Vec<RtVal>,
        stack: &mut Vec<RtVal>,
        sink: &mut dyn EmitSink,
    ) -> Result<RtVal, RuntimeError> {
        /// `?` with a pc-located error.
        macro_rules! vmtry {
            ($pc:expr, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(err) => return Err(locate(err, || format!("pc {}", $pc))),
                }
            };
        }
        let code = &chunk.code;
        let mut pc = 0usize;
        loop {
            match &code[pc] {
                Op::Const(idx) => {
                    stack.push(RtVal::Val(self.program.consts[*idx as usize].clone()))
                }
                Op::Unit => stack.push(RtVal::Val(Value::Unit)),
                Op::Load(slot) => {
                    let value = vmtry!(
                        pc,
                        frame.get(*slot as usize).cloned().ok_or_else(|| {
                            RuntimeError::Logic(format!("frame slot {slot} out of range"))
                        })
                    );
                    stack.push(value);
                }
                Op::Store(slot) => {
                    let slot = *slot as usize;
                    let value = pop(stack);
                    if slot >= frame.len() {
                        frame.resize(slot + 1, RtVal::Val(Value::Unit));
                    }
                    frame[slot] = value;
                }
                Op::Pop => {
                    pop(stack);
                }
                Op::Field { name, site } => {
                    let base = pop(stack);
                    let name = self.program.names[*name as usize].as_str();
                    match base {
                        RtVal::Val(Value::Msg(msg)) => {
                            let value = self.project_field(&msg, name, *site as usize);
                            stack.push(RtVal::Val(value));
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "cannot read field `{name}` of {other:?}"
                            )))
                        ),
                    }
                }
                Op::LoadField { slot, name, site } => {
                    let name = self.program.names[*name as usize].as_str();
                    let value = match frame.get(*slot as usize) {
                        Some(RtVal::Val(Value::Msg(msg))) => {
                            self.project_field(msg, name, *site as usize)
                        }
                        Some(other) => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "cannot read field `{name}` of {other:?}"
                            )))
                        ),
                        None => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "frame slot {slot} out of range"
                            )))
                        ),
                    };
                    stack.push(RtVal::Val(value));
                }
                Op::Index => {
                    let index = pop(stack);
                    let base = pop(stack);
                    let value = vmtry!(pc, index_value(base, index));
                    stack.push(value);
                }
                Op::IndexAssign => {
                    let value = pop(stack);
                    let key = pop(stack);
                    let target = pop(stack);
                    let value = vmtry!(pc, value.into_value());
                    match target {
                        RtVal::Dict(dict) => {
                            dict.set(dict_key(vmtry!(pc, key.as_value())), value);
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "cannot index-assign into {other:?}"
                            )))
                        ),
                    }
                }
                Op::Binary(op) => {
                    let r = pop(stack);
                    let l = pop(stack);
                    let value = vmtry!(pc, (|| binary(*op, l.as_value()?, r.as_value()?))());
                    stack.push(RtVal::Val(value));
                }
                Op::Unary(op) => {
                    let v = pop(stack);
                    let v = vmtry!(pc, v.as_value());
                    stack.push(RtVal::Val(match op {
                        UnOp::Neg => Value::Int(-v.as_int().unwrap_or(0)),
                        UnOp::Not => Value::Bool(!v.truthy()),
                    }));
                }
                Op::Call { function, argc } => {
                    let result = vmtry!(
                        pc,
                        self.call_indexed(*function as usize, *argc as usize, stack, sink)
                    );
                    stack.push(result);
                }
                Op::Builtin { builtin, argc } => {
                    let at = stack.len() - *argc as usize;
                    let args = stack.split_off(at);
                    let result = vmtry!(pc, eval_builtin(*builtin, args));
                    stack.push(result);
                }
                Op::Record { record, argc } => {
                    let template = &self.program.records[*record as usize];
                    let at = stack.len() - *argc as usize;
                    let values = stack.split_off(at);
                    let mut msg = Message::with_capacity(template.unit.clone(), values.len());
                    for (name, value) in template.fields.iter().zip(values) {
                        let value = vmtry!(pc, value.into_value());
                        msg.set(name.clone(), to_msg_value(value));
                    }
                    stack.push(RtVal::Val(Value::Msg(msg)));
                }
                Op::Fold { function } => {
                    let items = vmtry!(pc, list_items(pop(stack)));
                    let mut acc = pop(stack);
                    for item in items {
                        acc = vmtry!(
                            pc,
                            self.call_function(
                                *function as usize,
                                vec![acc, RtVal::Val(item)],
                                sink
                            )
                        );
                    }
                    stack.push(acc);
                }
                Op::Map { function } => {
                    let items = vmtry!(pc, list_items(pop(stack)));
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        let mapped = vmtry!(
                            pc,
                            self.call_function(*function as usize, vec![RtVal::Val(item)], sink)
                        );
                        out.push(vmtry!(pc, mapped.into_value()));
                    }
                    stack.push(RtVal::Val(Value::List(out)));
                }
                Op::Filter { function } => {
                    let items = vmtry!(pc, list_items(pop(stack)));
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        let keep = vmtry!(
                            pc,
                            self.call_function(
                                *function as usize,
                                vec![RtVal::Val(item.clone())],
                                sink
                            )
                        );
                        if vmtry!(pc, keep.into_value()).truthy() {
                            out.push(item);
                        }
                    }
                    stack.push(RtVal::Val(Value::List(out)));
                }
                Op::Jump(target) => {
                    pc = *target as usize;
                    continue;
                }
                Op::JumpIfFalse(target) => {
                    let cond = vmtry!(pc, pop(stack).into_value());
                    if !cond.truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::JumpIfUnit(target) => {
                    if matches!(stack.last(), Some(RtVal::Val(Value::Unit))) {
                        pop(stack);
                        pc = *target as usize;
                        continue;
                    }
                }
                Op::ForPrep { list_slot } => {
                    let slot = *list_slot as usize;
                    match pop(stack) {
                        RtVal::Val(Value::List(mut items)) => {
                            items.reverse();
                            if slot >= frame.len() {
                                frame.resize(slot + 1, RtVal::Val(Value::Unit));
                            }
                            frame[slot] = RtVal::Val(Value::List(items));
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "`for` expects a list, found {other:?}"
                            )))
                        ),
                    }
                }
                Op::ForNext {
                    list_slot,
                    var_slot,
                    exit,
                } => {
                    let item = match &mut frame[*list_slot as usize] {
                        RtVal::Val(Value::List(items)) => items.pop(),
                        _ => None,
                    };
                    match item {
                        Some(item) => {
                            let slot = *var_slot as usize;
                            if slot >= frame.len() {
                                frame.resize(slot + 1, RtVal::Val(Value::Unit));
                            }
                            frame[slot] = RtVal::Val(item);
                        }
                        None => {
                            pc = *exit as usize;
                            continue;
                        }
                    }
                }
                Op::Send => {
                    let chan = pop(stack);
                    let value = vmtry!(pc, pop(stack).into_value());
                    match chan {
                        RtVal::Channel(idx) => sink.send(idx, value),
                        RtVal::ChannelArray(ref idxs) if idxs.len() == 1 => {
                            sink.send(idxs[0], value)
                        }
                        other => vmtry!(
                            pc,
                            Err(RuntimeError::Logic(format!(
                                "pipeline destination is not a channel: {other:?}"
                            )))
                        ),
                    }
                }
                Op::SendRule => {
                    let chan = pop(stack);
                    let value = vmtry!(pc, pop(stack).into_value());
                    match chan {
                        RtVal::Channel(idx) => sink.send(idx, value),
                        RtVal::ChannelArray(idxs) if !idxs.is_empty() => sink.send(idxs[0], value),
                        _ => {}
                    }
                }
                Op::Return => return Ok(stack.pop().unwrap_or(RtVal::Val(Value::Unit))),
            }
            pc += 1;
        }
    }

    /// Reads a message field through the site's inline offset cache: a
    /// cached offset whose name still matches is an index read; otherwise
    /// fall back to the linear scan and re-seed the cache with the offset
    /// found.
    fn project_field(&mut self, msg: &Message, name: &str, site: usize) -> Value {
        let hint = self.field_cache[site];
        if hint != NO_OFFSET {
            if let Some((field, value)) = msg.field_at(hint as usize) {
                if field == name {
                    return msg_field_value(value);
                }
            }
        }
        for (idx, (field, value)) in msg.iter().enumerate() {
            if field == name {
                self.field_cache[site] = idx as u32;
                return msg_field_value(value);
            }
        }
        Value::None
    }
}

/// `Op::Index` semantics, shared with the interpreter's `IrExpr::Index`
/// arm (same coercions, same error strings).
fn index_value(base: RtVal, index: RtVal) -> Result<RtVal, RuntimeError> {
    Ok(match base {
        RtVal::ChannelArray(indices) => {
            let i = index.as_value()?.as_int().ok_or_else(|| {
                RuntimeError::Logic("channel-array index must be an integer".into())
            })? as usize;
            let idx = indices
                .get(i)
                .copied()
                .ok_or_else(|| RuntimeError::Logic(format!("channel index {i} out of range")))?;
            RtVal::Channel(idx)
        }
        RtVal::Dict(dict) => RtVal::Val(dict.get(&dict_key(index.as_value()?))),
        RtVal::Val(Value::List(items)) => {
            let i = index.as_value()?.as_int().unwrap_or(0) as usize;
            RtVal::Val(items.get(i).cloned().unwrap_or(Value::None))
        }
        other => return Err(RuntimeError::Logic(format!("cannot index into {other:?}"))),
    })
}

/// The VM-backed compute logic for compiled FLICK processes — the
/// drop-in [`ExecMode::Vm`](flick_runtime::ExecMode) counterpart of
/// `InterpreterLogic`, with identical rule dispatch: every rule whose
/// source parameter owns the arriving input runs over a clone of the
/// base frame, a unit-returning stage consumes the message, and the
/// rule-level send is lenient.
pub struct VmLogic {
    compiled: Arc<CompiledProgram>,
    bindings: ChannelBindings,
    globals: Arc<CompiledGlobals>,
    /// The process frame: channel parameters, then globals.
    base_frame: Vec<RtVal>,
    /// Per-site field offsets, seeded from the grammar layouts and warmed
    /// by execution.
    field_cache: Vec<u32>,
    /// The operand stack, reused across messages so the steady-state
    /// per-message path does not allocate it.
    stack: Vec<RtVal>,
}

impl VmLogic {
    /// Creates the VM logic for one graph instance.
    pub fn new(
        compiled: Arc<CompiledProgram>,
        bindings: ChannelBindings,
        globals: Arc<CompiledGlobals>,
    ) -> Self {
        let process = &compiled.process;
        let mut base_frame = Vec::with_capacity(process.frame_size);
        for (idx, is_array) in process.param_is_array.iter().enumerate() {
            let binding = &bindings.params[idx];
            base_frame.push(if *is_array {
                RtVal::ChannelArray(binding.outputs.clone())
            } else {
                RtVal::Channel(binding.outputs.first().copied().unwrap_or(usize::MAX))
            });
        }
        for name in &process.globals {
            let dict = globals.dict(name).cloned().unwrap_or_default();
            base_frame.push(RtVal::Dict(dict));
        }
        base_frame.resize(
            process.frame_size.max(base_frame.len()),
            RtVal::Val(Value::Unit),
        );
        let field_cache = compiled.field_offsets.clone();
        VmLogic {
            compiled,
            bindings,
            globals,
            base_frame,
            field_cache,
            stack: Vec::with_capacity(16),
        }
    }

    /// The per-service globals.
    pub fn globals(&self) -> &Arc<CompiledGlobals> {
        &self.globals
    }
}

impl ComputeLogic for VmLogic {
    fn on_value(
        &mut self,
        input: usize,
        value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        let Some(param) = self.bindings.param_of_input(input) else {
            return Ok(());
        };
        let compiled = Arc::clone(&self.compiled);
        let mut sink = OutputsSink { outputs: out };
        for rule in &compiled.rules {
            if rule.source_param != param {
                continue;
            }
            let mut frame = self.base_frame.clone();
            if frame.len() < rule.chunk.frame_size {
                frame.resize(rule.chunk.frame_size, RtVal::Val(Value::Unit));
            }
            frame[rule.msg_slot] = RtVal::Val(value.clone());
            let mut vm = Vm::new(&compiled, &mut self.field_cache);
            vm.run_chunk(&rule.chunk, &mut frame, &mut self.stack, &mut sink)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile;
    use crate::interp::{CollectSink, Interpreter};
    use crate::ir::{lower, ProgramIr};
    use crate::logic::ParamBinding;
    use flick_grammar::{Message, MsgValue};
    use flick_lang::compile_to_ast;
    use flick_runtime::channel::TaskChannel;
    use flick_runtime::task::{SchedulingPolicy, TaskId};
    use flick_runtime::tasks::ComputeTask;
    use flick_runtime::Task as _;
    use flick_runtime::{RuntimeMetrics, TaskContext};

    fn program(src: &str, proc_name: &str) -> ProgramIr {
        lower(&compile_to_ast(src).unwrap(), proc_name).unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn call_both(
        program: &ProgramIr,
        name: &str,
        args: Vec<RtVal>,
    ) -> (
        Result<RtVal, RuntimeError>,
        Result<RtVal, RuntimeError>,
        Vec<(usize, Value)>,
        Vec<(usize, Value)>,
    ) {
        let index = program
            .functions
            .iter()
            .position(|f| f.name == name)
            .unwrap();
        let interp = Interpreter::new(program);
        let mut interp_sink = CollectSink::default();
        let interp_result = interp.call_function(index, args.clone(), &mut interp_sink);
        let compiled = compile(program);
        let mut cache = compiled.field_offsets.clone();
        let mut vm = Vm::new(&compiled, &mut cache);
        let mut vm_sink = CollectSink::default();
        let vm_result = vm.call_function(index, args, &mut vm_sink);
        (interp_result, vm_result, interp_sink.sent, vm_sink.sent)
    }

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

    fn cmd_msg(key: &str) -> Value {
        let mut m = Message::new("cmd");
        m.set("key", MsgValue::Str(key.into()));
        Value::Msg(m)
    }

    #[test]
    fn vm_routes_like_the_interpreter() {
        let program = program(PROXY, "Memcached");
        for key in ["user:1", "user:2", "a", "zzz", ""] {
            let args = vec![RtVal::ChannelArray(vec![1, 2, 3]), RtVal::Val(cmd_msg(key))];
            let (i, v, i_sent, v_sent) = call_both(&program, "target_backend", args);
            assert!(i.is_ok() && v.is_ok());
            assert_eq!(i_sent, v_sent, "key {key:?} routed differently");
            assert_eq!(i_sent.len(), 1);
        }
    }

    #[test]
    fn vm_errors_match_interpreter_errors_with_comparable_locations() {
        let src = r#"
fun f: (x: integer) -> (integer)
  let y = 1
  x / (x - x)

type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c
"#;
        let program = program(src, "P");
        let (i, v, _, _) = call_both(&program, "f", vec![RtVal::Val(Value::Int(4))]);
        let RuntimeError::Logic(i_msg) = i.unwrap_err() else {
            panic!("logic error expected");
        };
        let RuntimeError::Logic(v_msg) = v.unwrap_err() else {
            panic!("logic error expected");
        };
        let (i_base, i_loc) = crate::error::split_located(&i_msg);
        let (v_base, v_loc) = crate::error::split_located(&v_msg);
        assert_eq!(i_base, "division by zero");
        assert_eq!(i_base, v_base);
        assert_eq!(i_loc, Some("fn `f`, stmt 1"));
        assert_eq!(v_loc, Some("fn `f`, pc 6"));
    }

    #[test]
    fn deep_loops_and_conditionals_agree() {
        let src = r#"
fun f: (xs: [integer]) -> (integer)
  let total = 0
  for x in xs:
    if x mod 2 = 0:
      let total = total + x
    else:
      let total = total - x
  total

type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c
"#;
        let program = program(src, "P");
        let xs: Vec<Value> = (0..100).map(Value::Int).collect();
        let (i, v, _, _) = call_both(&program, "f", vec![RtVal::Val(Value::List(xs))]);
        let i = i.unwrap().into_value().unwrap();
        let v = v.unwrap().into_value().unwrap();
        assert_eq!(i, v);
    }

    #[test]
    fn field_site_cache_survives_shape_changes() {
        // Same call site, messages with the field at different offsets:
        // the cache must verify and re-seed, never return a wrong field.
        let program = program(PROXY, "Memcached");
        let index = 0;
        let compiled = compile(&program);
        let mut cache = compiled.field_offsets.clone();
        let mut vm = Vm::new(&compiled, &mut cache);
        let mut sink = CollectSink::default();
        // First message: `key` is field 0.
        let args = vec![RtVal::ChannelArray(vec![1]), RtVal::Val(cmd_msg("a"))];
        vm.call_function(index, args, &mut sink).unwrap();
        // Second message: an extra field shifts `key` to offset 1.
        let mut shifted = Message::new("cmd");
        shifted.set("pad", MsgValue::Str("x".into()));
        shifted.set("key", MsgValue::Str("a".into()));
        let args = vec![
            RtVal::ChannelArray(vec![1]),
            RtVal::Val(Value::Msg(shifted)),
        ];
        vm.call_function(index, args, &mut sink).unwrap();
        // Both messages carried the same key, so despite the offset shift
        // both hash to the same backend channel.
        assert_eq!(sink.sent.len(), 2);
        assert_eq!(sink.sent[0].0, sink.sent[1].0);
    }

    #[test]
    fn vm_logic_drives_a_compute_task_like_interpreter_logic() {
        let typed = compile_to_ast(PROXY).unwrap();
        let program = Arc::new(lower(&typed, "Memcached").unwrap());
        let compiled = Arc::new(compile(&program));
        let bindings = ChannelBindings {
            params: vec![
                ParamBinding {
                    inputs: vec![0],
                    outputs: vec![0],
                },
                ParamBinding {
                    inputs: vec![1, 2, 3],
                    outputs: vec![1, 2, 3],
                },
            ],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let logic = VmLogic::new(compiled, bindings, globals);

        let mut input_producers = Vec::new();
        let mut input_consumers = Vec::new();
        let mut output_producers = Vec::new();
        let mut output_consumers = Vec::new();
        for i in 0..4 {
            let (tx, rx) = TaskChannel::bounded(64, TaskId(100 + i));
            input_producers.push(tx);
            input_consumers.push(rx);
            let (tx, rx) = TaskChannel::bounded(64, TaskId(200 + i));
            output_producers.push(tx);
            output_consumers.push(rx);
        }
        let mut task = ComputeTask::new(
            "proxy-vm",
            input_consumers,
            output_producers,
            Box::new(logic),
        );
        let mut ctx = TaskContext::new(
            SchedulingPolicy::NonCooperative,
            RuntimeMetrics::new_shared(),
        );

        input_producers[0].push(cmd_msg("user:7")).unwrap();
        task.run(&mut ctx);
        let routed: Vec<usize> = (1..4).filter(|i| output_consumers[*i].len() == 1).collect();
        assert_eq!(routed.len(), 1, "exactly one backend gets the request");
        assert_eq!(output_consumers[0].len(), 0);

        input_producers[routed[0]].push(cmd_msg("user:7")).unwrap();
        task.run(&mut ctx);
        assert_eq!(
            output_consumers[0].len(),
            1,
            "the backend response returns to the client"
        );
    }

    #[test]
    fn unit_returning_stage_consumes_the_message_in_vm_mode() {
        let src = r#"
type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => maybe_fwd() => c

fun maybe_fwd: (req: cmd) -> (cmd)
  if req.key = "go":
    req
"#;
        let typed = compile_to_ast(src).unwrap();
        let program = Arc::new(lower(&typed, "P").unwrap());
        let compiled = Arc::new(compile(&program));
        let bindings = ChannelBindings {
            params: vec![ParamBinding {
                inputs: vec![0],
                outputs: vec![0],
            }],
        };
        let globals = CompiledGlobals::for_process(&program.process);
        let logic = VmLogic::new(compiled, bindings, globals);
        let (in_tx, in_rx) = TaskChannel::bounded(8, TaskId(1));
        let (out_tx, out_rx) = TaskChannel::bounded(8, TaskId(2));
        let mut task = ComputeTask::new("drop-vm", vec![in_rx], vec![out_tx], Box::new(logic));
        let mut ctx = TaskContext::new(
            SchedulingPolicy::NonCooperative,
            RuntimeMetrics::new_shared(),
        );
        in_tx.push(cmd_msg("stop")).unwrap();
        task.run(&mut ctx);
        assert_eq!(out_rx.len(), 0, "consumed messages must not be forwarded");
        in_tx.push(cmd_msg("go")).unwrap();
        task.run(&mut ctx);
        assert_eq!(out_rx.len(), 1, "matching messages pass the stage");
    }
}
