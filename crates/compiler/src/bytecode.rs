//! Lowering the FLICK IR to compact bytecode.
//!
//! The tree-walking interpreter ([`crate::interp`]) re-discovers the shape
//! of every expression on every message: each node is a heap-boxed enum
//! walked recursively, every field projection is a name lookup, every
//! operand re-dispatched. This module lowers [`ProgramIr`] once, at
//! compile time, into flat [`Chunk`]s of pre-decoded [`Op`]s that the VM
//! ([`crate::vm`]) executes with a single `loop { match op }` dispatch
//! loop — no recursion on the expression tree and no per-message decode
//! work.
//!
//! Layout decisions:
//!
//! * **Constants pool** — literals are interned (deduplicated) into
//!   [`CompiledProgram::consts`]; `Op::Const` carries the pool index.
//! * **Stack ops over frame slots** — expressions evaluate on an operand
//!   stack shared across nested calls; locals live in the same frame
//!   slots the IR lowering assigned, so `Load`/`Store` indices match the
//!   interpreter's frames exactly.
//! * **Field sites** — every `msg.field` projection gets a *site* id into
//!   a per-logic offset cache. The compiler seeds the site with the
//!   grammar-declared field offset when the record layouts make it
//!   unambiguous; the VM verifies the cached name on each hit and falls
//!   back to (and re-caches from) a linear lookup, so projections and
//!   codec-specific field orders stay correct while steady-state reads
//!   are index ops instead of name scans.
//! * **Jumps are absolute, pre-patched instruction indices** — no offset
//!   decoding in the dispatch loop; deep nesting and long loop bodies are
//!   exercised by the jump-width tests below.
//!
//! Routing rules and the `foldt` combine body are compiled to chunks of
//! their own so the per-message path in [`crate::vm::VmLogic`] never
//! touches the IR.

use crate::ir::{Builtin, IrCall, IrExpr, IrSink, IrStmt, ProcessIr, ProgramIr};
use flick_lang::ast::{BinOp, UnOp};
use flick_runtime::Value;
use std::collections::HashMap;

/// An unseeded (or invalidated) field-site cache entry.
pub const NO_OFFSET: u32 = u32::MAX;

/// One pre-decoded VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push `consts[idx]`.
    Const(u32),
    /// Push `Unit`.
    Unit,
    /// Push `frame[slot]`.
    Load(u32),
    /// Pop into `frame[slot]` (growing the frame like the interpreter).
    Store(u32),
    /// Discard the top of stack.
    Pop,
    /// Pop a message; push its `names[name]` field. `site` indexes the
    /// per-logic field-offset cache.
    Field { name: u32, site: u32 },
    /// Push the `names[name]` field of the message in `frame[slot]`, read
    /// in place: the fused `Load(slot)` + `Field`, minus the clone of the
    /// whole message that `Load` would push. Same errors as the pair.
    LoadField { slot: u32, name: u32, site: u32 },
    /// Pop index, pop base; push `base[index]`.
    Index,
    /// Pop value, pop key, pop target; `target[key] := value`.
    IndexAssign,
    /// Pop rhs, pop lhs; push the operator result.
    Binary(BinOp),
    /// Pop the operand; push the operator result.
    Unary(UnOp),
    /// Pop `argc` arguments (last on top); call `functions[function]`;
    /// push its result.
    Call { function: u32, argc: u32 },
    /// Pop `argc` arguments; push the builtin's result.
    Builtin { builtin: Builtin, argc: u32 },
    /// Pop `argc` field values (last on top); push a record message built
    /// from `records[record]`.
    Record { record: u32, argc: u32 },
    /// Pop the list, pop the initial accumulator; push the fold result.
    Fold { function: u32 },
    /// Pop the list; push the mapped list.
    Map { function: u32 },
    /// Pop the list; push the filtered list.
    Filter { function: u32 },
    /// Unconditional jump to an absolute instruction index.
    Jump(u32),
    /// Pop a value; jump when it is falsy.
    JumpIfFalse(u32),
    /// If the top of stack is `Unit`: pop it and jump (a unit-returning
    /// pipeline stage consumed the message). Otherwise fall through.
    JumpIfUnit(u32),
    /// Pop the evaluated `for` iteree into `list_slot`, reversed so the
    /// loop head pops items in order.
    ForPrep { list_slot: u32 },
    /// Loop head: move the next item of `frame[list_slot]` into
    /// `var_slot`, or jump to `exit` when the list is drained.
    ForNext {
        list_slot: u32,
        var_slot: u32,
        exit: u32,
    },
    /// Pop channel, pop value; strict in-function pipeline send (single
    /// channel or one-element channel array, anything else is an error).
    Send,
    /// Pop channel, pop value; lenient rule-level send (first element of
    /// a non-empty channel array; silently dropped otherwise).
    SendRule,
    /// Return the top of stack as the chunk result.
    Return,
}

/// A flat, jump-patched instruction sequence plus the frame size it runs
/// with (the IR frame plus any hidden loop/pipeline temporaries).
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The instruction stream.
    pub code: Vec<Op>,
    /// Frame slots this chunk may touch.
    pub frame_size: usize,
}

/// A compiled function, index-aligned with [`ProgramIr::functions`].
#[derive(Debug, Clone)]
pub struct CompiledFunction {
    /// The FLICK-level function name (diagnostics).
    pub name: String,
    /// Declared parameter count (arity-checked at call time, like the
    /// interpreter).
    pub params: usize,
    /// The compiled body.
    pub chunk: Chunk,
}

/// A compiled routing rule, index-aligned with [`ProcessIr::rules`].
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The channel parameter whose arrivals trigger this rule
    /// (`usize::MAX` for dropped value-pipelines, as in the IR).
    pub source_param: usize,
    /// Hidden frame slot holding the message as it threads the stages.
    pub msg_slot: usize,
    /// The compiled stage/sink sequence.
    pub chunk: Chunk,
}

/// The compiled `foldt` combine body.
#[derive(Debug, Clone)]
pub struct CompiledFoldt {
    /// Frame slots for the two elements and the key binder.
    pub binder_slots: (usize, usize, usize),
    /// The compiled combine body; its result is the merged element.
    pub chunk: Chunk,
}

/// The process-level facts the VM needs to build frames without the IR.
#[derive(Debug, Clone)]
pub struct CompiledProcess {
    /// Whether each channel parameter is an array (`[cmd/cmd] backends`).
    pub param_is_array: Vec<bool>,
    /// Global dictionary names, in frame order after the parameters.
    pub globals: Vec<String>,
    /// The process frame size (parameters + globals + rule locals).
    pub frame_size: usize,
}

/// The field-name template `Op::Record` instantiates.
#[derive(Debug, Clone)]
pub struct RecordTemplate {
    /// The record/unit name of the constructed message.
    pub unit: String,
    /// Field names in construction order.
    pub fields: Vec<String>,
}

/// A whole program lowered to bytecode.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Interned literal constants.
    pub consts: Vec<Value>,
    /// Interned field names referenced by `Op::Field`.
    pub names: Vec<String>,
    /// Record templates referenced by `Op::Record`.
    pub records: Vec<RecordTemplate>,
    /// Compiled functions (same indices as the IR).
    pub functions: Vec<CompiledFunction>,
    /// Compiled routing rules (same order as the IR process).
    pub rules: Vec<CompiledRule>,
    /// Frame-shape facts about the process the rules belong to.
    pub process: CompiledProcess,
    /// The compiled `foldt` combine body, when the process has one.
    pub foldt: Option<CompiledFoldt>,
    /// Grammar-seeded initial offset per field site (`NO_OFFSET` when the
    /// layouts were ambiguous); logic instances copy this into their
    /// mutable per-site cache.
    pub field_offsets: Vec<u32>,
}

impl CompiledProgram {
    /// Number of field-projection sites (the size of a logic instance's
    /// offset cache).
    pub fn field_sites(&self) -> usize {
        self.field_offsets.len()
    }
}

/// Interning key for the constants pool (`Value` itself is not hashable).
#[derive(Hash, PartialEq, Eq)]
enum ConstKey {
    Int(i64),
    Str(String),
    Bool(bool),
    None,
}

/// Compiles a lowered program to bytecode without grammar layouts (field
/// sites start unseeded and warm up at run time).
pub fn compile(program: &ProgramIr) -> CompiledProgram {
    compile_with_layouts(program, &[])
}

/// Compiles a lowered program to bytecode, seeding field-site offsets
/// from the given record layouts (`(record name, field names in parse
/// order)` as the grammar declares them).
pub fn compile_with_layouts(
    program: &ProgramIr,
    layouts: &[(String, Vec<String>)],
) -> CompiledProgram {
    let mut compiler = Compiler {
        layouts,
        consts: Vec::new(),
        const_keys: HashMap::new(),
        names: Vec::new(),
        name_keys: HashMap::new(),
        records: Vec::new(),
        field_offsets: Vec::new(),
    };
    let functions = program
        .functions
        .iter()
        .map(|function| {
            let mut chunk = ChunkGen::new(function.frame_size);
            compiler.block(&mut chunk, &function.body, true);
            chunk.emit(Op::Return);
            CompiledFunction {
                name: function.name.clone(),
                params: function.params,
                chunk: chunk.finish(),
            }
        })
        .collect();
    let rules = program
        .process
        .rules
        .iter()
        .map(|rule| compiler.rule(&program.process, rule))
        .collect();
    let foldt = program.process.foldt.as_ref().map(|foldt| {
        let mut chunk = ChunkGen::new(foldt.frame_size);
        compiler.block(&mut chunk, &foldt.body, true);
        chunk.emit(Op::Return);
        CompiledFoldt {
            binder_slots: foldt.binder_slots,
            chunk: chunk.finish(),
        }
    });
    CompiledProgram {
        consts: compiler.consts,
        names: compiler.names,
        records: compiler.records,
        functions,
        rules,
        process: CompiledProcess {
            param_is_array: program.process.params.iter().map(|p| p.is_array).collect(),
            globals: program.process.globals.clone(),
            frame_size: program.process.frame_size,
        },
        foldt,
        field_offsets: compiler.field_offsets,
    }
}

/// Per-chunk code generator: instruction buffer plus hidden-slot
/// allocation above the IR frame.
struct ChunkGen {
    code: Vec<Op>,
    frame_size: usize,
}

impl ChunkGen {
    fn new(frame_size: usize) -> Self {
        ChunkGen {
            code: Vec::new(),
            frame_size,
        }
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    /// Next instruction index (used as a jump target).
    fn here(&self) -> usize {
        self.code.len()
    }

    /// Patches the jump at `at` to the current instruction index.
    fn patch_here(&mut self, at: usize) {
        let target = self.here() as u32;
        match &mut self.code[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfUnit(t) => *t = target,
            Op::ForNext { exit, .. } => *exit = target,
            other => unreachable!("patching a non-jump op {other:?}"),
        }
    }

    /// Allocates a hidden frame slot (loop state, pipeline temporaries).
    fn alloc_temp(&mut self) -> usize {
        let slot = self.frame_size;
        self.frame_size += 1;
        slot
    }

    fn finish(self) -> Chunk {
        Chunk {
            code: self.code,
            frame_size: self.frame_size,
        }
    }
}

struct Compiler<'p> {
    layouts: &'p [(String, Vec<String>)],
    consts: Vec<Value>,
    const_keys: HashMap<ConstKey, u32>,
    names: Vec<String>,
    name_keys: HashMap<String, u32>,
    records: Vec<RecordTemplate>,
    field_offsets: Vec<u32>,
}

impl Compiler<'_> {
    fn const_of(&mut self, key: ConstKey, value: impl FnOnce() -> Value) -> u32 {
        if let Some(idx) = self.const_keys.get(&key) {
            return *idx;
        }
        let idx = self.consts.len() as u32;
        self.consts.push(value());
        self.const_keys.insert(key, idx);
        idx
    }

    fn name_of(&mut self, name: &str) -> u32 {
        if let Some(idx) = self.name_keys.get(name) {
            return *idx;
        }
        let idx = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_keys.insert(name.to_string(), idx);
        idx
    }

    /// Allocates a field site, seeded with the grammar offset when every
    /// known record layout containing `field` agrees on its position.
    fn field_site(&mut self, field: &str) -> u32 {
        let mut seed = None;
        for (_, fields) in self.layouts {
            if let Some(pos) = fields.iter().position(|f| f == field) {
                match seed {
                    None => seed = Some(pos as u32),
                    Some(prev) if prev == pos as u32 => {}
                    Some(_) => {
                        seed = Some(NO_OFFSET);
                        break;
                    }
                }
            }
        }
        let site = self.field_offsets.len() as u32;
        self.field_offsets.push(seed.unwrap_or(NO_OFFSET));
        site
    }

    fn record_of(&mut self, unit: &str, fields: &[String]) -> u32 {
        if let Some(idx) = self
            .records
            .iter()
            .position(|r| r.unit == unit && r.fields == fields)
        {
            return idx as u32;
        }
        self.records.push(RecordTemplate {
            unit: unit.to_string(),
            fields: fields.to_vec(),
        });
        (self.records.len() - 1) as u32
    }

    fn expr(&mut self, chunk: &mut ChunkGen, expr: &IrExpr) {
        match expr {
            IrExpr::Int(v) => {
                let idx = self.const_of(ConstKey::Int(*v), || Value::Int(*v));
                chunk.emit(Op::Const(idx));
            }
            IrExpr::Str(s) => {
                let idx = self.const_of(ConstKey::Str(s.clone()), || Value::Str(s.clone()));
                chunk.emit(Op::Const(idx));
            }
            IrExpr::Bool(b) => {
                let idx = self.const_of(ConstKey::Bool(*b), || Value::Bool(*b));
                chunk.emit(Op::Const(idx));
            }
            IrExpr::None => {
                let idx = self.const_of(ConstKey::None, || Value::None);
                chunk.emit(Op::Const(idx));
            }
            IrExpr::Load(slot) => {
                chunk.emit(Op::Load(*slot as u32));
            }
            IrExpr::Field(base, field) => {
                let slot = match **base {
                    IrExpr::Load(slot) => Some(slot as u32),
                    _ => {
                        self.expr(chunk, base);
                        None
                    }
                };
                let name = self.name_of(field);
                let site = self.field_site(field);
                chunk.emit(match slot {
                    Some(slot) => Op::LoadField { slot, name, site },
                    None => Op::Field { name, site },
                });
            }
            IrExpr::Index(base, index) => {
                self.expr(chunk, base);
                self.expr(chunk, index);
                chunk.emit(Op::Index);
            }
            IrExpr::Binary(op, lhs, rhs) => {
                self.expr(chunk, lhs);
                self.expr(chunk, rhs);
                chunk.emit(Op::Binary(*op));
            }
            IrExpr::Unary(op, operand) => {
                self.expr(chunk, operand);
                chunk.emit(Op::Unary(*op));
            }
            IrExpr::Call(call) => self.call(chunk, call, None),
            IrExpr::Builtin(builtin, args) => {
                for arg in args {
                    self.expr(chunk, arg);
                }
                chunk.emit(Op::Builtin {
                    builtin: *builtin,
                    argc: args.len() as u32,
                });
            }
            IrExpr::MakeRecord(unit, fields, values) => {
                for value in values {
                    self.expr(chunk, value);
                }
                let record = self.record_of(unit, fields);
                chunk.emit(Op::Record {
                    record,
                    argc: values.len() as u32,
                });
            }
            IrExpr::Fold {
                function,
                init,
                list,
            } => {
                self.expr(chunk, init);
                self.expr(chunk, list);
                chunk.emit(Op::Fold {
                    function: *function as u32,
                });
            }
            IrExpr::Map { function, list } => {
                self.expr(chunk, list);
                chunk.emit(Op::Map {
                    function: *function as u32,
                });
            }
            IrExpr::Filter { function, list } => {
                self.expr(chunk, list);
                chunk.emit(Op::Filter {
                    function: *function as u32,
                });
            }
        }
    }

    /// Compiles a call; `piped_slot` appends a hidden-slot value as the
    /// final (piped) argument, matching the interpreter's argument order.
    fn call(&mut self, chunk: &mut ChunkGen, call: &IrCall, piped_slot: Option<usize>) {
        for arg in &call.args {
            self.expr(chunk, arg);
        }
        let mut argc = call.args.len() as u32;
        if let Some(slot) = piped_slot {
            chunk.emit(Op::Load(slot as u32));
            argc += 1;
        }
        chunk.emit(Op::Call {
            function: call.function as u32,
            argc,
        });
    }

    /// Compiles a block. With `want_value` the chunk leaves the block's
    /// value on the stack — the value of the *final* statement, where
    /// `if` propagates the chosen branch and every non-expression
    /// statement contributes `Unit` (the interpreter's `exec_block`
    /// contract).
    fn block(&mut self, chunk: &mut ChunkGen, stmts: &[IrStmt], want_value: bool) {
        let Some((last, init)) = stmts.split_last() else {
            if want_value {
                chunk.emit(Op::Unit);
            }
            return;
        };
        for stmt in init {
            self.stmt(chunk, stmt, false);
        }
        self.stmt(chunk, last, want_value);
    }

    fn stmt(&mut self, chunk: &mut ChunkGen, stmt: &IrStmt, want_value: bool) {
        match stmt {
            IrStmt::Store(slot, expr) => {
                self.expr(chunk, expr);
                chunk.emit(Op::Store(*slot as u32));
                if want_value {
                    chunk.emit(Op::Unit);
                }
            }
            IrStmt::AssignIndex {
                target,
                index,
                value,
            } => {
                self.expr(chunk, target);
                self.expr(chunk, index);
                self.expr(chunk, value);
                chunk.emit(Op::IndexAssign);
                if want_value {
                    chunk.emit(Op::Unit);
                }
            }
            IrStmt::Pipeline {
                source,
                stages,
                sink,
            } => {
                self.expr(chunk, source);
                let piped = chunk.alloc_temp();
                chunk.emit(Op::Store(piped as u32));
                for stage in stages {
                    self.call(chunk, stage, Some(piped));
                    chunk.emit(Op::Store(piped as u32));
                }
                match sink {
                    IrSink::Channel(chan) => {
                        chunk.emit(Op::Load(piped as u32));
                        self.expr(chunk, chan);
                        chunk.emit(Op::Send);
                    }
                    IrSink::Call(call) => {
                        self.call(chunk, call, Some(piped));
                        chunk.emit(Op::Pop);
                    }
                    IrSink::Discard => {}
                }
                if want_value {
                    chunk.emit(Op::Unit);
                }
            }
            IrStmt::If { cond, then, els } => {
                self.expr(chunk, cond);
                let to_else = chunk.emit(Op::JumpIfFalse(0));
                self.block(chunk, then, want_value);
                let to_end = chunk.emit(Op::Jump(0));
                chunk.patch_here(to_else);
                self.block(chunk, els, want_value);
                chunk.patch_here(to_end);
            }
            IrStmt::For { slot, iter, body } => {
                self.expr(chunk, iter);
                let list_slot = chunk.alloc_temp();
                chunk.emit(Op::ForPrep {
                    list_slot: list_slot as u32,
                });
                let head = chunk.emit(Op::ForNext {
                    list_slot: list_slot as u32,
                    var_slot: *slot as u32,
                    exit: 0,
                });
                self.block(chunk, body, false);
                chunk.emit(Op::Jump(head as u32));
                chunk.patch_here(head);
                if want_value {
                    chunk.emit(Op::Unit);
                }
            }
            IrStmt::Expr(expr) => {
                self.expr(chunk, expr);
                if !want_value {
                    chunk.emit(Op::Pop);
                }
            }
        }
    }

    /// Compiles one routing rule: thread the arriving message (in
    /// `msg_slot`) through the stages — a unit-returning stage consumes
    /// it — then run the sink. Mirrors `InterpreterLogic::on_value`,
    /// including the lenient rule-level send.
    fn rule(&mut self, process: &ProcessIr, rule: &crate::ir::RouteRule) -> CompiledRule {
        let mut chunk = ChunkGen::new(process.frame_size);
        let msg_slot = chunk.alloc_temp();
        let mut consumed_jumps = Vec::new();
        for stage in &rule.stages {
            self.call(&mut chunk, stage, Some(msg_slot));
            consumed_jumps.push(chunk.emit(Op::JumpIfUnit(0)));
            chunk.emit(Op::Store(msg_slot as u32));
        }
        match &rule.sink {
            IrSink::Channel(chan) => {
                chunk.emit(Op::Load(msg_slot as u32));
                self.expr(&mut chunk, chan);
                chunk.emit(Op::SendRule);
            }
            IrSink::Call(call) => {
                self.call(&mut chunk, call, Some(msg_slot));
                chunk.emit(Op::Pop);
            }
            IrSink::Discard => {}
        }
        for jump in consumed_jumps {
            chunk.patch_here(jump);
        }
        chunk.emit(Op::Unit);
        chunk.emit(Op::Return);
        CompiledRule {
            source_param: rule.source_param,
            msg_slot,
            chunk: chunk.finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower;
    use flick_lang::compile_to_ast;

    fn compiled(src: &str, proc_name: &str) -> CompiledProgram {
        compile(&lower(&compile_to_ast(src).unwrap(), proc_name).unwrap())
    }

    const ROUTER: &str = r#"
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  backends => client
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]
"#;

    #[test]
    fn router_compiles_to_flat_chunks() {
        let program = compiled(ROUTER, "P");
        assert_eq!(program.functions.len(), 1);
        assert_eq!(program.rules.len(), 2);
        assert_eq!(program.rules[0].source_param, 1, "backends => client");
        assert_eq!(program.rules[1].source_param, 0, "client => stage");
        let body = &program.functions[0].chunk;
        assert!(body
            .code
            .iter()
            .any(|op| matches!(op, Op::LoadField { .. })));
        assert!(matches!(body.code.last(), Some(Op::Return)));
        // The pipeline inside the function uses the strict send; the
        // channel-sink rule uses the lenient one.
        assert!(body.code.contains(&Op::Send));
        assert!(program.rules[0].chunk.code.contains(&Op::SendRule));
    }

    /// A projection of a frame local reads the field in place; any other
    /// base (here a call result) still evaluates onto the stack first.
    #[test]
    fn local_field_reads_fuse_into_load_field() {
        let src = r#"
type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c

fun echo: (req: cmd) -> (cmd)
  req

fun keys: (req: cmd) -> (string)
  req.key + echo(req).key
"#;
        let program = compiled(src, "P");
        let keys = &program.functions[1].chunk;
        let key = program.names.iter().position(|n| n == "key").unwrap() as u32;
        assert!(
            keys.code.contains(&Op::LoadField {
                slot: 0,
                name: key,
                site: 0
            }),
            "{:?}",
            keys.code
        );
        assert_eq!(
            keys.code
                .iter()
                .filter(|op| matches!(op, Op::Field { .. }))
                .count(),
            1,
            "only the call-result projection stays unfused: {:?}",
            keys.code
        );
    }

    #[test]
    fn constants_pool_dedups_repeated_literals() {
        let src = r#"
fun f: (x: integer) -> (integer)
  let a = x + 40
  let b = a * 40
  let c = b - 40
  c + 7

type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c
"#;
        let program = compiled(src, "P");
        let forty = program
            .consts
            .iter()
            .filter(|v| **v == Value::Int(40))
            .count();
        assert_eq!(
            forty, 1,
            "repeated literal must intern: {:?}",
            program.consts
        );
        assert_eq!(
            program
                .consts
                .iter()
                .filter(|v| **v == Value::Int(7))
                .count(),
            1
        );
    }

    #[test]
    fn jumps_are_patched_within_bounds() {
        // Deep nesting and a long loop body stress jump-target widths:
        // every target must land inside the chunk.
        let mut src = String::from("fun f: (x: integer) -> (integer)\n");
        for level in 0..8 {
            let ind = "  ".repeat(level + 1);
            src.push_str(&format!("{ind}if x > {level}:\n"));
            if level == 7 {
                src.push_str(&format!("{ind}  x + 8\n"));
            }
        }
        for level in (0..8).rev() {
            let ind = "  ".repeat(level + 1);
            src.push_str(&format!("{ind}else:\n{ind}  x - {level}\n"));
        }
        src.push_str("\ntype cmd: record\n  key : string\n\nproc P: (cmd/cmd c)\n  c => c\n");
        let program = compiled(&src, "P");
        let chunk = &program.functions[0].chunk;
        for op in &chunk.code {
            let target = match op {
                Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfUnit(t) => *t,
                Op::ForNext { exit, .. } => *exit,
                _ => continue,
            };
            assert!(
                (target as usize) <= chunk.code.len(),
                "jump target {target} escapes chunk of {} ops",
                chunk.code.len()
            );
        }
    }

    #[test]
    fn field_sites_seed_from_unambiguous_layouts() {
        let typed = compile_to_ast(ROUTER).unwrap();
        let ir = lower(&typed, "P").unwrap();
        let layouts = vec![("cmd".to_string(), vec!["key".to_string()])];
        let seeded = compile_with_layouts(&ir, &layouts);
        assert_eq!(seeded.field_sites(), 1);
        assert_eq!(seeded.field_offsets[0], 0, "`key` is field 0 of cmd");
        // Without layouts the site starts unseeded.
        let unseeded = compile(&ir);
        assert_eq!(unseeded.field_offsets[0], NO_OFFSET);
        // Conflicting layouts refuse to seed.
        let conflicting = vec![
            ("cmd".to_string(), vec!["key".to_string()]),
            (
                "resp".to_string(),
                vec!["status".to_string(), "key".to_string()],
            ),
        ];
        let ambiguous = compile_with_layouts(&ir, &conflicting);
        assert_eq!(ambiguous.field_offsets[0], NO_OFFSET);
    }

    #[test]
    fn for_loops_compile_to_preps_and_backward_jumps() {
        let src = r#"
fun f: (xs: [integer]) -> (integer)
  for x in xs:
    let y = x + 1
  len(xs)

type cmd: record
  key : string

proc P: (cmd/cmd c)
  c => c
"#;
        let program = compiled(src, "P");
        let chunk = &program.functions[0].chunk;
        let prep = chunk
            .code
            .iter()
            .position(|op| matches!(op, Op::ForPrep { .. }))
            .expect("loop prep emitted");
        let head = prep + 1;
        assert!(matches!(chunk.code[head], Op::ForNext { .. }));
        let back = chunk
            .code
            .iter()
            .position(|op| matches!(op, Op::Jump(t) if (*t as usize) == head))
            .expect("backward jump to the loop head");
        assert!(back > head);
        // Hidden loop state lives above the IR frame.
        assert!(chunk.frame_size > program.functions[0].params);
    }
}
