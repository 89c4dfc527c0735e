//! The traced run: each circuit is driven piecewise through the public call
//! of every layer, and each call is recorded as a span. Nothing inside the
//! program is instrumented; a layer whose work happens inside another call
//! is measured as the difference between two calls (see [`Layers`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use qymera_sim::{SimOptions, Simulator, SparseSim, StateVectorSim};
use qymera_sqldb::{parser::parse_statement, Database, DurabilityOptions, Row};
use qymera_translate::fusion::lower_circuit;
use qymera_translate::sqlgen::{circuit_query, state_table_name, step_statement};
use qymera_translate::tables::create_initial_state_table;
use qymera_translate::{GateTableRegistry, SqlAmplitude, SqlGenConfig};

use crate::measure::{check_amplitudes, Case};
use crate::workload::Workload;

/// One recorded call. All spans of a circuit share `circuit`; the circuit
/// span itself has no parent and every call span has it as parent.
struct Span {
    circuit: u64,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
}

/// In-memory span store, written out once when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    /// Time `f` as a span named `name` under `parent`; returns its result
    /// and duration in seconds.
    fn span<T>(&mut self, parent: &Open, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            circuit: parent.circuit,
            id,
            parent: Some(parent.id),
            name,
            start_ns,
            end_ns,
        });
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    fn open(&mut self, circuit: u64) -> Open {
        // Reserve the circuit span's id now so children can point at it.
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            circuit,
            id,
            parent: None,
            name: "circuit",
            start_ns: 0,
            end_ns: 0,
        });
        Open {
            circuit,
            id,
            start_ns: self.now_ns(),
        }
    }

    fn close(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[open.id as usize - 1];
        span.start_ns = open.start_ns;
        span.end_ns = end_ns;
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"circuit\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.circuit, s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        fs::write(path, out)
    }
}

/// The open circuit span.
struct Open {
    circuit: u64,
    id: u64,
    start_ns: u128,
}

/// Layers the traced run attributes a circuit's time to, in report order.
/// They partition the circuit's logical time (the calls `SqlSimulator::run`
/// itself makes), so their shares add up to 100%.
pub const LAYERS: [&str; 11] = [
    "translate.lower",
    "translate.sqlgen",
    "translate.load",
    "sqldb.open",
    "sqldb.parser",
    "sqldb.plan",
    "sqldb.plan.optimizer",
    "sqldb.exec",
    "sqldb.storage.spill",
    "sqldb.storage.wal",
    "sqldb.residue",
];

/// Self time per layer of one traced circuit, plus the raw call times the
/// per-layer metrics report.
#[derive(Default)]
pub struct Layers {
    /// Seconds per entry of [`LAYERS`].
    pub layer_s: BTreeMap<&'static str, f64>,
    /// Sum of the calls `SqlSimulator::run` makes for this circuit.
    pub logical_s: f64,
    /// Other per-layer values (times in seconds and exact counts).
    pub values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn set(&mut self, layer: &'static str, s: f64) {
        debug_assert!(LAYERS.contains(&layer));
        self.layer_s.insert(layer, s);
    }
}

/// Drive one circuit through every layer's public call, recording spans.
pub fn trace_circuit(
    w: Workload,
    case: &Case,
    parallelism: usize,
    work: &Path,
    tr: &mut Tracer,
    circuit_id: u64,
) -> Result<Layers, String> {
    let root = tr.open(circuit_id);
    let result = if w.durable() {
        let dir = work.join(format!("traced-{circuit_id}"));
        let layers = trace_steps(case, parallelism, &dir, tr, &root);
        let _ = fs::remove_dir_all(&dir);
        layers
    } else {
        trace_single_query(w, case, parallelism, tr, &root)
    };
    let mut layers = match result {
        Ok(layers) => layers,
        Err(e) => {
            tr.close(root);
            return Err(e);
        }
    };
    let (_, sv) = tr.span(&root, "StateVectorSim::simulate", || {
        StateVectorSim.simulate(&case.circuit, &SimOptions::default())
    });
    let (_, sparse) = tr.span(&root, "SparseSim::simulate", || {
        SparseSim.simulate(&case.circuit, &SimOptions::default())
    });
    layers.values.insert("ref.statevector_s", sv);
    layers.values.insert("ref.sparse_s", sparse);
    tr.close(root);
    Ok(layers)
}

fn memory_db(limit: Option<usize>, parallelism: usize) -> Database {
    let mut db = match limit {
        Some(bytes) => Database::with_memory_limit(bytes),
        None => Database::new(),
    };
    db.set_parallelism(parallelism);
    db
}

fn load(db: &mut Database, reg: &GateTableRegistry, num_qubits: usize) -> Result<(), String> {
    reg.materialize(db)
        .map_err(|e| format!("gate tables: {e}"))?;
    create_initial_state_table(db, "T0", num_qubits, 0)
        .map(|_| ())
        .map_err(|e| format!("initial state: {e}"))
}

/// Single-query workloads: one CTE chain per circuit.
///
/// * `sqldb.plan` = `Database::query_schema` − `parse_statement`
/// * `sqldb.plan.optimizer` = `Database::explain` − `Database::query_schema`
/// * `sqldb.exec` = root operator time of `Database::explain_analyze`
/// * `sqldb.storage.spill` = that root time − the root time of the same
///   query on an unlimited in-memory twin (memory-limited workloads only)
/// * `sqldb.residue` = `Database::execute` − `Database::explain` − root time
///   (result collection and statement governance)
fn trace_single_query(
    w: Workload,
    case: &Case,
    parallelism: usize,
    tr: &mut Tracer,
    root: &Open,
) -> Result<Layers, String> {
    let n = case.circuit.num_qubits;
    let mut reg = GateTableRegistry::new();
    let (ops, lower) = tr.span(root, "fusion::lower_circuit", || {
        lower_circuit(&case.circuit, &mut reg, None)
    });
    let (sql, sqlgen) = tr.span(root, "sqlgen::circuit_query", || {
        circuit_query(&ops, n, "T0", &SqlGenConfig::default())
    });
    let (mut db, open) = tr.span(root, "Database::new", || {
        memory_db(w.memory_limit(), parallelism)
    });
    let (loaded, load_s) = tr.span(root, "GateTableRegistry::materialize", || {
        load(&mut db, &reg, n)
    });
    loaded?;
    let (parsed, parse) = tr.span(root, "parser::parse_statement", || parse_statement(&sql));
    parsed.map_err(|e| format!("parse: {e}"))?;
    let (planned, schema) = tr.span(root, "Database::query_schema", || db.query_schema(&sql));
    planned.map_err(|e| format!("plan: {e}"))?;
    let (explained, explain) = tr.span(root, "Database::explain", || db.explain(&sql));
    explained.map_err(|e| format!("optimize: {e}"))?;
    let (analyzed, _) = tr.span(root, "Database::explain_analyze", || {
        db.explain_analyze(&sql)
    });
    let profile = Profile::parse(&analyzed.map_err(|e| format!("explain analyze: {e}"))?)?;

    let mut spill = 0.0;
    if w.memory_limit().is_some() {
        let mut twin = memory_db(None, parallelism);
        load(&mut twin, &reg, n)?;
        let (twin_analyzed, _) = tr.span(root, "twin Database::explain_analyze", || {
            twin.explain_analyze(&sql)
        });
        let twin_profile =
            Profile::parse(&twin_analyzed.map_err(|e| format!("twin explain analyze: {e}"))?)?;
        spill = profile.root_s - twin_profile.root_s;
    }

    let (executed, execute) = tr.span(root, "Database::execute", || db.execute(&sql));
    let rows = executed.map_err(|e| format!("execute: {e}"))?.into_rows();
    check_amplitudes(&rows_to_amplitudes(rows)?, &case.oracle)?;

    let mut l = Layers {
        logical_s: lower + sqlgen + open + load_s + execute,
        ..Default::default()
    };
    l.set("translate.lower", lower);
    l.set("translate.sqlgen", sqlgen);
    l.set("translate.load", load_s);
    l.set("sqldb.open", open);
    l.set("sqldb.parser", parse);
    l.set("sqldb.plan", schema - parse);
    l.set("sqldb.plan.optimizer", explain - schema);
    l.set("sqldb.exec", profile.root_s - spill);
    l.set("sqldb.storage.spill", spill);
    l.set("sqldb.storage.wal", 0.0);
    l.set("sqldb.residue", execute - explain - profile.root_s);
    let v = &mut l.values;
    v.insert("translate.gate_ops", ops.len() as f64);
    v.insert("translate.sql_bytes", sql.len() as f64);
    v.insert("sqldb.execute_s", execute);
    v.insert("sqldb.spill.exec_extra_s", spill);
    profile.insert_into(v);
    Ok(l)
}

/// `durable_steps`: one `CREATE TABLE … AS` and one drop per gate on a
/// durable database, each mirrored on an in-memory twin.
///
/// * `sqldb.plan` / `sqldb.plan.optimizer` as in single-query mode, per step
/// * `sqldb.exec` = twin CTAS − `Database::explain`, plus the final read
/// * `sqldb.storage.wal` = (durable CTAS − twin CTAS) + (durable drop −
///   twin drop): the cost of the write-ahead log
/// * `sqldb.residue` = twin drops
fn trace_steps(
    case: &Case,
    parallelism: usize,
    dir: &Path,
    tr: &mut Tracer,
    root: &Open,
) -> Result<Layers, String> {
    let n = case.circuit.num_qubits;
    let cfg = SqlGenConfig::default();
    let mut reg = GateTableRegistry::new();
    let (ops, lower) = tr.span(root, "fusion::lower_circuit", || {
        lower_circuit(&case.circuit, &mut reg, None)
    });
    let (opened, open) = tr.span(root, "Database::open_with", || {
        Database::open_with(dir, DurabilityOptions::default())
    });
    let mut db = opened.map_err(|e| format!("open: {e}"))?;
    db.set_parallelism(parallelism);
    let (loaded, load_s) = tr.span(root, "GateTableRegistry::materialize", || {
        load(&mut db, &reg, n)
    });
    loaded?;
    let mut twin = memory_db(None, parallelism);
    load(&mut twin, &reg, n)?;

    let mut t = StepTimes::default();
    let mut sql_bytes = 0;
    for (k, op) in ops.iter().enumerate() {
        let ((next, select), sqlgen) = tr.span(root, "sqlgen::step_statement", || {
            step_statement(k, op, n, &cfg)
        });
        sql_bytes += select.len();
        let (parsed, parse) = tr.span(root, "parser::parse_statement", || parse_statement(&select));
        parsed.map_err(|e| format!("parse: {e}"))?;
        let (planned, schema) =
            tr.span(root, "Database::query_schema", || db.query_schema(&select));
        planned.map_err(|e| format!("plan: {e}"))?;
        let (explained, explain) = tr.span(root, "Database::explain", || db.explain(&select));
        explained.map_err(|e| format!("optimize: {e}"))?;
        let prev = state_table_name(k);
        let (made, wal_ctas) = tr.span(root, "Database::create_table_as", || {
            db.create_table_as(&next, &select)
        });
        made.map_err(|e| format!("durable CTAS {next}: {e}"))?;
        let (dropped, wal_drop) = tr.span(root, "Database::drop_table_if_exists", || {
            db.drop_table_if_exists(&prev)
        });
        dropped.map_err(|e| format!("durable drop {prev}: {e}"))?;
        let (made, mem_ctas) = tr.span(root, "twin Database::create_table_as", || {
            twin.create_table_as(&next, &select)
        });
        made.map_err(|e| format!("twin CTAS {next}: {e}"))?;
        let (dropped, mem_drop) = tr.span(root, "twin Database::drop_table_if_exists", || {
            twin.drop_table_if_exists(&prev)
        });
        dropped.map_err(|e| format!("twin drop {prev}: {e}"))?;
        t.sqlgen += sqlgen;
        t.parse += parse;
        t.plan += schema - parse;
        t.optimize += explain - schema;
        t.exec += mem_ctas - explain;
        t.wal_ctas += wal_ctas;
        t.mem_ctas += mem_ctas;
        t.wal_drop += wal_drop;
        t.mem_drop += mem_drop;
    }
    let last = state_table_name(ops.len());
    let (read, final_read) = tr.span(root, "Database::execute", || {
        db.execute(&format!("SELECT s, r, i FROM {last} ORDER BY s"))
    });
    let rows = read.map_err(|e| format!("final read: {e}"))?.into_rows();
    check_amplitudes(&rows_to_amplitudes(rows)?, &case.oracle)?;
    let (ckpt, checkpoint) = tr.span(root, "Database::checkpoint", || db.checkpoint());
    ckpt.map_err(|e| format!("checkpoint: {e}"))?;

    let mut l = Layers {
        logical_s: lower + open + load_s + t.sqlgen + t.wal_ctas + t.wal_drop + final_read,
        ..Default::default()
    };
    let wal = (t.wal_ctas - t.mem_ctas) + (t.wal_drop - t.mem_drop);
    l.set("translate.lower", lower);
    l.set("translate.sqlgen", t.sqlgen);
    l.set("translate.load", load_s);
    l.set("sqldb.open", open);
    l.set("sqldb.parser", t.parse);
    l.set("sqldb.plan", t.plan);
    l.set("sqldb.plan.optimizer", t.optimize);
    l.set("sqldb.exec", t.exec + final_read);
    l.set("sqldb.storage.spill", 0.0);
    l.set("sqldb.storage.wal", wal);
    l.set("sqldb.residue", t.mem_drop);
    let v = &mut l.values;
    v.insert("translate.gate_ops", ops.len() as f64);
    v.insert("translate.sql_bytes", sql_bytes as f64);
    v.insert("sqldb.execute_s", final_read);
    v.insert("sqldb.wal.ctas_s", t.wal_ctas);
    v.insert("sqldb.mem.ctas_s", t.mem_ctas);
    v.insert("sqldb.wal.drop_s", t.wal_drop);
    v.insert("sqldb.wal.extra_s", wal);
    v.insert("sqldb.wal.checkpoint_s", checkpoint);
    Ok(l)
}

#[derive(Default)]
struct StepTimes {
    sqlgen: f64,
    parse: f64,
    plan: f64,
    optimize: f64,
    exec: f64,
    wal_ctas: f64,
    mem_ctas: f64,
    wal_drop: f64,
    mem_drop: f64,
}

fn rows_to_amplitudes(rows: Vec<Row>) -> Result<Vec<SqlAmplitude>, String> {
    rows.into_iter()
        .map(|row| match row.as_slice() {
            [s, r, i] => Ok(SqlAmplitude {
                s: s.clone(),
                amp: qymera_circuit::c64(
                    r.as_f64().map_err(|e| e.to_string())?,
                    i.as_f64().map_err(|e| e.to_string())?,
                ),
            }),
            _ => Err(format!("state row has {} columns, expected 3", row.len())),
        })
        .collect()
}

/// The operator profile `Database::explain_analyze` renders: one line per
/// plan node, indented two spaces per depth, with inclusive times.
pub struct Profile {
    root_s: f64,
    /// Self seconds (inclusive minus children) per operator family.
    self_s: BTreeMap<&'static str, f64>,
    rows: BTreeMap<&'static str, u64>,
    batches: u64,
    morsels: u64,
    workers: u64,
}

impl Profile {
    pub fn parse(text: &str) -> Result<Profile, String> {
        struct Node {
            depth: usize,
            family: &'static str,
            rows: u64,
            incl_s: f64,
        }
        let mut nodes = Vec::new();
        let mut p = Profile {
            root_s: 0.0,
            self_s: BTreeMap::new(),
            rows: BTreeMap::new(),
            batches: 0,
            morsels: 0,
            workers: 0,
        };
        for line in text.lines().filter(|l| l.contains(" rows=")) {
            let depth = (line.len() - line.trim_start().len()) / 2;
            let (label, fields) = line.trim_start().split_once(" rows=").expect("filtered");
            let field = |key: &str| -> Option<&str> {
                fields.split_whitespace().find_map(|f| f.strip_prefix(key))
            };
            let rows = fields
                .split_whitespace()
                .next()
                .and_then(|r| r.parse().ok());
            let ms = field("time=").and_then(|t| t.parse::<f64>().ok());
            let (Some(rows), Some(ms)) = (rows, ms) else {
                return Err(format!("unreadable profile line: {line}"));
            };
            let count = |key| field(key).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            p.batches += count("batches=");
            p.morsels += count("morsels=");
            p.workers += count("workers=");
            nodes.push(Node {
                depth,
                family: family(label),
                rows,
                incl_s: ms / 1e3,
            });
        }
        let Some(first) = nodes.first() else {
            return Err("empty operator profile".into());
        };
        p.root_s = first.incl_s;
        for (i, node) in nodes.iter().enumerate() {
            let children: f64 = nodes[i + 1..]
                .iter()
                .take_while(|c| c.depth > node.depth)
                .filter(|c| c.depth == node.depth + 1)
                .map(|c| c.incl_s)
                .sum();
            *p.self_s.entry(node.family).or_default() += node.incl_s - children;
            *p.rows.entry(node.family).or_default() += node.rows;
        }
        Ok(p)
    }

    fn insert_into(&self, v: &mut BTreeMap<&'static str, f64>) {
        let self_s = |f| self.self_s.get(f).copied().unwrap_or(0.0);
        let rows = |f| self.rows.get(f).copied().unwrap_or(0) as f64;
        v.insert("sqldb.exec.aggregate_self_s", self_s("aggregate"));
        v.insert("sqldb.exec.join_self_s", self_s("join"));
        v.insert("sqldb.exec.sort_self_s", self_s("sort"));
        v.insert("sqldb.exec.project_self_s", self_s("project"));
        v.insert("sqldb.exec.aggregate_rows", rows("aggregate"));
        v.insert("sqldb.exec.join_rows", rows("join"));
        v.insert("sqldb.exec.batches", self.batches as f64);
        v.insert("sqldb.exec.morsels", self.morsels as f64);
        v.insert("sqldb.exec.workers", self.workers as f64);
    }
}

/// Operator family of a profile label (`HashAggregate [1 keys, 2 aggs]`,
/// `HashJoin Inner`, `BatchSort [1 keys]`, `Project [3]`, …).
fn family(label: &str) -> &'static str {
    if label.contains("Aggregate") {
        "aggregate"
    } else if label.contains("Join") {
        "join"
    } else if label.contains("Sort") || label.contains("TopK") {
        "sort"
    } else if label.starts_with("Project") {
        "project"
    } else {
        "other"
    }
}
