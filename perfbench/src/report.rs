//! The run's result: a readable table, then one JSON line.

/// End-to-end metrics, printed by `--trace 0` runs.
pub const END_TO_END: &[&str] = &["p10_us", "cpu_us_per_req", "setup_s", "peak_rss_mb"];

/// Per-layer metrics, printed by `--trace 1` runs.
pub const PER_LAYER: &[&str] = &[
    "lang.front_us",
    "compiler.lower_us",
    "compiler.vm_route_ns",
    "compiler.foldt_ns_per_record",
    "grammar.http_req_parse_ns",
    "grammar.http_resp_parse_ns",
    "grammar.http_serialize_ns",
    "grammar.kv_parse_ns",
    "runtime.task_runs_per_req",
    "runtime.msgs_in_per_req",
    "runtime.msgs_out_per_req",
    "runtime.yields_per_req",
    "runtime.steals_per_req",
    "runtime.backend_checkouts_per_req",
    "runtime.shard0_util_pct",
    "runtime.shard1_util_pct",
    "runtime.channel_hop_ns",
    "runtime.wakeup_us",
    "runtime.graphs_per_req",
    "runtime.graph_build_us",
    "runtime.backend_connect_us",
    "net.reads_per_req",
    "net.writes_per_req",
    "net.writev_per_req",
    "net.loopback_rtt_us",
    "net.conns_per_req",
    "net.connect_accept_us",
    "net.ingest_copies",
    "gen.client_gap_ns",
    "backend.service_ns",
    "trace.overhead_pct",
    "trace.p50_us",
    "self.grammar_us",
    "self.compiler_us",
    "self.runtime_us",
    "self.net_us",
    "self.backend_us",
    "unattributed_us",
    "rps",
    "p50_us",
    "p95_us",
    "p99_us",
    "p999_us",
    "agg_mb_s",
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

#[derive(Debug)]
pub struct Report {
    header: String,
    trace: bool,
    fingerprint: Vec<(&'static str, String)>,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        Report {
            header: format!(
                "perfbench workload={workload} seed={seed} trace={}",
                u8::from(trace)
            ),
            trace,
            fingerprint: Vec::new(),
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn fingerprint(&mut self, items: &[(&'static str, String)]) {
        self.fingerprint = items.to_vec();
    }

    pub fn metric(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        let name = name.into();
        if !value.is_finite() {
            self.error(format!("metric {name} is not finite"));
        }
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Counts operations of a measured window.
    pub fn attempts(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// A failed output check: the run is not correct.
    pub fn error(&mut self, e: impl Into<String>) {
        self.errors.push(e.into());
    }

    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn listed(&self) -> &'static [&'static str] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Prints the table and the JSON line; returns whether the run was
    /// correct.
    pub fn print(mut self) -> bool {
        let missing: Vec<&str> = self
            .listed()
            .iter()
            .filter(|name| self.get(name).is_none())
            .copied()
            .collect();
        if !missing.is_empty() && self.errors.is_empty() {
            self.error(format!("metrics not measured: {}", missing.join(", ")));
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let attempted = self.attempted as usize;
        self.metric("fail_ratio", "ratio", fail_ratio, attempted);
        println!("# {}", self.header);
        let host: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        println!("# host {}", host.join(" "));
        println!(
            "# {:<34} {:>16} {:<6} {:>9}",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.4} {:<6} {:>9}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for n in &self.notes {
            println!("# note: {n}");
        }
        for e in &self.errors {
            println!("# CHECK FAILED: {e}");
        }
        let fields: Vec<String> = self
            .listed()
            .iter()
            .filter_map(|name| self.metrics.iter().find(|m| m.name == *name))
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        self.correct()
    }
}
