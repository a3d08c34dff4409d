//! The paper's application-specific network services and baseline systems.
//!
//! Use cases (§2.1 / §6.1):
//!
//! * [`http`] — the HTTP load balancer and its static-web-server variant,
//!   built as explicit task graphs on the FLICK runtime (the shape of
//!   Figure 3a);
//! * [`memcached`] — the Memcached proxy (Listing 1) and cache router,
//!   compiled from their FLICK sources;
//! * [`hadoop`] — the Hadoop in-network data aggregator (Listing 3),
//!   compiled from its FLICK source;
//! * [`baselines`] — behavioural models of the systems the paper compares
//!   against: Apache (thread-per-connection proxy), Nginx (event-loop proxy)
//!   and Moxi (multi-threaded Memcached proxy with shared state).

pub mod baselines;
pub mod hadoop;
pub mod http;
pub mod memcached;

pub use http::{HttpLoadBalancerFactory, StaticWebServerFactory};

#[cfg(test)]
mod tests {
    use super::{hadoop, http};
    use flick_compiler::bytecode::Op;
    use flick_compiler::{compile_source, CompileOptions};

    /// The hot projections of both shipped compiled programs — the
    /// balancer's `req.path` and foldt's `e1.value`/`e2.value` — read the
    /// message in its frame slot (`Op::LoadField`) instead of cloning it
    /// onto the stack for a separate `Op::Field`.
    #[test]
    fn shipped_programs_read_fields_in_place() {
        let cases = [
            (http::HTTP_LB_FLICK_SOURCE, "HttpBalancer", "path", 1),
            (hadoop::HADOOP_AGGREGATOR_FLICK_SOURCE, "hadoop", "value", 2),
        ];
        for (source, process, field, reads) in cases {
            let service = compile_source(source, process, &CompileOptions::default()).unwrap();
            let compiled = service.compiled();
            let chunks = compiled
                .functions
                .iter()
                .map(|f| &f.chunk)
                .chain(compiled.rules.iter().map(|r| &r.chunk))
                .chain(compiled.foldt.iter().map(|f| &f.chunk));
            let (mut fused, mut unfused) = (0, 0);
            for op in chunks.flat_map(|chunk| &chunk.code) {
                match op {
                    Op::LoadField { name, .. } if compiled.names[*name as usize] == field => {
                        fused += 1
                    }
                    Op::Field { .. } => unfused += 1,
                    _ => {}
                }
            }
            assert_eq!(fused, reads, "{process}: in-place reads of `{field}`");
            assert_eq!(unfused, 0, "{process}: projections left unfused");
        }
    }
}
