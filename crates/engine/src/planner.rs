//! The resource-aware planner: `(Query, GraphMeta, ResourcePolicy) →
//! Plan`, a pure deterministic function.
//!
//! The paper's point is that one density query runs well at any scale —
//! in RAM, streamed from disk, or sketched. The planner encodes that as
//! explicit, explainable rules (every fired rule is recorded in
//! [`Plan::reasons`]):
//!
//! 1. **Forced backend** — a [`Query::backend`] request is validated
//!    against the algorithm's capabilities and honored verbatim.
//! 2. **Sketch param ⇒ sketched backend** — a Count-Sketch width on
//!    `approx` replaces the exact degree oracle; the run streams from the
//!    file when the graph does not fit the budget, else from memory.
//! 3. **In-memory-only algorithms** (`directed`, `charikar`, `exact`,
//!    `enumerate`) always plan the in-memory backend, even over budget
//!    (there is no smaller backend; the overrun is recorded).
//! 4. **Fits ⇒ in-memory** — when [`est_in_memory_bytes`] is within the
//!    budget (or no budget is set), plan in-memory.
//! 5. **Does not fit ⇒ streamed** — `approx`/`atleast-k` fall back to the
//!    out-of-core path: one re-read per pass, O(n) state, the edge list
//!    never materialized.
//! 6. **Shuffle placement** — a MapReduce plan keeps the shuffle in RAM
//!    when [`est_shuffle_bytes_per_pass`] fits the budget and otherwise
//!    spills to sorted disk runs with a per-worker budget carved out of
//!    the policy's.
//!
//! The policy's threads size the MapReduce workers, which is how the
//! paper parallelizes a pass (§5.2); every other backend runs serially,
//! and a plan made with more than one thread says so in its reasons.
//!
//! All size estimates are deterministic closed-form functions of
//! `(nodes, edges, weighted)` documented on the functions below — the
//! planner never probes the machine, so the same query over the same
//! graph under the same policy always yields the same plan.
//!
//! **Streamed semantics caveat.** The out-of-core backends take the
//! file exactly as stored — no canonicalization, so duplicate or
//! bidirectional edge lines count twice — while the in-memory backends
//! dedupe. On non-canonical files a streamed plan can therefore return
//! a different (still guarantee-respecting) density than an in-memory
//! plan. Every streamed plan records this in its reasons so the
//! `plan` field of the report/JSON makes the semantics visible; files
//! written by this repository's own writers are canonical and
//! unaffected.

use dsg_core::result::streaming_state_bytes;
use dsg_mapreduce::ShuffleBackend;

use crate::error::{EngineError, Result};
use crate::query::{Algorithm, BackendRequest, Query, ResourcePolicy};

/// What the planner knows about a graph without materializing it: node
/// and edge counts (binary header, text validation scan, or in-memory
/// list), weightedness, and the on-disk size (0 for memory sources).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraphMeta {
    /// Number of nodes `n`.
    pub nodes: u64,
    /// Number of edges `m` (as stored; pre-canonicalization for files).
    pub edges: u64,
    /// Whether edges carry weights.
    pub weighted: bool,
    /// Size of the backing file in bytes (0 for in-memory sources).
    pub file_bytes: u64,
}

/// Estimated peak bytes of the in-memory path: the canonical edge list
/// (`8m`, plus `8m` of weights), the CSR snapshot (`8(n+1)` offsets,
/// `4·2m` targets, plus `8·2m` weights), and the peeling working state
/// (`24n`: liveness, degrees, removal log).
pub fn est_in_memory_bytes(meta: &GraphMeta) -> u64 {
    let (n, m) = (meta.nodes, meta.edges);
    let edge_list = 8 * m + if meta.weighted { 8 * m } else { 0 };
    let csr = 8 * (n + 1) + 8 * m + if meta.weighted { 16 * m } else { 0 };
    edge_list + csr + 24 * n
}

/// Estimated peak bytes of the out-of-core path — the O(n) semi-streaming
/// state of [`streaming_state_bytes`], with `oracle_words = n` for the
/// exact degree oracle or `t·b` for a sketch.
pub fn est_stream_state_bytes(meta: &GraphMeta, oracle_words: u64) -> u64 {
    streaming_state_bytes(meta.nodes, oracle_words)
}

/// Estimated shuffle volume of one MapReduce pass (3 rounds): every edge
/// is shuffled twice by the degree-and-mark round and once by each
/// rewrite round, every node once — ≈ `16` encoded bytes per record.
pub fn est_shuffle_bytes_per_pass(meta: &GraphMeta) -> u64 {
    16 * (4 * meta.edges + meta.nodes)
}

/// Number of sketch rows used by `SketchParams::paper` (`t`).
pub const SKETCH_ROWS: u64 = 5;

/// Reason recorded on every streamed plan (see the module docs): the
/// out-of-core path takes the file as stored, without canonicalization.
pub const STREAM_SEMANTICS_NOTE: &str =
    "note: streamed runs take the file as stored (no canonicalization; duplicate edges count \
     twice)";

/// The execution backend a plan selects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Serial decremental peeling over the in-memory CSR.
    InMemorySerial,
    /// Out-of-core: one re-read of the source per pass, O(n) state.
    Streamed,
    /// Algorithm 1 with a Count-Sketch degree oracle.
    Sketched {
        /// Sketch width `b` (`t = 5` rows).
        width: u32,
        /// `true` → run over the file stream (no materialization);
        /// `false` → run over the in-memory edge list.
        streamed: bool,
    },
    /// The §5.2 MapReduce driver.
    MapReduce {
        /// Worker threads of the simulated cluster.
        workers: usize,
        /// Planned shuffle placement: in RAM, or spilled to disk above
        /// a per-worker, per-partition byte budget.
        shuffle: ShuffleBackend,
    },
}

impl Backend {
    /// Stable name used in reports, JSON summaries, and tests.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::InMemorySerial => "memory",
            Backend::Streamed => "stream",
            Backend::Sketched {
                streamed: false, ..
            } => "sketch",
            Backend::Sketched { streamed: true, .. } => "sketch-stream",
            Backend::MapReduce {
                shuffle: ShuffleBackend::InMemory,
                ..
            } => "mapreduce",
            Backend::MapReduce {
                shuffle: ShuffleBackend::External { .. },
                ..
            } => "mapreduce-spill",
        }
    }
}

/// An explainable execution plan.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    /// The chosen backend.
    pub backend: Backend,
    /// Estimated peak working-set bytes of the chosen backend.
    pub est_working_bytes: u64,
    /// Estimated peak bytes the in-memory path would have used (the
    /// number the budget was compared against).
    pub est_in_memory_bytes: u64,
    /// The policy's budget the plan was made under.
    pub budget_bytes: Option<u64>,
    /// The rules that fired, in order — the plan's explanation.
    pub reasons: Vec<String>,
}

impl Plan {
    /// One-line human/JSON explanation: backend plus the fired rules.
    pub fn explain(&self) -> String {
        format!("{}: {}", self.backend.name(), self.reasons.join("; "))
    }
}

/// The planner's rule for a query and its policy: every parameter in
/// range, naming the offending one, and a forced backend the algorithm
/// can run on. None of it needs the graph, so the request parser
/// ([`crate::query::parse_query`]) applies it before any file is read,
/// and [`plan`] applies it again for direct callers.
pub(crate) fn validate(query: &Query, policy: &ResourcePolicy) -> Result<()> {
    let bad = |msg: String| Err(EngineError::InvalidQuery(msg));
    let epsilon_ok = |epsilon: f64| {
        if epsilon.is_finite() && epsilon >= 0.0 {
            Ok(())
        } else {
            bad(format!(
                "epsilon must be a finite number >= 0 (got {epsilon})"
            ))
        }
    };
    policy.validate().map_err(EngineError::InvalidQuery)?;
    let alg = &query.algorithm;
    match *alg {
        Algorithm::Approx { epsilon, sketch } => {
            epsilon_ok(epsilon)?;
            if sketch == Some(0) {
                return bad("sketch width must be at least 1".into());
            }
        }
        Algorithm::AtLeastK { k, epsilon } => {
            if k == 0 {
                return bad("k must be at least 1".into());
            }
            epsilon_ok(epsilon)?;
        }
        Algorithm::Directed { delta, epsilon } => {
            if !delta.is_finite() || delta <= 1.0 {
                return bad(format!("delta must be a finite number > 1 (got {delta})"));
            }
            epsilon_ok(epsilon)?;
        }
        Algorithm::Enumerate {
            epsilon,
            min_density,
            max_communities,
        } => {
            epsilon_ok(epsilon)?;
            if !min_density.is_finite() {
                return bad("min_density must be finite".into());
            }
            if max_communities == 0 {
                return bad("max_communities must be at least 1".into());
            }
        }
        Algorithm::Charikar | Algorithm::Exact { .. } => {}
    }
    let refusal = match (query.backend, alg) {
        (Some(BackendRequest::Streamed), _) if !alg.streamable() => format!(
            "'{}' cannot stream; it needs the whole graph in memory",
            alg.name()
        ),
        (
            Some(BackendRequest::MapReduce),
            Algorithm::Approx {
                sketch: Some(_), ..
            },
        ) => "sketched runs are serial streaming; MapReduce does not apply".into(),
        (Some(BackendRequest::MapReduce), _) if !alg.mapreducible() => {
            format!("no MapReduce driver for '{}'", alg.name())
        }
        _ => return Ok(()),
    };
    Err(EngineError::Unsupported(refusal))
}

/// Plans the shuffle placement of a MapReduce backend (rule 6).
fn plan_shuffle(
    meta: &GraphMeta,
    policy: &ResourcePolicy,
    reasons: &mut Vec<String>,
) -> ShuffleBackend {
    let est = est_shuffle_bytes_per_pass(meta);
    match policy.memory_budget_bytes {
        Some(budget) if est > budget => {
            // Carve the spill budget out of the policy's: a quarter of
            // the budget split across the workers, floored at one 64 KiB
            // buffer so degenerate budgets still make progress.
            let per_worker = (budget / 4 / policy.threads.max(1) as u64).max(64 * 1024);
            reasons.push(format!(
                "shuffle ≈{est} B/pass exceeds budget {budget} B → spill to disk \
                 ({per_worker} B per worker bucket)"
            ));
            ShuffleBackend::External {
                spill_budget_bytes: per_worker as usize,
            }
        }
        Some(budget) => {
            reasons.push(format!(
                "shuffle ≈{est} B/pass fits budget {budget} B → in-RAM shuffle"
            ));
            ShuffleBackend::InMemory
        }
        None => {
            reasons.push("no memory budget → in-RAM shuffle".into());
            ShuffleBackend::InMemory
        }
    }
}

/// Produces the execution plan for `query` over a graph described by
/// `meta` under `policy`. Pure and deterministic — see the module docs
/// for the rule order.
pub fn plan(query: &Query, meta: &GraphMeta, policy: &ResourcePolicy) -> Result<Plan> {
    validate(query, policy)?;
    if let Algorithm::AtLeastK { k, .. } = query.algorithm {
        if k as u64 > meta.nodes {
            return Err(EngineError::KTooLarge { k, n: meta.nodes });
        }
    }

    let alg = &query.algorithm;
    let est_mem = est_in_memory_bytes(meta);
    let budget = policy.memory_budget_bytes;
    let fits = budget.is_none_or(|b| est_mem <= b);
    let mut reasons = Vec::new();

    // Rule 2: a sketch width selects the sketched backend outright.
    if let Algorithm::Approx {
        sketch: Some(width),
        ..
    } = *alg
    {
        let streamed = match query.backend {
            None => {
                if fits {
                    reasons
                        .push("sketch width set → sketched oracle over the in-memory list".into());
                } else {
                    reasons.push(format!(
                        "sketch width set and est. in-memory {est_mem} B exceeds budget \
                         → sketched oracle over the file stream"
                    ));
                    reasons.push(STREAM_SEMANTICS_NOTE.into());
                }
                !fits
            }
            Some(BackendRequest::InMemory) => {
                reasons.push("forced in-memory sketched run".into());
                false
            }
            // `validate` refused a forced MapReduce run.
            Some(_) => {
                reasons.push("forced streamed sketched run".into());
                reasons.push(STREAM_SEMANTICS_NOTE.into());
                true
            }
        };
        let working = est_stream_state_bytes(meta, SKETCH_ROWS * width as u64)
            + if streamed { 0 } else { est_mem };
        return Ok(finish(
            Backend::Sketched { width, streamed },
            working,
            est_mem,
            policy,
            reasons,
        ));
    }

    // Rule 1: forced backends, which `validate` checked the algorithm
    // can run on.
    let backend = match query.backend {
        Some(BackendRequest::InMemory) => {
            reasons.push("forced in-memory".into());
            Backend::InMemorySerial
        }
        Some(BackendRequest::Streamed) => {
            reasons.push("forced out-of-core streaming".into());
            reasons.push(STREAM_SEMANTICS_NOTE.into());
            Backend::Streamed
        }
        Some(BackendRequest::MapReduce) => {
            if meta.weighted {
                return Err(EngineError::Unsupported(
                    "the MapReduce driver handles unweighted graphs only".into(),
                ));
            }
            reasons.push("forced MapReduce".into());
            Backend::MapReduce {
                workers: policy.threads,
                shuffle: plan_shuffle(meta, policy, &mut reasons),
            }
        }
        None => {
            if !alg.streamable() {
                // Rule 3: no smaller backend exists.
                if !fits {
                    reasons.push(format!(
                        "est. in-memory {est_mem} B exceeds budget but '{}' requires the \
                         whole graph in memory",
                        alg.name()
                    ));
                } else {
                    reasons.push(format!("'{}' runs in memory", alg.name()));
                }
                Backend::InMemorySerial
            } else if fits {
                // Rule 4.
                match budget {
                    Some(b) => {
                        reasons.push(format!("est. in-memory {est_mem} B fits budget {b} B"))
                    }
                    None => reasons.push("no memory budget → in-memory".into()),
                }
                Backend::InMemorySerial
            } else {
                // Rule 5.
                let state = est_stream_state_bytes(meta, meta.nodes);
                reasons.push(format!(
                    "est. in-memory {est_mem} B exceeds budget {} B → stream from file \
                     (O(n) state ≈{state} B)",
                    budget.unwrap_or(0)
                ));
                if budget.is_some_and(|b| state > b) {
                    reasons.push(format!(
                        "streaming state ≈{state} B still exceeds the budget; no smaller \
                         backend exists"
                    ));
                }
                reasons.push(STREAM_SEMANTICS_NOTE.into());
                Backend::Streamed
            }
        }
    };

    let est_working_bytes = match backend {
        Backend::InMemorySerial => est_mem,
        Backend::Streamed => est_stream_state_bytes(meta, meta.nodes),
        Backend::Sketched { .. } => unreachable!("handled above"),
        Backend::MapReduce { shuffle, .. } => {
            est_mem
                + match shuffle {
                    ShuffleBackend::InMemory => est_shuffle_bytes_per_pass(meta),
                    ShuffleBackend::External { spill_budget_bytes } => spill_budget_bytes as u64,
                }
        }
    };
    Ok(finish(backend, est_working_bytes, est_mem, policy, reasons))
}

/// Assembles the plan. Only MapReduce plans use the policy's threads,
/// so any other plan made with more than one records that it runs
/// serially.
fn finish(
    backend: Backend,
    est_working_bytes: u64,
    est_in_memory_bytes: u64,
    policy: &ResourcePolicy,
    mut reasons: Vec<String>,
) -> Plan {
    if policy.threads > 1 && !matches!(backend, Backend::MapReduce { .. }) {
        reasons.push(format!(
            "{} threads size MapReduce workers only → serial run",
            policy.threads
        ));
    }
    Plan {
        backend,
        est_working_bytes,
        est_in_memory_bytes,
        budget_bytes: policy.memory_budget_bytes,
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MAX_THREADS;

    fn meta(n: u64, m: u64) -> GraphMeta {
        GraphMeta {
            nodes: n,
            edges: m,
            weighted: false,
            file_bytes: 12 * m,
        }
    }

    fn approx() -> Query {
        Query::new(Algorithm::Approx {
            epsilon: 0.5,
            sketch: None,
        })
    }

    #[test]
    fn fits_goes_in_memory_serial_then_parallel() {
        let m = meta(1_000, 5_000);
        let serial = plan(&approx(), &m, &ResourcePolicy::default()).unwrap();
        assert_eq!(serial.backend, Backend::InMemorySerial);

        // A parallel request plans the same serial backend and says why.
        let pol = ResourcePolicy {
            threads: 4,
            ..Default::default()
        };
        let p = plan(&approx(), &m, &pol).unwrap();
        assert_eq!(p.backend, Backend::InMemorySerial);
        assert_eq!(p.reasons[..serial.reasons.len()], serial.reasons[..]);
        assert_eq!(
            p.reasons[serial.reasons.len()..],
            ["4 threads size MapReduce workers only → serial run"]
        );
    }

    #[test]
    fn threads_above_the_bound_are_rejected_before_anything_starts() {
        let m = meta(1_000, 5_000);
        let mapreduce = Query {
            backend: Some(BackendRequest::MapReduce),
            ..approx()
        };
        for q in [approx(), mapreduce] {
            let at_bound = ResourcePolicy {
                threads: MAX_THREADS,
                ..Default::default()
            };
            assert!(plan(&q, &m, &at_bound).is_ok());
            for threads in [MAX_THREADS + 1, u32::MAX as usize] {
                let pol = ResourcePolicy {
                    threads,
                    ..Default::default()
                };
                let err = plan(&q, &m, &pol).unwrap_err();
                assert!(matches!(err, EngineError::InvalidQuery(_)), "{err:?}");
                assert_eq!(
                    err.to_string(),
                    format!("invalid query: threads must be at most 256 (got {threads})")
                );
            }
        }
    }

    #[test]
    fn over_budget_streams_and_is_deterministic() {
        let m = meta(1_000, 1_000_000);
        let pol = ResourcePolicy {
            memory_budget_bytes: Some(est_in_memory_bytes(&m) / 2),
            threads: 1,
        };
        let a = plan(&approx(), &m, &pol).unwrap();
        let b = plan(&approx(), &m, &pol).unwrap();
        assert_eq!(a, b, "planner must be deterministic");
        assert_eq!(a.backend, Backend::Streamed);
        assert!(a.est_working_bytes < a.est_in_memory_bytes);
        assert!(!a.reasons.is_empty());
    }

    #[test]
    fn in_memory_only_algorithms_never_stream() {
        let m = meta(1_000, 1_000_000);
        let pol = ResourcePolicy {
            memory_budget_bytes: Some(1),
            threads: 1,
        };
        for alg in [
            Algorithm::Charikar,
            Algorithm::Exact {
                flow: Default::default(),
            },
        ] {
            let p = plan(&Query::new(alg), &m, &pol).unwrap();
            assert_eq!(p.backend, Backend::InMemorySerial, "{alg:?}");
        }
        let err = plan(
            &Query {
                algorithm: Algorithm::Charikar,
                backend: Some(BackendRequest::Streamed),
            },
            &m,
            &pol,
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)));
    }

    #[test]
    fn mapreduce_shuffle_spills_over_budget() {
        let m = meta(10_000, 100_000);
        let q = Query {
            algorithm: Algorithm::Approx {
                epsilon: 0.5,
                sketch: None,
            },
            backend: Some(BackendRequest::MapReduce),
        };
        let ram = plan(&q, &m, &ResourcePolicy::default()).unwrap();
        assert!(matches!(
            ram.backend,
            Backend::MapReduce {
                shuffle: ShuffleBackend::InMemory,
                ..
            }
        ));
        let tight = ResourcePolicy {
            memory_budget_bytes: Some(est_shuffle_bytes_per_pass(&m) / 8),
            threads: 2,
        };
        let spill = plan(&q, &m, &tight).unwrap();
        assert!(matches!(
            spill.backend,
            Backend::MapReduce {
                workers: 2,
                shuffle: ShuffleBackend::External { .. }
            }
        ));
        assert_eq!(spill.backend.name(), "mapreduce-spill");
    }

    #[test]
    fn sketch_width_selects_sketched_backend() {
        let small = meta(1_000, 5_000);
        let q = Query::new(Algorithm::Approx {
            epsilon: 0.5,
            sketch: Some(64),
        });
        let p = plan(&q, &small, &ResourcePolicy::default()).unwrap();
        assert_eq!(
            p.backend,
            Backend::Sketched {
                width: 64,
                streamed: false
            }
        );
        let tight = ResourcePolicy {
            memory_budget_bytes: Some(1_000),
            threads: 1,
        };
        let p = plan(&q, &small, &tight).unwrap();
        assert_eq!(
            p.backend,
            Backend::Sketched {
                width: 64,
                streamed: true
            }
        );
        assert_eq!(p.backend.name(), "sketch-stream");
    }

    #[test]
    fn k_larger_than_n_is_a_typed_error() {
        let q = Query::new(Algorithm::AtLeastK {
            k: 2_000,
            epsilon: 0.5,
        });
        let err = plan(&q, &meta(1_000, 5_000), &ResourcePolicy::default()).unwrap_err();
        assert!(matches!(err, EngineError::KTooLarge { k: 2_000, n: 1_000 }));
    }

    #[test]
    fn bad_parameters_are_named() {
        let q = Query::new(Algorithm::Directed {
            delta: 1.0,
            epsilon: 0.5,
        });
        let err = plan(&q, &meta(10, 10), &ResourcePolicy::default()).unwrap_err();
        assert!(err.to_string().contains("delta"), "{err}");
    }
}
