//! Untimed correctness checks of sampled replies. Any violation fails
//! the run.
//!
//! * TOPK: the tie-aware `check_topk` against `compute_all` on
//!   `replay_graph(g0, ops[..prefix])` at the reply's epoch.
//! * COMMON: a client-side sorted intersection.
//! * SCORE: `ego_betweenness_reference` for low-degree vertices.

use crate::stream::{field, reply_fields, SeqLog};
use conformance::{approx_eq, check_topk, REL_TOL};
use egobtw_core::naive::ego_betweenness_reference;
use egobtw_dynamic::replay_graph;
use egobtw_graph::{CsrGraph, VertexId};
use egobtw_service::proto::parse_entries;
use std::collections::HashMap;

/// SCORE replies are checked against the naive reference only for
/// vertices of at most this degree (the reference is quadratic in it).
pub const SCORE_CHECK_MAX_DEGREE: usize = 24;

/// The parts of a `TOPK`/`SCORE`/`COMMON` reply the checks need.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// The epoch the answer claims.
    pub epoch: u64,
    /// `(vertex, score)` entries (TOPK, SCORE) or `(witness, 0)` (COMMON).
    pub entries: Vec<(VertexId, f64)>,
}

/// Parses a reply line.
pub fn parse_reply(reply: &str) -> Result<Parsed, String> {
    let fields = reply_fields(reply);
    let epoch = field(&fields, "epoch")
        .and_then(|e| e.parse().ok())
        .ok_or_else(|| format!("reply without epoch: {reply:?}"))?;
    let text = field(&fields, "entries").unwrap_or("");
    let entries = if reply.starts_with("OK common") {
        text.split(',')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse().map(|w| (w, 0.0)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad COMMON entries in {reply:?}: {e}"))?
    } else {
        parse_entries(text).map_err(|e| format!("bad entries in {reply:?}: {e}"))?
    };
    Ok(Parsed { epoch, entries })
}

/// Sorted intersection of two sorted neighbor lists.
pub fn sorted_intersection(a: &[VertexId], b: &[VertexId]) -> Vec<VertexId> {
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Checks replies against truths derived from the epoch-0 graph and the
/// writer's acked batches. Truth vectors are cached per epoch.
pub struct Checker<'a> {
    g0: &'a CsrGraph,
    truth: HashMap<u64, Vec<f64>>,
    /// Replies checked.
    pub checked: usize,
    /// Violations found, described.
    pub violations: Vec<String>,
}

impl<'a> Checker<'a> {
    /// A checker for a dataset loaded from `g0`.
    pub fn new(g0: &'a CsrGraph) -> Self {
        Checker {
            g0,
            truth: HashMap::new(),
            checked: 0,
            violations: Vec::new(),
        }
    }

    fn fail(&mut self, what: String) {
        self.violations.push(what);
    }

    /// Checks a TOPK reply for `k` at its epoch; `log` holds the acked
    /// batches the epoch refers to.
    pub fn topk(&mut self, reply: &str, k: usize, log: &SeqLog) {
        self.checked += 1;
        let parsed = match parse_reply(reply) {
            Ok(p) => p,
            Err(e) => return self.fail(e),
        };
        if parsed.epoch > log.acked_epoch() {
            return self.fail(format!(
                "TOPK answered for epoch {} beyond the last acked epoch {}",
                parsed.epoch,
                log.acked_epoch()
            ));
        }
        let g0 = self.g0;
        let truth = self.truth.entry(parsed.epoch).or_insert_with(|| {
            if parsed.epoch == 0 {
                egobtw_core::compute_all(g0).0
            } else {
                egobtw_core::compute_all(&replay_graph(g0, &log.ops_through(parsed.epoch)).to_csr())
                    .0
            }
        });
        if let Err(e) = check_topk(truth, &parsed.entries, k, REL_TOL) {
            let epoch = parsed.epoch;
            self.fail(format!("TOPK {k} at epoch {epoch}: {e}"));
        }
    }

    /// Checks a COMMON reply against the epoch-0 graph.
    pub fn common(&mut self, reply: &str, u: VertexId, v: VertexId) {
        self.checked += 1;
        let parsed = match parse_reply(reply) {
            Ok(p) => p,
            Err(e) => return self.fail(e),
        };
        if parsed.epoch != 0 {
            return self.fail(format!(
                "COMMON {u} {v} at epoch {}, expected 0",
                parsed.epoch
            ));
        }
        let want = sorted_intersection(self.g0.neighbors(u), self.g0.neighbors(v));
        let got: Vec<VertexId> = parsed.entries.iter().map(|&(w, _)| w).collect();
        if got != want {
            self.fail(format!("COMMON {u} {v}: got {got:?}, expected {want:?}"));
        }
    }

    /// Checks a SCORE reply of a low-degree vertex against the naive
    /// reference on the epoch-0 graph.
    pub fn score(&mut self, reply: &str, v: VertexId) {
        self.checked += 1;
        let parsed = match parse_reply(reply) {
            Ok(p) => p,
            Err(e) => return self.fail(e),
        };
        let want = ego_betweenness_reference(self.g0, v);
        match parsed.entries.as_slice() {
            [(w, got)] if *w == v && parsed.epoch == 0 && approx_eq(*got, want, REL_TOL) => {}
            other => self.fail(format!(
                "SCORE {v} at epoch {}: got {other:?}, expected {want}",
                parsed.epoch
            )),
        }
    }
}
