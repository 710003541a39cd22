//! Seeded request streams: the only inputs the daemon gets besides the
//! stand-in snapshot files.
//!
//! Every stream is a pure function of the workload seed and a stream
//! label, so the same seed replays the same requests. Runs are bounded by
//! time, so a run consumes a prefix of each stream.

use egobtw_dynamic::EdgeOp;
use egobtw_graph::{CsrGraph, DynGraph, VertexId};

/// SplitMix64: small, fast, and fully specified, so streams do not depend
/// on any RNG crate's version.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under the workload `seed`.
    pub fn new(seed: u64, stream: &str) -> Self {
        // FNV-1a of the label, mixed with the seed.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(1) over degree rank: rank 1 is the highest-degree vertex, drawn
/// with weight 1, rank r with weight 1/r — hubs are hot.
#[derive(Clone, Debug)]
pub struct Zipf {
    by_rank: Vec<VertexId>,
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution for `g`'s vertices (ties in degree broken by id).
    pub fn over_degree_rank(g: &CsrGraph) -> Self {
        let mut by_rank: Vec<VertexId> = g.vertices().collect();
        by_rank.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let mut total = 0.0;
        let cdf = (1..=by_rank.len())
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        Zipf { by_rank, cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> VertexId {
        let total = *self.cdf.last().expect("graph has vertices");
        let x = rng.unit() * total;
        let rank = self.cdf.partition_point(|&c| c <= x);
        self.by_rank[rank.min(self.by_rank.len() - 1)]
    }
}

/// One read request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// `TOPK g k`.
    Topk(usize),
    /// `SCORE g v`.
    Score(VertexId),
    /// `COMMON g u v`.
    Common(VertexId, VertexId),
}

impl Read {
    /// The wire line for dataset `name`.
    pub fn line(&self, name: &str) -> String {
        match *self {
            Read::Topk(k) => format!("TOPK {name} {k}"),
            Read::Score(v) => format!("SCORE {name} {v}"),
            Read::Common(u, v) => format!("COMMON {name} {u} {v}"),
        }
    }
}

/// The read-mostly mix: 60% `TOPK k`, 25% `SCORE v`, 15% `COMMON u v`,
/// vertices drawn Zipf(1) over degree rank.
pub struct ReadMix {
    zipf: Zipf,
    rng: Rng,
    k: usize,
}

impl ReadMix {
    /// A mix over `zipf` for one client stream.
    pub fn new(zipf: Zipf, k: usize, seed: u64, stream: &str) -> Self {
        ReadMix {
            zipf,
            rng: Rng::new(seed, stream),
            k,
        }
    }

    /// The next request.
    pub fn next_read(&mut self) -> Read {
        let p = self.rng.below(100);
        if p < 60 {
            Read::Topk(self.k)
        } else if p < 85 {
            Read::Score(self.zipf.sample(&mut self.rng))
        } else {
            let u = self.zipf.sample(&mut self.rng);
            let mut v = self.zipf.sample(&mut self.rng);
            while v == u {
                v = self.zipf.sample(&mut self.rng);
            }
            Read::Common(u, v)
        }
    }
}

/// Random state-changing edge ops: every op inserts an absent edge or
/// deletes a present one, judged against a mirror of the graph that
/// already holds every earlier op, so the daemon must apply all of them.
pub struct OpStream {
    mirror: DynGraph,
    rng: Rng,
}

impl OpStream {
    /// A stream starting from `g0`.
    pub fn new(g0: &CsrGraph, seed: u64, stream: &str) -> Self {
        OpStream {
            mirror: DynGraph::from_csr(g0),
            rng: Rng::new(seed, stream),
        }
    }

    /// The next `size` ops, applied to the mirror.
    pub fn next_batch(&mut self, size: usize) -> Vec<EdgeOp> {
        (0..size).map(|_| self.next_op()).collect()
    }

    fn next_op(&mut self) -> EdgeOp {
        let n = self.mirror.n() as u64;
        if self.rng.below(2) == 0 {
            loop {
                let u = self.rng.below(n) as VertexId;
                let v = self.rng.below(n) as VertexId;
                if u != v && self.mirror.insert_edge(u, v) {
                    return EdgeOp::Insert(u, v);
                }
            }
        }
        loop {
            let u = self.rng.below(n) as VertexId;
            let deg = self.mirror.degree(u) as u64;
            if deg == 0 {
                continue;
            }
            let nth = self.rng.below(deg) as usize;
            let v = *self
                .mirror
                .neighbors(u)
                .iter()
                .nth(nth)
                .expect("nth < degree");
            self.mirror.remove_edge(u, v);
            return EdgeOp::Delete(u, v);
        }
    }
}

/// The wire form of one op (`+u,v` or `-u,v`).
pub fn op_token(op: EdgeOp) -> String {
    match op {
        EdgeOp::Insert(u, v) => format!("+{u},{v}"),
        EdgeOp::Delete(u, v) => format!("-{u},{v}"),
    }
}

/// The writer's sequence bookkeeping: which batch produced which epoch.
///
/// A single writer sends every batch with `seq=<epoch it advances from>`,
/// so acked epoch `e` is exactly the graph after batches `1..=e` — the
/// prefix the correctness checks replay.
#[derive(Clone, Debug, Default)]
pub struct SeqLog {
    batches: Vec<Vec<EdgeOp>>,
}

impl SeqLog {
    /// The last acked epoch, which is also the next batch's `seq` token.
    pub fn acked_epoch(&self) -> u64 {
        self.batches.len() as u64
    }

    /// The `UPDATE` line for `ops` on dataset `name`, tokened with
    /// [`SeqLog::acked_epoch`].
    pub fn update_line(&self, name: &str, ops: &[EdgeOp]) -> String {
        let mut line = format!("UPDATE {name} seq={}", self.acked_epoch());
        for &op in ops {
            line.push(' ');
            line.push_str(&op_token(op));
        }
        line
    }

    /// Records the daemon's ack of `ops`. The ack must advance exactly
    /// one epoch from the token and apply every op (each is
    /// state-changing by construction); otherwise returns the violation.
    pub fn ack(&mut self, reply: &str, ops: Vec<EdgeOp>) -> Result<u64, String> {
        let want = self.acked_epoch() + 1;
        let fields = reply_fields(reply);
        let epoch: Option<u64> = field(&fields, "epoch").and_then(|e| e.parse().ok());
        let applied: Option<usize> = field(&fields, "applied").and_then(|a| a.parse().ok());
        if !reply.starts_with("OK update") || epoch != Some(want) || applied != Some(ops.len()) {
            return Err(format!(
                "UPDATE seq={} of {} ops acked as {reply:?}; expected epoch={want} applied={}",
                want - 1,
                ops.len(),
                ops.len()
            ));
        }
        self.batches.push(ops);
        Ok(want)
    }

    /// Every op of the batches that produced epochs `1..=epoch`.
    pub fn ops_through(&self, epoch: u64) -> Vec<EdgeOp> {
        self.batches[..epoch as usize].concat()
    }

    /// The acked batches in epoch order.
    pub fn batches(&self) -> &[Vec<EdgeOp>] {
        &self.batches
    }
}

/// The `key=value` tokens of a reply line.
pub fn reply_fields(reply: &str) -> Vec<(&str, &str)> {
    reply
        .split_whitespace()
        .filter_map(|tok| tok.split_once('='))
        .collect()
}

/// The value of `key` among `fields`.
pub fn field<'a>(fields: &[(&'a str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}
