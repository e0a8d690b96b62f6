//! The four workloads and their seeded request sequences.
//!
//! Every request is a pure function of `(seed, workload, connection,
//! index)`; the update-mix summary is the one piece of state, and it
//! too is fixed by the requests before it on the same connection. The
//! closed loop and the `--trace` replay walk the same sequences.

use std::sync::Arc;

use andi_core::incremental::{apply_edits_to_summary, DeltaBatch, Edit};
use andi_data::{Analog, FrequencyGroups};
use andi_oracle::editscript::edit_to_line;
use andi_oracle::instance::{Instance, Regime};

/// Closed-loop client connections of the served workloads; one per
/// core of the 2-core machine the baselines were taken on.
pub const CLIENTS: usize = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AssessHot,
    AssessColdExact,
    AssessAnalog,
    UpdateMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AssessHot,
        Workload::AssessColdExact,
        Workload::AssessAnalog,
        Workload::UpdateMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AssessHot => "assess-hot",
            Workload::AssessColdExact => "assess-cold-exact",
            Workload::AssessAnalog => "assess-analog",
            Workload::UpdateMix => "update-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests the `--trace` replay runs after its warm-up, sized so each replay takes about a second.
    pub fn trace_ops(self, quick: bool) -> u64 {
        if quick {
            return 8;
        }
        match self {
            Workload::AssessHot => 4000,
            Workload::AssessColdExact => 200,
            Workload::AssessAnalog => 300,
            Workload::UpdateMix => 800,
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// SplitMix64 finalizer: the only randomness source of the sequences.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A random stream fixed by `(seed, workload, connection, index)`.
struct Draw(u64);

impl Draw {
    fn new(seed: u64, w: Workload, conn: usize, index: u64) -> Draw {
        Draw(splitmix64(
            seed ^ splitmix64((w.tag() << 56) ^ ((conn as u64) << 48) ^ index),
        ))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// An instance whose intervals contain every item's true frequency
/// (so the identity matching is consistent and the mapping space is
/// never empty), with up to 0.099 of slack on each side — the shape
/// of `andi_serve::load`'s pool.
fn truthful_instance(d: &mut Draw, n: usize, m: u64, label: String) -> Instance {
    let supports: Vec<u64> = (0..n).map(|_| d.range(1, m)).collect();
    slack_instance(d, supports, m, label)
}

fn slack_instance(d: &mut Draw, supports: Vec<u64>, m: u64, label: String) -> Instance {
    let intervals = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / m as f64;
            let slack = d.range(0, 99) as f64 / 1000.0;
            ((f - slack).max(0.0), (f + slack).min(1.0))
        })
        .collect();
    Instance {
        label,
        regime: Regime::PointCompliant,
        supports,
        m,
        intervals,
        mask: None,
    }
}

/// Size of the `assess-hot` instance pool.
const HOT_POOL: usize = 32;

/// What a response to a request must satisfy.
pub enum Expect {
    /// `POST /assess`: the ladder's answer for `instance`. Requests
    /// with equal `key` carry the same instance, so their bodies must
    /// be byte-identical; `sample` marks bodies the post-window check
    /// stores.
    Assess {
        instance: Arc<Instance>,
        key: u64,
        sample: bool,
    },
    /// `POST /update` applying `edits` edits; `key` is the update-mix
    /// cycle it starts.
    Update { edits: usize, key: u64 },
}

/// One HTTP request of a serve workload.
pub struct Request {
    pub path: &'static str,
    pub body: Arc<str>,
    pub expect: Expect,
}

impl Request {
    fn assess(instance: Arc<Instance>, key: u64, sample: bool) -> Request {
        Request {
            path: "/assess",
            body: Arc::from(instance.to_text()),
            expect: Expect::Assess {
                instance,
                key,
                sample,
            },
        }
    }
}

/// Inputs shared by every connection of a serve workload, built once
/// per set-up.
pub enum Inputs {
    /// The `assess-hot` pool.
    Hot(Vec<Arc<Instance>>),
    /// No shared inputs: every request is generated fresh.
    Cold,
    /// CHESS, MUSHROOM and CONNECT supports with their `m` and median
    /// frequency gap `δ_med`.
    Analog(Vec<(Vec<u64>, u64, f64)>),
    /// Each connection's starting summary.
    Update(Vec<(Vec<u64>, u64)>),
}

impl Inputs {
    pub fn new(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::AssessHot => Inputs::Hot(
                (0..HOT_POOL)
                    .map(|p| {
                        let mut d = Draw::new(seed, w, 0, p as u64);
                        let n = d.range(4, 8) as usize;
                        Arc::new(truthful_instance(&mut d, n, 40, format!("hot pool={p}")))
                    })
                    .collect(),
            ),
            Workload::AssessColdExact => Inputs::Cold,
            Workload::AssessAnalog => Inputs::Analog(
                [Analog::Chess, Analog::Mushroom, Analog::Connect]
                    .into_iter()
                    .map(|a| {
                        let supports = a.supports();
                        let m = a.spec().n_transactions;
                        let delta_med = FrequencyGroups::from_supports(&supports, m)
                            .median_gap()
                            .unwrap_or(0.0);
                        (supports, m, delta_med)
                    })
                    .collect(),
            ),
            Workload::UpdateMix => Inputs::Update(
                (0..CLIENTS)
                    .map(|c| {
                        let mut d = Draw::new(seed, w, c, u64::MAX);
                        let n = d.range(8, 12) as usize;
                        let m = 40;
                        ((0..n).map(|_| d.range(1, m)).collect(), m)
                    })
                    .collect(),
            ),
        }
    }
}

/// First index of the warm-up sequences; the window never reaches it,
/// so no warm-up request reappears in the window.
const WARMUP_INDEX: u64 = 1 << 40;

/// Warm-up requests of one connection, sent before the timed window:
/// each hot instance once, each analog database once, four of the
/// smallest cold instances (so the set-up time does not depend on the
/// sizes a seed draws), or one update cycle from a sequence of its own.
pub fn warmup(inputs: &Arc<Inputs>, seed: u64, conn: usize) -> Vec<Request> {
    match &**inputs {
        Inputs::Hot(pool) => (conn..HOT_POOL)
            .step_by(CLIENTS)
            .map(|p| Request::assess(Arc::clone(&pool[p]), p as u64, true))
            .collect(),
        Inputs::Analog(dbs) => (0..dbs.len())
            .map(|k| analog_request(dbs, k, 0.0, k as u64, false))
            .collect(),
        Inputs::Cold => (0..4)
            .map(|i| cold_request(seed, conn, WARMUP_INDEX + i, true))
            .collect(),
        Inputs::Update(_) => {
            let mut seq = Sequence::new(Arc::clone(inputs), seed, conn);
            seq.index = WARMUP_INDEX;
            (0..4).map(|_| seq.next_request()).collect()
        }
    }
}

/// A never-repeated truthful instance: n = 10 for warm-up, else n = 18
/// for one request in 50 and n uniform in 10..=17 otherwise. The 99th
/// percentile then falls near the median of the n = 18 requests rather
/// than in their tail, where a few slow requests move it from run to
/// run.
fn cold_request(seed: u64, conn: usize, index: u64, warmup: bool) -> Request {
    let mut d = Draw::new(seed, Workload::AssessColdExact, conn, index);
    let n = if warmup {
        10
    } else if d.next().is_multiple_of(50) {
        18
    } else {
        d.range(10, 17) as usize
    };
    let label = format!("cold conn={conn} index={index}");
    let instance = truthful_instance(&mut d, n, 1000, label);
    Request::assess(Arc::new(instance), index, index.is_multiple_of(8))
}

/// Widened compliant belief `[f - δ, f + δ]` over analog `k`.
fn analog_request(
    dbs: &[(Vec<u64>, u64, f64)],
    k: usize,
    widen: f64,
    key: u64,
    sample: bool,
) -> Request {
    let (supports, m, delta_med) = &dbs[k];
    let delta = delta_med * (1.0 + widen);
    let intervals = supports
        .iter()
        .map(|&s| {
            let f = s as f64 / *m as f64;
            ((f - delta).max(0.0), (f + delta).min(1.0))
        })
        .collect();
    let instance = Instance {
        label: format!("analog db={k}"),
        regime: Regime::AlphaCompliant,
        supports: supports.clone(),
        m: *m,
        intervals,
        mask: None,
    };
    Request::assess(Arc::new(instance), key, sample)
}

/// One connection's request sequence.
pub struct Sequence {
    inputs: Arc<Inputs>,
    seed: u64,
    conn: usize,
    index: u64,
    /// update-mix: the summary the next `/update` edits, and the
    /// instance the current cycle's `/assess` requests repeat.
    summary: Option<(Vec<u64>, u64)>,
    current: Option<Arc<Instance>>,
}

impl Sequence {
    pub fn new(inputs: Arc<Inputs>, seed: u64, conn: usize) -> Sequence {
        let summary = match &*inputs {
            Inputs::Update(summaries) => Some(summaries[conn].clone()),
            _ => None,
        };
        Sequence {
            inputs,
            seed,
            conn,
            index: 0,
            summary,
            current: None,
        }
    }

    /// The next request: index `i` of this connection.
    pub fn next_request(&mut self) -> Request {
        let i = self.index;
        self.index += 1;
        let inputs = Arc::clone(&self.inputs);
        match &*inputs {
            Inputs::Hot(pool) => {
                let pick = splitmix64(self.seed ^ ((self.conn as u64) << 48) ^ i);
                let p = (pick % HOT_POOL as u64) as usize;
                Request::assess(Arc::clone(&pool[p]), p as u64, true)
            }
            Inputs::Cold => cold_request(self.seed, self.conn, i, false),
            Inputs::Analog(dbs) => {
                let mut d = Draw::new(self.seed, Workload::AssessAnalog, self.conn, i);
                let k = (d.next() % dbs.len() as u64) as usize;
                analog_request(dbs, k, d.unit(), i, i.is_multiple_of(8))
            }
            Inputs::Update(_) => {
                let mut d = Draw::new(self.seed, Workload::UpdateMix, self.conn, i);
                self.update_step(&mut d, i)
            }
        }
    }

    /// update-mix cycle of four: an `/update`, then three `/assess`
    /// of one truthful instance over the edited summary (a miss on a
    /// warm scaffold, then two result-cache hits).
    fn update_step(&mut self, d: &mut Draw, i: u64) -> Request {
        let cycle = i / 4;
        if !i.is_multiple_of(4) {
            let instance = self.current.clone().expect("a cycle starts with an update");
            return Request::assess(instance, cycle, true);
        }
        let (supports, m) = self.summary.take().expect("update-mix keeps a summary");
        let batch = seeded_edits(d, &supports, m);
        let (edited, new_m) =
            apply_edits_to_summary(&supports, m, &batch).expect("seeded edits apply");
        let mut body = format!(
            "andi-serve update v1\nm: {m}\nsupports: {}\n",
            join(&supports)
        );
        for edit in &batch.edits {
            body.push_str(&edit_to_line(edit));
            body.push('\n');
        }
        let label = format!("update conn={} cycle={cycle}", self.conn);
        self.current = Some(Arc::new(slack_instance(d, edited.clone(), new_m, label)));
        self.summary = Some((edited, new_m));
        Request {
            path: "/update",
            body: Arc::from(body),
            expect: Expect::Update {
                edits: batch.len(),
                key: cycle,
            },
        }
    }
}

/// One to three insert/delete edits that apply to `(supports, m)`,
/// checked locally with `apply_edits_to_summary`. A delete that would
/// not apply is replaced by an insert of the same items, which always
/// applies.
fn seeded_edits(d: &mut Draw, supports: &[u64], m: u64) -> DeltaBatch {
    let n = supports.len();
    let mut edits: Vec<Edit> = Vec::new();
    let (mut cur, mut cur_m) = (supports.to_vec(), m);
    for _ in 0..d.range(1, 3) {
        let mut items: Vec<usize> = (0..n).filter(|_| d.next().is_multiple_of(2)).collect();
        if items.is_empty() {
            items.push((d.next() % n as u64) as usize);
        }
        let delete = Edit::Delete {
            items: items.clone(),
        };
        let edit = if d.next().is_multiple_of(2)
            && apply_edits_to_summary(&cur, cur_m, &DeltaBatch::new(vec![delete.clone()])).is_ok()
        {
            delete
        } else {
            Edit::Insert { items }
        };
        (cur, cur_m) = apply_edits_to_summary(&cur, cur_m, &DeltaBatch::new(vec![edit.clone()]))
            .expect("an insert always applies");
        edits.push(edit);
    }
    DeltaBatch::new(edits)
}

fn join(values: &[u64]) -> String {
    let words: Vec<String> = values.iter().map(u64::to_string).collect();
    words.join(" ")
}
