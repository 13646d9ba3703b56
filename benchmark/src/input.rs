//! Everything the engine is fed, as a pure function of `--seed`: the
//! graph config, op texts, Zipf key choice and arrival schedules.
//!
//! The graph itself comes from `ssd_workload::gen`, which lives outside
//! this directory; [`check_fingerprint`] pins its output for the seeds
//! the README quotes numbers for, so a drift there fails the run instead
//! of silently changing the inputs.

use ssd_serve::JobKind;
use ssd_store::{Op as TxnOp, Txn};
use ssd_workload::gen::{self, GenConfig, SplitMix64, Zipf};

/// Edge count of the generated graph (≈94k nodes, 6.2k movies).
pub const SCALE: u64 = 100_000;
/// `--quick` scale.
pub const QUICK_SCALE: u64 = 10_000;

/// `(scale, seed, gen::fingerprint)` for the seeds `--repeat-check` uses.
const PINNED: [(u64, u64, u64); 2] = [
    (SCALE, 42, 0xd321_bfc5_ef56_eb48),
    (SCALE, 7, 0xf2db_4086_419a_27be),
];

/// Fail when `gen.rs` no longer produces the pinned stream. Seeds with
/// no pin pass: the driver picks its own.
pub fn check_fingerprint(cfg: &GenConfig) -> Result<u64, String> {
    let fp = gen::fingerprint(cfg);
    match PINNED
        .iter()
        .find(|(scale, seed, _)| *scale == cfg.scale && *seed == cfg.seed)
    {
        Some((_, _, want)) if *want != fp => Err(format!(
            "graph fingerprint {fp:#018x} for scale {} seed {} differs from the pinned {want:#018x}: \
             ssd_workload::gen changed, so numbers are not comparable with earlier runs",
            cfg.scale, cfg.seed
        )),
        _ => Ok(fp),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointRead,
    ScanJoin,
    Closure,
    WriteMix,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::PointRead,
    Workload::ScanJoin,
    Workload::Closure,
    Workload::WriteMix,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point_read",
            Workload::ScanJoin => "scan_join",
            Workload::Closure => "closure",
            Workload::WriteMix => "write_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Open-loop arrival rate in ops/s and the latency limit per op
    /// class; `None` for the workloads that are closed loops throughout.
    pub fn open_loop(self) -> Option<OpenLoop> {
        match self {
            Workload::PointRead => Some(OpenLoop {
                rate: 60.0,
                read_limit_ms: 100.0,
                commit_limit_ms: 0.0,
            }),
            // 48 reads/s + 1 commit/s: one op in `OPEN_COMMIT_EVERY` is a
            // commit.
            Workload::WriteMix => Some(OpenLoop {
                rate: 49.0,
                read_limit_ms: 150.0,
                commit_limit_ms: 250.0,
            }),
            Workload::ScanJoin | Workload::Closure => None,
        }
    }

    /// The op classes this workload issues, one of each shape.
    pub fn classes(self) -> &'static [Class] {
        match self {
            Workload::PointRead => &[Class::Sigma, Class::Fetch],
            Workload::ScanJoin => &[Class::Join, Class::Rpe3, Class::Wild, Class::Star],
            Workload::Closure => &[Class::Closure, Class::Reach],
            Workload::WriteMix => &[Class::Sigma, Class::Recent, Class::Commit],
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub rate: f64,
    pub read_limit_ms: f64,
    pub commit_limit_ms: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// σ title lookup (interpreter path today: the cost model keeps it).
    Sigma,
    /// One movie's year and director by title (batched path).
    Fetch,
    /// 3-binding join over every movie (batched path).
    Join,
    /// `Entry.Movie.Title` as an RPE job.
    Rpe3,
    /// Wildcard path `Entry.%.Title` (SSD050 fallback).
    Wild,
    /// Kleene star over `References` (SSD050 fallback).
    Star,
    /// Datalog transitive closure over `References`.
    Closure,
    /// Datalog reachability from the root.
    Reach,
    /// The `BenchW.Run` subtrees the write txns leave behind.
    Recent,
    /// One `INSERT` (every 8th also `DELETE BenchW`) … `COMMIT` txn.
    Commit,
}

pub const CLASSES: [Class; 10] = [
    Class::Sigma,
    Class::Fetch,
    Class::Join,
    Class::Rpe3,
    Class::Wild,
    Class::Star,
    Class::Closure,
    Class::Reach,
    Class::Recent,
    Class::Commit,
];

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Sigma => "sigma",
            Class::Fetch => "fetch",
            Class::Join => "join",
            Class::Rpe3 => "rpe3",
            Class::Wild => "wild",
            Class::Star => "star",
            Class::Closure => "closure",
            Class::Reach => "reach",
            Class::Recent => "recent",
            Class::Commit => "commit",
        }
    }

    pub fn kind(self) -> JobKind {
        match self {
            Class::Rpe3 => JobKind::Rpe,
            Class::Closure | Class::Reach => JobKind::Datalog,
            Class::Commit => JobKind::Commit,
            _ => JobKind::Query,
        }
    }

    pub fn is_select(self) -> bool {
        matches!(self.kind(), JobKind::Query | JobKind::Rpe)
    }
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct Op {
    pub class: Class,
    /// The movie a σ/fetch targets, or a commit's `Seq`.
    pub key: u64,
    /// The job text as `SessionHandle::submit` takes it (for a commit,
    /// the txn script).
    pub text: String,
}

impl Op {
    /// The wire frames that issue this op, in order. Only the last one
    /// starts a job; a commit's earlier frames stage its mutations.
    pub fn frames(&self) -> Vec<String> {
        match self.class.kind() {
            JobKind::Rpe => vec![format!("RPE {}", self.text)],
            JobKind::Datalog => vec![format!("DATALOG {}", self.text)],
            JobKind::Commit => {
                let mut frames: Vec<String> = self
                    .txn()
                    .ops()
                    .iter()
                    .map(|op| match op {
                        TxnOp::Insert(body) => format!("INSERT {body}"),
                        TxnOp::Delete(label) => format!("DELETE {label}"),
                    })
                    .collect();
                frames.push("COMMIT".to_string());
                frames
            }
            _ => vec![format!("QUERY {}", self.text)],
        }
    }

    pub fn txn(&self) -> Txn {
        Txn::parse_script(&self.text).expect("generated txn script parses")
    }
}

/// `write_mix` issues one commit in this many ops. The closed loop runs
/// the issue's six reads to a commit. The open loop runs 48 to one (one
/// commit a second): a read is slow when it finds both workers busy with
/// a commit (≈ 85 ms) or with the cold statistics of the generation one
/// has just published (≈ 30 ms). At 6:1 a sixth of the reads are, the p90
/// sits on the knee between the fast and the slow group and its quartile
/// spread over ten seeds was 0.21; at 24:1 it was 0.11, and 0.33 while
/// the host was busy; at 48:1 the p90 sits inside the fast group (0.03)
/// and the slow group shows in `within_limit_frac` and the tail.
pub const CLOSED_COMMIT_EVERY: u64 = 7;
pub const OPEN_COMMIT_EVERY: u64 = 49;

pub struct Inputs {
    pub cfg: GenConfig,
    pub workload: Workload,
    /// One op in this many of `write_mix`'s sequence is a commit.
    pub commit_every: u64,
    zipf: Zipf,
    /// Popularity rank → movie, so the hot titles are spread over the
    /// graph instead of being its first entries.
    rank_to_movie: Vec<u64>,
}

const CLOSURE: &str = "reach(X, Y) :- edge(X, 'References', Y).\n\
                       reach(X, Z) :- reach(X, Y), edge(Y, 'References', Z).";
const REACH: &str = "reach(X) :- root(X).\n\
                     reach(Y) :- reach(X), edge(X, _L, Y).";

impl Inputs {
    pub fn new(workload: Workload, scale: u64, seed: u64) -> Inputs {
        let cfg = GenConfig::new(scale, seed);
        let movies = cfg.movies();
        let mut rank_to_movie: Vec<u64> = (0..movies).collect();
        let mut rng = SplitMix64::new(seed ^ 0x7a69_7066_6b65_7973);
        for i in (1..rank_to_movie.len()).rev() {
            rank_to_movie.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Inputs {
            zipf: Zipf::new(movies, 1.0),
            rank_to_movie,
            workload,
            commit_every: CLOSED_COMMIT_EVERY,
            cfg,
        }
    }

    /// The movie op `i` draws: Zipf(1.0) over the shuffled movies.
    pub fn zipf_movie(&self, i: u64) -> u64 {
        let mut rng = SplitMix64::new(self.cfg.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.rank_to_movie[self.zipf.sample(&mut rng) as usize]
    }

    /// Op `i` of the workload's sequence: a pure function of the seed.
    pub fn op(&self, i: u64) -> Op {
        match self.workload {
            Workload::PointRead => {
                let class = if i % 4 == 3 {
                    Class::Fetch
                } else {
                    Class::Sigma
                };
                self.make(class, self.zipf_movie(i))
            }
            Workload::ScanJoin => self.make(Workload::ScanJoin.classes()[(i % 4) as usize], 0),
            // Two closures to one reachability, so the median sits inside
            // the closure cluster and p90 inside the reachability one.
            Workload::Closure => self.make(
                if i % 3 == 2 {
                    Class::Reach
                } else {
                    Class::Closure
                },
                0,
            ),
            Workload::WriteMix => {
                let every = self.commit_every;
                if i % every == every - 1 {
                    return self.make(Class::Commit, i / every);
                }
                let read = i - i / every;
                if read % 8 == 7 {
                    self.make(Class::Recent, 0)
                } else {
                    self.make(Class::Sigma, self.zipf_movie(i))
                }
            }
        }
    }

    /// An op of `class`; `key` is the movie or the commit `Seq`.
    pub fn make(&self, class: Class, key: u64) -> Op {
        let title = || self.cfg.title_of(key);
        let text = match class {
            Class::Sigma => format!("select X from db.Entry.Movie.Title.\"{}\" X", title()),
            Class::Fetch => format!(
                "select {{y: Y, d: D}} from db.Entry.Movie M, M.Title.\"{}\" X, M.Year Y, M.Director D",
                title()
            ),
            Class::Join => "select {t: T, d: D} from db.Entry.Movie M, M.Title T, M.Director D \
                            where exists M.Cast"
                .to_string(),
            Class::Rpe3 => "Entry.Movie.Title".to_string(),
            Class::Wild => "select X from db.Entry.%.Title X".to_string(),
            Class::Star => "select X from db.Entry.References*.Movie.Title X".to_string(),
            Class::Closure => CLOSURE.to_string(),
            Class::Reach => REACH.to_string(),
            Class::Recent => "select {r: R} from db.BenchW.Run R".to_string(),
            Class::Commit => {
                let mut txn = Txn::new().insert(&format!(
                    "{{BenchW: {{Run: {{Seq: {key}, Tag: \"{}\"}}}}}}",
                    self.tag()
                ));
                if key % 8 == 7 {
                    // Clear the accumulated subtrees so the graph does
                    // not drift over the run.
                    txn = txn.delete("BenchW");
                }
                txn.to_script()
            }
        };
        Op { class, key, text }
    }

    pub fn tag(&self) -> String {
        format!("w{}", self.cfg.seed)
    }

    /// One op of each shape the workload issues: the warm-up set. The
    /// commit among them deletes what it inserts.
    pub fn shapes(&self) -> Vec<Op> {
        self.workload
            .classes()
            .iter()
            .map(|&class| match class {
                Class::Commit => self.make(class, WARMUP_SEQ),
                _ => self.make(class, self.rank_to_movie[0]),
            })
            .collect()
    }

    /// Poisson arrivals at `rate` ops/s over `secs` seconds, as due times
    /// in nanoseconds from the phase start.
    pub fn schedule(&self, rate: f64, secs: f64) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.cfg.seed ^ 0x6172_7269_7661_6c73);
        let mut due = Vec::new();
        let mut t = 0.0f64;
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= secs {
                return due;
            }
            due.push((t * 1e9) as u64);
        }
    }
}

/// `Seq` of the warm-up txn: ≡ 7 mod 8, so it carries the `DELETE`.
pub const WARMUP_SEQ: u64 = (1 << 40) + 7;
