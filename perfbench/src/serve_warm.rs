//! `serve_warm`: a request stream against one shared schedule cache in
//! front of an RMCA pipeline, from closed-loop callers.
//!
//! A pool of loops is solved during set-up. Most requests are relabelled
//! isomorphs of pool loops (cache reads). Popularity has two tiers, both
//! drawn from the run's seed: a hot tier that fits the cache and a cold
//! tier that does not. The cache holds fewer entries than the pool, so
//! cold requests and a fixed share of new loops miss, are solved and
//! inserted, and evict (cache writes).

use crate::common::{
    closed_loop, fingerprint, schedule_fingerprint, timed_setup, timing_metrics, Config, Load,
    Outcome, NO_INPUT,
};
use crate::compile_suite::generated;
use crate::relabel::{relabel, shuffled};
use multivliw::core::validate_schedule;
use multivliw::exec::Executor;
use multivliw::ir::mii::minimum_ii;
use multivliw::ir::Loop;
use multivliw::machine::{presets, MachineConfig};
use multivliw::pipeline::{Pipeline, PipelineScheduleCache, SchedulerChoice};
use multivliw::workloads::generator::GeneratorConfig;
use multivliw::workloads::rng::SplitMix64;
use multivliw::workloads::suite::{suite, SuiteParams};
use multivliw::LoopReport;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Seed of the generated pool loops (the pool is the same in every run).
const POOL_SEED: u64 = 0x5e7e_c0de;
/// Generated loops in the pool, next to the eight suite loops.
const POOL_GENERATED: usize = 120;
/// Pool loops in the cold tier (the rest are hot).
const COLD: usize = 40;
/// Relabelled isomorphs prepared per pool loop.
const VARIANTS: usize = 4;
/// Requests per pass.
pub(crate) const REQUESTS: usize = 8000;
/// Every `NEW_EVERY`-th request is a new loop.
const NEW_EVERY: usize = 2000;
/// Share of requests drawn from the cold tier.
const COLD_SHARE: f64 = 0.00025;
/// Zipf exponent of popularity inside the hot tier.
const HOT_SKEW: f64 = 0.5;
/// Distance between the array bases of successive new loops: a multiple of
/// every cache size, so a new loop maps to the same cache sets as the pool
/// loop it copies and costs the same to solve.
const NEW_BASE_STRIDE: u64 = 1 << 24;
/// Cache slots per shard beyond the fullest shard's hot loops.
const HEADROOM: usize = 4;
/// Cache shards are sized for this many participants.
const SHARD_THREADS: usize = 1;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ask {
    /// Variant `variant` of pool loop `pool`.
    Pool { pool: usize, variant: usize },
    /// New loop `k` of the current pass.
    New { k: usize },
}

impl Ask {
    fn pack(self) -> u64 {
        match self {
            Ask::Pool { pool, variant } => ((pool as u64) << 8) | variant as u64,
            Ask::New { k } => (1 << 63) | k as u64,
        }
    }

    fn unpack(w: u64) -> Ask {
        if w >> 63 == 1 {
            Ask::New {
                k: (w & !(1 << 63)) as usize,
            }
        } else {
            Ask::Pool {
                pool: (w >> 8) as usize,
                variant: (w & 0xff) as usize,
            }
        }
    }
}

/// The op-id-free part of a report: what a cache hit must reproduce from
/// the solve that filled the entry.
fn summary(r: &LoopReport) -> u64 {
    let s = &r.stats;
    fingerprint([
        u64::from(r.ii),
        u64::from(r.stage_count),
        r.communications as u64,
        r.miss_scheduled_loads as u64,
        s.compute_cycles,
        s.stall_cycles,
        s.iterations,
        s.executions,
        s.memory.accesses,
        s.memory.local_hits,
        s.memory.bus_wait_cycles,
    ])
}

/// Everything the workload builds before timing.
pub struct Setup {
    /// The machine.
    pub machine: Arc<MachineConfig>,
    /// The cached RMCA pipeline requests go through.
    pub pipeline: Pipeline,
    /// An RMCA pipeline without a cache, for reference solves.
    pub uncached: Pipeline,
    /// The shared cache.
    pub cache: Arc<PipelineScheduleCache>,
    /// Pool loops: the hot tier first, then the cold tier.
    pub pool: Vec<Loop>,
    /// `variants[p][v]`: relabelled isomorph `v` of pool loop `p`.
    pub variants: Vec<Vec<Loop>>,
    /// Set-up reports of the pool loops.
    pub solved: Vec<LoopReport>,
    /// MII of each pool loop.
    pub mii: Vec<u32>,
    /// Cumulative popularity of the hot tier.
    hot_cdf: Vec<f64>,
    seed: u64,
    stream: Vec<AtomicU64>,
    new_loops: RwLock<Vec<(usize, Loop)>>,
}

/// The pool: suite loops and generated loops, in a fixed shuffled order
/// whose tail is the cold tier.
pub fn pool(machine: &Arc<MachineConfig>) -> Vec<Loop> {
    let mut loops: Vec<Loop> = suite(&SuiteParams::default())
        .into_iter()
        .flat_map(|w| w.loops)
        .collect();
    loops.extend(generated(
        POOL_SEED,
        POOL_GENERATED,
        GeneratorConfig::default().max_ops,
        std::slice::from_ref(machine),
    ));
    let order = shuffled(loops.len(), &mut SplitMix64::seed_from_u64(POOL_SEED));
    order.into_iter().map(|i| loops[i].clone()).collect()
}

/// Builds the pool, solves it into a fresh cache and prepares the
/// relabelled isomorphs.
pub fn setup(seed: u64) -> Setup {
    let machine = Arc::new(presets::two_cluster());
    let pool = pool(&machine);
    let executor = Arc::new(Executor::new(1));
    let build = |cache: Option<&Arc<PipelineScheduleCache>>| {
        let mut b = Pipeline::builder()
            .scheduler(SchedulerChoice::Rmca)
            .machine(Arc::clone(&machine))
            .executor(Arc::clone(&executor))
            .trace(false);
        if let Some(c) = cache {
            b = b.schedule_cache(Arc::clone(c));
        }
        b.build().expect("the 2-cluster preset is valid")
    };
    let uncached = build(None);

    // Size the cache so the fullest shard holds its hot loops with some
    // headroom; the cold tier then competes for the rest.
    let hot = pool.len() - COLD;
    let probe = PipelineScheduleCache::with_capacity_and_shards(1, SHARD_THREADS);
    let shards = probe.stats().shards;
    let mut per_shard = vec![0usize; shards];
    for l in &pool[..hot] {
        per_shard[(uncached.cache_key(l).lo as usize) & (shards - 1)] += 1;
    }
    let capacity = shards * (per_shard.iter().max().copied().unwrap_or(0) + HEADROOM);
    assert!(
        capacity < pool.len(),
        "the cache must hold fewer loops than the pool"
    );
    let cache = Arc::new(PipelineScheduleCache::with_capacity_and_shards(
        capacity,
        SHARD_THREADS,
    ));
    let pipeline = build(Some(&cache));

    // The cold tier goes in first, so the hot tier is the most recently
    // used when the cache starts evicting.
    let mut solved: Vec<LoopReport> = pool
        .iter()
        .rev()
        .map(|l| pipeline.run(l).expect("pool loops are schedulable"))
        .collect();
    solved.reverse();
    let mut rng = SplitMix64::seed_from_u64(seed);
    // Variant 0 keeps the operation order and renames only; the others are
    // inserted in a random order. Cold requests, which miss, use variant 0:
    // the generator only guarantees that a pool loop's own operation order
    // is schedulable.
    let variants = pool
        .iter()
        .enumerate()
        .map(|(p, l)| {
            (0..VARIANTS)
                .map(|v| {
                    let order = if v == 0 {
                        (0..l.num_ops()).collect()
                    } else {
                        shuffled(l.num_ops(), &mut rng)
                    };
                    relabel(l, format!("pool{p}_v{v}"), &order, 0)
                })
                .collect()
        })
        .collect();
    let weights: Vec<f64> = (1..=hot).map(|k| (k as f64).powf(-HOT_SKEW)).collect();
    let total: f64 = weights.iter().sum();
    let hot_cdf = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mii = pool.iter().map(|l| minimum_ii(l, &machine)).collect();
    Setup {
        machine,
        pipeline,
        uncached,
        cache,
        pool,
        variants,
        solved,
        mii,
        hot_cdf,
        seed,
        stream: (0..REQUESTS).map(|_| AtomicU64::new(0)).collect(),
        new_loops: RwLock::new(Vec::new()),
    }
}

impl Setup {
    /// Draws the requests of `pass` and builds its new loops.
    pub(crate) fn prepare(&self, pass: usize) {
        let mut rng = SplitMix64::seed_from_u64(
            self.seed ^ (pass as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let hot = self.hot_cdf.len();
        let mut fresh = Vec::new();
        for (i, slot) in self.stream.iter().enumerate() {
            let ask = if i % NEW_EVERY == NEW_EVERY / 2 {
                let p = rng.gen_index(self.pool.len());
                let serial = (pass * (REQUESTS / NEW_EVERY) + fresh.len() + 1) as u64;
                let l = &self.pool[p];
                let order: Vec<usize> = (0..l.num_ops()).collect();
                fresh.push((
                    p,
                    relabel(l, format!("new{serial}"), &order, serial * NEW_BASE_STRIDE),
                ));
                Ask::New { k: fresh.len() - 1 }
            } else {
                if rng.next_f64() < COLD_SHARE {
                    Ask::Pool {
                        pool: hot + rng.gen_index(COLD),
                        variant: 0,
                    }
                } else {
                    let x = rng.next_f64();
                    Ask::Pool {
                        pool: self.hot_cdf.partition_point(|&c| c < x).min(hot - 1),
                        variant: rng.gen_index(VARIANTS),
                    }
                }
            };
            slot.store(ask.pack(), Ordering::Relaxed);
        }
        *self
            .new_loops
            .write()
            .expect("no request panics holding the lock") = fresh;
    }

    pub(crate) fn ask(&self, i: usize) -> Ask {
        Ask::unpack(self.stream[i].load(Ordering::Relaxed))
    }

    /// Serves request `i` of the current pass.
    pub(crate) fn serve(&self, i: usize) -> Option<LoopReport> {
        match self.ask(i) {
            Ask::Pool { pool, variant } => self.pipeline.run(&self.variants[pool][variant]).ok(),
            Ask::New { k } => {
                let new = self
                    .new_loops
                    .read()
                    .expect("no request panics holding the lock");
                self.pipeline.run(&new[k].1).ok()
            }
        }
    }
}

/// Checks served outputs: every schedule is validated against the loop it
/// answers (once per distinct schedule of a pool request), and every report
/// must equal, on its op-id-free part, an uncached solve of a loop with the
/// same cache key — the pool original, or a relabelled isomorph that
/// refilled the entry after an eviction.
#[derive(Default)]
struct Checker {
    valid: HashSet<(usize, usize, u64)>,
    uncached: HashMap<(usize, usize), u64>,
}

fn legal(l: &Loop, s: &Setup, r: &LoopReport) -> bool {
    r.ii >= minimum_ii(l, &s.machine) && validate_schedule(l, &s.machine, &r.schedule).is_empty()
}

impl Checker {
    fn check(&mut self, s: &Setup, ask: Ask, out: Option<&LoopReport>) -> bool {
        let Some(r) = out else {
            return false;
        };
        match ask {
            Ask::Pool { pool, variant } => {
                let key = (pool, variant, schedule_fingerprint(&r.schedule));
                if !self.valid.contains(&key) {
                    if !legal(&s.variants[pool][variant], s, r) {
                        return false;
                    }
                    self.valid.insert(key);
                }
                let got = summary(r);
                got == summary(&s.solved[pool])
                    || (0..VARIANTS).any(|v| {
                        *self.uncached.entry((pool, v)).or_insert_with(|| {
                            s.uncached
                                .run(&s.variants[pool][v])
                                .map_or(0, |u| summary(&u))
                        }) == got
                    })
            }
            Ask::New { k } => {
                let new = s
                    .new_loops
                    .read()
                    .expect("no request panics holding the lock");
                let (p, l) = &new[k];
                legal(l, s, r)
                    && (summary(r) == summary(&s.solved[*p])
                        || s.uncached.run(l).is_ok_and(|u| summary(&u) == summary(r)))
            }
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let (setup_s, s) = timed_setup(cfg.setup_reps, || setup(cfg.seed));
    let load = Load {
        callers: cfg.threads,
        requests: REQUESTS,
        seconds: cfg.seconds,
        min_passes: cfg.min_passes,
        seed: cfg.seed,
    };
    let mut checker = Checker::default();
    let mut out = Outcome::default();

    // Warm-up pass, checked and counted like the timed ones.
    let warm = Load {
        seconds: 0.0,
        min_passes: 1,
        ..load
    };
    closed_loop(
        &warm,
        0,
        |_, _| NO_INPUT,
        |_, i| s.serve(i),
        |_| s.prepare(0),
        |_, outputs| {
            for (i, o) in outputs.iter().enumerate() {
                out.verdict.failed += u64::from(!checker.check(&s, s.ask(i), o.as_ref()));
            }
        },
    );

    let stats0 = s.cache.stats();
    let timed = closed_loop(
        &load,
        s.pool.len(),
        // Per-input medians cover the hot tier, whose requests all hit; a
        // cold loop hits or misses depending on eviction order, so its
        // median is not a property of the loop.
        |_, i| match s.ask(i) {
            Ask::Pool { pool, .. } if pool < s.hot_cdf.len() => pool,
            _ => NO_INPUT,
        },
        |_, i| s.serve(i),
        |pass| s.prepare(pass + 1),
        |_, outputs| {
            for (i, o) in outputs.iter().enumerate() {
                out.verdict.failed += u64::from(!checker.check(&s, s.ask(i), o.as_ref()));
            }
        },
    );
    let stats1 = s.cache.stats();
    out.verdict.attempted = timed.completed + REQUESTS as u64;

    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    timing_metrics(m, &timed, REQUESTS);
    let n = s.pool.len() as f64;
    let cycles: u64 = s.solved.iter().map(LoopReport::total_cycles).sum();
    let ratio: f64 = s
        .solved
        .iter()
        .zip(&s.mii)
        .map(|(r, &mii)| f64::from(r.ii) / f64::from(mii.max(1)))
        .sum();
    let at_mii = s
        .solved
        .iter()
        .zip(&s.mii)
        .filter(|(r, &mii)| r.ii == mii)
        .count();
    m.put("sim_cycles", cycles as f64, "cycles");
    m.put("ii_over_mii", ratio / n, "ratio");
    m.put("decided_share", at_mii as f64 / n, "share");
    m.put("success_share", out.verdict.success_share(), "share");
    let lookups = (stats1.hits + stats1.misses) - (stats0.hits + stats0.misses);
    out.extra.put(
        "hit_share",
        (stats1.hits - stats0.hits) as f64 / lookups.max(1) as f64,
        "share",
    );
    out.extra.put(
        "evictions",
        (stats1.evictions - stats0.evictions) as f64,
        "count",
    );
    out
}
