//! The traced run's per-layer measurements.
//!
//! Spans are recorded by the benchmark itself, around each call into a
//! layer, into an in-memory buffer; the program's own `mvp_trace` events of
//! the traced replay are drained next to them. Both are written out as one
//! chrome-trace file when the run ends, and summarised as a table of each
//! span name's count, total and self time.

use crate::common::{median, Metrics};
use crate::exact_oracle::{expected, Triple};
use multivliw::cache::LocalityAnalysis;
use multivliw::core::{validate_schedule, Schedule, SchedulerOptions};
use multivliw::exact::{solve_with, ExactBackend, ExactOptions};
use multivliw::exec::Executor;
use multivliw::ir::mii::minimum_ii;
use multivliw::ir::Loop;
use multivliw::machine::MachineConfig;
use multivliw::pipeline::{Pipeline, SchedulerChoice};
use multivliw::resmodel::{PartialSchedule, ResModel};
use multivliw::schedcache::{canonicalize, ScheduleCache};
use multivliw::sim::{simulate, SimOptions};
use multivliw::workloads::rng::SplitMix64;
use mvp_sat::{Lit, SolveResult, Solver};
use mvp_trace::{CounterClass, EventKind};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    /// Span name.
    pub name: &'static str,
    /// Recording thread (benchmark spans use 0).
    pub tid: u32,
    /// Start, in nanoseconds since the buffer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the buffer's epoch.
    pub end_ns: u64,
}

/// The benchmark's in-memory span buffer.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    trace_epoch_ns: u64,
    /// Closed spans in closing order.
    pub recs: Vec<Rec>,
}

impl Spans {
    /// An empty buffer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            trace_epoch_ns: mvp_trace::now_ns(),
            recs: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// duration in nanoseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.recs.push(Rec {
            name,
            tid: 0,
            start_ns,
            end_ns,
        });
        (out, end_ns - start_ns)
    }

    /// Adds the program's drained `mvp_trace` events, pairing begin and end
    /// events per thread. Program threads are numbered from 1.
    pub fn add_program_events(&mut self, events: &[mvp_trace::Event]) {
        let base = self.trace_epoch_ns;
        let mut open: BTreeMap<u32, Vec<(&'static str, u64)>> = BTreeMap::new();
        for e in events {
            let tid = e.tid + 1;
            match e.kind {
                EventKind::Begin => open.entry(tid).or_default().push((e.name, e.ts_ns)),
                EventKind::End => {
                    if let Some((name, start)) = open.entry(tid).or_default().pop() {
                        self.recs.push(Rec {
                            name,
                            tid,
                            start_ns: start.saturating_sub(base),
                            end_ns: e.ts_ns.saturating_sub(base),
                        });
                    }
                }
                EventKind::Instant => {}
            }
        }
    }

    /// Each span name's count, total and self time (total minus the time
    /// its child spans on the same thread cover), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut recs = self.recs.clone();
        recs.sort_by_key(|r| (r.tid, r.start_ns, std::cmp::Reverse(r.end_ns)));
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        let mut child_ns = vec![0u64; recs.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if recs[top].tid == r.tid && r.start_ns < recs[top].end_ns {
                    break;
                }
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_ns[parent] += r.end_ns - r.start_ns;
            }
            stack.push(i);
        }
        for (r, child) in recs.iter().zip(child_ns) {
            let e = table.entry(r.name).or_default();
            let dur = r.end_ns - r.start_ns;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child);
        }
        table
    }

    /// Writes the spans as a chrome-trace JSON file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"traceEvents\": [")?;
        for (i, r) in self.recs.iter().enumerate() {
            let sep = if i + 1 == self.recs.len() { "" } else { "," };
            writeln!(
                f,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}{sep}",
                r.name,
                r.tid,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mean(total: f64, n: usize) -> f64 {
    total / n.max(1) as f64
}

/// Heuristic-engine, CME, kernel, validator and simulator layers, measured
/// on `inputs` (loop, machine) pairs.
pub fn heuristic_layers(
    inputs: &[(&Loop, &MachineConfig)],
    spans: &mut Spans,
    m: &mut Metrics,
) -> bool {
    let options = SchedulerOptions::new();
    let rmca = SchedulerChoice::Rmca.build(options);
    let baseline = SchedulerChoice::Baseline.build(options);
    let sim = SimOptions::new();
    let (mut rmca_ns, mut base_ns, mut validate_ns, mut sim_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut attempts, mut cycles) = (0u64, 0u64);
    let (mut cme_calls, mut cme_ns) = (0u64, 0u64);
    let (mut kernel_calls, mut kernel_ns) = (0u64, 0u64);
    let mut ok = true;
    for &(l, machine) in inputs {
        let (r, t) = spans.time("core.rmca.schedule", || rmca.schedule(l, machine));
        rmca_ns += t;
        let (b, t) = spans.time("core.baseline.schedule", || baseline.schedule(l, machine));
        base_ns += t;
        // A heuristic may legitimately exhaust its II search; only what it
        // does produce is checked.
        let (Ok(r), Ok(_)) = (r, b) else {
            continue;
        };
        attempts += u64::from(r.ii() - minimum_ii(l, machine) + 1);
        let (violations, t) = spans.time("core.validate", || validate_schedule(l, machine, &r));
        validate_ns += t;
        ok &= violations.is_empty();
        let (stats, t) = spans.time("sim.simulate", || simulate(l, &r, machine, &sim));
        sim_ns += t;
        cycles += stats.total_cycles();
        let (calls, t) = spans.time("cache.cme.replay", || cme_replay(l, machine, &r, &options));
        cme_calls += calls;
        cme_ns += t;
        let (calls, t) = spans.time("resmodel.replay", || kernel_replay(l, machine, &r));
        kernel_calls += calls;
        kernel_ns += t;
    }
    let n = inputs.len();
    m.put("core.rmca.schedule_ms", mean(ms(rmca_ns), n), "ms");
    m.put("core.baseline.schedule_ms", mean(ms(base_ns), n), "ms");
    m.put("core.ii_attempts", mean(attempts as f64, n), "count");
    m.put("core.validate_ms", mean(ms(validate_ns), n), "ms");
    m.put("sim.simulate_ms", mean(ms(sim_ns), n), "ms");
    m.put(
        "sim.cycles_per_s",
        cycles as f64 / (sim_ns as f64 / 1e9),
        "1/s",
    );
    m.put("cache.cme.calls", cme_calls as f64, "count");
    m.put(
        "cache.cme.added_misses_us",
        cme_ns as f64 / 1e3 / cme_calls.max(1) as f64,
        "us",
    );
    m.put(
        "resmodel.place_unplace_ns",
        kernel_ns as f64 / kernel_calls.max(1) as f64,
        "ns",
    );
    ok
}

/// Replays the cluster-choice queries RMCA makes for a final schedule:
/// memory operations in id order, each asking every cluster how many misses
/// it would add to the memory operations already assigned there. Returns
/// the number of `added_misses` calls.
fn cme_replay(l: &Loop, machine: &MachineConfig, s: &Schedule, options: &SchedulerOptions) -> u64 {
    let analysis = LocalityAnalysis::with_window(l, options.locality_window);
    let mut assigned: Vec<Vec<_>> = vec![Vec::new(); machine.num_clusters()];
    let mut calls = 0;
    for op in l.memory_ops() {
        for (c, companions) in assigned.iter().enumerate() {
            std::hint::black_box(analysis.added_misses(machine.cluster(c).cache, op, companions));
            calls += 1;
        }
        assigned[s.placement(op).cluster].push(op);
    }
    calls
}

/// Places a final schedule's operations into the constraint kernel in
/// issue order and unplaces them again, several times. Returns the number
/// of `place` plus `unplace` calls.
fn kernel_replay(l: &Loop, machine: &MachineConfig, s: &Schedule) -> u64 {
    const REPS: usize = 5;
    let Ok(model) = ResModel::new(l, machine) else {
        return 0;
    };
    let mut order: Vec<_> = s.ops().to_vec();
    order.sort_by_key(|p| (p.cycle, p.op.index()));
    let mut calls = 0;
    for _ in 0..REPS {
        let mut ps = PartialSchedule::new(&model, s.ii());
        let mut handles = Vec::with_capacity(order.len());
        for p in &order {
            calls += 1;
            if let Ok(h) = ps.place(
                p.op,
                p.cluster,
                i64::from(p.cycle),
                p.assumed_latency,
                p.miss_scheduled,
                p.op.raw(),
            ) {
                handles.push(h);
            }
        }
        for h in handles.into_iter().rev() {
            calls += 1;
            ps.unplace(h);
        }
        std::hint::black_box(&ps);
    }
    calls
}

/// The exact-search layer: portfolio solves of `points` on an executor of
/// `threads` threads, one at a time. Returns whether every solve found a
/// legal schedule whose verdict agrees with the expected-verdict file
/// (for the points the file lists).
pub fn exact_layer(
    points: &[(&Loop, &Arc<MachineConfig>)],
    threads: usize,
    spans: &mut Spans,
    m: &mut Metrics,
) -> bool {
    let options = ExactOptions::from_scheduler_options(&SchedulerOptions::new());
    let backend = ExactBackend::portfolio(Arc::new(Executor::new(threads)));
    let wasted = mvp_trace::counter("exact.ladder.wasted_steps", CounterClass::Runtime);
    let wasted0 = wasted.get();
    let expected = expected();
    let (mut total_ns, mut worst_ns) = (0u64, 0u64);
    let (mut probes, mut nodes, mut sat_steps, mut charged) = (0u64, 0u64, 0u64, 0u64);
    let mut ok = true;
    for &(l, machine) in points {
        let (outcome, t) = spans.time("exact.solve", || solve_with(l, machine, &options, &backend));
        total_ns += t;
        worst_ns = worst_ns.max(t);
        match outcome {
            Ok(o) => {
                let verdict = o.schedule_ii().map(|ii| Triple {
                    bound: o.lower_bound,
                    ii,
                    proved: o.proved_optimal,
                });
                let key = (machine.name.clone(), l.name().to_string());
                ok &= match (expected.get(&key), verdict) {
                    (Some(e), Some(t)) => e.agrees(&t),
                    (None, Some(_)) => true,
                    (_, None) => false,
                };
                ok &= o
                    .schedule
                    .as_ref()
                    .is_some_and(|s| validate_schedule(l, machine, s).is_empty());
                probes += o.probes.len() as u64;
                nodes += o.nodes;
                sat_steps += o.conflicts;
                charged += o.search_steps();
            }
            Err(_) => ok = false,
        }
    }
    let wasted = wasted.get() - wasted0;
    m.put("exact.solve_ms", mean(ms(total_ns), points.len()), "ms");
    m.put("exact.worst_point_ms", ms(worst_ns), "ms");
    m.put("exact.probes", probes as f64, "count");
    m.put("exact.nodes", nodes as f64, "count");
    m.put("exact.sat_steps", sat_steps as f64, "count");
    m.put(
        "exact.useful_step_share",
        charged as f64 / (charged + wasted).max(1) as f64,
        "share",
    );
    ok
}

/// Pigeonhole formula: `holes + 1` pigeons into `holes` holes
/// (unsatisfiable).
fn pigeonhole(s: &mut Solver, holes: usize) {
    let pigeons = holes + 1;
    let x: Vec<Vec<Lit>> = (0..pigeons)
        .map(|_| (0..holes).map(|_| Lit::positive(s.new_var())).collect())
        .collect();
    for row in &x {
        s.add_clause(row);
    }
    for h in 0..holes {
        let hole: Vec<Lit> = x.iter().map(|row| row[h]).collect();
        for (a, &la) in hole.iter().enumerate() {
            for &lb in &hole[a + 1..] {
                s.add_clause(&[!la, !lb]);
            }
        }
    }
}

/// A seeded random 3-SAT formula near the satisfiability threshold.
fn random_3sat(s: &mut Solver, vars: usize, seed: u64) -> Vec<Vec<Lit>> {
    let v: Vec<_> = (0..vars).map(|_| s.new_var()).collect();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let clauses: Vec<Vec<Lit>> = (0..(vars as f64 * 4.2) as usize)
        .map(|_| {
            (0..3)
                .map(|_| {
                    let var = v[rng.gen_index(vars)];
                    if rng.gen_bool(0.5) {
                        Lit::positive(var)
                    } else {
                        Lit::negative(var)
                    }
                })
                .collect()
        })
        .collect();
    for c in &clauses {
        s.add_clause(c);
    }
    clauses
}

/// The CDCL solver on fixed formulas. Returns whether both answers check
/// out: the pigeonhole formula is refuted and a model of the random
/// formula satisfies every clause.
pub fn sat_layer(spans: &mut Spans, m: &mut Metrics) -> bool {
    let mut php = Solver::new();
    pigeonhole(&mut php, 7);
    let (r1, t1) = spans.time("sat.solve", || php.solve(None, None));
    let mut rnd = Solver::new();
    let clauses = random_3sat(&mut rnd, 200, 0x3_5a7);
    let (r2, t2) = spans.time("sat.solve", || rnd.solve(None, None));
    let model_ok = match r2 {
        SolveResult::Sat => clauses
            .iter()
            .all(|c| c.iter().any(|&lit| rnd.lit_value(lit))),
        SolveResult::Unsat => true,
        _ => false,
    };
    let conflicts = php.conflicts() + rnd.conflicts();
    m.put("sat.solve_ms", ms(t1 + t2), "ms");
    m.put(
        "sat.conflicts_per_s",
        conflicts as f64 / ((t1 + t2) as f64 / 1e9),
        "1/s",
    );
    r1 == SolveResult::Unsat && model_ok
}

/// Latency of an empty two-job batch on a two-thread executor (the shape
/// of one ladder round), median over many batches.
pub fn exec_layer(spans: &mut Spans, m: &mut Metrics) {
    let ex = Executor::new(2);
    let items = [0u8; 2];
    ex.map(&items, |x| *x);
    let mut us = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let (_, t) = spans.time("exec.empty_batch", || ex.map(&items, |x| *x));
        us.push(t as f64 / 1e3);
    }
    m.put("exec.empty_batch_us", median(&us), "us");
}

/// Schedule-cache layer on `loops`: canonicalisation, then inserts into a
/// cache holding half of them and lookups of all of them.
pub fn schedcache_layer(loops: &[&Loop], pipeline: &Pipeline, spans: &mut Spans, m: &mut Metrics) {
    let mut canon_ns = 0;
    let keys: Vec<_> = loops
        .iter()
        .map(|l| {
            let (c, t) = spans.time("schedcache.canonicalize", || canonicalize(l));
            canon_ns += t;
            std::hint::black_box(c);
            pipeline.cache_key(l)
        })
        .collect();
    let cache: ScheduleCache<usize> =
        ScheduleCache::with_capacity_and_shards((loops.len() / 2).max(1), 1);
    let mut insert_ns = 0;
    for (i, k) in keys.iter().enumerate() {
        insert_ns += spans.time("schedcache.insert", || cache.insert(*k, i)).1;
    }
    let mut get_ns = 0;
    for k in &keys {
        get_ns += spans.time("schedcache.get", || cache.get(k)).1;
    }
    let stats = cache.stats();
    let n = loops.len();
    m.put(
        "schedcache.canonicalize_us",
        canon_ns as f64 / 1e3 / n.max(1) as f64,
        "us",
    );
    m.put(
        "schedcache.insert_us",
        insert_ns as f64 / 1e3 / n.max(1) as f64,
        "us",
    );
    m.put(
        "schedcache.get_us",
        get_ns as f64 / 1e3 / n.max(1) as f64,
        "us",
    );
    m.put("schedcache.evictions", stats.evictions as f64, "count");
    m.put(
        "schedcache.hit_share",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        "share",
    );
}

/// Prints the per-layer self-time table and writes the chrome trace.
pub fn finish(workload: &str, spans: &Spans) {
    println!("span table ({workload}): name, count, total ms, self ms");
    for (name, (count, total, own)) in spans.self_times() {
        println!(
            "  {name:<34} {count:>9} {:>12.3} {:>12.3}",
            ms(total),
            ms(own)
        );
    }
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}.json"));
    match spans.write_chrome(&path) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
