//! The traced run (`--trace 1`): per-layer metrics for one workload.
//!
//! 1. The workload's own requests run in closed-loop passes twice, with the
//!    program's tracing off and then on (with a benchmark span around each
//!    request); the ratio of pass times is `trace.overhead`, and the
//!    program's spans from the traced passes go into the span table.
//! 2. One pass of the workload's distinct requests runs on one thread
//!    through `Pipeline::run` and, separately, through the layer calls
//!    `Pipeline::run` makes, each inside a benchmark span. The layer time
//!    over the pipeline time is `pipeline.layer_coverage`.
//! 3. Every layer is then measured on its own: the heuristic engines, CME,
//!    kernel, validator and simulator on the workload's loops; the exact
//!    search on the committed gap corpus (on the workload's own points for
//!    `exact_oracle`); the schedule cache on the workload's loops; the SAT
//!    solver on fixed formulas; and the executor on empty batches.

use crate::common::{closed_loop, median, Config, Load, Metrics, Outcome, NO_INPUT};
use crate::layers::{
    exact_layer, exec_layer, heuristic_layers, sat_layer, schedcache_layer, Spans,
};
use crate::{compile_suite, exact_oracle, serve_warm};
use multivliw::core::SchedulerOptions;
use multivliw::exact::{solve_with, ExactBackend, ExactOptions};
use multivliw::exec::Executor;
use multivliw::ir::Loop;
use multivliw::machine::MachineConfig;
use multivliw::schedcache::canonicalize;
use multivliw::sim::{simulate, SimOptions};
use mvp_trace::TraceMode;
use std::sync::Arc;

/// Runs `passes` passes of `requests` requests untraced and then traced,
/// records `trace.overhead`, drains the program's spans into `spans`, and
/// returns how many requests produced no output.
fn overhead<O: Send>(
    load: Load,
    passes: usize,
    serve: impl Fn(usize) -> Option<O> + Sync,
    prepare: impl Fn(usize) + Sync,
    spans: &mut Spans,
    m: &mut Metrics,
) -> u64 {
    let load = Load {
        seconds: 0.0,
        min_passes: passes,
        ..load
    };
    let mut missing = 0;
    let mut count = |_: usize, out: Vec<Option<O>>| {
        missing += out.iter().filter(|o| o.is_none()).count() as u64;
    };
    let untraced = closed_loop(
        &load,
        0,
        |_, _| NO_INPUT,
        |_, i| serve(i),
        &prepare,
        &mut count,
    );
    mvp_trace::set_mode(TraceMode::Full);
    let traced = closed_loop(
        &load,
        0,
        |_, _| NO_INPUT,
        |_, i| {
            let out = {
                let _span = mvp_trace::span!("bench.request");
                serve(i)
            };
            mvp_trace::flush_thread();
            out
        },
        &prepare,
        &mut count,
    );
    mvp_trace::set_mode(TraceMode::Off);
    spans.add_program_events(&mvp_trace::drain());
    m.put(
        "trace.overhead",
        median(&traced.pass_secs) / median(&untraced.pass_secs),
        "ratio",
    );
    missing
}

fn put_pipeline(m: &mut Metrics, pipeline_ns: u64, layer_ns: u64, n: usize) {
    m.put(
        "pipeline.run_ms",
        pipeline_ns as f64 / 1e6 / n.max(1) as f64,
        "ms",
    );
    m.put(
        "pipeline.layer_coverage",
        layer_ns as f64 / pipeline_ns.max(1) as f64,
        "share",
    );
}

/// The committed gap-corpus points.
fn committed_points() -> (Vec<Loop>, Vec<Arc<MachineConfig>>, Vec<exact_oracle::Point>) {
    let (loops, committed) = exact_oracle::loops(0, 0);
    let machines: Vec<Arc<MachineConfig>> = mvp_bench::gap::machines()
        .into_iter()
        .map(Arc::new)
        .collect();
    let points = exact_oracle::points(&loops, committed, &machines);
    (loops, machines, points)
}

/// Runs the traced measurement of `workload`.
pub fn run(workload: &str, cfg: &Config) -> Outcome {
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let m = &mut out.metrics;
    let sim = SimOptions::new();
    let load = Load {
        callers: cfg.threads,
        requests: 0,
        seconds: 0.0,
        min_passes: 1,
        seed: cfg.seed,
    };
    let mut failed = 0u64;
    let mut attempted = 0u64;

    match workload {
        "compile_suite" => {
            let s = compile_suite::setup(cfg.seed);
            let n = s.requests.len();
            let load = Load {
                requests: n,
                ..load
            };
            failed += overhead(
                load,
                3,
                |i| {
                    let [b, r] = s.serve(i);
                    b.and(r)
                },
                |_| {},
                &mut spans,
                m,
            );
            attempted += 6 * n as u64;
            let (mut pipe_ns, mut layer_ns) = (0, 0);
            for (i, r) in s.requests.iter().enumerate() {
                let l = &s.loops[r.loop_idx];
                for p in s.pipelines_of(i) {
                    pipe_ns += spans.time("pipeline.run", || p.run(l)).1;
                    let scheduler = p.scheduler().build(SchedulerOptions::new());
                    let (schedule, t) = spans.time(layer_span(p.scheduler()), || {
                        scheduler.schedule(l, p.machine())
                    });
                    layer_ns += t;
                    if let Ok(schedule) = schedule {
                        layer_ns += spans
                            .time("sim.simulate", || simulate(l, &schedule, p.machine(), &sim))
                            .1;
                    }
                }
            }
            put_pipeline(m, pipe_ns, layer_ns, 2 * n);
            let machines = compile_suite::machines();
            let inputs: Vec<(&Loop, &MachineConfig)> = machines
                .iter()
                .flat_map(|mc| s.loops.iter().map(move |l| (l, mc.as_ref())))
                .collect();
            failed += u64::from(!heuristic_layers(&inputs, &mut spans, m));
            let loops: Vec<&Loop> = s.loops.iter().collect();
            schedcache_layer(&loops, &s.pipelines[1], &mut spans, m);
            let (cl, cm, cp) = committed_points();
            let points: Vec<_> = cp
                .iter()
                .map(|p| (&cl[p.loop_idx], &cm[p.machine_idx]))
                .collect();
            failed += u64::from(!exact_layer(&points, cfg.threads, &mut spans, m));
        }
        "exact_oracle" => {
            let s = exact_oracle::setup(cfg.seed, cfg.threads);
            let n = s.points.len();
            let load = Load {
                callers: 1,
                requests: n,
                ..load
            };
            failed += overhead(load, 1, |i| s.serve(i), |_| {}, &mut spans, m);
            attempted += 2 * n as u64;
            let options = ExactOptions::from_scheduler_options(&SchedulerOptions::new());
            let backend = ExactBackend::portfolio(Arc::new(Executor::new(cfg.threads)));
            let (mut pipe_ns, mut layer_ns) = (0, 0);
            for p in &s.points {
                let (l, mc) = (&s.loops[p.loop_idx], &s.machines[p.machine_idx]);
                pipe_ns += spans
                    .time("pipeline.run", || s.pipelines[p.machine_idx].run(l))
                    .1;
                let (o, t) = spans.time("exact.solve", || solve_with(l, mc, &options, &backend));
                layer_ns += t;
                if let Some(schedule) = o.ok().and_then(|o| o.schedule) {
                    layer_ns += spans
                        .time("sim.simulate", || simulate(l, &schedule, mc, &sim))
                        .1;
                }
            }
            put_pipeline(m, pipe_ns, layer_ns, n);
            let points: Vec<_> = s
                .points
                .iter()
                .map(|p| (&s.loops[p.loop_idx], &s.machines[p.machine_idx]))
                .collect();
            let inputs: Vec<(&Loop, &MachineConfig)> =
                points.iter().map(|&(l, mc)| (l, mc.as_ref())).collect();
            failed += u64::from(!heuristic_layers(&inputs, &mut spans, m));
            let loops: Vec<&Loop> = s.loops.iter().collect();
            schedcache_layer(&loops, &s.pipelines[0], &mut spans, m);
            failed += u64::from(!exact_layer(&points, cfg.threads, &mut spans, m));
        }
        "serve_warm" => {
            let s = serve_warm::setup(cfg.seed);
            let n = serve_warm::REQUESTS;
            let load = Load {
                requests: n,
                ..load
            };
            let before = s.cache.stats();
            failed += overhead(
                load,
                20,
                |i| s.serve(i),
                |pass| s.prepare(pass),
                &mut spans,
                m,
            );
            attempted += 40 * n as u64;
            let after = s.cache.stats();
            // Coverage over the cache hits, which carry the workload's time:
            // a hit's layer calls are canonicalisation and the lookup.
            let (mut pipe_ns, mut layer_ns, mut hits) = (0, 0, 0usize);
            s.prepare(0);
            for i in 0..n {
                let serve_warm::Ask::Pool { pool, variant } = s.ask(i) else {
                    continue;
                };
                let l = &s.variants[pool][variant];
                let key = s.pipeline.cache_key(l);
                let (_, tp) = spans.time("pipeline.run", || s.pipeline.run(l));
                let (_, tc) = spans.time("schedcache.canonicalize", || canonicalize(l));
                let (hit, tg) = spans.time("schedcache.get", || s.cache.get(&key));
                if hit.is_some() {
                    pipe_ns += tp;
                    layer_ns += tc + tg;
                    hits += 1;
                }
            }
            put_pipeline(m, pipe_ns, layer_ns, hits);
            let inputs: Vec<(&Loop, &MachineConfig)> =
                s.pool.iter().map(|l| (l, s.machine.as_ref())).collect();
            failed += u64::from(!heuristic_layers(&inputs, &mut spans, m));
            let loops: Vec<&Loop> = s.pool.iter().collect();
            schedcache_layer(&loops, &s.pipeline, &mut spans, m);
            // The served stream's own cache explains the workload's hits.
            let lookups = (after.hits + after.misses) - (before.hits + before.misses);
            m.put(
                "schedcache.hit_share",
                (after.hits - before.hits) as f64 / lookups.max(1) as f64,
                "share",
            );
            m.put(
                "schedcache.evictions",
                (after.evictions - before.evictions) as f64,
                "count",
            );
            let (cl, cm, cp) = committed_points();
            let points: Vec<_> = cp
                .iter()
                .map(|p| (&cl[p.loop_idx], &cm[p.machine_idx]))
                .collect();
            failed += u64::from(!exact_layer(&points, cfg.threads, &mut spans, m));
        }
        _ => unreachable!("workload names are checked when parsing"),
    }
    failed += u64::from(!sat_layer(&mut spans, m));
    exec_layer(&mut spans, m);
    attempted += 3;
    out.verdict.attempted = attempted;
    out.verdict.failed = failed;
    crate::layers::finish(workload, &spans);
    out
}

fn layer_span(choice: multivliw::pipeline::SchedulerChoice) -> &'static str {
    if choice == multivliw::pipeline::SchedulerChoice::Rmca {
        "core.rmca.schedule"
    } else {
        "core.baseline.schedule"
    }
}
