//! `compile_suite`: the paper's compile path. Every loop of the eight
//! SPECfp95-modelled workloads plus generated loops is scheduled once with
//! the baseline and once with RMCA, on the Table-1 2-cluster and 4-cluster
//! machines, through `Pipeline::run` with no schedule cache and no gap
//! oracle. Closed-loop callers; one request compiles one loop for one
//! machine with both schedulers, the comparison the paper makes. (Separate
//! requests per scheduler would split the latencies into two populations
//! and put the median on the cliff between them.)

use crate::common::{closed_loop, timed_setup, timing_metrics, Config, Load, Outcome};
use multivliw::core::validate_schedule;
use multivliw::exec::Executor;
use multivliw::ir::mii::minimum_ii;
use multivliw::ir::Loop;
use multivliw::machine::{presets, MachineConfig};
use multivliw::pipeline::{Pipeline, SchedulerChoice};
use multivliw::workloads::generator::{
    is_modulo_schedulable, GeneratorConfig, GeneratorMode, LoopGenerator,
};
use multivliw::workloads::suite::{suite, SuiteParams};
use multivliw::LoopReport;
use std::sync::Arc;

/// Seed of the generated loops every run shares.
const FIXED_SEED: u64 = 0x00c0_ffee_5eed;
/// Generated loops every run shares.
const FIXED_GENERATED: usize = 112;
/// Generated loops drawn from the run's seed. They come from a smaller
/// size class than the fixed ones, so the heavy tail stays in the fixed
/// part.
const SEEDED_GENERATED: usize = 16;
/// Largest body of a seeded loop.
const SEEDED_MAX_OPS: usize = 16;

/// One request: a loop on one machine, compiled by both schedulers.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    /// Index into [`Setup::loops`].
    pub loop_idx: usize,
    /// Index into [`machines`]; the request's pipelines are
    /// `Setup::pipelines[2 * machine_idx..][..2]`.
    pub machine_idx: usize,
    /// `max(ResMII, RecMII)` of the loop on the pipeline's machine.
    pub mii: u32,
}

/// Everything the workload builds before timing.
pub struct Setup {
    /// Distinct loops: the suite and fixed generated loops first, then the
    /// seeded ones.
    pub loops: Vec<Loop>,
    /// How many of `loops` every seed shares.
    pub fixed: usize,
    /// Baseline and RMCA pipelines, per machine.
    pub pipelines: Vec<Pipeline>,
    /// The requests of one pass, heaviest loops first so the pass does not
    /// end on one caller's long tail.
    pub requests: Vec<Request>,
}

/// The two Table-1 clustered machines.
pub fn machines() -> Vec<Arc<MachineConfig>> {
    vec![
        Arc::new(presets::two_cluster()),
        Arc::new(presets::four_cluster()),
    ]
}

/// `n` generated loops of at most `max_ops` operations from `seed` that
/// both heuristics can modulo-schedule on every machine in `machines`.
pub fn generated(
    seed: u64,
    n: usize,
    max_ops: usize,
    machines: &[Arc<MachineConfig>],
) -> Vec<Loop> {
    let cfg = GeneratorConfig {
        max_ops,
        ..GeneratorConfig::default().with_mode(GeneratorMode::Schedulable)
    };
    let mut g = LoopGenerator::new(cfg, seed);
    let mut loops = Vec::with_capacity(n);
    while loops.len() < n {
        let l = g.generate();
        if machines.iter().all(|m| is_modulo_schedulable(&l, m)) {
            loops.push(l);
        }
    }
    loops
}

/// Builds the inputs and pipelines of one run.
pub fn setup(seed: u64) -> Setup {
    let machines = machines();
    let mut loops: Vec<Loop> = suite(&SuiteParams::default())
        .into_iter()
        .flat_map(|w| w.loops)
        .collect();
    let max_ops = GeneratorConfig::default().max_ops;
    loops.extend(generated(FIXED_SEED, FIXED_GENERATED, max_ops, &machines));
    let fixed = loops.len();
    loops.extend(generated(seed, SEEDED_GENERATED, SEEDED_MAX_OPS, &machines));

    let executor = Arc::new(Executor::new(1));
    let mut pipelines = Vec::new();
    let mut requests = Vec::new();
    for (machine_idx, machine) in machines.iter().enumerate() {
        for choice in [SchedulerChoice::Baseline, SchedulerChoice::Rmca] {
            pipelines.push(
                Pipeline::builder()
                    .scheduler(choice)
                    .machine(Arc::clone(machine))
                    .executor(Arc::clone(&executor))
                    .trace(false)
                    .build()
                    .expect("Table-1 presets are valid machines"),
            );
        }
        for (loop_idx, l) in loops.iter().enumerate() {
            requests.push(Request {
                loop_idx,
                machine_idx,
                mii: minimum_ii(l, machine),
            });
        }
    }
    // Bigger bodies first.
    requests.sort_by_key(|r| {
        (
            std::cmp::Reverse(loops[r.loop_idx].num_ops()),
            r.machine_idx,
            r.loop_idx,
        )
    });
    Setup {
        loops,
        fixed,
        pipelines,
        requests,
    }
}

/// The baseline and RMCA reports of one request.
pub type Reports = [Option<LoopReport>; 2];

impl Setup {
    /// The baseline and RMCA pipelines of request `i`.
    pub fn pipelines_of(&self, i: usize) -> &[Pipeline] {
        &self.pipelines[2 * self.requests[i].machine_idx..][..2]
    }

    /// Serves request `i`.
    pub fn serve(&self, i: usize) -> Reports {
        let l = &self.loops[self.requests[i].loop_idx];
        let [base, rmca] = self.pipelines_of(i) else {
            unreachable!("two pipelines per machine")
        };
        [base.run(l).ok(), rmca.run(l).ok()]
    }

    /// Whether reference outputs of request `i` are legal schedules that do
    /// not beat the MII lower bound.
    pub fn legal(&self, i: usize, reports: &Reports) -> bool {
        let r = self.requests[i];
        let machine = self.pipelines_of(i)[0].machine();
        reports.iter().all(|rep| {
            rep.as_ref().is_some_and(|rep| {
                rep.ii >= r.mii
                    && validate_schedule(&self.loops[r.loop_idx], machine, &rep.schedule).is_empty()
            })
        })
    }
}

/// Quality metrics over the reference outputs of the requests whose loop
/// is one of the first `fixed` (the inputs every seed shares): total
/// simulated cycles, mean II/MII, and the share of schedules at the MII
/// (proved optimal by the lower bound).
pub fn quality(requests: &[Request], outputs: &[Reports], fixed: usize) -> (f64, f64, f64) {
    let mut cycles = 0u64;
    let mut ratio = 0.0;
    let mut at_mii = 0usize;
    let mut n = 0usize;
    for (r, out) in requests.iter().zip(outputs) {
        if r.loop_idx >= fixed {
            continue;
        }
        n += 2;
        for rep in out.iter().flatten() {
            cycles += rep.total_cycles();
            ratio += f64::from(rep.ii) / f64::from(r.mii.max(1));
            at_mii += usize::from(rep.ii == r.mii);
        }
    }
    let n = n.max(1) as f64;
    (cycles as f64, ratio / n, at_mii as f64 / n)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let (setup_s, s) = timed_setup(cfg.setup_reps, || setup(cfg.seed));
    let n = s.requests.len();
    let load = Load {
        callers: cfg.threads,
        requests: n,
        seconds: cfg.seconds,
        min_passes: cfg.min_passes,
        seed: cfg.seed,
    };

    // Warm-up pass: its outputs are the references later passes must equal.
    let mut reference: Vec<Reports> = Vec::new();
    let warm = Load {
        seconds: 0.0,
        min_passes: 1,
        ..load
    };
    closed_loop(
        &warm,
        0,
        |_, _| crate::common::NO_INPUT,
        |_, i| s.serve(i),
        |_| {},
        |_, out| reference = out,
    );
    let legal: Vec<bool> = reference
        .iter()
        .enumerate()
        .map(|(i, r)| s.legal(i, r))
        .collect();

    let mut out = Outcome::default();
    let timed = closed_loop(
        &load,
        n,
        |_, i| i,
        |_, i| s.serve(i),
        |_| {},
        |_, outputs| {
            for (i, o) in outputs.iter().enumerate() {
                let same = *o == reference[i];
                out.verdict.failed += u64::from(!(same && legal[i]));
            }
        },
    );
    out.verdict.attempted = timed.completed;

    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    timing_metrics(m, &timed, n);
    let (cycles, ratio, at_mii) = quality(&s.requests, &reference, s.fixed);
    m.put("sim_cycles", cycles, "cycles");
    m.put("ii_over_mii", ratio, "ratio");
    m.put("decided_share", at_mii, "share");
    m.put("success_share", out.verdict.success_share(), "share");
    out
}
