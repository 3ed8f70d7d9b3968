//! `exact_oracle`: the certified-optimality path. Every (loop, machine)
//! point of the committed gap corpus, plus points of generated loops of the
//! same size class drawn from the run's seed, is solved through a
//! `Pipeline` running the SAT/branch-and-bound portfolio with the
//! optimality-gap oracle on, from one caller whose II ladder spreads over
//! the explicit executor.

use crate::common::{
    closed_loop, schedule_fingerprint, timed_setup, timing_metrics, Config, Load, Outcome,
};
use crate::relabel::relabel;
use multivliw::core::{validate_schedule, SchedulerOptions};
use multivliw::exact::{solve_with, ExactBackend, ExactOptions};
use multivliw::exec::Executor;
use multivliw::ir::mii::minimum_ii;
use multivliw::ir::Loop;
use multivliw::machine::MachineConfig;
use multivliw::pipeline::{Pipeline, SchedulerChoice};
use multivliw::workloads::generator::{GeneratorConfig, LoopGenerator};
use multivliw::LoopReport;
use mvp_bench::gap::{corpus, machines, GapParams};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Expected verdicts of the committed corpus, written by
/// `--write-verdicts` with the branch-and-bound engine alone.
pub const VERDICTS: &str = include_str!("../expected/exact_verdicts.csv");

/// Small generated loops (3 to 6 operations) next to the gap corpus, each
/// solved on every gap machine: `FIXED_SMALL` from a committed seed, which
/// join the expected-verdict file, and `SEEDED_SMALL` from the run's seed.
/// They are smaller than the corpus's generated loops, so the corpus keeps
/// the heavy tail and every point is decided within the default budget.
/// The fixed ones are numerous enough that the latency percentiles fall
/// where many points lie, not between the corpus's few slow points; the
/// seeded ones are few, so the seed moves the percentiles little.
const FIXED_SMALL: usize = 12;
const SEEDED_SMALL: usize = 1;
const SMALL_SEED: u64 = 0x05ea_11ed;
const SMALL_MAX_OPS: usize = 6;

/// One request: a loop on one machine's pipeline.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Index into [`Setup::loops`].
    pub loop_idx: usize,
    /// Index into [`Setup::machines`] and [`Setup::pipelines`].
    pub machine_idx: usize,
    /// `max(ResMII, RecMII)`.
    pub mii: u32,
    /// Whether the point belongs to the committed corpus.
    pub committed: bool,
}

/// Everything the workload builds before timing.
pub struct Setup {
    /// Committed corpus loops, then the seeded ones.
    pub loops: Vec<Loop>,
    /// The gap machines.
    pub machines: Vec<Arc<MachineConfig>>,
    /// One portfolio pipeline per machine.
    pub pipelines: Vec<Pipeline>,
    /// The points of one pass.
    pub points: Vec<Point>,
}

/// `n` small generated loops from `seed`, named `{prefix}_1` and on.
fn small_loops(seed: u64, n: usize, prefix: &str) -> Vec<Loop> {
    let cfg = GeneratorConfig {
        min_ops: 3,
        max_ops: SMALL_MAX_OPS,
        ..GeneratorConfig::default()
    };
    let mut g = LoopGenerator::new(cfg, seed);
    (1..=n)
        .map(|k| {
            let l = g.generate();
            let order: Vec<usize> = (0..l.num_ops()).collect();
            relabel(&l, format!("{prefix}_{k}"), &order, 0)
        })
        .collect()
}

/// The committed loops (the gap corpus and the fixed small loops) and
/// `seeded` small loops drawn from `seed`. Returns the loops and how many
/// of them are committed.
pub fn loops(seed: u64, seeded: usize) -> (Vec<Loop>, usize) {
    let mut loops = corpus(&GapParams::default());
    loops.extend(small_loops(SMALL_SEED, FIXED_SMALL, "small"));
    let committed = loops.len();
    loops.extend(small_loops(seed, seeded, "seeded"));
    (loops, committed)
}

/// The (loop, machine) points of `loops` the machines can run at all.
pub fn points(loops: &[Loop], committed: usize, machines: &[Arc<MachineConfig>]) -> Vec<Point> {
    let mut points = Vec::new();
    for (machine_idx, m) in machines.iter().enumerate() {
        for (loop_idx, l) in loops.iter().enumerate() {
            let mii = minimum_ii(l, m);
            if mii != u32::MAX {
                points.push(Point {
                    loop_idx,
                    machine_idx,
                    mii,
                    committed: loop_idx < committed,
                });
            }
        }
    }
    points
}

/// Builds the inputs and pipelines of one run; the portfolio ladders run
/// on an executor of `threads` threads.
pub fn setup(seed: u64, threads: usize) -> Setup {
    let (loops, committed) = loops(seed, SEEDED_SMALL);
    let machines: Vec<Arc<MachineConfig>> = machines().into_iter().map(Arc::new).collect();
    let executor = Arc::new(Executor::new(threads));
    let pipelines = machines
        .iter()
        .map(|m| {
            Pipeline::builder()
                .scheduler(SchedulerChoice::Portfolio)
                .machine(Arc::clone(m))
                .optimality_gap(true)
                .executor(Arc::clone(&executor))
                .trace(false)
                .build()
                .expect("gap machines are valid")
        })
        .collect();
    let points = points(&loops, committed, &machines);
    Setup {
        loops,
        machines,
        pipelines,
        points,
    }
}

/// A point's verdict: certified lower bound, schedule II and whether the
/// schedule is proved optimal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triple {
    /// Certified lower bound on the II.
    pub bound: u32,
    /// II of the schedule found.
    pub ii: u32,
    /// Whether `ii == bound` was proved.
    pub proved: bool,
}

impl Triple {
    /// Reads the verdict off a gap-oracle report (the oracle reports
    /// `(ii - bound) / bound`).
    pub fn of(report: &LoopReport) -> Option<Triple> {
        let gap = report.optimality_gap?;
        let bound = (f64::from(report.ii) / (1.0 + gap)).round() as u32;
        let exact = (f64::from(report.ii) - f64::from(bound)) / f64::from(bound.max(1));
        (exact == gap).then_some(Triple {
            bound,
            ii: report.ii,
            proved: report.ii == bound,
        })
    }
}

/// A reference verdict: the certified bound, and the schedule II when the
/// reference found one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Certified lower bound on the II.
    pub bound: u32,
    /// II of the reference schedule.
    pub ii: Option<u32>,
    /// Whether the reference proved `ii == bound`.
    pub proved: bool,
}

impl Expected {
    /// Whether `t` agrees with the reference: equal where the reference
    /// decided the point, and a bound no weaker where it did not (both
    /// bounds are certified, so the tighter one must not undercut it).
    pub fn agrees(&self, t: &Triple) -> bool {
        match self.ii {
            Some(ii) => t.bound == self.bound && t.ii == ii && t.proved == self.proved,
            None => t.bound >= self.bound && t.ii >= self.bound,
        }
    }
}

/// The committed expected verdicts, keyed by (machine, loop).
pub fn expected() -> BTreeMap<(String, String), Expected> {
    VERDICTS
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            let n = |i: usize| f[i].parse::<u32>().expect("verdict file holds integers");
            (
                (f[0].to_string(), f[1].to_string()),
                Expected {
                    bound: n(2),
                    ii: f[3].parse().ok(),
                    proved: f[4] == "true",
                },
            )
        })
        .collect()
}

/// Node budget of the branch-and-bound reference: a hundred times the
/// default, so that the reference decides every point it can.
const REFERENCE_BUDGET: u64 = 100_000_000;

/// Solves the committed corpus with the branch-and-bound engine alone
/// (under the pipeline's exact options, with [`REFERENCE_BUDGET`]) and
/// renders the verdict file.
pub fn write_verdicts() -> String {
    let (loops, committed) = loops(0, 0);
    let machines: Vec<Arc<MachineConfig>> = machines().into_iter().map(Arc::new).collect();
    let options = ExactOptions::from_scheduler_options(&SchedulerOptions::new())
        .with_node_budget(REFERENCE_BUDGET);
    let mut out = String::from("machine,loop,lower_bound,ii,proved\n");
    for p in points(&loops, committed, &machines) {
        let (l, m) = (&loops[p.loop_idx], &machines[p.machine_idx]);
        let o = solve_with(l, m, &options, &ExactBackend::BranchAndBound)
            .expect("corpus points have the resources they need");
        let ii = o
            .schedule_ii()
            .map_or(String::from("none"), |ii| ii.to_string());
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            m.name,
            l.name(),
            o.lower_bound,
            ii,
            o.proved_optimal
        ));
    }
    out
}

impl Setup {
    /// Serves point `i`.
    pub fn serve(&self, i: usize) -> Option<LoopReport> {
        let p = self.points[i];
        self.pipelines[p.machine_idx]
            .run(&self.loops[p.loop_idx])
            .ok()
    }

    fn key(&self, i: usize) -> (String, String) {
        let p = self.points[i];
        (
            self.machines[p.machine_idx].name.clone(),
            self.loops[p.loop_idx].name().to_string(),
        )
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let (setup_s, s) = timed_setup(cfg.setup_reps, || setup(cfg.seed, cfg.threads));
    let n = s.points.len();
    let load = Load {
        callers: 1,
        requests: n,
        seconds: cfg.seconds,
        min_passes: cfg.min_passes,
        seed: cfg.seed,
    };

    // Warm-up pass: its verdicts are the references later passes must
    // repeat, and committed points must match the expected file.
    let mut reference: Vec<Option<LoopReport>> = Vec::new();
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
    let expected = expected();
    let ref_triples: Vec<Option<Triple>> = reference
        .iter()
        .map(|r| r.as_ref().and_then(Triple::of))
        .collect();
    let ref_ok: Vec<bool> = (0..n)
        .map(|i| {
            let p = s.points[i];
            let Some(t) = ref_triples[i] else {
                return false;
            };
            t.bound >= p.mii
                && (!p.committed || expected.get(&s.key(i)).is_some_and(|e| e.agrees(&t)))
        })
        .collect();

    // Every distinct schedule is validated once.
    let mut valid: HashSet<(usize, u64)> = HashSet::new();
    let mut invalid: HashSet<(usize, u64)> = HashSet::new();
    let mut check = |i: usize, report: &LoopReport| -> bool {
        let key = (i, schedule_fingerprint(&report.schedule));
        if valid.contains(&key) {
            return true;
        }
        if invalid.contains(&key) {
            return false;
        }
        let p = s.points[i];
        let ok = validate_schedule(
            &s.loops[p.loop_idx],
            &s.machines[p.machine_idx],
            &report.schedule,
        )
        .is_empty();
        if ok {
            valid.insert(key);
        } else {
            invalid.insert(key);
        }
        ok
    };

    let mut out = Outcome::default();
    let timed = closed_loop(
        &load,
        n,
        |_, i| i,
        |_, i| s.serve(i),
        |_| {},
        |_, outputs| {
            for (i, o) in outputs.iter().enumerate() {
                let ok = o.as_ref().is_some_and(|rep| {
                    ref_ok[i] && Triple::of(rep) == ref_triples[i] && check(i, rep)
                });
                out.verdict.failed += u64::from(!ok);
            }
        },
    );
    out.verdict.attempted = timed.completed;

    let m = &mut out.metrics;
    m.put("setup_s", setup_s, "s");
    timing_metrics(m, &timed, n);
    // Schedule quality is measured on the committed points, the part of
    // the inputs every seed shares.
    let (mut cycles, mut ratio, mut proved, mut committed) = (0u64, 0.0, 0usize, 0usize);
    for (p, (r, t)) in s.points.iter().zip(reference.iter().zip(&ref_triples)) {
        if !p.committed {
            continue;
        }
        committed += 1;
        if let (Some(r), Some(t)) = (r, t) {
            cycles += r.total_cycles();
            ratio += f64::from(r.ii) / f64::from(p.mii.max(1));
            proved += usize::from(t.proved);
        }
    }
    let committed = committed.max(1) as f64;
    m.put("sim_cycles", cycles as f64, "cycles");
    m.put("ii_over_mii", ratio / committed, "ratio");
    m.put("decided_share", proved as f64 / committed, "share");
    m.put("success_share", out.verdict.success_share(), "share");
    out
}
