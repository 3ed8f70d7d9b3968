//! Measurement plumbing shared by every workload: the closed-loop pass
//! driver, process CPU and memory readings, order statistics and the
//! metric record printed at the end of a run.

use multivliw::workloads::rng::SplitMix64;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Environment knobs the program reads on its own (`Executor::global`,
/// `ExactOptions::new`). A stray value would change what is measured, so
/// the benchmark refuses to run while any of them is set.
pub const REFUSED_ENV: [&str; 3] = ["MVP_THREADS", "MVP_EXACT_LADDER", "MVP_SAT_INCREMENTAL"];

/// The knobs from [`REFUSED_ENV`] that are set in this process.
pub fn set_env_knobs() -> Vec<&'static str> {
    REFUSED_ENV
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// Most timed samples kept for the latency percentiles. Past this many the
/// driver keeps a uniform reservoir sample, so memory does not grow with
/// run length.
const RESERVOIR: usize = 100_000;
/// Most samples kept per input for the per-input medians (a uniform
/// reservoir sample beyond that).
const PER_INPUT_CAP: usize = 256;
/// Hard cap on timed passes.
const MAX_PASSES: usize = 100_000;

/// Input id that opts a request out of per-input statistics.
pub const NO_INPUT: usize = usize::MAX;

/// How one workload loads the program.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Closed-loop caller threads.
    pub callers: usize,
    /// Requests per pass.
    pub requests: usize,
    /// Timed seconds: passes start until their summed wall time reaches it.
    pub seconds: f64,
    /// Timed passes run even when `seconds` is already spent.
    pub min_passes: usize,
    /// Seed of the reservoir sampler.
    pub seed: u64,
}

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall seconds of each timed pass.
    pub pass_secs: Vec<f64>,
    /// Process CPU seconds spent inside timed passes.
    pub cpu_secs: f64,
    /// Requests completed inside timed passes.
    pub completed: u64,
    /// Request latencies in nanoseconds (a uniform sample when the run made
    /// more than [`RESERVOIR`] requests).
    pub latencies_ns: Vec<u64>,
    /// Per-input latency samples (a uniform sample of at most
    /// [`PER_INPUT_CAP`] per caller and input).
    pub per_input_ns: Vec<Vec<u64>>,
}

struct CallerStats {
    rng: SplitMix64,
    seen: u64,
    cap: usize,
    reservoir: Vec<u64>,
    per_input_seen: Vec<u64>,
    per_input: Vec<Vec<u64>>,
}

/// Algorithm R: keeps `sample` a uniform sample of at most `cap` of the
/// `seen` values offered so far.
fn offer(sample: &mut Vec<u64>, seen: u64, cap: usize, value: u64, rng: &mut SplitMix64) {
    if sample.len() < cap {
        sample.push(value);
    } else {
        let j = (rng.next_u64() % seen) as usize;
        if j < cap {
            sample[j] = value;
        }
    }
}

impl CallerStats {
    fn new(seed: u64, cap: usize, inputs: usize) -> Self {
        Self {
            rng: SplitMix64::seed_from_u64(seed),
            seen: 0,
            cap,
            reservoir: Vec::with_capacity(cap),
            per_input_seen: vec![0; inputs],
            per_input: vec![Vec::new(); inputs],
        }
    }

    fn record(&mut self, input: usize, ns: u64) {
        self.seen += 1;
        offer(&mut self.reservoir, self.seen, self.cap, ns, &mut self.rng);
        if let Some(samples) = self.per_input.get_mut(input) {
            self.per_input_seen[input] += 1;
            let seen = self.per_input_seen[input];
            offer(samples, seen, PER_INPUT_CAP, ns, &mut self.rng);
        }
    }
}

/// Runs closed-loop passes until `load.seconds` of pass time is spent.
///
/// Each pass issues requests `0..load.requests`; `load.callers` threads
/// pull the next index from a shared counter and send a request only after
/// their previous one returned. `before_pass(pass)` runs before a pass and
/// `after_pass(pass, outputs)` after it, both untimed and on the calling
/// thread while the callers wait; `outputs[i]` is the output of request
/// `i`. `input_of(pass, i)` names the input a request is a sample of (or
/// [`NO_INPUT`]), `inputs` is the number of inputs.
pub fn closed_loop<O, R, B, A, I>(
    load: &Load,
    inputs: usize,
    input_of: I,
    request: R,
    mut before_pass: B,
    mut after_pass: A,
) -> Timed
where
    O: Send,
    R: Fn(usize, usize) -> O + Sync,
    B: FnMut(usize),
    A: FnMut(usize, Vec<O>),
    I: Fn(usize, usize) -> usize + Sync,
{
    let callers = load.callers.max(1);
    let barrier = Barrier::new(callers + 1);
    let next = AtomicUsize::new(0);
    let pass_no = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<O>>> = (0..load.requests).map(|_| Mutex::new(None)).collect();
    let mut timed = Timed::default();

    let stats: Vec<CallerStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                let (barrier, next, pass_no, stop, slots) =
                    (&barrier, &next, &pass_no, &stop, &slots);
                let (request, input_of) = (&request, &input_of);
                let seed = load.seed ^ (0x9e37_79b9 * (c as u64 + 1));
                s.spawn(move || {
                    let mut local = CallerStats::new(seed, RESERVOIR / callers, inputs);
                    loop {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return local;
                        }
                        let pass = pass_no.load(Ordering::SeqCst);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= slots.len() {
                                break;
                            }
                            let t = Instant::now();
                            let out = request(pass, i);
                            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                            local.record(input_of(pass, i), ns);
                            *slots[i].lock().expect("no caller panics holding a slot") = Some(out);
                        }
                        barrier.wait();
                    }
                })
            })
            .collect();

        let mut pass = 0;
        loop {
            before_pass(pass);
            next.store(0, Ordering::SeqCst);
            pass_no.store(pass, Ordering::SeqCst);
            let cpu0 = cpu_seconds();
            let t = Instant::now();
            barrier.wait();
            barrier.wait();
            timed.pass_secs.push(t.elapsed().as_secs_f64());
            timed.cpu_secs += cpu_seconds() - cpu0;
            timed.completed += slots.len() as u64;
            let outputs = slots
                .iter()
                .map(|m| {
                    m.lock()
                        .expect("no caller panics holding a slot")
                        .take()
                        .expect("every request of the pass ran")
                })
                .collect();
            after_pass(pass, outputs);
            pass += 1;
            let spent: f64 = timed.pass_secs.iter().sum();
            if (spent >= load.seconds && pass >= load.min_passes) || pass >= MAX_PASSES {
                stop.store(true, Ordering::SeqCst);
                barrier.wait();
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("caller threads do not panic"))
            .collect()
    });

    timed.per_input_ns = vec![Vec::new(); inputs];
    for s in stats {
        timed.latencies_ns.extend(s.reservoir);
        for (dst, src) in timed.per_input_ns.iter_mut().zip(s.per_input) {
            dst.extend(src);
        }
    }
    timed
}

/// User plus system CPU seconds of this process (all threads), from
/// `/proc/self/stat`. Linux reports them in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly between
/// order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The metrics one run reports, by name, with their units.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }
}

/// How a workload's correctness checks went.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Requests attempted (timed requests plus any extra checked outputs).
    pub attempted: u64,
    /// Requests whose output failed a check or that returned an error.
    pub failed: u64,
}

impl Verdict {
    /// Share of attempted requests that passed every check.
    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The end-to-end metrics every workload derives the same way from its
/// timed phase: throughput, latency percentiles, worst input, CPU and
/// memory.
pub fn timing_metrics(m: &mut Metrics, timed: &Timed, requests_per_pass: usize) {
    let rates: Vec<f64> = timed
        .pass_secs
        .iter()
        .map(|s| requests_per_pass as f64 / s)
        .collect();
    m.put("loops_per_s", median(&rates), "1/s");
    let ms: Vec<f64> = timed.latencies_ns.iter().map(|&n| n as f64 / 1e6).collect();
    m.put("loop_ms_p50", quantile(&ms, 0.5), "ms");
    m.put("loop_ms_p90", quantile(&ms, 0.9), "ms");
    // Inputs with fewer samples than this have no meaningful median.
    let min_samples = timed.pass_secs.len().min(5);
    let worst = timed
        .per_input_ns
        .iter()
        .filter(|s| !s.is_empty() && s.len() >= min_samples)
        .map(|s| median(&s.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>()))
        .fold(0.0, f64::max);
    m.put("worst_loop_s", worst, "s");
    m.put(
        "cpu_ms_per_loop",
        1e3 * timed.cpu_secs / timed.completed.max(1) as f64,
        "ms",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
}

/// A 64-bit FNV-1a hash over `words`, for output fingerprints.
pub fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a schedule's placements and communications.
pub fn schedule_fingerprint(s: &multivliw::core::Schedule) -> u64 {
    let ops = s.ops().iter().flat_map(|p| {
        [
            p.op.index() as u64,
            p.cluster as u64,
            u64::from(p.cycle),
            u64::from(p.assumed_latency),
            u64::from(p.miss_scheduled),
        ]
    });
    let comms = s.communications().iter().flat_map(|c| {
        [
            c.src.index() as u64,
            c.dst.index() as u64,
            c.from_cluster as u64,
            c.to_cluster as u64,
            u64::from(c.start_cycle),
            c.bus as u64,
        ]
    });
    fingerprint(
        [u64::from(s.ii())]
            .into_iter()
            .chain(ops)
            .chain(comms)
            .chain(s.register_pressure().iter().map(|&r| u64::from(r))),
    )
}

/// What a workload run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of the generated part of the inputs.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: f64,
    /// Load threads: closed-loop callers, or the executor width of a
    /// single-caller workload.
    pub threads: usize,
    /// Timed passes run even when `seconds` is already spent.
    pub min_passes: usize,
    /// Times the set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub metrics: Metrics,
    /// Correctness of the outputs.
    pub verdict: Verdict,
    /// Further readings printed with the table but not reported as
    /// metrics.
    pub extra: Metrics,
}

/// Runs `setup` at least `reps` times, and for cheap set-ups until half a
/// second is spent, and returns the median seconds and the last state, so
/// that set-up time is a median rather than one sample.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    const BUDGET_S: f64 = 0.5;
    const MAX_REPS: usize = 200;
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < reps.max(1)
        || (secs.iter().sum::<f64>() < BUDGET_S && secs.len() < MAX_REPS && reps > 1)
    {
        let t = Instant::now();
        last = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), last.expect("at least one set-up"))
}
