//! Turns run outcomes into the printed report: named metrics with units,
//! the checks, and the final JSON line.

use crate::gen::Workload;
use crate::layers;
use crate::run::{self, Outcome};
use crate::span::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics carried in the JSON line of an untraced run. Every
/// one applies to every workload and is never zero.
pub const JSON_E2E: [&str; 6] = [
    "setup_s",
    "updates_per_wall_s",
    "virtual_ms_per_wall_s",
    "peak_rss_mb",
    "staleness_p50_ms",
    "staleness_p99_ms",
];

/// One named metric. `None` marks a metric that does not apply to the
/// workload (printed as `n/a`, kept out of the JSON line).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// How it was obtained (sample counts, denominators).
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: Option<f64>, unit: &'static str, note: String) -> Self {
        Metric {
            name,
            value,
            unit,
            note,
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// `"n=… (… beyond)"` for a percentile over `n` samples.
fn samples_note(n: usize, p: f64, what: &str) -> String {
    let beyond = n - ((p / 100.0) * n as f64).ceil().min(n as f64) as usize;
    format!("n={n} {what}, {beyond} beyond p{p}")
}

/// Every end-to-end metric of one untraced run.
pub fn end_to_end(w: &Workload, o: &Outcome) -> Vec<Metric> {
    let has_reads = !w.ops.is_empty();
    let has_restarts = w.has_faults();
    let objects = o.staleness_ms.len();
    let responses = o.response_ms.len();
    let reads = o.read_ages.count() as usize;
    let recoveries = o.recovery_ms.len();
    let attempted = o.checks.attempted().max(1);
    let read_calls: u64 = o.checks.reads;
    vec![
        Metric::new(
            "setup_s",
            median(&o.setup_s),
            "s",
            format!(
                "median of {} set-ups, half before and half after the measured phase, \
                 construction to register_many; fastest {:.4} s, slowest {:.4} s",
                o.setup_s.len(),
                o.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                o.setup_s.iter().copied().fold(0.0, f64::max)
            ),
        ),
        Metric::new(
            "updates_per_wall_s",
            median(&o.update_rates),
            "1/s",
            format!(
                "median of {} chunks; {} backup applies in {:.3} s of run_for",
                o.update_rates.len(),
                o.measured_applies,
                o.run_for_s
            ),
        ),
        Metric::new(
            "virtual_ms_per_wall_s",
            median(&o.virtual_rates),
            "ms/s",
            format!(
                "median of {} chunks; {} virtual in {:.3} s of run_for plus client calls",
                o.virtual_rates.len(),
                w.horizon,
                o.run_for_s + o.client_s
            ),
        ),
        Metric::new(
            "reads_per_wall_s",
            has_reads.then(|| median(&o.read_rates)).flatten(),
            "1/s",
            format!(
                "median of {} chunks; {read_calls} reads in {:.3} s of reads plus run_for",
                o.read_rates.len(),
                o.run_for_s + o.client_s
            ),
        ),
        Metric::new(
            "peak_rss_mb",
            Some(o.peak_rss_mb),
            "MB",
            "VmHWM of this process".into(),
        ),
        Metric::new(
            "staleness_p50_ms",
            percentile(&o.staleness_ms, 50.0),
            "ms",
            format!(
                "virtual; per-object max_distance, {}",
                samples_note(objects, 50.0, "objects")
            ),
        ),
        Metric::new(
            "staleness_p99_ms",
            percentile(&o.staleness_ms, 99.0),
            "ms",
            format!("virtual; {}", samples_note(objects, 99.0, "objects")),
        ),
        Metric::new(
            "out_of_window_ms",
            Some(o.out_of_window_ms),
            "ms",
            format!("virtual; total_window_violation summed over {objects} objects"),
        ),
        Metric::new(
            "write_response_p50_ms",
            percentile(&o.response_ms, 50.0),
            "ms",
            format!("virtual; {}", samples_note(responses, 50.0, "writes")),
        ),
        Metric::new(
            "write_response_p99_ms",
            percentile(&o.response_ms, 99.0),
            "ms",
            format!("virtual; {}", samples_note(responses, 99.0, "writes")),
        ),
        Metric::new(
            "read_age_p50_ms",
            o.read_ages.percentile_ms(50.0),
            "ms",
            format!("virtual; true age, {}", samples_note(reads, 50.0, "reads")),
        ),
        Metric::new(
            "read_age_p99_ms",
            o.read_ages.percentile_ms(99.0),
            "ms",
            format!("virtual; {}", samples_note(reads, 99.0, "reads")),
        ),
        Metric::new(
            "recovery_p50_ms",
            has_restarts
                .then(|| percentile(&o.recovery_ms, 50.0))
                .flatten(),
            "ms",
            format!(
                "virtual; crash to whole, {}",
                samples_note(recoveries, 50.0, "rejoins")
            ),
        ),
        Metric::new(
            "recovery_p90_ms",
            has_restarts
                .then(|| percentile(&o.recovery_ms, 90.0))
                .flatten(),
            "ms",
            format!("virtual; {}", samples_note(recoveries, 90.0, "rejoins")),
        ),
        Metric::new(
            "failed_op_ratio",
            Some(o.checks.failed() as f64 / attempted as f64),
            "ratio",
            format!(
                "{} failed of {} attempted",
                o.checks.failed(),
                o.checks.attempted()
            ),
        ),
    ]
}

fn format_value(v: f64) -> String {
    // All digits as measured: no rounding.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metric_lines(kind: &str, metrics: &[Metric], lines: &mut Vec<String>) {
    for m in metrics {
        let value = m.value.map_or_else(|| "n/a".to_string(), format_value);
        lines.push(format!(
            "{kind} {:<36} {value} {}  ({})",
            m.name, m.unit, m.note
        ));
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            format_value(m.value.unwrap_or(f64::NAN)),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn check_lines(o: &Outcome, lines: &mut Vec<String>) {
    let c = &o.checks;
    lines.push(format!(
        "check writes={} client_writes={} refused_writes={} reads={} read_errors={} \
         unsound_certificates={} unwritten_reads={} image_audits={} images_audited={} \
         bad_images={} failed_image_audits={} rejoins={} incomplete_rejoins={} \
         unclosed_rejoins={}",
        c.writes,
        c.client_writes,
        c.refused_writes,
        c.reads,
        c.read_errors,
        c.unsound_certificates,
        c.unwritten_reads,
        c.image_audits,
        c.images,
        c.bad_images,
        c.failed_image_audits,
        c.rejoins,
        c.incomplete_rejoins,
        c.unclosed_rejoins
    ));
}

/// Where traced runs write their spans: under the Cargo target
/// directory, so nothing lands beside the sources.
fn spans_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{workload}.tsv"))
}

/// Runs `w` and returns the report lines; the last is the JSON object.
pub fn bench(w: &Workload, seed: u64, seconds: u64, trace: bool) -> Vec<String> {
    let mut lines = vec![
        format!(
            "# perfbench workload={} seed={seed} seconds={seconds} trace={}",
            w.name,
            u8::from(trace)
        ),
        format!(
            "# {} objects, {} backups, warm-up {} + measured {} virtual in {} slices of {}; \
             single process, single thread, closed loop",
            w.specs.len(),
            w.config.num_backups,
            w.warmup,
            w.horizon,
            w.slices(),
            w.slice
        ),
        format!(
            "# link delay {}..{} is simulated (ClusterConfig default), loss {}",
            w.config.link.delay_min, w.config.link.delay_max, w.config.link.loss_probability
        ),
    ];
    if !trace {
        let o = run::run(w, &mut Tracer::new(false), w.setup_repeats);
        let metrics = end_to_end(w, &o);
        metric_lines("e2e", &metrics, &mut lines);
        check_lines(&o, &mut lines);
        let json: Vec<&Metric> = JSON_E2E
            .iter()
            .map(|name| {
                metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .expect("every JSON metric is computed")
            })
            .collect();
        let correct = o.checks.safety_violations() == 0 && json.iter().all(|m| m.value.is_some());
        lines.push(json_line(
            correct,
            o.checks.attempted(),
            o.checks.failed(),
            &json,
        ));
        return lines;
    }

    // Traced: the same workload untraced, then traced, then the layer
    // replay on inputs shaped by what the traced run observed.
    let plain = run::run(w, &mut Tracer::new(false), 1);
    let mut tracer = Tracer::new(true);
    let root = tracer.enter("workload", 0);
    let traced = run::run(w, &mut tracer, 1);
    tracer.exit(root);
    let layer = layers::measure(w, &traced, &plain, &mut tracer);
    let metrics = layer.metrics;
    metric_lines("layer", &metrics, &mut lines);
    for l in layer.notes {
        lines.push(format!("# {l}"));
    }
    for (name, t) in tracer.layer_times() {
        lines.push(format!(
            "span {name:<34} calls={} total_ms={:.3} self_ms={:.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let path = spans_path(w.name);
    match tracer.write_tsv(&path) {
        Ok(()) => lines.push(format!(
            "# {} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => lines.push(format!("# spans not written to {}: {e}", path.display())),
    }
    check_lines(&traced, &mut lines);
    let failed = traced.checks.failed();
    let refs: Vec<&Metric> = metrics.iter().collect();
    let correct = traced.checks.safety_violations() == 0
        && refs.iter().all(|m| m.value.is_some_and(f64::is_finite));
    lines.push(json_line(correct, traced.checks.attempted(), failed, &refs));
    lines
}
