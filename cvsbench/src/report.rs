//! Turns a run's samples and spans into the named metrics, the printed
//! table and the final JSON line.

use std::collections::HashMap;

use crate::layers::Span;
use crate::rig::{Kind, RunResult, Sample};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples (or events) the value is computed from.
    pub n: u64,
}

fn metric(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        n: n as u64,
    }
}

/// Nearest-rank percentile `p` (0..1] of `xs`; 0 for no samples.
pub fn pct(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    pct(&mut v, 0.5)
}

fn within(t: u64, slices: &[(u64, u64)]) -> bool {
    slices.iter().any(|&(a, b)| a <= t && t < b)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Latencies (µs) of the commands of `kind` in `samples`.
fn latencies(samples: &[&Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.kind == kind)
        .map(|s| us(s.end - s.start))
        .collect()
}

/// Commands completed inside `slices`.
fn completed<'a>(r: &'a RunResult, slices: &[(u64, u64)]) -> Vec<&'a Sample> {
    r.users
        .iter()
        .flat_map(|u| &u.samples)
        .filter(|s| within(s.end, slices))
        .collect()
}

/// Attempted and failed commands of the whole run, warm-up included. A
/// command fails when it returned an error (a deviation alarm included); a
/// failed sync-up fails every command. A lost update is not a failed
/// command: the commit succeeded and a racing commit overwrote it later.
/// `failed_frac` counts both.
pub fn outcome(r: &RunResult) -> (u64, u64) {
    let samples = || r.users.iter().flat_map(|u| &u.samples);
    let attempted = samples().count() as u64;
    if !r.sync_ok {
        return (attempted, attempted);
    }
    (attempted, samples().filter(|s| !s.ok).count() as u64)
}

/// Commands completed per second in each one-second slice of the window
/// (one slice for a window shorter than two seconds).
pub fn rates(r: &RunResult) -> Vec<f64> {
    let (a, b) = r.window;
    let n = ((b - a) / 1_000_000_000).max(1);
    let len = (b - a) / n;
    let mut counts = vec![0u64; n as usize];
    let last = counts.len() - 1;
    for s in r.users.iter().flat_map(|u| &u.samples) {
        if (a..b).contains(&s.end) {
            counts[(((s.end - a) / len) as usize).min(last)] += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / len as f64)
        .collect()
}

/// The end-to-end metrics of an untraced run. Throughput is the median of
/// the per-second rates, so a burst of outside load on the machine that
/// covers a minority of the window does not move it.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let done = completed(r, &[r.window]);
    let (attempted, failed) = outcome(r);
    let mut checkout = latencies(&done, Kind::Checkout);
    let mut commit = latencies(&done, Kind::Commit);
    let mut log = latencies(&done, Kind::Log);
    let lost_or_failed = (failed + r.lost.len() as u64).min(attempted);
    let failed_frac = lost_or_failed as f64 / attempted.max(1) as f64;
    vec![
        metric("cmds_per_s", median(&rates(r)), "1/s", done.len()),
        metric(
            "checkout_p50_us",
            pct(&mut checkout, 0.5),
            "us",
            checkout.len(),
        ),
        metric(
            "checkout_p90_us",
            pct(&mut checkout, 0.9),
            "us",
            checkout.len(),
        ),
        metric(
            "checkout_p99_us",
            pct(&mut checkout, 0.99),
            "us",
            checkout.len(),
        ),
        metric("commit_p50_us", pct(&mut commit, 0.5), "us", commit.len()),
        metric("commit_p90_us", pct(&mut commit, 0.9), "us", commit.len()),
        metric("commit_p99_us", pct(&mut commit, 0.99), "us", commit.len()),
        metric("log_p50_us", pct(&mut log, 0.5), "us", log.len()),
        metric(
            "write_bytes_per_cmd",
            r.write_bytes.0 as f64 / done.len().max(1) as f64,
            "B/cmd",
            done.len(),
        ),
        metric("setup_s", median(&r.setup_s), "s", r.setup_s.len()),
        metric("failed_frac", failed_frac, "frac", attempted as usize),
        metric("ok_frac", 1.0 - failed_frac, "frac", attempted as usize),
    ]
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> HashMap<u64, i64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child.entry(p).or_default() += s.dur();
        }
    }
    spans
        .iter()
        .map(|s| {
            let c = child.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur() as i64 - c as i64)
        })
        .collect()
}

/// Nesting violations: a child outside its parent's interval or thread, a
/// parent that was not recorded, or a negative self time.
pub fn nesting_problems(spans: &[Span]) -> Vec<String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut out = Vec::new();
    for s in spans {
        if let Some(p) = s.parent {
            match by_id.get(&p) {
                None => out.push(format!("{} {}: parent {p} not recorded", s.name, s.id)),
                Some(p) if p.tid != s.tid || s.start < p.start || s.end > p.end => out.push(
                    format!("{} {} escapes parent {} {}", s.name, s.id, p.name, p.id),
                ),
                Some(_) => {}
            }
        }
    }
    for (id, t) in self_times(spans) {
        if t < 0 {
            out.push(format!("span {id}: negative self time {t} ns"));
        }
    }
    out
}

fn durations<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| us(s.dur())).collect()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(r: &RunResult) -> Vec<Metric> {
    let spans = &r.spans;
    let own = self_times(spans);
    let named = |n: &'static str| spans.iter().filter(move |s| s.name == n);
    let cmds_t = completed(r, &r.traced).len();
    let cmds_u = completed(r, &r.untraced).len();
    let len = |sl: &[(u64, u64)]| sl.iter().map(|(a, b)| b - a).sum::<u64>() as f64;
    let (traced_ns, untraced_ns) = (len(&r.traced), len(&r.untraced));
    let per_cmd = |x: f64| x / cmds_t.max(1) as f64;
    let self_us = |s: &Span| own.get(&s.id).copied().unwrap_or(0) as f64 / 1e3;

    let cvs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name.starts_with("cvs."))
        .collect();
    let mut cvs_self: Vec<f64> = cvs.iter().map(|s| self_us(s)).collect();
    let net: Vec<&Span> = named("net").collect();
    let ops: u64 = r.users.iter().map(|u| u.ops).sum();
    let value_bytes: u64 = r.users.iter().map(|u| u.value_bytes).sum();
    let commits = r
        .users
        .iter()
        .flat_map(|u| &u.samples)
        .filter(|s| s.kind == Kind::Commit)
        .count();
    let conflicts: u64 = r.users.iter().map(|u| u.conflicts).sum();

    let handles: Vec<&Span> = named("server.handle_op_seq").collect();
    let by_op: HashMap<(u32, u64), &Span> = handles.iter().map(|s| ((s.user, s.seq), *s)).collect();
    let (mut wait, mut ret) = (Vec::new(), Vec::new());
    for n in &net {
        if let Some(h) = by_op.get(&(n.user, n.seq)) {
            wait.push(us(h.start.saturating_sub(n.start)));
            ret.push(us(n.end.saturating_sub(h.end)));
        }
    }
    let mut handle = durations(handles.iter().copied());
    let mut server_self: Vec<f64> = handles.iter().map(|s| self_us(s)).collect();
    let mut publish = durations(named("server.read_snapshot"));
    let busy: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("server."))
        .map(Span::dur)
        .sum();
    let reply_bytes: u64 = handles.iter().map(|s| s.bytes).sum();

    // Protocol I: from an operation's exit to its user's next deposit.
    let mut gap = Vec::new();
    let mut deposits: HashMap<u32, Vec<u64>> = HashMap::new();
    for d in named("server.deposit_signature") {
        deposits.entry(d.user).or_default().push(d.start);
    }
    for v in deposits.values_mut() {
        v.sort_unstable();
    }
    for h in &handles {
        if let Some(v) = deposits.get(&h.user) {
            let i = v.partition_point(|&t| t < h.end);
            if let Some(&t) = v.get(i) {
                gap.push(us(t - h.end));
            }
        }
    }

    let commit_spans: Vec<&Span> = named("storage.commit").collect();
    let mut storage_commit = durations(commit_spans.iter().copied());
    let mut storage_self: Vec<f64> = commit_spans.iter().map(|s| self_us(s)).collect();
    let mut checkpoint = durations(named("storage.checkpoint"));
    let mut sync = durations(named("medium.sync"));
    let append_bytes: u64 = named("medium.append").map(|s| s.bytes).sum();
    let atomic_bytes: u64 = named("medium.write_atomic").map(|s| s.bytes).sum();
    let keygen = median(&r.keygen_s);
    let overhead = 1.0 - (cmds_t as f64 / traced_ns) / (cmds_u as f64 / untraced_ns);

    vec![
        metric(
            "cvs.self_p50_us",
            pct(&mut cvs_self, 0.5),
            "us",
            cvs_self.len(),
        ),
        metric(
            "cvs.ops_per_cmd",
            net.len() as f64 / cvs.len().max(1) as f64,
            "op/cmd",
            cvs.len(),
        ),
        metric(
            "cvs.value_bytes_per_op",
            value_bytes as f64 / ops.max(1) as f64,
            "B/op",
            ops as usize,
        ),
        metric(
            "cvs.conflict_frac",
            conflicts as f64 / commits.max(1) as f64,
            "frac",
            commits,
        ),
        metric("cvs.lost_commits", r.lost.len() as f64, "count", commits),
        metric("net.wait_p50_us", pct(&mut wait, 0.5), "us", wait.len()),
        metric("net.wait_p99_us", pct(&mut wait, 0.99), "us", wait.len()),
        metric("net.return_p50_us", pct(&mut ret, 0.5), "us", ret.len()),
        metric("net.return_p99_us", pct(&mut ret, 0.99), "us", ret.len()),
        metric(
            "server.handle_p50_us",
            pct(&mut handle, 0.5),
            "us",
            handle.len(),
        ),
        metric(
            "server.handle_p99_us",
            pct(&mut handle, 0.99),
            "us",
            handle.len(),
        ),
        metric(
            "server.self_p50_us",
            pct(&mut server_self, 0.5),
            "us",
            server_self.len(),
        ),
        metric(
            "server.publish_p50_us",
            pct(&mut publish, 0.5),
            "us",
            publish.len(),
        ),
        metric(
            "server.busy_frac",
            busy as f64 / traced_ns,
            "frac",
            handles.len(),
        ),
        metric(
            "server.reply_bytes_per_op",
            reply_bytes as f64 / handles.len().max(1) as f64,
            "B/op",
            handles.len(),
        ),
        metric(
            "server.deposit_gap_p50_us",
            pct(&mut gap, 0.5),
            "us",
            gap.len(),
        ),
        metric(
            "storage.commit_p50_us",
            pct(&mut storage_commit, 0.5),
            "us",
            storage_commit.len(),
        ),
        metric(
            "storage.commit_p99_us",
            pct(&mut storage_commit, 0.99),
            "us",
            storage_commit.len(),
        ),
        metric(
            "storage.self_p50_us",
            pct(&mut storage_self, 0.5),
            "us",
            storage_self.len(),
        ),
        metric(
            "storage.checkpoint_p50_us",
            pct(&mut checkpoint, 0.5),
            "us",
            checkpoint.len(),
        ),
        metric(
            "storage.checkpoints_per_kcmd",
            per_cmd(checkpoint.len() as f64 * 1e3),
            "1/kcmd",
            checkpoint.len(),
        ),
        metric("medium.sync_p50_us", pct(&mut sync, 0.5), "us", sync.len()),
        metric("medium.sync_p99_us", pct(&mut sync, 0.99), "us", sync.len()),
        metric(
            "medium.syncs_per_cmd",
            per_cmd(sync.len() as f64),
            "1/cmd",
            sync.len(),
        ),
        metric(
            "medium.append_bytes_per_cmd",
            per_cmd(append_bytes as f64),
            "B/cmd",
            cmds_t,
        ),
        metric(
            "medium.atomic_bytes_per_checkpoint",
            atomic_bytes as f64 / checkpoint.len().max(1) as f64,
            "B",
            checkpoint.len(),
        ),
        metric("crypto.keygen_s", keygen, "s", r.keygen_s.len()),
        metric("trace.overhead_frac", overhead, "frac", cmds_t + cmds_u),
    ]
}

/// The metric table, one line per metric.
pub fn render_table(title: &str, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{title}\n{:<36} {:>16} {:<7} {:>9}\n",
        "metric", "value", "unit", "n"
    );
    for m in metrics {
        out.push_str(&format!(
            "{:<36} {:>16.4} {:<7} {:>9}\n",
            m.name, m.value, m.unit, m.n
        ));
    }
    out
}

/// The final JSON line: only the metrics named in `keep`, in that order.
pub fn render_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    keep: &[&str],
) -> String {
    let body: Vec<String> = keep
        .iter()
        .filter_map(|k| metrics.iter().find(|m| m.name == *k))
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
