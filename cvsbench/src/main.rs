//! Command line: `cvsbench --workload <name> --seed <n> --seconds <n>
//! --trace <0|1> [--data-dir <dir>] [--out-dir <dir>]`.
//!
//! Prints the metric table, then, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Exits
//! with 1 when a correctness check fails and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use tcvs_cvsbench::layers::render_trace;
use tcvs_cvsbench::report::{end_to_end, outcome, per_layer, rates, render_json, render_table};
use tcvs_cvsbench::rig::{run, Backend, RunConfig};
use tcvs_cvsbench::workload::{Protocol, WorkloadSpec};

/// The end-to-end metrics of `BENCHMARK.json`, reported by untraced runs.
const END_TO_END: [&str; 7] = [
    "cmds_per_s",
    "checkout_p50_us",
    "commit_p50_us",
    "log_p50_us",
    "write_bytes_per_cmd",
    "setup_s",
    "ok_frac",
];

/// The per-layer metrics of `BENCHMARK.json`, reported by traced runs.
const PER_LAYER: [&str; 28] = [
    "cvs.self_p50_us",
    "cvs.ops_per_cmd",
    "cvs.value_bytes_per_op",
    "cvs.conflict_frac",
    "cvs.lost_commits",
    "net.wait_p50_us",
    "net.wait_p99_us",
    "net.return_p50_us",
    "net.return_p99_us",
    "server.handle_p50_us",
    "server.handle_p99_us",
    "server.self_p50_us",
    "server.publish_p50_us",
    "server.busy_frac",
    "server.reply_bytes_per_op",
    "server.deposit_gap_p50_us",
    "storage.commit_p50_us",
    "storage.commit_p99_us",
    "storage.self_p50_us",
    "storage.checkpoint_p50_us",
    "storage.checkpoints_per_kcmd",
    "medium.sync_p50_us",
    "medium.sync_p99_us",
    "medium.syncs_per_cmd",
    "medium.append_bytes_per_cmd",
    "medium.atomic_bytes_per_checkpoint",
    "crypto.keygen_s",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: PathBuf,
    out_dir: PathBuf,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from("cvsbench/.runs"),
        out_dir: PathBuf::from("cvsbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--data-dir" => args.data_dir = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cvsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = WorkloadSpec::by_name(&args.workload) else {
        eprintln!(
            "cvsbench: unknown workload {:?}; one of {:?}",
            args.workload,
            WorkloadSpec::NAMES
        );
        return ExitCode::from(2);
    };
    let cfg = RunConfig {
        spec: spec.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data_dir: args.data_dir,
        backend: Backend::Durable,
    };
    let r = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cvsbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let (attempted, failed) = outcome(&r);
    let correct = r.problems.is_empty() && attempted > 0;
    let protocol = match spec.protocol {
        Protocol::One => "I (blocking deposits)",
        Protocol::Two => "II",
    };
    let title = format!(
        "workload {} | protocol {protocol} | seed {} | {} s | trace {} | {} users",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        r.users.len()
    );
    let e2e = end_to_end(&r);
    let (metrics, keep): (Vec<_>, &[&str]) = if args.trace {
        let layers = per_layer(&r);
        let path = args.out_dir.join(format!("{}.trace.json", spec.name));
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, render_trace(&r.spans)));
        match written {
            Ok(()) => println!("trace: {} ({} spans)", path.display(), r.spans.len()),
            Err(e) => eprintln!("cvsbench: trace not written to {}: {e}", path.display()),
        }
        (layers, &PER_LAYER)
    } else {
        (e2e, &END_TO_END)
    };
    print!("{}", render_table(&title, &metrics));
    println!(
        "write counter: {} | sync-up: {} | lost updates: {} | problems: {}",
        r.write_bytes.1,
        if r.sync_ok { "ok" } else { "FAILED" },
        r.lost.len(),
        r.problems.len()
    );
    let rates: Vec<u64> = rates(&r).iter().map(|&x| x.round() as u64).collect();
    println!("commands per second, by second of the window: {rates:?}");
    for p in r.problems.iter().take(20) {
        println!("problem: {p}");
    }
    println!(
        "{}",
        render_json(correct, attempted, failed, &metrics, keep)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
