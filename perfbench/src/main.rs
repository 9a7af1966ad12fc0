//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats seeded episodes of one workload until `--seconds` of host
//! time have passed, checks every op's outcome and that every episode of
//! the seed reproduced the same virtual-time costs and counts, and prints
//! one JSON result line last. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` interleaves traced and untraced episodes, runs the layer
//! probes, writes the spans under `out/`, and reports the per-layer
//! metrics.

use std::process::ExitCode;

use perfbench::clock::{now_ns, percentile, Tracer};
use perfbench::probes;
use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::speed::{HostSpeed, NOMINAL_NS};
use perfbench::workloads::{Episode, Size, Workload};

/// The seed later claims are measured on when none is given.
const DEFAULT_SEED: u64 = 1;
/// A seed kept out of all tuning, to re-check claims on.
const HELD_OUT_SEED: u64 = 20_261_017;
/// Set-ups per run at least, so `setup_s` is a median.
const MIN_SETUPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `--size tiny` runs a few ops on a small cluster (the benchmark's
    /// own tests); measurements always use the full size.
    tiny: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <migrate_images|rpc_forward|balance_1024|chaos_mix> \
[--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::MigrateImages,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        tiny: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--size" => {
                args.tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(format!("unknown size {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// `cores`, CPU model, workload and seed: carried by every result.
fn host_line(a: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"cpu\": \"{cpu}\", \"workload\": \"{}\", \"seed\": {}, \
\"default_seed\": {DEFAULT_SEED}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}}}}}",
        a.workload.name(),
        a.seed,
        a.trace
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = now_ns();
    let budget_ns = args.seconds.saturating_mul(1_000_000_000);
    let size = if args.tiny {
        Size::tiny(args.workload)
    } else {
        Size::full(args.workload)
    };
    println!("{}", host_line(&args));

    let mut tracer = Tracer::new(args.trace);
    // Host times of an untraced run are reported at a reference host
    // speed; a traced run reports them raw.
    tracer.speed = (!args.trace).then(HostSpeed::new);
    let probe_results = if args.trace {
        probes::run_all(&mut tracer)
    } else {
        Vec::new()
    };
    let first_episode_span = tracer.spans().len();

    // Untraced and traced episodes alternate in a traced run, so the
    // tracing overhead compares episodes measured side by side.
    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    loop {
        let untraced = episodes.iter().filter(|(on, _)| !on).count();
        let on = args.trace && untraced > episodes.len() - untraced;
        tracer.set_on(on);
        // Only an untraced run stretches an episode to the deadline: a
        // traced run compares whole episodes, which must match.
        let deadline = (!args.trace).then_some(start + budget_ns);
        let ep = args
            .workload
            .episode(args.seed, size, deadline, &mut tracer);
        episodes.push((on, ep));
        let untraced = episodes.iter().filter(|(on, _)| !on).count();
        let setups: usize = episodes.iter().map(|(_, e)| e.setup.len()).sum();
        let enough = if args.trace {
            untraced < episodes.len()
        } else {
            setups >= MIN_SETUPS
        };
        if enough && now_ns() - start >= budget_ns {
            break;
        }
    }

    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0;
    for (i, (_, ep)) in episodes.iter().enumerate() {
        attempted += ep.attempted;
        failures.extend(ep.failures.iter().map(|f| format!("episode {i}: {f}")));
        if ep.virt != episodes[0].1.virt {
            let keys: Vec<&str> = ep
                .virt
                .iter()
                .filter(|(k, x)| episodes[0].1.virt.get(*k) != Some(x))
                .map(|(k, _)| *k)
                .collect();
            failures.push(format!(
                "episode {i}: virtual-time or count metrics differ from episode 0 for the same seed: {keys:?}"
            ));
        }
    }
    let failed = failures.len() as u64;
    for f in &failures {
        println!("FAILED {f}");
    }
    let ops: usize = episodes.iter().map(|(_, e)| e.ops.len()).sum();
    println!(
        "{{\"run\": {{\"episodes\": {}, \"ops\": {ops}, \"attempted\": {attempted}, \"failed\": {failed}, \
\"fail_ratio\": {}}}}}",
        episodes.len(),
        failed as f64 / attempted.max(1) as f64
    );
    let virt: Vec<String> = episodes[0]
        .1
        .virt
        .iter()
        .map(|(k, x)| format!("\"{k}\": {x}"))
        .collect();
    println!("{{\"virtual\": {{{}}}}}", virt.join(", "));

    let line = if args.trace {
        let (traced, untraced): (Vec<_>, Vec<_>) = episodes.iter().partition(|(on, _)| *on);
        let spans_file = format!(
            "{}/out/spans-{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(format!("{}/out", env!("CARGO_MANIFEST_DIR")))
            .and_then(|()| std::fs::write(&spans_file, tracer.to_json_lines()));
        match written {
            Ok(()) => println!("spans: {} written to {spans_file}", tracer.spans().len()),
            Err(e) => println!("spans: could not write {spans_file}: {e}"),
        }
        let values = report::per_layer(&report::Traced {
            traced: traced.iter().map(|(_, e)| e).collect(),
            untraced: untraced.iter().map(|(_, e)| e).collect(),
            tracer: &tracer,
            first_episode_span,
            probes: &probe_results,
            fail_ratio: failed as f64 / attempted.max(1) as f64,
        });
        report::result_line(attempted, failed, PER_LAYER, &values)
    } else {
        let eps: Vec<&Episode> = episodes.iter().map(|(_, e)| e).collect();
        let speed = tracer
            .speed
            .as_ref()
            .expect("an untraced run samples host speed");
        let reference = speed.reference_ns();
        println!(
            "{{\"host_speed\": {{\"samples\": {}, \"reference_ns_min\": {}, \"reference_ns_p50\": {}, \
\"reference_ns_max\": {}, \"nominal_ns\": {NOMINAL_NS}}}}}",
            reference.len(),
            percentile(&reference, 0.0),
            percentile(&reference, 0.5),
            percentile(&reference, 1.0),
        );
        let raw: Vec<String> = report::end_to_end(&eps, |_| 1.0)
            .iter()
            .map(|(k, x)| format!("\"{k}\": {x}"))
            .collect();
        println!("{{\"raw\": {{{}}}}}", raw.join(", "));
        let values = report::end_to_end(&eps, |at| speed.scale_at(at));
        report::result_line(attempted, failed, END_TO_END, &values)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
