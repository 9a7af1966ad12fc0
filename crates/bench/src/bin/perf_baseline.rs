//! Tracked performance baseline for the discrete-event core.
//!
//! Measures event-loop throughput — `Cluster::step` calls per second of
//! wall clock — on mostly-idle clusters of 2/16/64/256 machines, the
//! regime where the cost of *finding* the next event dominates. Writes
//! the results as JSON (`BENCH_EVENTLOOP.json` by default) so CI can
//! compare against the committed baseline and fail on regressions.
//!
//! Usage:
//!   perf_baseline [--quick] [--out FILE] [--check BASELINE]
//!
//! * `--quick`  — shorter runs for CI smoke (same rates, more noise);
//! * `--out`    — where to write the JSON (default `BENCH_EVENTLOOP.json`);
//! * `--check`  — compare against a baseline JSON: exit non-zero if the
//!   64-machine throughput dropped more than 30%. To stay meaningful on
//!   machines of different speeds (CI runners vs the machine that
//!   committed the baseline), the gate compares *normalized* throughput:
//!   events/sec at 64 machines divided by the same run's 2-machine rate.
//!   Machine speed cancels; what remains is exactly how the loop scales
//!   with cluster size — an O(n) scan creeping back in craters it.

use demos_sim::prelude::*;
use demos_sim::programs::{CpuBurner, PingPong};
use std::time::Instant;

const SIZES: [usize; 4] = [2, 16, 64, 256];
/// Regression gate: fail `--check` below this fraction of the baseline.
const MIN_RATIO: f64 = 0.7;
/// Cluster size the `--check` gate applies to.
const GATE_MACHINES: usize = 64;
/// Recorder-overhead gate: recorder-on throughput at 64 machines must
/// stay above this fraction of recorder-off. The target is within 5%
/// (0.95); the gate sits at 0.90 to absorb runner noise while still
/// catching any allocation or copy creeping into the record path.
const RECORDER_MIN_RATIO: f64 = 0.90;

fn m(i: usize) -> MachineId {
    MachineId(i as u16)
}

fn pingpong_pair(cluster: &mut Cluster, a: MachineId, b: MachineId) {
    let pa = cluster
        .spawn(
            a,
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let pb = cluster
        .spawn(
            b,
            "pingpong",
            &PingPong::state(0, 50),
            ImageLayout::default(),
        )
        .unwrap();
    let la = cluster.link_to(pa).unwrap();
    let lb = cluster.link_to(pb).unwrap();
    cluster
        .post(
            pa,
            programs::wl::INIT,
            bytes::Bytes::from_static(&[1]),
            vec![lb],
        )
        .unwrap();
    cluster
        .post(
            pb,
            programs::wl::INIT,
            bytes::Bytes::from_static(&[0]),
            vec![la],
        )
        .unwrap();
}

/// A cluster with a fixed workload regardless of size — two message
/// pairs plus two timer-driven jobs on a handful of machines, everything
/// else idle — warmed past bootstrap. Scheduler overhead, not workload,
/// is the measurand: most events are cheap timer ticks, the regime where
/// the cost of finding the next event dominates the step. The flight
/// recorder runs at `recorder_capacity` (0 disables it — the baseline
/// side of the recorder-overhead comparison).
fn warm_cluster_cap(n: usize, recorder_capacity: usize) -> Cluster {
    let mut cluster = ClusterBuilder::new(n)
        .seed(7)
        .no_trace()
        .recorder_capacity(recorder_capacity)
        .build();
    pingpong_pair(&mut cluster, m(0), m(1));
    if n >= 4 {
        pingpong_pair(&mut cluster, m(n / 2), m(n / 2 + 1));
    }
    for k in 0..2usize.min(n) {
        cluster
            .spawn(
                m(k),
                "cpu_burner",
                &CpuBurner::state(0, 10, 100),
                ImageLayout::default(),
            )
            .unwrap();
    }
    cluster.run_for(Duration::from_millis(5));
    cluster
}

struct Sample {
    machines: usize,
    steps: u64,
    wall_secs: f64,
    events_per_sec: f64,
}

/// Drive fresh clusters through `virt` of virtual time until at least
/// `min_wall` seconds of wall clock have accumulated.
fn measure(n: usize, virt: Duration, min_wall: f64) -> Sample {
    measure_cap(n, demos_sim::DEFAULT_RECORDER_CAPACITY, virt, min_wall)
}

/// [`measure`] with an explicit recorder capacity.
fn measure_cap(n: usize, cap: usize, virt: Duration, min_wall: f64) -> Sample {
    let mut steps = 0u64;
    let mut wall = 0.0f64;
    while wall < min_wall {
        let mut cluster = warm_cluster_cap(n, cap);
        let target = cluster.now() + virt;
        let t0 = Instant::now();
        while cluster.now() < target {
            if !cluster.step() {
                break;
            }
            steps += 1;
        }
        wall += t0.elapsed().as_secs_f64();
    }
    Sample {
        machines: n,
        steps,
        wall_secs: wall,
        events_per_sec: steps as f64 / wall,
    }
}

fn render_json(
    quick: bool,
    virt_ms: u64,
    samples: &[Sample],
    recorder: &(Sample, Sample),
    cores: usize,
) -> String {
    let (on, off) = recorder;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"event_loop\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"virtual_ms_per_run\": {virt_ms},\n"));
    out.push_str(&format!(
        "  \"recorder\": {{\"machines\": {}, \"on_events_per_sec\": {:.1}, \
         \"off_events_per_sec\": {:.1}, \"on_off_ratio\": {:.4}}},\n",
        on.machines,
        on.events_per_sec,
        off.events_per_sec,
        on.events_per_sec / off.events_per_sec
    ));
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"machines\": {}, \"steps\": {}, \"wall_secs\": {:.4}, \
             \"events_per_sec\": {:.1}}}{}\n",
            s.machines,
            s.steps,
            s.wall_secs,
            s.events_per_sec,
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull `events_per_sec` for a given machine count out of a baseline
/// JSON written by this binary (dumb textual scan — no JSON dependency).
fn baseline_rate(json: &str, machines: usize) -> Option<f64> {
    // Match only result rows: the "recorder" line also names a machine
    // count but carries on/off rates under different keys.
    let marker = format!("\"machines\": {machines},");
    let line = json
        .lines()
        .find(|l| l.contains(&marker) && l.contains("\"events_per_sec\": "))?;
    let tail = line.split("\"events_per_sec\": ").nth(1)?;
    let num: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_EVENTLOOP.json");
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let virt = if quick {
        Duration::from_millis(200)
    } else {
        Duration::from_millis(1000)
    };
    let min_wall = if quick { 0.2 } else { 1.0 };

    let mut samples = Vec::new();
    for &n in &SIZES {
        let s = measure(n, virt, min_wall);
        eprintln!(
            "machines={:3}  steps={:8}  wall={:.3}s  events/sec={:.0}",
            s.machines, s.steps, s.wall_secs, s.events_per_sec
        );
        samples.push(s);
    }

    // Recorder overhead at the gate size: same workload with the flight
    // recorder at its default capacity vs disabled, measured back to
    // back so machine drift hits both equally.
    let rec_on = measure_cap(
        GATE_MACHINES,
        demos_sim::DEFAULT_RECORDER_CAPACITY,
        virt,
        min_wall,
    );
    let rec_off = measure_cap(GATE_MACHINES, 0, virt, min_wall);
    let rec_ratio = rec_on.events_per_sec / rec_off.events_per_sec;
    eprintln!(
        "recorder @{GATE_MACHINES} machines: on {:.0} ev/s, off {:.0} ev/s \
         ({:.1}% overhead)",
        rec_on.events_per_sec,
        rec_off.events_per_sec,
        (1.0 - rec_ratio) * 100.0
    );
    let recorder = (rec_on, rec_off);

    // Record the host's core count so readers can tell which regime the
    // committed numbers come from.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let json = render_json(quick, virt.as_micros() / 1000, &samples, &recorder, cores);
    std::fs::write(&out_path, &json).expect("write results");
    eprintln!("wrote {out_path}");

    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read baseline");
        let base_gate = baseline_rate(&baseline, GATE_MACHINES)
            .expect("baseline has no 64-machine events_per_sec");
        let base_ref = baseline_rate(&baseline, 2).expect("baseline has no 2-machine rate");
        let rate_of = |n: usize| {
            samples
                .iter()
                .find(|s| s.machines == n)
                .expect("size measured")
                .events_per_sec
        };
        let want = base_gate / base_ref;
        let got = rate_of(GATE_MACHINES) / rate_of(2);
        let ratio = got / want;
        eprintln!(
            "check @{GATE_MACHINES} machines (normalized to 2-machine rate): \
             current {got:.3} vs baseline {want:.3} ({:.0}% of baseline, gate {:.0}%)",
            ratio * 100.0,
            MIN_RATIO * 100.0
        );
        if ratio < MIN_RATIO {
            eprintln!("FAIL: event-loop throughput regressed more than 30%");
            std::process::exit(1);
        }
        // Recorder row: self-contained (on vs off within this run), so
        // older baseline files without the row still gate cleanly.
        eprintln!(
            "check recorder overhead @{GATE_MACHINES} machines: on/off ratio {rec_ratio:.3} \
             (gate {RECORDER_MIN_RATIO:.2})",
        );
        if rec_ratio < RECORDER_MIN_RATIO {
            eprintln!("FAIL: flight recorder costs more than 10% of event-loop throughput");
            std::process::exit(1);
        }
        eprintln!("OK");
    }
}
