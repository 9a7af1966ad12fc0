//! The benchmark's own tests: every metric is emitted with its unit,
//! deterministic results repeat for a seed and differ between seeds, and
//! `BENCHMARK.json` names exactly what the benchmark reports.

use std::process::Command;

use perfbench::clock::Tracer;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{Size, Workload};

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for w in Workload::ALL {
        for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let (ok, stdout) = run(&[
                "--workload",
                w.name(),
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--size",
                "tiny",
            ]);
            assert!(ok, "{} --trace {trace} exits 0:\n{stdout}", w.name());
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{} --trace {trace}: {last}",
                w.name()
            );
            for m in table {
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                let at = last
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} missing in {last}", m.name));
                let unit = format!("\"unit\": \"{}\"}}", m.unit);
                assert!(
                    last[at..].starts_with(&entry) && last[at..].contains(&unit),
                    "{} unit",
                    m.name
                );
            }
            if trace == "1" {
                assert!(
                    stdout.contains("spans: "),
                    "the traced run writes its spans"
                );
            }
        }
    }
}

#[test]
fn deterministic_results_repeat_per_seed_and_differ_between_seeds() {
    for w in Workload::ALL {
        let size = Size::tiny(w);
        let mut t = Tracer::new(false);
        let a = w.episode(5, size, None, &mut t);
        let b = w.episode(5, size, None, &mut t);
        let c = w.episode(6, size, None, &mut t);
        assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
        assert_eq!(
            a.virt,
            b.virt,
            "{}: same seed, same virtual costs and counts",
            w.name()
        );
        assert_ne!(
            a.virt,
            c.virt,
            "{}: another seed generates other inputs",
            w.name()
        );
        let mut traced = Tracer::new(true);
        let d = w.episode(5, size, None, &mut traced);
        assert_eq!(
            a.virt,
            d.virt,
            "{}: benchmark-side spans change nothing",
            w.name()
        );
        assert!(!traced.spans().is_empty());
    }
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "{}",
            w.name()
        );
    }
    for (table, section) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
        assert!(json.contains(&format!("\"{section}\"")));
        for m in table {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "{section}: {entry}");
        }
    }
    let entries = json.matches("\"better\": ").count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len(),
        "no metric the benchmark does not report"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
