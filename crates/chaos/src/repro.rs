//! Minimal-repro emission.
//!
//! When a shrunk scenario survives, the harness writes four artifacts:
//! the scenario in its stable text form (drop it into `tests/corpus/` to
//! pin the regression forever), a self-contained Rust test snippet that
//! replays it, the JSON-lines trace of the violating run, and the
//! flight-recorder dump (every machine's black box — query it with
//! `demos-trace`).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::exec::RunConfig;
use crate::invariants::Violation;
use crate::scenario::Scenario;

/// Render a self-contained `#[test]` that replays the scenario and
/// asserts the invariants hold — paste it into the test tree as-is.
pub fn rust_snippet(sc: &Scenario, cfg: &RunConfig, violation: &Violation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "/// Minimized chaos repro (seed {}): {}.\n",
        sc.seed, violation
    ));
    out.push_str("#[test]\n");
    out.push_str(&format!("fn chaos_repro_seed_{}() {{\n", sc.seed));
    out.push_str("    let scenario = demos_chaos::Scenario::parse(\n");
    out.push_str("        r#\"");
    out.push_str(&sc.to_text());
    out.push_str("\"#,\n    )\n    .unwrap();\n");
    out.push_str(&format!(
        "    let cfg = demos_chaos::RunConfig {{ disable_forwarding: {}, disable_recovery: {} }};\n",
        cfg.disable_forwarding, cfg.disable_recovery
    ));
    out.push_str("    let report = demos_chaos::run(&scenario, &cfg);\n");
    out.push_str(
        "    assert!(report.passed(), \"invariant violated: {}\", report.violation.unwrap());\n",
    );
    out.push_str("}\n");
    out
}

/// Artifact paths written by [`write_artifacts`].
#[derive(Clone, Debug)]
pub struct Artifacts {
    /// The scenario text (corpus-ready).
    pub scenario: PathBuf,
    /// The Rust test snippet.
    pub snippet: PathBuf,
    /// The JSON-lines trace of the violating run.
    pub trace: PathBuf,
    /// The flight-recorder dump (binary; `demos-trace` reads it).
    pub flight: PathBuf,
}

/// Write the repro artifacts for `sc` into `dir` (created if missing).
///
/// Artifacts are named `repro-<seed>.*`. Two different violations can
/// share a seed — the same scenario under different ablation flags, or
/// two mutants that kept the base's seed field — so an existing
/// `repro-<seed>.seed` holding *different* scenario text is never
/// silently overwritten: the new artifacts get a `-<violation-slug>`
/// suffix (then `-2`, `-3`, … if that base is taken too). Re-writing
/// identical scenario text reuses the name — replaying a known repro is
/// idempotent.
pub fn write_artifacts(
    dir: &Path,
    sc: &Scenario,
    cfg: &RunConfig,
    violation: &Violation,
    trace_lines: &str,
    flight_dump: &[u8],
) -> std::io::Result<Artifacts> {
    std::fs::create_dir_all(dir)?;
    let base = pick_base(dir, sc, violation);
    let paths = Artifacts {
        scenario: dir.join(format!("{base}.seed")),
        snippet: dir.join(format!("{base}.rs")),
        trace: dir.join(format!("{base}.jsonl")),
        flight: dir.join(format!("{base}.flight")),
    };
    std::fs::File::create(&paths.scenario)?.write_all(sc.to_text().as_bytes())?;
    std::fs::File::create(&paths.snippet)?
        .write_all(rust_snippet(sc, cfg, violation).as_bytes())?;
    std::fs::File::create(&paths.trace)?.write_all(trace_lines.as_bytes())?;
    std::fs::File::create(&paths.flight)?.write_all(flight_dump)?;
    Ok(paths)
}

/// First free artifact base name for this (scenario, violation): the
/// plain `repro-<seed>` when it is unused or already holds this exact
/// scenario text, else suffixed by the violation slug, else numbered.
fn pick_base(dir: &Path, sc: &Scenario, violation: &Violation) -> String {
    let text = sc.to_text();
    let available = |base: &str| {
        let existing = dir.join(format!("{base}.seed"));
        match std::fs::read_to_string(&existing) {
            Ok(held) => held == text,
            Err(_) => !existing.exists(),
        }
    };
    let plain = format!("repro-{}", sc.seed);
    if available(&plain) {
        return plain;
    }
    let slugged = format!("{plain}-{}", violation.slug());
    if available(&slugged) {
        return slugged;
    }
    let mut i = 2u32;
    loop {
        let numbered = format!("{slugged}-{i}");
        if available(&numbered) {
            return numbered;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snippet_embeds_parseable_scenario() {
        let sc = Scenario::generate(11);
        let snippet = rust_snippet(
            &sc,
            &RunConfig {
                disable_forwarding: true,
                ..RunConfig::default()
            },
            &Violation::NonDeliverable { count: 1 },
        );
        assert!(snippet.contains("#[test]"));
        assert!(snippet.contains("disable_forwarding: true"));
        // The embedded text must round-trip through the parser.
        let start = snippet.find("demos-chaos v1").unwrap();
        let end = snippet.find("\"#").unwrap();
        let embedded = &snippet[start..end];
        assert_eq!(Scenario::parse(embedded).unwrap(), sc);
    }

    #[test]
    fn artifacts_are_written() {
        let dir = std::env::temp_dir().join("demos-chaos-test-artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        let sc = Scenario::generate(13);
        let paths = write_artifacts(
            &dir,
            &sc,
            &RunConfig::default(),
            &Violation::NonDeliverable { count: 2 },
            "{\"at\":0}\n",
            b"DMFR1\0\0\0",
        )
        .unwrap();
        assert_eq!(
            std::fs::read_to_string(&paths.scenario).unwrap(),
            sc.to_text()
        );
        assert!(std::fs::read_to_string(&paths.snippet)
            .unwrap()
            .contains("chaos_repro_seed_13"));
        assert_eq!(std::fs::read(&paths.flight).unwrap(), b"DMFR1\0\0\0");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_variant_same_seed_never_overwrites() {
        let dir = std::env::temp_dir().join("demos-chaos-test-artifact-collisions");
        let _ = std::fs::remove_dir_all(&dir);
        let sc = Scenario::generate(21);
        let mut other = sc.clone();
        other.quantum_us += 1; // same seed field, different scenario
        let cfg = RunConfig::default();

        let first = write_artifacts(
            &dir,
            &sc,
            &cfg,
            &Violation::NonDeliverable { count: 1 },
            "t1\n",
            b"F1",
        )
        .unwrap();
        // Same scenario again: idempotent, same paths, content intact.
        let again = write_artifacts(
            &dir,
            &sc,
            &cfg,
            &Violation::NonDeliverable { count: 1 },
            "t1\n",
            b"F1",
        )
        .unwrap();
        assert_eq!(first.scenario, again.scenario);

        // Different scenario text with the same seed: new slugged base,
        // first artifacts untouched.
        let second = write_artifacts(
            &dir,
            &other,
            &cfg,
            &Violation::NotQuiescent { in_flight: 3 },
            "t2\n",
            b"F2",
        )
        .unwrap();
        assert_ne!(first.scenario, second.scenario);
        assert!(second
            .scenario
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("notquiescent"));
        assert_eq!(std::fs::read(&first.flight).unwrap(), b"F1");
        assert_eq!(std::fs::read(&second.flight).unwrap(), b"F2");

        // A third distinct scenario under the same seed and slug gets a
        // numbered base.
        let mut third_sc = sc.clone();
        third_sc.quantum_us += 2;
        let third = write_artifacts(
            &dir,
            &third_sc,
            &cfg,
            &Violation::NotQuiescent { in_flight: 9 },
            "t3\n",
            b"F3",
        )
        .unwrap();
        assert!(third
            .scenario
            .file_name()
            .unwrap()
            .to_string_lossy()
            .contains("notquiescent-2"));
        assert_eq!(std::fs::read(&second.flight).unwrap(), b"F2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
