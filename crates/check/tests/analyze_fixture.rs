//! The whole-workspace analyses must trip on every seeded violation in the
//! analyze fixture tree — exactly once per rule — and stay silent on the
//! real repository.

use std::path::PathBuf;

use autoac_check::analyze::rules::{
    self, RULE_ENV, RULE_PANIC, RULE_RNG, RULE_UNSAFE, SERVE_ENTRY_POINTS,
};
use autoac_check::analyze::workspace::Workspace;

fn fixture_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/analyze"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn fixture_tree_trips_each_analysis_exactly_once() {
    let ws = Workspace::load(&fixture_root()).expect("fixture tree loads");
    let out = rules::analyze(&ws);
    let rules_hit: Vec<&str> = out.report.diagnostics.iter().map(|d| d.rule).collect();
    for rule in [RULE_PANIC, RULE_ENV, RULE_RNG, RULE_UNSAFE] {
        assert_eq!(
            rules_hit.iter().filter(|r| **r == rule).count(),
            1,
            "expected exactly one `{rule}` finding in the analyze fixtures:\n{}",
            out.report.render()
        );
    }
    assert_eq!(out.report.diagnostics.len(), 4, "{}", out.report.render());
    for d in &out.report.diagnostics {
        let loc = &d.location;
        assert!(
            loc.starts_with("crates/serve/src/server.rs:")
                || loc.starts_with("crates/serve/src/env_knob.rs:")
                || loc.starts_with("crates/nn/src/sample.rs:")
                || loc.starts_with("crates/tensor/src/raw.rs:"),
            "finding outside the seeded files: {loc}"
        );
    }
    // Every entry point exists in the fixture serve crate and was found.
    assert_eq!(out.entry_points.len(), SERVE_ENTRY_POINTS.len());
}

#[test]
fn real_repository_is_analysis_clean() {
    // The acceptance bar for the analysis layer: zero non-allowlisted
    // findings over the real workspace, and every allowlisted one carries
    // a reason.
    let out = rules::analyze_root(&repo_root()).expect("repo loads");
    assert!(
        out.report.is_clean(),
        "the repo must stay analysis-clean; fix or `analyze:allow(rule, reason)`:\n{}",
        out.report.render()
    );
    for a in &out.allowed {
        assert!(
            !a.reason.trim().is_empty(),
            "allowlist entry without a reason at {}",
            a.location
        );
    }
    assert!(out.stats.files >= 120, "only {} files loaded", out.stats.files);
}

#[test]
fn panic_reachability_covers_every_serving_entry_point() {
    // The entry-point list is part of the analysis contract: if a serving
    // entry point is renamed or removed, this test (and the analysis, which
    // reports a finding for missing entries) must be updated together.
    let ws = Workspace::load(&repo_root()).expect("repo loads");
    let out = rules::analyze(&ws);
    assert_eq!(
        SERVE_ENTRY_POINTS,
        &["handle_connection", "run_loader", "start"],
        "update this test together with the entry-point registry"
    );
    for name in SERVE_ENTRY_POINTS {
        assert!(
            out.entry_points.iter().any(|e| e.contains(name)),
            "entry point `{name}` was not located in crates/serve: {:?}",
            out.entry_points
        );
    }
    // Every located entry point resolves to a real fn in the serve crate.
    for e in &out.entry_points {
        assert!(e.contains("crates/serve/src/"), "entry outside serve: {e}");
    }
}
