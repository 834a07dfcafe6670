//! The `dp_lint` rule engine: token-level source rules over the
//! workspace, built on [`crate::lexer`].
//!
//! Every rule is suppressible at the site it fires (suppression marker
//! in a comment on the same line or the comment block directly above),
//! or via the built-in [`ALLOWLIST`]. The rule table is the single
//! source of truth for the README section (`dp_lint --rules-doc`
//! renders it; CI diffs the two).

use crate::lexer::{lex, squash, LexedFile};
use crate::report::{Finding, Report};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A static description of one lint rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable identifier used in findings and suppressions.
    pub id: &'static str,
    /// Where the rule applies.
    pub scope: &'static str,
    /// How to suppress one site (`—` when not site-suppressible).
    pub suppression: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Crates whose concurrency code is in scope for the atomic-ordering
/// and panic-hygiene rules (the serving stack plus this crate).
pub const CONCURRENCY_CRATES: &[&str] = &[
    "crates/serve",
    "crates/gateway",
    "crates/net",
    "crates/fault",
    "crates/check",
];

/// Crates whose serving paths must read time through the
/// `dp_trace::Clock` seam rather than `Instant::now()` directly —
/// otherwise manual-clock tests and deterministic replays silently see
/// a different timeline than production.
pub const CLOCK_SEAM_CRATES: &[&str] = &["crates/serve", "crates/gateway", "crates/net"];

/// All implemented rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "relaxed-justified",
        scope: "serve, gateway, net, fault, check (src + tests)",
        suppression: "`// relaxed-ok: <reason>`",
        summary: "Every `Ordering::Relaxed` site must justify why relaxed ordering is sufficient.",
    },
    Rule {
        id: "seqcst-justified",
        scope: "serve, gateway, net, fault, check (src + tests)",
        suppression: "`// seqcst-ok: <reason>`",
        summary: "Every `Ordering::SeqCst` site must justify the full fence (over-synchronization candidate).",
    },
    Rule {
        id: "no-unchecked-panic",
        scope: "serve, gateway, net, fault, check (non-test code)",
        suppression: "`// panic-ok: <reason>`",
        summary: "No `unwrap()` / `expect()` / `panic!` on serving paths outside annotated sites.",
    },
    Rule {
        id: "no-unbounded-channel",
        scope: "whole workspace",
        suppression: "`// channel-ok: <reason>`",
        summary: "No unbounded `std::sync::mpsc::channel()`; every queue in the system is bounded.",
    },
    Rule {
        id: "forbid-unsafe",
        scope: "every workspace member",
        suppression: "—",
        summary: "Every crate forbids `unsafe_code`, via `#![forbid(unsafe_code)]` or the `[workspace.lints]` opt-in.",
    },
    Rule {
        id: "wire-decode-deterministic",
        scope: "crates/net/src/wire.rs",
        suppression: "`// time-ok: <reason>`",
        summary: "No `Instant::now()` / `SystemTime::now()` in wire decode paths (decode stays deterministic).",
    },
    Rule {
        id: "clock-via-seam",
        scope: "serve, gateway, net (non-test code; `wire.rs` has its own stricter rule)",
        suppression: "`// clock-ok: <reason>`",
        summary: "Raw `Instant::now()` / `SystemTime::now()` on serving paths must go through the `dp_trace::Clock` seam.",
    },
    Rule {
        id: "prom-drift",
        scope: "crates/gateway/src/metrics.rs vs gateway_metrics.prom",
        suppression: "—",
        summary: "Prometheus row names in the source must match the committed `gateway_metrics.prom` artifact.",
    },
];

/// Built-in allowlist: `(rule id, path suffix, reason)`. Kept empty on
/// purpose — every real site carries its own in-source justification —
/// but the mechanism exists so a future exception is an explicit,
/// reviewed entry instead of a weakened rule.
pub const ALLOWLIST: &[(&str, &str, &str)] = &[];

/// Renders the rule table as the markdown block embedded in the README
/// (`dp_lint --rules-doc`; CI diffs it against the README section).
pub fn rules_doc() -> String {
    let mut s = String::new();
    s.push_str("| rule | scope | suppression | summary |\n");
    s.push_str("|------|-------|-------------|---------|\n");
    for r in RULES {
        let _ = writeln!(
            s,
            "| `{}` | {} | {} | {} |",
            r.id, r.scope, r.suppression, r.summary
        );
    }
    s
}

/// Runs every rule over the workspace rooted at `root`; returns the
/// combined report.
pub fn run(root: &Path) -> Report {
    let mut report = Report::new("dp_lint");
    let members = workspace_members(root);
    let forbids = workspace_forbids_unsafe(root);
    for member in &members {
        let crate_dir = root.join(member);
        check_forbid_unsafe(root, member, forbids, &mut report);
        for file in rs_files(&crate_dir) {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let Ok(src) = fs::read_to_string(&file) else {
                continue;
            };
            report.scanned += 1;
            let lexed = lex(&src);
            check_file(member, &rel, &lexed, &mut report);
        }
    }
    check_prom_drift(root, &mut report);
    report
}

/// Applies the per-line rules to one lexed file.
fn check_file(member: &str, rel: &str, lexed: &LexedFile, report: &mut Report) {
    let concurrency = CONCURRENCY_CRATES.contains(&member);
    let in_test_file = rel.contains("/tests/") || rel.contains("/benches/");
    let mask = lexed.test_mask();
    let is_wire = rel.ends_with("crates/net/src/wire.rs") || rel == "crates/net/src/wire.rs";

    for (idx, line) in lexed.lines.iter().enumerate() {
        let sq = squash(&line.code);
        let lineno = idx + 1;
        let test_code = in_test_file || mask.get(idx).copied().unwrap_or(false);

        if concurrency && sq.contains("Ordering::Relaxed") {
            site(
                report, lexed, idx, "relaxed-justified", rel, lineno, "relaxed-ok:",
                "`Ordering::Relaxed` without a `relaxed-ok:` justification",
                "state why relaxed suffices (e.g. monotone counter; reader syncs via a lock) in a `// relaxed-ok: …` comment on or above the line",
            );
        }
        if concurrency && sq.contains("Ordering::SeqCst") {
            site(
                report, lexed, idx, "seqcst-justified", rel, lineno, "seqcst-ok:",
                "`Ordering::SeqCst` without a `seqcst-ok:` justification",
                "state why the full fence is needed (or weaken the ordering) in a `// seqcst-ok: …` comment on or above the line",
            );
        }
        if concurrency && !test_code {
            for pat in [".unwrap()", ".expect(", "panic!("] {
                if sq.contains(pat) {
                    site(
                        report, lexed, idx, "no-unchecked-panic", rel, lineno, "panic-ok:",
                        &format!("`{pat}` on a serving-crate path without a `panic-ok:` justification"),
                        "return a typed error, or justify the invariant in a `// panic-ok: …` comment on or above the line",
                    );
                    break; // one finding per line
                }
            }
        }
        if sq.contains("mpsc::channel(") {
            site(
                report,
                lexed,
                idx,
                "no-unbounded-channel",
                rel,
                lineno,
                "channel-ok:",
                "unbounded `mpsc::channel()`",
                "use `mpsc::sync_channel(bound)` so backpressure propagates",
            );
        }
        if is_wire
            && !test_code
            && (sq.contains("Instant::now(") || sq.contains("SystemTime::now("))
        {
            site(
                report,
                lexed,
                idx,
                "wire-decode-deterministic",
                rel,
                lineno,
                "time-ok:",
                "clock read inside `dp_net::wire`",
                "keep frame encode/decode pure; resolve deadlines at admission in the server layer",
            );
        }
        if CLOCK_SEAM_CRATES.contains(&member)
            && !is_wire // wire.rs answers to the stricter wire-decode-deterministic rule
            && !test_code
            && (sq.contains("Instant::now(") || sq.contains("SystemTime::now("))
        {
            site(
                report, lexed, idx, "clock-via-seam", rel, lineno, "clock-ok:",
                "raw clock read on a serving path without a `clock-ok:` justification",
                "read time through the `dp_trace::Clock` seam (thread a clock handle in), or justify the wall-clock read in a `// clock-ok: …` comment on or above the line",
            );
        }
    }
}

/// Records a finding for one matched site unless a suppression marker
/// or allowlist entry covers it.
#[allow(clippy::too_many_arguments)]
fn site(
    report: &mut Report,
    lexed: &LexedFile,
    idx: usize,
    rule: &str,
    rel: &str,
    lineno: usize,
    marker: &str,
    message: &str,
    hint: &str,
) {
    if has_marker(lexed, idx, marker) || allowlisted(rule, rel) {
        report.suppressed += 1;
    } else {
        report
            .findings
            .push(Finding::new(rule, rel, lineno, message, hint));
    }
}

/// True when `marker` (with a non-empty reason after it) appears in the
/// comment on line `idx` or in the contiguous comment block above it.
fn has_marker(lexed: &LexedFile, idx: usize, marker: &str) -> bool {
    if comment_has(&lexed.lines[idx].comment, marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &lexed.lines[i];
        if l.code.trim().is_empty() && !l.comment.trim().is_empty() {
            if comment_has(&l.comment, marker) {
                return true;
            }
        } else {
            break;
        }
    }
    false
}

/// `marker` followed by a non-empty reason.
fn comment_has(comment: &str, marker: &str) -> bool {
    comment
        .find(marker)
        .is_some_and(|p| !comment[p + marker.len()..].trim().is_empty())
}

/// True when the built-in allowlist covers (rule, file).
fn allowlisted(rule: &str, rel: &str) -> bool {
    ALLOWLIST
        .iter()
        .any(|(r, suffix, _)| *r == rule && rel.ends_with(suffix))
}

/// Parses the workspace member list from the root `Cargo.toml`.
pub fn workspace_members(root: &Path) -> Vec<String> {
    let Ok(toml) = fs::read_to_string(root.join("Cargo.toml")) else {
        return Vec::new();
    };
    let mut members = Vec::new();
    let mut in_members = false;
    for line in toml.lines() {
        let t = line.trim();
        if t.starts_with("members") {
            in_members = true;
        }
        if in_members {
            for piece in t.split('"').skip(1).step_by(2) {
                members.push(piece.to_string());
            }
            if t.ends_with(']') {
                break;
            }
        }
    }
    members
}

/// True when the root `[workspace.lints.rust]` table forbids unsafe.
fn workspace_forbids_unsafe(root: &Path) -> bool {
    let Ok(toml) = fs::read_to_string(root.join("Cargo.toml")) else {
        return false;
    };
    let mut in_table = false;
    for line in toml.lines() {
        let t = line.trim();
        if t.starts_with('[') {
            in_table = t == "[workspace.lints.rust]";
        } else if in_table && squash(t).starts_with("unsafe_code=\"forbid\"") {
            return true;
        }
    }
    false
}

/// The forbid-unsafe rule: the crate root carries the attribute, or the
/// crate opts into the workspace lints table (which forbids it).
fn check_forbid_unsafe(root: &Path, member: &str, workspace_forbids: bool, report: &mut Report) {
    let crate_dir = root.join(member);
    let lib = crate_dir.join("src/lib.rs");
    let main = crate_dir.join("src/main.rs");
    let crate_root = if lib.exists() { lib } else { main };
    let attr_present = fs::read_to_string(&crate_root)
        .map(|s| {
            lex(&s)
                .lines
                .iter()
                .any(|l| squash(&l.code).contains("#![forbid(unsafe_code)]"))
        })
        .unwrap_or(false);
    let opted_in = workspace_forbids
        && fs::read_to_string(crate_dir.join("Cargo.toml"))
            .map(|t| {
                let mut in_lints = false;
                for line in t.lines() {
                    let tr = line.trim();
                    if tr.starts_with('[') {
                        in_lints = tr == "[lints]";
                    } else if in_lints && squash(tr) == "workspace=true" {
                        return true;
                    }
                }
                false
            })
            .unwrap_or(false);
    if !attr_present && !opted_in {
        report.findings.push(Finding::new(
            "forbid-unsafe",
            format!("{member}/src/lib.rs"),
            1,
            "crate neither carries `#![forbid(unsafe_code)]` nor opts into `[workspace.lints]`",
            "add `[lints] workspace = true` to the crate's Cargo.toml",
        ));
    } else {
        report.suppressed += 1;
    }
}

/// The prom-drift rule: full `dp_gateway_*` metric names appearing in
/// string literals of the gateway metrics source (non-test lines) must
/// exactly match the `# TYPE` rows of the committed root
/// `gateway_metrics.prom` artifact.
fn check_prom_drift(root: &Path, report: &mut Report) {
    let Ok(src) = fs::read_to_string(root.join("crates/gateway/src/metrics.rs")) else {
        return; // no gateway source under this root: nothing to diff
    };
    let Ok(prom) = fs::read_to_string(root.join("gateway_metrics.prom")) else {
        report.findings.push(Finding::new(
            "prom-drift",
            "gateway_metrics.prom",
            0,
            "the gateway metrics source exists but the committed artifact is missing",
            "copy the bench-smoke exposition (results/smoke/gateway_metrics.prom) to the repository root and commit it",
        ));
        return;
    };
    let lexed = lex(&src);
    let mask = lexed.test_mask();
    let mut in_source: BTreeSet<String> = BTreeSet::new();
    for (idx, line) in lexed.lines.iter().enumerate() {
        if mask.get(idx).copied().unwrap_or(false) {
            continue;
        }
        for s in &line.strings {
            for name in extract_metric_names(s, "dp_gateway_") {
                in_source.insert(name);
            }
        }
    }
    let in_artifact: BTreeSet<String> = prom
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect();
    for name in in_source.difference(&in_artifact) {
        report.findings.push(Finding::new(
            "prom-drift",
            "gateway_metrics.prom",
            0,
            format!("source emits `{name}` but the committed artifact has no `# TYPE {name}` row"),
            "regenerate the artifact (bench-smoke writes results/smoke/gateway_metrics.prom), copy it to the root gateway_metrics.prom and commit it",
        ));
    }
    for name in in_artifact.difference(&in_source) {
        report.findings.push(Finding::new(
            "prom-drift",
            "crates/gateway/src/metrics.rs",
            0,
            format!(
                "committed artifact declares `# TYPE {name}` but the source no longer names it"
            ),
            "remove the stale row from gateway_metrics.prom or restore it in `PROM_TYPE_ROWS`",
        ));
    }
    if in_source == in_artifact && !in_source.is_empty() {
        report.suppressed += 1;
    }
}

/// Extracts maximal `prefix[a-z0-9_]*` names from a literal, dropping
/// trailing underscores and bare-prefix matches (format templates like
/// `dp_gateway_{name}_total` must not count as names).
fn extract_metric_names(literal: &str, prefix: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = literal.as_bytes();
    let mut start = 0usize;
    while let Some(pos) = literal[start..].find(prefix) {
        let begin = start + pos;
        let mut end = begin + prefix.len();
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let mut name = &literal[begin..end];
        while let Some(stripped) = name.strip_suffix('_') {
            name = stripped;
        }
        if name.len() > prefix.len() {
            out.push(name.to_string());
        }
        start = end.max(begin + prefix.len());
    }
    out
}

/// Recursively collects `.rs` files under `dir` (skips `target/`).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        let mut batch: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
        batch.sort();
        for path in batch {
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn findings_for(member: &str, rel: &str, src: &str) -> Report {
        let mut report = Report::new("dp_lint");
        check_file(member, rel, &lex(src), &mut report);
        report
    }

    #[test]
    fn unjustified_relaxed_is_a_finding_and_marker_suppresses() {
        let bad = "x.load(Ordering::Relaxed);\n";
        let r = findings_for("crates/gateway", "crates/gateway/src/x.rs", bad);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "relaxed-justified");
        assert_eq!(r.findings[0].line, 1);

        let ok = "x.load(Ordering::Relaxed); // relaxed-ok: monotone counter\n";
        let r = findings_for("crates/gateway", "crates/gateway/src/x.rs", ok);
        assert!(r.is_clean());
        assert_eq!(r.suppressed, 1);

        let above = "// relaxed-ok: monotone counter\nx.load(Ordering::Relaxed);\n";
        assert!(findings_for("crates/gateway", "crates/gateway/src/x.rs", above).is_clean());
    }

    #[test]
    fn marker_without_reason_does_not_suppress() {
        let src = "x.load(Ordering::Relaxed); // relaxed-ok:\n";
        let r = findings_for("crates/gateway", "crates/gateway/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn seqcst_needs_its_own_marker() {
        let src = "x.store(true, Ordering::SeqCst); // relaxed-ok: wrong marker\n";
        let r = findings_for("crates/serve", "crates/serve/src/x.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "seqcst-justified");
    }

    #[test]
    fn out_of_scope_crates_are_not_checked_for_orderings() {
        let src = "x.load(Ordering::Relaxed);\n";
        assert!(findings_for("crates/posit", "crates/posit/src/x.rs", src).is_clean());
    }

    #[test]
    fn panic_rule_skips_test_code_and_strings() {
        let src =
            "let x = opt.unwrap();\n#[cfg(test)]\nmod tests {\n    fn t() { o.unwrap(); }\n}\n";
        let r = findings_for("crates/net", "crates/net/src/x.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "no-unchecked-panic");
        assert_eq!(r.findings[0].line, 1);

        let in_string = "let msg = \"don't panic!(…) or .unwrap()\";\n";
        assert!(findings_for("crates/net", "crates/net/src/x.rs", in_string).is_clean());

        let test_file = "fn helper() { o.unwrap(); }\n";
        assert!(findings_for("crates/net", "crates/net/tests/x.rs", test_file).is_clean());
    }

    #[test]
    fn unwrap_or_variants_do_not_match() {
        let src = "let x = o.unwrap_or(1) + o.unwrap_or_else(f) + o.unwrap_or_default();\n";
        assert!(findings_for("crates/net", "crates/net/src/x.rs", src).is_clean());
        let e = "let x = admission.expect_admitted();\n";
        assert!(findings_for("crates/gateway", "crates/gateway/src/x.rs", e).is_clean());
    }

    #[test]
    fn unbounded_channel_flagged_everywhere_bounded_is_fine() {
        let bad = "let (tx, rx) = std::sync::mpsc::channel();\n";
        let r = findings_for("crates/core", "crates/core/src/x.rs", bad);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "no-unbounded-channel");
        let good = "let (tx, rx) = std::sync::mpsc::sync_channel(8);\n";
        assert!(findings_for("crates/core", "crates/core/src/x.rs", good).is_clean());
    }

    #[test]
    fn wire_clock_reads_flagged_only_in_wire() {
        let src = "let t = Instant::now();\n";
        let r = findings_for("crates/net", "crates/net/src/wire.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "wire-decode-deterministic");
        // Outside wire.rs the read is clock-via-seam's business instead.
        let r = findings_for("crates/net", "crates/net/src/server.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "clock-via-seam");
    }

    #[test]
    fn clock_reads_on_serving_paths_need_the_seam_or_a_marker() {
        let bad = "let now = Instant::now();\n";
        let r = findings_for("crates/serve", "crates/serve/src/pool.rs", bad);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "clock-via-seam");
        assert_eq!(r.findings[0].line, 1);

        let wall = "let t = SystemTime::now();\n";
        let r = findings_for("crates/net", "crates/net/src/server.rs", wall);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "clock-via-seam");

        let ok = "let now = Instant::now(); // clock-ok: rate limiting is a real-time contract\n";
        let r = findings_for("crates/gateway", "crates/gateway/src/limiter.rs", ok);
        assert!(r.is_clean());
        assert_eq!(r.suppressed, 1);

        let above = "// clock-ok: drain-deadline anchor\nst.closed_at = Some(Instant::now());\n";
        assert!(findings_for("crates/gateway", "crates/gateway/src/ring.rs", above).is_clean());
    }

    #[test]
    fn clock_seam_rule_skips_tests_wire_and_out_of_scope_crates() {
        let src = "let now = Instant::now();\n";
        // Test files and #[cfg(test)] blocks drive manual clocks anyway.
        assert!(findings_for("crates/serve", "crates/serve/tests/x.rs", src).is_clean());
        // wire.rs answers to wire-decode-deterministic, not this rule.
        let r = findings_for("crates/net", "crates/net/src/wire.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "wire-decode-deterministic");
        // The seam itself (dp_trace) and the numeric crates are out of scope.
        assert!(findings_for("crates/trace", "crates/trace/src/clock.rs", src).is_clean());
        assert!(findings_for("crates/bench", "crates/bench/src/x.rs", src).is_clean());
    }

    #[test]
    fn metric_name_extraction_ignores_templates_and_trailing_runs() {
        assert_eq!(
            extract_metric_names("# TYPE dp_gateway_submitted_total counter", "dp_gateway_"),
            vec!["dp_gateway_submitted_total"]
        );
        assert!(
            extract_metric_names("# TYPE dp_gateway_{name}_total counter", "dp_gateway_")
                .is_empty()
        );
        assert_eq!(
            extract_metric_names(
                "dp_gateway_model_requests_total{model=\"{m}\"} {v}",
                "dp_gateway_"
            ),
            vec!["dp_gateway_model_requests_total"]
        );
    }

    #[test]
    fn prom_drift_reads_the_committed_root_artifact() {
        let root = std::env::temp_dir().join(format!("dp_lint_prom_drift_{}", std::process::id()));
        let src_dir = root.join("crates/gateway/src");
        fs::create_dir_all(&src_dir).unwrap();
        fs::write(
            src_dir.join("metrics.rs"),
            "const ROWS: &[&str] = &[\"dp_gateway_a_total\", \"dp_gateway_b_total\"];\n",
        )
        .unwrap();
        let drift = |root: &Path| {
            let mut report = Report::new("dp_lint");
            check_prom_drift(root, &mut report);
            report
        };
        // Source present, artifact absent: a finding, not a silent pass.
        let r = drift(&root);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "prom-drift");
        // The source names a row the artifact lacks: one finding naming it.
        let prom = root.join("gateway_metrics.prom");
        fs::write(&prom, "# TYPE dp_gateway_a_total counter\n").unwrap();
        let r = drift(&root);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "prom-drift");
        assert!(r.findings[0].message.contains("dp_gateway_b_total"));
        // In step: clean.
        fs::write(
            &prom,
            "# TYPE dp_gateway_a_total counter\n# TYPE dp_gateway_b_total counter\n",
        )
        .unwrap();
        assert!(drift(&root).is_clean());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn rules_doc_lists_every_rule() {
        let doc = rules_doc();
        for r in RULES {
            assert!(doc.contains(r.id), "missing {}", r.id);
        }
    }
}
