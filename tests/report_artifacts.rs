//! Integration: the end-to-end reproduction driver produces complete,
//! well-formed artifacts.

use rvhpc::eval::{experiment, report, runner};

#[test]
fn full_report_is_complete_and_annotated_with_paper_values() {
    let report = runner::full_report();
    // Every experiment section present.
    for needle in [
        "Table 1", "Table 2", "Table 3", "Table 4", "Table 5", "Table 6", "Table 7", "Table 8",
        "Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
    ] {
        assert!(report.contains(needle), "missing section {needle}");
    }
    // Paper values are embedded (spot checks).
    for paper_number in ["4.91", "3038", "32458", "63.6"] {
        assert!(
            report.contains(paper_number),
            "paper anchor {paper_number} missing from the report"
        );
    }
    // All five HPC machines appear.
    for m in ["SG2044", "SG2042", "EPYC 7742", "Xeon 8170", "ThunderX2"] {
        assert!(report.contains(m), "machine {m} missing");
    }
}

/// The report is the preamble followed by every registry section's
/// heading and body, in registry order; a fenced plot sits directly under
/// its heading, anything else after a blank line.
#[test]
fn full_report_is_the_preamble_then_every_section_in_order() {
    let mut expected = runner::REPORT_PREAMBLE.to_string();
    for section in &experiment::SECTIONS {
        let body = (section.body)();
        let gap = if body.starts_with("```") { "" } else { "\n" };
        expected.push_str(&format!("\n## {}\n{gap}{body}", section.heading));
    }
    assert_eq!(runner::full_report(), expected);
}

#[test]
fn artifacts_written_to_disk_round_trip() {
    let dir = std::env::temp_dir().join(format!("rvhpc_it_{}", std::process::id()));
    let files = runner::write_artifacts(&dir, &runner::full_report()).expect("write artifacts");
    assert!(files.len() >= 7, "expected report + 6 CSVs, got {files:?}");
    // CSVs parse as (machine, cores, value) triples.
    for f in files.iter().filter(|f| f.ends_with(".csv")) {
        let body = std::fs::read_to_string(dir.join(f)).unwrap();
        let mut lines = body.lines();
        assert_eq!(lines.next(), Some("machine,cores,value"), "{f}");
        let mut rows = 0;
        for line in lines {
            let cols: Vec<&str> = line.split(',').collect();
            assert_eq!(cols.len(), 3, "{f}: {line}");
            cols[1]
                .parse::<u32>()
                .unwrap_or_else(|_| panic!("{f}: {line}"));
            cols[2]
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("{f}: {line}"));
            rows += 1;
        }
        assert!(rows >= 7, "{f}: too few rows");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// EXPERIMENTS.md's residual grids are exactly what `reproduce residuals`
/// prints, so a model change shows as a doc diff instead of drifting.
#[test]
fn committed_experiments_md_matches_residuals_rendering() {
    const BEGIN: &str = "<!-- BEGIN reproduce residuals -->\n";
    const END: &str = "<!-- END reproduce residuals -->";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).expect("read EXPERIMENTS.md");
    let (_, after) = doc
        .split_once(BEGIN)
        .expect("EXPERIMENTS.md has the BEGIN marker");
    let (committed, _) = after
        .split_once(END)
        .expect("EXPERIMENTS.md has the END marker");
    let rendered = format!("{}\n", report::render_residuals(&experiment::residuals()));
    assert_eq!(
        committed, rendered,
        "EXPERIMENTS.md's residuals are stale — replace the block between the \
         markers with `reproduce residuals`"
    );
}
