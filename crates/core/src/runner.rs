//! End-to-end reproduction driver: regenerates every table and figure and
//! writes them to a results directory.
//!
//! The driver is a client of the prediction engine: it merges every
//! experiment's query batch into one [`Plan`](crate::engine::Plan),
//! executes it once (in parallel, under `--jobs` / `RVHPC_JOBS`), and
//! renders every table and figure from the warm cache. Output is
//! byte-identical at any worker count.

use std::path::Path;

use rvhpc_npb::BenchmarkId;

use crate::engine::{jobs_from_env, Engine};
use crate::experiment::{self, SECTIONS};
use crate::report;

/// The report's opening paragraph, before the first section.
pub const REPORT_PREAMBLE: &str = "# rvhpc reproduction report\n\nModel-predicted results for \
     every table and figure of the SG2044 paper; paper values in parentheses where published.\n";

/// Generate the full reproduction report (one markdown document with
/// every table/figure, model vs paper) at the default worker count.
pub fn full_report() -> String {
    full_report_with_jobs(jobs_from_env())
}

/// Generate the full reproduction report with an explicit worker count.
/// The whole scenario grid is evaluated as one engine batch up front;
/// each [`SECTIONS`] body then resolves from the cache, so the returned
/// string is byte-identical for any `jobs`.
pub fn full_report_with_jobs(jobs: usize) -> String {
    Engine::global().execute_with_jobs(&experiment::full_plan(), jobs);
    let mut out = String::from(REPORT_PREAMBLE);
    for section in &SECTIONS {
        out.push_str(&render_section(section.heading, &(section.body)()));
    }
    out
}

/// One report section: its heading, a blank line, then the body — a
/// fenced plot sits directly under its heading.
fn render_section(heading: &str, body: &str) -> String {
    let gap = if body.starts_with("```") { "" } else { "\n" };
    format!("\n## {heading}\n{gap}{body}")
}

/// Write the rendered `report` as `REPORT.md` and the per-figure CSV/SVG
/// artifacts into `dir`. Returns the list of files written.
///
/// Rendering the report warmed the engine with the merged plan, so the
/// per-figure CSV/SVG regeneration below is pure cache hits; a second
/// call in the same process recomputes nothing.
pub fn write_artifacts(dir: &Path, report: &str) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut save = |name: &str, contents: &str| -> std::io::Result<()> {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        written.push(name.to_string());
        Ok(())
    };

    save("REPORT.md", report)?;
    let mut figures = vec![(
        "fig1_stream",
        "Figure 1 — STREAM copy".to_string(),
        "GB/s",
        experiment::fig1_data(),
    )];
    for (stem, bench) in [
        ("fig2_is", BenchmarkId::Is),
        ("fig3_mg", BenchmarkId::Mg),
        ("fig4_ep", BenchmarkId::Ep),
        ("fig5_cg", BenchmarkId::Cg),
        ("fig6_ft", BenchmarkId::Ft),
    ] {
        let title = format!("{} scaling, class C", bench.name());
        figures.push((stem, title, "Mop/s", experiment::fig_kernel_data(bench)));
    }
    for (stem, title, unit, curves) in figures {
        save(&format!("{stem}.csv"), &report::curves_csv(&curves))?;
        save(
            &format!("{stem}.svg"),
            &report::svg_plot(&title, unit, &curves),
        )?;
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_report_covers_every_experiment() {
        let r = full_report();
        for needle in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Table 8",
            "Figure 1",
            "Figure 2",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Stall attribution",
        ] {
            assert!(r.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn artifacts_are_written() {
        let dir = std::env::temp_dir().join("rvhpc_artifacts_test");
        let _ = std::fs::remove_dir_all(&dir);
        let files = write_artifacts(&dir, &full_report()).expect("write artifacts");
        assert!(files.contains(&"REPORT.md".to_string()));
        assert!(files.iter().any(|f| f.ends_with(".csv")));
        assert!(dir.join("REPORT.md").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
