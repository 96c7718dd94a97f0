//! Rendering: markdown tables, CSV, and ASCII scaling plots.

use crate::experiment::{
    self, CompilerRow, Curve, Measure, Residuals, SgCompareRow, StallRow, Table1Row, Table2Row,
    Table6Row,
};

/// Render a generic markdown table.
pub(crate) fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!(
        "|{}\n",
        header.iter().map(|_| "---|").collect::<String>()
    ));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Format a float with sensible benchmark precision.
pub(crate) fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// Table 1 as markdown (model vs paper).
pub(crate) fn render_table1(rows: &[Table1Row]) -> String {
    let header = [
        "Benchmark",
        "cache stall % (model)",
        "cache stall % (paper)",
        "DDR stall % (model)",
        "DDR stall % (paper)",
        "BW-bound % (model)",
        "BW-bound % (paper)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.name().to_string(),
                fmt(r.model_cache_pct),
                fmt(r.paper_cache_pct),
                fmt(r.model_dram_pct),
                fmt(r.paper_dram_pct),
                fmt(r.model_bw_bound_pct),
                fmt(r.paper_bw_bound_pct),
            ]
        })
        .collect();
    markdown_table(&header, &body)
}

/// Table 2 as markdown: per machine `model (paper)` with the %-of-SG2044
/// line the paper prints in red.
pub(crate) fn render_table2(rows: &[Table2Row]) -> String {
    let mut header = vec!["Benchmark"];
    if let Some(first) = rows.first() {
        header.extend(first.cells.iter().map(|(mid, _, _)| mid.name()));
    }
    let mut body = Vec::new();
    for r in rows {
        let sg = r.cells[0].1;
        let mut line = vec![r.bench.name().to_string()];
        let mut pct_line = vec!["· % of SG2044".to_string()];
        for (_, model, paper) in &r.cells {
            let paper_s = paper.map_or("DNR".to_string(), fmt);
            line.push(format!("{} ({paper_s})", fmt(*model)));
            pct_line.push(format!("{:.0}%", 100.0 * model / sg));
        }
        body.push(line);
        body.push(pct_line);
    }
    markdown_table(&header, &body)
}

/// Tables 3/4 as markdown.
pub(crate) fn render_sg_compare(rows: &[SgCompareRow]) -> String {
    let header = [
        "Benchmark",
        "SG2044 model (paper)",
        "SG2042 model (paper)",
        "× faster model (paper)",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.name().to_string(),
                format!("{} ({})", fmt(r.model_sg2044), fmt(r.paper_sg2044)),
                format!("{} ({})", fmt(r.model_sg2042), fmt(r.paper_sg2042)),
                format!("{:.2} ({:.2})", r.model_ratio(), r.paper_ratio()),
            ]
        })
        .collect::<Vec<_>>();
    markdown_table(&header, &body)
}

/// Table 6 as markdown.
pub(crate) fn render_table6(rows: &[Table6Row]) -> String {
    let header = [
        "Benchmark",
        "Cores",
        "SG2042",
        "EPYC",
        "Skylake",
        "ThunderX2",
    ];
    let body = rows
        .iter()
        .map(|r| {
            let mut line = vec![r.bench.name().to_string(), r.cores.to_string()];
            for (_, model, paper) in &r.cells {
                line.push(match (model, paper) {
                    (Some(m), Some(p)) => format!("{m:.2} ({p:.2})"),
                    (Some(m), None) => format!("{m:.2} (–)"),
                    _ => "–".to_string(),
                });
            }
            line
        })
        .collect::<Vec<_>>();
    markdown_table(&header, &body)
}

/// Tables 7/8 as markdown.
pub(crate) fn render_compiler_table(rows: &[CompilerRow]) -> String {
    let header = [
        "Benchmark",
        "GCC 12.3.1 model (paper)",
        "GCC 15.2 +vec model (paper)",
        "GCC 15.2 −vec model (paper)",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.name().to_string(),
                format!("{} ({})", fmt(r.model_gcc12), fmt(r.paper_gcc12)),
                format!("{} ({})", fmt(r.model_gcc15_vec), fmt(r.paper_gcc15_vec)),
                format!(
                    "{} ({})",
                    fmt(r.model_gcc15_novec),
                    fmt(r.paper_gcc15_novec)
                ),
            ]
        })
        .collect::<Vec<_>>();
    markdown_table(&header, &body)
}

/// Stall-attribution section: where each benchmark's cycles go on the
/// SG2044 at full chip, plus the average DRAM queue depth — the markdown
/// twin of the `--metrics` JSON totals.
pub(crate) fn render_stall_attribution(rows: &[StallRow]) -> String {
    let header = [
        "Benchmark",
        "compute %",
        "cache stall %",
        "DDR stall %",
        "BW-bound %",
        "avg DRAM queue",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.bench.name().to_string(),
                fmt(r.compute_pct),
                fmt(r.cache_pct),
                fmt(r.dram_pct),
                fmt(r.bw_bound_pct),
                fmt(r.avg_queue_depth),
            ]
        })
        .collect::<Vec<_>>();
    format!(
        "Model cycle accounting per benchmark; the same numbers are exported \
         per-core by `reproduce --metrics`.\n\n{}",
        markdown_table(&header, &body)
    )
}

/// The residual grids: per table, the signed error of every cell and the
/// table's MAPE; then the MAPE over every scored cell and over the Tables
/// 2–4 Mop/s cells (the figure `benchmark/` reports as `model_mape_pct`).
pub fn render_residuals(tables: &[Residuals]) -> String {
    let mut out = String::from(
        "Signed error of every transcribed paper cell: (model − paper) / paper \
         in %, Table 1 in percentage points; – where the paper has no value.\n",
    );
    for t in tables {
        let heading = experiment::section(t.slug).map_or(t.slug, |s| s.heading);
        let mut header = vec!["Benchmark"];
        header.extend(t.columns.iter().map(|&(name, _)| name));
        let body: Vec<Vec<String>> = t
            .rows
            .iter()
            .map(|(label, errors)| {
                let cells = errors
                    .iter()
                    .map(|e| e.map_or("–".to_string(), |e| format!("{e:+.1}")));
                std::iter::once(label.clone()).chain(cells).collect()
            })
            .collect();
        let (pct, n) = experiment::mape(t.cells());
        let score = match n {
            0 => "Percentage points; no MAPE (the paper's shares include zeros).".to_string(),
            _ => format!("MAPE {pct:.2} % over {n} cells"),
        };
        let grid = markdown_table(&header, &body);
        out.push_str(&format!("\n### {heading}\n\n{grid}\n{score}\n"));
    }
    let (all, n_all) = experiment::mape(tables.iter().flat_map(Residuals::cells));
    let (mops, n_mops) = experiment::mape(
        tables
            .iter()
            .filter(|t| ["table2", "table3", "table4"].contains(&t.slug))
            .flat_map(Residuals::cells)
            .filter(|&(measure, _)| measure == Measure::Mops),
    );
    out.push_str(&format!(
        "\nAll tables: MAPE {all:.2} % over {n_all} cells\n\n\
         Tables 2–4 Mop/s (`model_mape_pct`): MAPE {mops:.2} % over {n_mops} cells\n"
    ));
    out
}

/// The largest core count and the largest value over `curves` (at least
/// 1 and 1e-12, so a plot's scale never divides by zero).
fn extent(curves: &[Curve]) -> (f64, f64) {
    let points = || curves.iter().flat_map(|c| c.points.iter());
    let max_x = points().map(|&(x, _)| x).max().unwrap_or(1) as f64;
    let max_y = points().map(|&(_, y)| y).fold(0.0f64, f64::max).max(1e-12);
    (max_x, max_y)
}

/// ASCII log-log-ish scaling plot of a set of curves (cores on x).
pub(crate) fn ascii_plot(title: &str, unit: &str, curves: &[Curve]) -> String {
    const WIDTH: usize = 64;
    const HEIGHT: usize = 16;
    let (max_x, max_y) = extent(curves);
    let mut grid = vec![vec![b' '; WIDTH]; HEIGHT];
    let marks: [u8; 5] = [b'*', b'o', b'+', b'x', b'#'];
    for (ci, c) in curves.iter().enumerate() {
        for &(x, y) in &c.points {
            let col = (((x as f64).log2() / max_x.log2().max(1e-12)) * (WIDTH - 1) as f64).round()
                as usize;
            let row = HEIGHT - 1 - ((y / max_y) * (HEIGHT - 1) as f64).round() as usize;
            grid[row.min(HEIGHT - 1)][col.min(WIDTH - 1)] = marks[ci % marks.len()];
        }
    }
    let mut out = format!("{title} (y: 0..{} {unit}, x: log2 cores)\n", fmt(max_y));
    for row in grid {
        out.push('|');
        out.push_str(std::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!("+{}\n", "-".repeat(WIDTH)));
    for (ci, c) in curves.iter().enumerate() {
        out.push_str(&format!(
            "  {} = {}\n",
            marks[ci % marks.len()] as char,
            c.machine.name()
        ));
    }
    out
}

/// Render a set of scaling curves as a standalone SVG line chart (hand
/// rolled — the workspace's dependency policy rules out plotting crates).
/// X is log2(cores); Y is linear from zero.
pub fn svg_plot(title: &str, unit: &str, curves: &[Curve]) -> String {
    const W: f64 = 640.0;
    const H: f64 = 400.0;
    const ML: f64 = 70.0; // margins
    const MR: f64 = 170.0;
    const MT: f64 = 40.0;
    const MB: f64 = 50.0;
    let colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"];
    let (max_x, max_y) = extent(curves);
    let px = |cores: u32| -> f64 {
        ML + (cores as f64).log2() / max_x.log2().max(1e-12) * (W - ML - MR)
    };
    let py = |v: f64| -> f64 { H - MB - v / max_y * (H - MT - MB) };

    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\"          viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"12\">\n"
    ));
    s.push_str(&format!(
        "<text x=\"{}\" y=\"20\" font-size=\"15\" text-anchor=\"middle\">{}</text>\n",
        W / 2.0,
        title
    ));
    // Axes.
    s.push_str(&format!(
        "<line x1=\"{ML}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"black\"/>\n",
        H - MB,
        W - MR,
        H - MB
    ));
    s.push_str(&format!(
        "<line x1=\"{ML}\" y1=\"{MT}\" x2=\"{ML}\" y2=\"{}\" stroke=\"black\"/>\n",
        H - MB
    ));
    // X ticks at powers of two; Y ticks in quarters.
    let mut c = 1u32;
    while c as f64 <= max_x {
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
            px(c),
            H - MB + 18.0,
            c
        ));
        c *= 2;
    }
    for q in 0..=4 {
        let v = max_y * q as f64 / 4.0;
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>\n",
            ML - 6.0,
            py(v) + 4.0,
            fmt(v)
        ));
        s.push_str(&format!(
            "<line x1=\"{ML}\" y1=\"{0}\" x2=\"{1}\" y2=\"{0}\" stroke=\"#dddddd\"/>\n",
            py(v),
            W - MR
        ));
    }
    s.push_str(&format!(
        "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">cores</text>\n",
        (ML + W - MR) / 2.0,
        H - 12.0
    ));
    s.push_str(&format!(
        "<text x=\"16\" y=\"{}\" transform=\"rotate(-90 16 {})\" text-anchor=\"middle\">{}</text>\n",
        (MT + H - MB) / 2.0,
        (MT + H - MB) / 2.0,
        unit
    ));
    // Curves + legend.
    for (ci, curve) in curves.iter().enumerate() {
        let color = colors[ci % colors.len()];
        let pts: Vec<String> = curve
            .points
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", px(x), py(y)))
            .collect();
        s.push_str(&format!(
            "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"2\" points=\"{}\"/>\n",
            color,
            pts.join(" ")
        ));
        for &(x, y) in &curve.points {
            s.push_str(&format!(
                "<circle cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\" fill=\"{}\"/>\n",
                px(x),
                py(y),
                color
            ));
        }
        let ly = MT + 16.0 * ci as f64;
        s.push_str(&format!(
            "<rect x=\"{}\" y=\"{}\" width=\"10\" height=\"10\" fill=\"{}\"/>\n",
            W - MR + 12.0,
            ly,
            color
        ));
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\">{}</text>\n",
            W - MR + 26.0,
            ly + 9.0,
            curve.machine.name()
        ));
    }
    s.push_str("</svg>\n");
    s
}

/// Curves as CSV (`machine,cores,value`).
pub(crate) fn curves_csv(curves: &[Curve]) -> String {
    let mut out = String::from("machine,cores,value\n");
    for c in curves {
        for &(x, y) in &c.points {
            out.push_str(&format!("{},{},{}\n", c.machine.name(), x, y));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvhpc_machines::MachineId;

    #[test]
    fn markdown_table_shape() {
        let md = markdown_table(
            &["A", "B"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| A | B |"));
        assert!(lines[1].contains("---"));
    }

    #[test]
    fn fmt_scales_precision() {
        assert_eq!(fmt(32457.83), "32458");
        assert_eq!(fmt(63.63), "63.6");
        assert_eq!(fmt(4.91), "4.91");
        assert_eq!(fmt(0.0), "0");
    }

    #[test]
    fn ascii_plot_contains_all_machines() {
        let curves = vec![
            Curve {
                machine: MachineId::Sg2044,
                points: vec![(1, 10.0), (64, 100.0)],
            },
            Curve {
                machine: MachineId::Sg2042,
                points: vec![(1, 10.0), (64, 35.0)],
            },
        ];
        let plot = ascii_plot("Figure 1", "GB/s", &curves);
        assert!(plot.contains("SG2044"));
        assert!(plot.contains("SG2042"));
        assert!(plot.contains('*') && plot.contains('o'));
    }

    #[test]
    fn svg_plot_is_wellformed_and_complete() {
        let curves = vec![
            Curve {
                machine: MachineId::Sg2044,
                points: vec![(1, 5.0), (8, 39.0), (64, 114.0)],
            },
            Curve {
                machine: MachineId::Sg2042,
                points: vec![(1, 4.5), (8, 31.0), (64, 36.9)],
            },
        ];
        let svg = svg_plot("Figure 1", "GB/s", &curves);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains("SG2044") && svg.contains("SG2042"));
        // Equal numbers of open/close tags for the text elements.
        assert_eq!(svg.matches("<text").count(), svg.matches("</text>").count());
    }

    #[test]
    fn csv_round_trips_points() {
        let curves = vec![Curve {
            machine: MachineId::Epyc7742,
            points: vec![(1, 1.5), (2, 3.0)],
        }];
        let csv = curves_csv(&curves);
        assert!(csv.contains("EPYC 7742,1,1.5"));
        assert!(csv.contains("EPYC 7742,2,3"));
    }
}
