//! One generator per paper table/figure, and the [`SECTIONS`] registry
//! that lists them once.
//!
//! Each experiment is expressed twice: a `*_plan` function that builds
//! the declarative query batch (so [`crate::runner::full_report`] can
//! merge every experiment into one engine execution), and a `*_data`
//! function that resolves the plan through the global
//! [`Engine`](crate::engine::Engine) and shapes the cached results into
//! typed rows (used by the shape-fidelity tests and benches). The
//! corresponding `render` lives in [`crate::report`]. No experiment
//! calls the predictor directly — every number flows through the
//! engine's memo cache. [`residuals`] scores the same rows against the
//! paper.

use rvhpc_machines::{presets, Compiler, CompilerConfig, MachineId};
use rvhpc_npb::{BenchmarkId, Class};

use crate::engine::{Engine, Plan, Query, SpecKind};
use crate::{paper, report};

/// One section of the reproduction report, the single place a paper
/// table or figure is listed: [`full_plan`], the full report and
/// `reproduce <slug>` all iterate [`SECTIONS`].
pub struct Section {
    /// The `reproduce` argument that prints the body.
    pub slug: &'static str,
    /// The report heading, without the `## `.
    pub heading: &'static str,
    /// The query batch (empty where the section reads no prediction).
    pub plan: fn() -> Plan,
    /// Renders the body from the engine's cache.
    pub body: fn() -> String,
}

/// Every report section, in report order. [`full_plan`] merges their
/// plans in this order too.
pub static SECTIONS: [Section; 15] = [
    Section {
        slug: "table1",
        heading: "Table 1 — NPB memory behaviour (Xeon 8170, 26 cores)",
        plan: table1_plan,
        body: || report::render_table1(&table1_data()),
    },
    Section {
        slug: "table2",
        heading: "Table 2 — RISC-V single-core Mop/s (class B)",
        plan: table2_plan,
        body: || report::render_table2(&table2_data()),
    },
    Section {
        slug: "table3",
        heading: "Table 3 — SG2044 vs SG2042, single core (class C)",
        plan: table3_plan,
        body: || report::render_sg_compare(&table3_data()),
    },
    Section {
        slug: "table4",
        heading: "Table 4 — SG2044 vs SG2042, 64 cores (class C)",
        plan: table4_plan,
        body: || report::render_sg_compare(&table4_data()),
    },
    Section {
        slug: "table5",
        heading: "Table 5 — CPU overview",
        plan: Plan::new,
        body: || {
            let header = ["CPU", "ISA", "Part", "Base clock", "Cores", "Vector"];
            let rows: Vec<Vec<String>> = table5_data().iter().map(|r| r.to_vec()).collect();
            report::markdown_table(&header, &rows)
        },
    },
    Section {
        slug: "fig1",
        heading: "Figure 1 — STREAM copy bandwidth scaling",
        plan: Plan::new,
        body: || fenced(report::ascii_plot("STREAM copy", "GB/s", &fig1_data())),
    },
    Section {
        slug: "fig2",
        heading: "Figure 2 — IS scaling (class C)",
        plan: || fig_kernel_plan(BenchmarkId::Is),
        body: || fig_kernel_body("Figure 2 — IS", BenchmarkId::Is),
    },
    Section {
        slug: "fig3",
        heading: "Figure 3 — MG scaling (class C)",
        plan: || fig_kernel_plan(BenchmarkId::Mg),
        body: || fig_kernel_body("Figure 3 — MG", BenchmarkId::Mg),
    },
    Section {
        slug: "fig4",
        heading: "Figure 4 — EP scaling (class C)",
        plan: || fig_kernel_plan(BenchmarkId::Ep),
        body: || fig_kernel_body("Figure 4 — EP", BenchmarkId::Ep),
    },
    Section {
        slug: "fig5",
        heading: "Figure 5 — CG scaling (class C)",
        plan: || fig_kernel_plan(BenchmarkId::Cg),
        body: || fig_kernel_body("Figure 5 — CG", BenchmarkId::Cg),
    },
    Section {
        slug: "fig6",
        heading: "Figure 6 — FT scaling (class C)",
        plan: || fig_kernel_plan(BenchmarkId::Ft),
        body: || fig_kernel_body("Figure 6 — FT", BenchmarkId::Ft),
    },
    Section {
        slug: "table6",
        heading: "Table 6 — pseudo-applications relative to SG2044 (class C)",
        plan: table6_plan,
        body: || report::render_table6(&table6_data()),
    },
    Section {
        slug: "table7",
        heading: "Table 7 — compiler/vectorisation, single core (class C)",
        plan: table7_plan,
        body: || report::render_compiler_table(&table7_data()),
    },
    Section {
        slug: "table8",
        heading: "Table 8 — compiler/vectorisation, 64 cores (class C)",
        plan: table8_plan,
        body: || report::render_compiler_table(&table8_data()),
    },
    Section {
        slug: "stalls",
        heading: "Stall attribution — SG2044, 64 cores (class C)",
        plan: stall_attribution_plan,
        body: || report::render_stall_attribution(&stall_attribution_data()),
    },
];

/// The signed model-vs-paper error of every transcribed cell. Not a
/// report section: `reproduce residuals` prints it on its own.
pub static RESIDUALS: Section = Section {
    slug: "residuals",
    heading: "Residuals — model vs paper, every transcribed cell",
    plan: full_plan,
    body: || report::render_residuals(&residuals()),
};

/// The section `reproduce <slug>` prints, if any.
pub fn section(slug: &str) -> Option<&'static Section> {
    SECTIONS.iter().chain([&RESIDUALS]).find(|s| s.slug == slug)
}

fn fenced(text: String) -> String {
    format!("```\n{text}```\n")
}

fn fig_kernel_body(title: &str, bench: BenchmarkId) -> String {
    fenced(report::ascii_plot(title, "Mop/s", &fig_kernel_data(bench)))
}

/// The paper's thread sweep for the figures.
pub const FIGURE_CORES: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The union of every section's queries — the batch
/// [`crate::runner::full_report`] executes once before rendering.
pub fn full_plan() -> Plan {
    let mut plan = Plan::new();
    for section in &SECTIONS {
        plan.merge((section.plan)());
    }
    plan
}

// ---------------------------------------------------------------- Table 1

/// Table 1 row: model-predicted stall profile on the Xeon 8170 vs paper.
#[derive(Debug, Clone)]
pub(crate) struct Table1Row {
    pub bench: BenchmarkId,
    pub model_cache_pct: f64,
    pub model_dram_pct: f64,
    pub model_bw_bound_pct: f64,
    pub paper_cache_pct: f64,
    pub paper_dram_pct: f64,
    pub paper_bw_bound_pct: f64,
}

fn table1_query(bench: BenchmarkId) -> Query {
    Query::paper(MachineId::Xeon8170, bench, Class::C, 26)
}

/// The Table 1 query batch.
pub(crate) fn table1_plan() -> Plan {
    let mut plan = Plan::new();
    for &(bench, ..) in paper::TABLE1_XEON_PROFILE.iter() {
        plan.push(table1_query(bench));
    }
    plan
}

/// Generate Table 1 (Xeon 8170, 26 threads, class C equivalents).
pub(crate) fn table1_data() -> Vec<Table1Row> {
    let r = Engine::global().resolve(&table1_plan());
    paper::TABLE1_XEON_PROFILE
        .iter()
        .map(|&(bench, pc, pd, pb)| {
            let pred = r.get(&table1_query(bench));
            Table1Row {
                bench,
                model_cache_pct: pred.stalls.cache_stall_pct(),
                model_dram_pct: pred.stalls.dram_stall_pct(),
                model_bw_bound_pct: pred.stalls.bw_bound_pct(),
                paper_cache_pct: pc,
                paper_dram_pct: pd,
                paper_bw_bound_pct: pb,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Table 2

/// Table 2 cell: model and paper Mop/s for one machine.
#[derive(Debug, Clone)]
pub struct Table2Row {
    pub bench: BenchmarkId,
    /// Per machine (paper column order): `(model, paper)`; paper `None`
    /// for DNR cells.
    pub cells: Vec<(MachineId, f64, Option<f64>)>,
}

/// The Table 2 query batch.
pub(crate) fn table2_plan() -> Plan {
    let mut plan = Plan::new();
    for &(bench, _) in paper::TABLE2_RISCV_SINGLE.iter() {
        for &mid in paper::TABLE2_MACHINES.iter() {
            plan.push(Query::paper(mid, bench, Class::B, 1));
        }
    }
    plan
}

/// Generate Table 2 (single core, class B, seven RISC-V machines).
pub fn table2_data() -> Vec<Table2Row> {
    let r = Engine::global().resolve(&table2_plan());
    paper::TABLE2_RISCV_SINGLE
        .iter()
        .map(|&(bench, ref paper_row)| {
            let cells = paper::TABLE2_MACHINES
                .iter()
                .zip(paper_row.iter())
                .map(|(&mid, &paper_v)| {
                    let pred = r.get(&Query::paper(mid, bench, Class::B, 1));
                    (mid, pred.mops, paper_v)
                })
                .collect();
            Table2Row { bench, cells }
        })
        .collect()
}

// ------------------------------------------------------- Tables 3 and 4

/// A Table 3/4 row: SG2044 vs SG2042 Mop/s (model and paper).
#[derive(Debug, Clone)]
pub struct SgCompareRow {
    pub bench: BenchmarkId,
    pub model_sg2044: f64,
    pub model_sg2042: f64,
    pub paper_sg2044: f64,
    pub paper_sg2042: f64,
}

impl SgCompareRow {
    pub fn model_ratio(&self) -> f64 {
        self.model_sg2044 / self.model_sg2042
    }
    pub(crate) fn paper_ratio(&self) -> f64 {
        self.paper_sg2044 / self.paper_sg2042
    }
}

fn sg_compare_plan(threads: u32, paper_rows: &[(BenchmarkId, f64, f64); 5]) -> Plan {
    let mut plan = Plan::new();
    for &(bench, ..) in paper_rows.iter() {
        plan.push(Query::paper(MachineId::Sg2044, bench, Class::C, threads));
        plan.push(Query::paper(MachineId::Sg2042, bench, Class::C, threads));
    }
    plan
}

fn sg_compare(threads: u32, paper_rows: &[(BenchmarkId, f64, f64); 5]) -> Vec<SgCompareRow> {
    let r = Engine::global().resolve(&sg_compare_plan(threads, paper_rows));
    paper_rows
        .iter()
        .map(|&(bench, p44, p42)| SgCompareRow {
            bench,
            model_sg2044: r
                .get(&Query::paper(MachineId::Sg2044, bench, Class::C, threads))
                .mops,
            model_sg2042: r
                .get(&Query::paper(MachineId::Sg2042, bench, Class::C, threads))
                .mops,
            paper_sg2044: p44,
            paper_sg2042: p42,
        })
        .collect()
}

/// The Table 3 query batch.
pub(crate) fn table3_plan() -> Plan {
    sg_compare_plan(1, &paper::TABLE3_SG_SINGLE)
}

/// The Table 4 query batch.
pub(crate) fn table4_plan() -> Plan {
    sg_compare_plan(64, &paper::TABLE4_SG_MULTI)
}

/// Generate Table 3 (single core, class C).
pub fn table3_data() -> Vec<SgCompareRow> {
    sg_compare(1, &paper::TABLE3_SG_SINGLE)
}

/// Generate Table 4 (64 cores, class C).
pub fn table4_data() -> Vec<SgCompareRow> {
    sg_compare(64, &paper::TABLE4_SG_MULTI)
}

// ---------------------------------------------------------------- Table 5

/// Table 5 is static machine data.
pub(crate) fn table5_data() -> Vec<[String; 6]> {
    presets::overview()
}

// ---------------------------------------------------------------- Figures

/// One scaling curve: Mop/s (or GB/s for Fig 1) per core count.
#[derive(Debug, Clone)]
pub struct Curve {
    pub machine: MachineId,
    pub points: Vec<(u32, f64)>,
}

/// Figure 1: STREAM copy bandwidth scaling, SG2044 vs SG2042.
///
/// STREAM is simulated directly (no NPB profile), so Figure 1 has no
/// query plan; it shares the deterministic core list with the kernels.
pub fn fig1_data() -> Vec<Curve> {
    [presets::sg2044(), presets::sg2042()]
        .iter()
        .map(|m| Curve {
            machine: m.id,
            points: rvhpc_stream::simulated_curve(m, &FIGURE_CORES)
                .into_iter()
                .map(|p| (p.cores, p.copy_gbs))
                .collect(),
        })
        .collect()
}

/// The query batch behind one of Figures 2–6.
pub(crate) fn fig_kernel_plan(bench: BenchmarkId) -> Plan {
    let mut plan = Plan::new();
    for m in presets::hpc_five() {
        for &p in FIGURE_CORES.iter().filter(|&&p| p <= m.cores) {
            plan.push(Query::paper(m.id, bench, Class::C, p));
        }
    }
    plan
}

/// Figures 2–6: kernel scaling across the five HPC machines at class C.
pub fn fig_kernel_data(bench: BenchmarkId) -> Vec<Curve> {
    let r = Engine::global().resolve(&fig_kernel_plan(bench));
    presets::hpc_five()
        .iter()
        .map(|m| Curve {
            machine: m.id,
            points: FIGURE_CORES
                .iter()
                .filter(|&&p| p <= m.cores)
                .map(|&p| (p, r.get(&Query::paper(m.id, bench, Class::C, p)).mops))
                .collect(),
        })
        .collect()
}

// ---------------------------------------------------------------- Table 6

/// Table 6 cell: how many times faster `machine` is than the SG2044.
#[derive(Debug, Clone)]
pub struct Table6Row {
    pub bench: BenchmarkId,
    pub cores: u32,
    /// `(machine, model ratio, paper ratio)`; `None` where the machine
    /// lacks that many cores.
    pub cells: Vec<(MachineId, Option<f64>, Option<f64>)>,
}

/// Table 6 comparison machines, column order.
pub(crate) const TABLE6_MACHINES: [MachineId; 4] = [
    MachineId::Sg2042,
    MachineId::Epyc7742,
    MachineId::Xeon8170,
    MachineId::ThunderX2,
];

/// The Table 6 query batch.
pub(crate) fn table6_plan() -> Plan {
    let mut plan = Plan::new();
    for &(bench, _) in paper::TABLE6_PSEUDO.iter() {
        for &cores in paper::TABLE6_CORES.iter() {
            plan.push(Query::paper(MachineId::Sg2044, bench, Class::C, cores));
            for &mid in TABLE6_MACHINES.iter() {
                if cores <= presets::by_id(mid).cores {
                    plan.push(Query::paper(mid, bench, Class::C, cores));
                }
            }
        }
    }
    plan
}

/// Generate Table 6 (pseudo-apps, class C, ratios vs SG2044).
pub fn table6_data() -> Vec<Table6Row> {
    let r = Engine::global().resolve(&table6_plan());
    let mut rows = Vec::new();
    for &(bench, ref paper_grid) in &paper::TABLE6_PSEUDO {
        for (ci, &cores) in paper::TABLE6_CORES.iter().enumerate() {
            let t_sg = r
                .get(&Query::paper(MachineId::Sg2044, bench, Class::C, cores))
                .seconds;
            let cells = TABLE6_MACHINES
                .iter()
                .zip(paper_grid[ci].iter())
                .map(|(&mid, &paper_v)| {
                    let model = if cores <= presets::by_id(mid).cores {
                        let t = r.get(&Query::paper(mid, bench, Class::C, cores)).seconds;
                        Some(t_sg / t) // >1 ⇒ faster than the SG2044
                    } else {
                        None
                    };
                    (mid, model, paper_v)
                })
                .collect();
            rows.push(Table6Row {
                bench,
                cores,
                cells,
            });
        }
    }
    rows
}

// ------------------------------------------------------- Tables 7 and 8

/// Compiler-ablation row on the SG2044 (class C).
#[derive(Debug, Clone)]
pub struct CompilerRow {
    pub bench: BenchmarkId,
    pub model_gcc12: f64,
    pub model_gcc15_vec: f64,
    pub model_gcc15_novec: f64,
    pub paper_gcc12: f64,
    pub paper_gcc15_vec: f64,
    pub paper_gcc15_novec: f64,
}

/// The three compiler configurations of Tables 7/8, paper column order.
const COMPILER_CONFIGS: [CompilerConfig; 3] = [
    CompilerConfig {
        compiler: Compiler::Gcc12_3,
        vectorize: true, // vectorisation flag is moot: no RVV support
    },
    CompilerConfig {
        compiler: Compiler::Gcc15_2,
        vectorize: true,
    },
    CompilerConfig {
        compiler: Compiler::Gcc15_2,
        vectorize: false,
    },
];

fn compiler_query(bench: BenchmarkId, threads: u32, cfg: CompilerConfig) -> Query {
    Query {
        spec: SpecKind::Custom {
            compiler: cfg,
            bind: rvhpc_parallel::BindPolicy::Unbound,
            law: rvhpc_archsim::SaturationLaw::default(),
        },
        ..Query::headline(MachineId::Sg2044, bench, Class::C, threads)
    }
}

fn compiler_plan(threads: u32, paper_rows: &[paper::CompilerRow; 5]) -> Plan {
    let mut plan = Plan::new();
    for &(bench, ..) in paper_rows.iter() {
        for cfg in COMPILER_CONFIGS {
            plan.push(compiler_query(bench, threads, cfg));
        }
    }
    plan
}

fn compiler_table(threads: u32, paper_rows: &[paper::CompilerRow; 5]) -> Vec<CompilerRow> {
    let r = Engine::global().resolve(&compiler_plan(threads, paper_rows));
    paper_rows
        .iter()
        .map(|&(bench, p12, p15v, p15n)| {
            let mops = COMPILER_CONFIGS.map(|cfg| r.get(&compiler_query(bench, threads, cfg)).mops);
            CompilerRow {
                bench,
                model_gcc12: mops[0],
                model_gcc15_vec: mops[1],
                model_gcc15_novec: mops[2],
                paper_gcc12: p12,
                paper_gcc15_vec: p15v,
                paper_gcc15_novec: p15n,
            }
        })
        .collect()
}

/// The Table 7 query batch.
pub(crate) fn table7_plan() -> Plan {
    compiler_plan(1, &paper::TABLE7_COMPILER_SINGLE)
}

/// The Table 8 query batch.
pub(crate) fn table8_plan() -> Plan {
    compiler_plan(64, &paper::TABLE8_COMPILER_MULTI)
}

/// Generate Table 7 (single core).
pub fn table7_data() -> Vec<CompilerRow> {
    compiler_table(1, &paper::TABLE7_COMPILER_SINGLE)
}

/// Generate Table 8 (64 cores).
pub fn table8_data() -> Vec<CompilerRow> {
    compiler_table(64, &paper::TABLE8_COMPILER_MULTI)
}

// ------------------------------------------------------ Stall attribution

/// One row of the SG2044 stall-attribution report: where a benchmark's
/// full-chip run spends its cycles and the DRAM queue depth the model
/// holds responsible.
#[derive(Debug, Clone)]
pub(crate) struct StallRow {
    pub bench: BenchmarkId,
    pub compute_pct: f64,
    pub cache_pct: f64,
    pub dram_pct: f64,
    pub bw_bound_pct: f64,
    pub avg_queue_depth: f64,
}

/// The stall-attribution query batch.
pub(crate) fn stall_attribution_plan() -> Plan {
    let mut plan = Plan::new();
    for &bench in BenchmarkId::ALL.iter() {
        plan.push(Query::headline(MachineId::Sg2044, bench, Class::C, 64));
    }
    plan
}

/// Stall attribution for every benchmark on the SG2044 at 64 cores
/// (class C) — the observability view behind `reproduce --metrics`.
pub(crate) fn stall_attribution_data() -> Vec<StallRow> {
    let r = Engine::global().resolve(&stall_attribution_plan());
    BenchmarkId::ALL
        .iter()
        .map(|&bench| {
            let pred = r.get(&Query::headline(MachineId::Sg2044, bench, Class::C, 64));
            let s = &pred.stalls;
            StallRow {
                bench,
                compute_pct: (100.0 - s.cache_stall_pct() - s.dram_stall_pct()).max(0.0),
                cache_pct: s.cache_stall_pct(),
                dram_pct: s.dram_stall_pct(),
                bw_bound_pct: s.bw_bound_pct(),
                avg_queue_depth: pred.dram_queue.avg_depth(),
            }
        })
        .collect()
}

// ------------------------------------------------------------ Residuals

/// What a residual cell compares. Mop/s and ratios are scored as a
/// relative error in %; Table 1's shares in percentage points, left out
/// of every MAPE because the paper's shares include zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Measure {
    Mops,
    Ratio,
    Points,
}

/// One table's signed model-vs-paper errors, read off the same rows its
/// report section renders.
#[derive(Debug, Clone)]
pub struct Residuals {
    /// The table's [`Section`] slug.
    pub slug: &'static str,
    pub columns: Vec<(&'static str, Measure)>,
    /// Row label and one error per column; `None` where the paper
    /// publishes no value or the machine lacks the cores.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
}

impl Residuals {
    /// Score `rows`, each giving its label and per column the
    /// `(model, paper)` pair, if both exist.
    fn new<R>(
        slug: &'static str,
        columns: &[(&'static str, Measure)],
        rows: &[R],
        cells: impl Fn(&R) -> (String, Vec<Option<(f64, f64)>>),
    ) -> Self {
        let rows = rows
            .iter()
            .map(|r| {
                let (label, pairs) = cells(r);
                let errors = columns.iter().zip(pairs).map(|(&(_, measure), pair)| {
                    pair.map(|(model, paper)| match measure {
                        Measure::Points => model - paper,
                        Measure::Mops | Measure::Ratio => 100.0 * (model - paper) / paper,
                    })
                });
                (label, errors.collect())
            })
            .collect();
        let columns = columns.to_vec();
        Residuals {
            slug,
            columns,
            rows,
        }
    }

    /// Every scored cell's `(measure, signed error)`.
    pub(crate) fn cells(&self) -> impl Iterator<Item = (Measure, f64)> + '_ {
        self.rows.iter().flat_map(|(_, errors)| {
            let measures = self.columns.iter().map(|&(_, measure)| measure);
            measures.zip(errors).filter_map(|(m, e)| Some((m, (*e)?)))
        })
    }
}

/// Mean absolute error of the relative (%) cells among `cells`, and how
/// many there were; percentage-point cells are skipped.
pub(crate) fn mape(cells: impl IntoIterator<Item = (Measure, f64)>) -> (f64, usize) {
    let (sum, n) = cells
        .into_iter()
        .filter(|&(measure, _)| measure != Measure::Points)
        .fold((0.0, 0), |(sum, n), (_, e)| (sum + e.abs(), n + 1));
    (sum / n.max(1) as f64, n)
}

/// Score every transcribed paper cell of Tables 1–4 and 6–8 against the
/// model, from the same `table*_data` rows the report renders.
pub fn residuals() -> Vec<Residuals> {
    use Measure::{Mops, Points, Ratio};
    let three = |bench: BenchmarkId, pairs: [(f64, f64); 3]| {
        (bench.name().to_string(), pairs.map(Some).to_vec())
    };
    let sg = |slug, rows: Vec<SgCompareRow>| {
        let columns = [("SG2044", Mops), ("SG2042", Mops), ("× faster", Ratio)];
        Residuals::new(slug, &columns, &rows, |r| {
            let ratio = (r.model_ratio(), r.paper_ratio());
            let sg2044 = (r.model_sg2044, r.paper_sg2044);
            three(r.bench, [sg2044, (r.model_sg2042, r.paper_sg2042), ratio])
        })
    };
    let compiler = |slug, rows: Vec<CompilerRow>| {
        let columns = ["GCC 12.3.1", "GCC 15.2 +vec", "GCC 15.2 −vec"].map(|c| (c, Mops));
        Residuals::new(slug, &columns, &rows, |r| {
            let gcc12 = (r.model_gcc12, r.paper_gcc12);
            let vec = (r.model_gcc15_vec, r.paper_gcc15_vec);
            three(
                r.bench,
                [gcc12, vec, (r.model_gcc15_novec, r.paper_gcc15_novec)],
            )
        })
    };
    let shares = ["cache stall", "DDR stall", "BW-bound"].map(|c| (c, Points));
    let table1 = Residuals::new("table1", &shares, &table1_data(), |r| {
        let cache = (r.model_cache_pct, r.paper_cache_pct);
        let dram = (r.model_dram_pct, r.paper_dram_pct);
        three(
            r.bench,
            [cache, dram, (r.model_bw_bound_pct, r.paper_bw_bound_pct)],
        )
    });
    let machines = paper::TABLE2_MACHINES.map(|m| (m.name(), Mops));
    let table2 = Residuals::new("table2", &machines, &table2_data(), |r| {
        let pairs = r
            .cells
            .iter()
            .map(|&(_, model, paper)| Some((model, paper?)));
        (r.bench.name().to_string(), pairs.collect())
    });
    let machines = TABLE6_MACHINES.map(|m| (m.name(), Ratio));
    let table6 = Residuals::new("table6", &machines, &table6_data(), |r| {
        let pairs = r
            .cells
            .iter()
            .map(|&(_, model, paper)| Some((model?, paper?)));
        (format!("{} {}", r.bench.name(), r.cores), pairs.collect())
    });
    vec![
        table1,
        table2,
        sg("table3", table3_data()),
        sg("table4", table4_data()),
        table6,
        compiler("table7", table7_data()),
        compiler("table8", table8_data()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_produces_complete_output() {
        assert_eq!(table1_data().len(), 8);
        let t2 = table2_data();
        assert_eq!(t2.len(), 5);
        assert!(t2.iter().all(|r| r.cells.len() == 7));
        assert_eq!(table3_data().len(), 5);
        assert_eq!(table4_data().len(), 5);
        assert_eq!(table5_data().len(), 5);
        assert_eq!(fig1_data().len(), 2);
        assert_eq!(table6_data().len(), 12);
        assert_eq!(table7_data().len(), 5);
        assert_eq!(table8_data().len(), 5);
    }

    #[test]
    fn figure_curves_are_clamped_to_core_counts() {
        for c in fig_kernel_data(BenchmarkId::Ep) {
            let m = presets::by_id(c.machine);
            assert!(c.points.iter().all(|&(p, _)| p <= m.cores));
            assert!(!c.points.is_empty());
        }
    }

    #[test]
    fn table6_skips_impossible_core_counts() {
        for row in table6_data() {
            for (mid, model, paper) in &row.cells {
                let m = presets::by_id(*mid);
                if row.cores > m.cores {
                    assert!(model.is_none(), "{mid:?} at {} cores", row.cores);
                    assert!(paper.is_none());
                } else {
                    assert!(model.is_some());
                }
            }
        }
    }

    #[test]
    fn full_plan_covers_every_per_experiment_plan() {
        let full = full_plan();
        assert!(full.len() > 100, "merged plan is the whole grid");
        // Warm a fresh engine with the merged plan: re-resolving any
        // single experiment must then be pure cache hits.
        let engine = Engine::new();
        engine.execute_with_jobs(&full, 4);
        let before = engine.metrics();
        engine.execute_with_jobs(&table6_plan(), 4);
        engine.execute_with_jobs(&fig_kernel_plan(BenchmarkId::Cg), 4);
        let after = engine.metrics();
        assert_eq!(
            after.prediction_misses, before.prediction_misses,
            "full_plan must be a superset of every experiment plan"
        );
    }
}
