//! The two accuracy figures every run states beside its speed figures.
//! Both are pure functions of the model code and repeat exactly.

use rvhpc_core::model::{predict, Scenario};
use rvhpc_core::{experiment, isa_backend};
use rvhpc_isa::{IsaExt, KernelId};
use rvhpc_machines::{presets, MachineId};
use rvhpc_npb::Class;

/// Mean over every published Table 2/3/4 cell of |model − paper| / paper,
/// in percent, and the number of cells.
pub fn model_mape_pct() -> (f64, u64) {
    let mut errors = Vec::new();
    let mut cell = |model: f64, paper: f64| errors.push((model - paper).abs() / paper);
    for row in experiment::table2_data() {
        for (_, model, paper) in row.cells {
            if let Some(paper) = paper {
                cell(model, paper);
            }
        }
    }
    for row in experiment::table3_data()
        .into_iter()
        .chain(experiment::table4_data())
    {
        cell(row.model_sg2044, row.paper_sg2044);
        cell(row.model_sg2042, row.paper_sg2042);
    }
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    (100.0 * mean, errors.len() as u64)
}

/// Max over the four kernels (class C, SG2044 headline scenario, 64
/// threads — what `reproduce isa --compare` gates) of the factor by
/// which the ISA backend's predicted seconds and the profile backend's
/// differ, and the number of kernels. An interpreter speed-up must leave
/// this unchanged.
pub fn isa_backend_ratio_max() -> (f64, u64) {
    let machine = presets::by_id(MachineId::Sg2044);
    let worst = KernelId::ALL
        .iter()
        .map(|&kernel| {
            let scenario = Scenario::headline(&machine, 64);
            let isa = isa_backend::run_kernel(kernel, Class::C, &scenario, IsaExt::full());
            let template = match kernel {
                KernelId::Triad => isa_backend::triad_profile(Class::C),
                _ => rvhpc_npb::profile(isa_backend::bench_for(kernel), Class::C),
            };
            let analytic = predict(&template, &scenario);
            (isa.prediction.seconds / analytic.seconds)
                .max(analytic.seconds / isa.prediction.seconds)
        })
        .fold(1.0, f64::max);
    (worst, KernelId::ALL.len() as u64)
}
