//! Experiment harness: one module per paper table/figure, each returning
//! printable rows so the `tables` binary, tests and EXPERIMENTS.md all
//! draw from the same code.
//!
//! Experiment ↔ module map (see DESIGN.md §4):
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Table 1 (models) | [`table1`] |
//! | Table 2 (PDA timings) | [`table2`] |
//! | Table 3 (off-screen, 400×400) | [`table3`] |
//! | Table 4 (off-screen seq/int, 200×200) | [`table4`] |
//! | Table 5 (UDDI + bootstrap) | [`table5`] |
//! | Fig 2 (PDA screenshots) | [`figures::fig2`] |
//! | Fig 3 (collaboration view) | [`figures::fig3`] |
//! | Fig 4 (registry GUI) | [`figures::fig4`] |
//! | Fig 5 (tile tearing) | [`figures::fig5`] |
//! | §5.1 PDA import + bandwidth | [`extras::pda_ablation`] |
//! | §5.5 tile-update latency | [`extras::tile_latency`] |
//! | Parallel pipeline readout | [`extras::parallel_render`] |
//! | Design-choice ablations | [`ablations`] |
//!
//! The per-layer benches under `benches/` share [`harness`]: stopwatches,
//! the `BENCH_QUICK` switch and the `BENCH_*.json` writer.

pub mod ablations;
pub mod extras;
pub mod figures;
pub mod harness;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

/// Shared run options.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Scale model sizes down (quick CI-style run) instead of the paper's
    /// full polygon counts.
    pub quick: bool,
    /// Where figure PPMs are written.
    pub out_dir: &'static str,
}

impl Default for RunOpts {
    fn default() -> Self {
        Self { quick: false, out_dir: "out" }
    }
}

impl RunOpts {
    /// Budget for a paper model under these options.
    pub fn budget(&self, model: rave_models::PaperModel) -> u64 {
        if self.quick {
            (model.target_polygons() / 50).max(2_000)
        } else {
            model.target_polygons()
        }
    }
}

/// Render a simple aligned text table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    use std::fmt::Write;
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let line = |out: &mut String, cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(s, "{:<w$}  ", c, w = widths[i]);
        }
        let _ = writeln!(out, "{}", s.trim_end());
    };
    line(&mut out, &header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&mut out, &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(&mut out, row);
    }
    out
}
