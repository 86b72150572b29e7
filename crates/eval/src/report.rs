//! Report assembly and serialisation: the orchestration layer that
//! turns (datasets × grid × baselines) into a [`QualityReport`], the
//! stable `BENCH_quality.json` document, and a human-readable table.
//!
//! **Byte stability.** Every number in the JSON document is formatted
//! with a fixed precision and every key written in a fixed order, so
//! two runs at the same seed produce byte-identical files — that is
//! what lets CI `cmp` two fresh sweeps and what makes the checked-in
//! `BENCH_quality.json` a meaningful diff in later PRs. Wall-clock
//! throughput is therefore **excluded** unless explicitly requested
//! (`timings = true`), and an infinite PSNR (lossless point)
//! serialises as the sentinel `999.0`.

use crate::baselines;
use crate::gates::{QualityGates, GOLDEN};
use crate::grid::Grid;
use crate::registry::Dataset;
use crate::sweep::{self, RdPoint};

/// JSON sentinel for an infinite (lossless) PSNR.
pub const PSNR_SENTINEL_DB: f64 = 999.0;

/// Which classical baselines a sweep evaluates.
#[derive(Debug, Clone, Copy)]
pub struct BaselineSet {
    /// Rank-`k` SVD of the dataset matrix.
    pub svd: bool,
    /// Tile-level PCA at the matched operating point.
    pub pca: bool,
    /// K-SVD/OMP sparse coding (paper-regime datasets only).
    pub csc: bool,
}

impl BaselineSet {
    /// No baselines (quantum sweep only).
    pub fn none() -> Self {
        BaselineSet {
            svd: false,
            pca: false,
            csc: false,
        }
    }

    /// The default roster: SVD + PCA + CSC.
    pub fn all() -> Self {
        BaselineSet {
            svd: true,
            pca: true,
            csc: true,
        }
    }

    /// Parse a comma-separated roster (`svd,pca`, `all`, `none`).
    ///
    /// # Errors
    /// Names the first unknown baseline.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "all" => return Ok(BaselineSet::all()),
            "none" => return Ok(BaselineSet::none()),
            _ => {}
        }
        let mut set = BaselineSet::none();
        for name in spec.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match name {
                "svd" => set.svd = true,
                "pca" => set.pca = true,
                "csc" => set.csc = true,
                other => {
                    return Err(format!(
                        "unknown baseline {other:?} (expected svd, pca, csc, all or none)"
                    ))
                }
            }
        }
        Ok(set)
    }
}

/// One dataset's slice of the report.
#[derive(Debug, Clone)]
pub struct DatasetReport {
    /// Registry (or directory) name.
    pub name: String,
    /// Number of images.
    pub images: usize,
    /// Total pixels across the dataset.
    pub pixels: usize,
    /// Effective rank of the stacked dataset matrix (`None` for
    /// mixed-size datasets).
    pub effective_rank: Option<usize>,
    /// Every measured RD point: the quantum sweep first, then the
    /// baselines, in grid order.
    pub points: Vec<RdPoint>,
    /// Baseline points that could not be measured on this dataset
    /// (e.g. SVD rank above `min(M, N)`, CSC above its dictionary
    /// cap), with the reason — deterministic, so they live in the
    /// stable JSON rather than vanishing silently.
    pub skipped: Vec<String>,
}

/// The full quality report — everything `BENCH_quality.json` holds.
#[derive(Debug, Clone)]
pub struct QualityReport {
    /// Grid name (`smoke`, `default`, `custom`).
    pub grid: String,
    /// Dataset seed (0 = the canonical roster).
    pub seed: u64,
    /// Per-dataset results, in roster order.
    pub datasets: Vec<DatasetReport>,
}

impl QualityReport {
    /// Run the full evaluation: the quantum sweep on every dataset ×
    /// grid corner, plus the requested baselines at matched operating
    /// points.
    ///
    /// # Errors
    /// Quantum-sweep failures abort (they mean the grid is invalid for
    /// the dataset); baseline failures are recorded per dataset in
    /// [`DatasetReport::skipped`].
    pub fn build(
        datasets: &[Dataset],
        grid: &Grid,
        baselines: &BaselineSet,
        timings: bool,
        seed: u64,
    ) -> Result<QualityReport, String> {
        let mut reports = Vec::with_capacity(datasets.len());
        for ds in datasets {
            let mut points = sweep::quantum_sweep(ds, grid, timings)?;
            let mut skipped = Vec::new();
            let mut push = |result: Result<RdPoint, String>, skipped: &mut Vec<String>| match result
            {
                Ok(p) => points.push(p),
                Err(e) => skipped.push(e),
            };
            // Baseline fits (SVD factorisation, PCA fit, CSC dictionary
            // training) are re-run per (d, bits) corner even though only
            // the quantization step depends on bits — a deliberate
            // simplicity/speed tradeoff: each point stays independently
            // reproducible from its parameters alone, and the whole
            // default sweep measures ~0.1 s. Split fit from quantize if
            // grids ever grow a wide bits axis.
            if baselines.svd {
                // One SVD point per distinct (d, bits) corner: the rank
                // axis mirrors the latent axis.
                let mut seen = Vec::new();
                for p in &grid.points {
                    if seen.contains(&(p.latent_dim, p.bits)) {
                        continue;
                    }
                    seen.push((p.latent_dim, p.bits));
                    push(baselines::svd_point(ds, p.latent_dim, p.bits), &mut skipped);
                }
            }
            if baselines.pca {
                for &p in &grid.points {
                    push(baselines::pca_point(ds, p), &mut skipped);
                }
            }
            if baselines.csc {
                let mut seen = Vec::new();
                for p in &grid.points {
                    if seen.contains(&(p.latent_dim, p.bits)) {
                        continue;
                    }
                    seen.push((p.latent_dim, p.bits));
                    push(baselines::csc_point(ds, p.latent_dim, p.bits), &mut skipped);
                }
            }
            reports.push(DatasetReport {
                name: ds.name.clone(),
                images: ds.images.len(),
                pixels: ds.pixels(),
                effective_rank: ds.effective_rank(1e-10),
                points,
                skipped,
            });
        }
        Ok(QualityReport {
            grid: grid.name.clone(),
            seed,
            datasets: reports,
        })
    }

    /// Serialise as the stable `BENCH_quality.json` document (single
    /// trailing newline, fixed key order, fixed float precision).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        s.push_str("  \"format\": \"qn-eval-quality\",\n");
        // Schema version 3: no `backend` key (version 2 added the
        // entropy-coder axis to points).
        s.push_str("  \"version\": 3,\n");
        s.push_str(&format!("  \"grid\": \"{}\",\n", self.grid));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!(
            "  \"golden\": {{\"dataset\": \"{}\", \"tile\": {}, \"d\": {}, \"bits\": {}, \
             \"psnr_floor_db\": {}, \"bpp_ceiling\": {}}},\n",
            GOLDEN.dataset,
            GOLDEN.point.tile_size,
            GOLDEN.point.latent_dim,
            GOLDEN.point.bits,
            fmt(QualityGates::PINNED.psnr_floor_db),
            fmt(QualityGates::PINNED.bpp_ceiling),
        ));
        s.push_str("  \"datasets\": [\n");
        for (i, ds) in self.datasets.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": \"{}\",\n", json_escape(&ds.name)));
            s.push_str(&format!("      \"images\": {},\n", ds.images));
            s.push_str(&format!("      \"pixels\": {},\n", ds.pixels));
            match ds.effective_rank {
                Some(r) => s.push_str(&format!("      \"effective_rank\": {r},\n")),
                None => s.push_str("      \"effective_rank\": null,\n"),
            }
            s.push_str("      \"points\": [\n");
            for (j, p) in ds.points.iter().enumerate() {
                s.push_str("        ");
                s.push_str(&point_json(p));
                s.push_str(if j + 1 < ds.points.len() { ",\n" } else { "\n" });
            }
            s.push_str("      ],\n");
            s.push_str("      \"skipped\": [");
            for (j, msg) in ds.skipped.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{}\"", json_escape(msg)));
            }
            s.push_str("]\n");
            s.push_str(if i + 1 < self.datasets.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }

    /// Render the fixed-width summary table (one row per point).
    pub fn human_table(&self) -> String {
        let header = [
            "dataset", "codec", "entropy", "point", "bpp", "psnr_db", "ssim", "side_B",
        ];
        let mut rows: Vec<Vec<String>> = Vec::new();
        for ds in &self.datasets {
            for p in &ds.points {
                let label = if p.tile_size > 0 {
                    format!("tile{}-d{}-b{}", p.tile_size, p.latent_dim, p.bits)
                } else {
                    format!("r{}-b{}", p.latent_dim, p.bits)
                };
                let mut row = vec![
                    ds.name.clone(),
                    p.codec.clone(),
                    p.entropy.map_or("-".to_string(), |e| e.to_string()),
                    label,
                    format!("{:.3}", p.bpp),
                    if p.psnr_db.is_finite() {
                        format!("{:.2}", p.psnr_db)
                    } else {
                        "lossless".into()
                    },
                    format!("{:.4}", p.ssim),
                    format!("{}", p.side_bytes),
                ];
                if let Some(t) = p.throughput {
                    row.push(format!(
                        "enc {:.0}/s dec {:.0}/s",
                        t.encode_tiles_per_s, t.decode_tiles_per_s
                    ));
                }
                rows.push(row);
            }
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (k, cell) in row.iter().enumerate() {
                if k >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[k] = widths[k].max(cell.len());
                }
            }
        }
        let render = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(k, c)| format!("{c:<w$}", w = widths.get(k).copied().unwrap_or(c.len())))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = render(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>());
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&render(row));
            out.push('\n');
        }
        for ds in &self.datasets {
            for msg in &ds.skipped {
                out.push_str(&format!("skipped: {msg}\n"));
            }
        }
        out
    }
}

/// Minimal JSON string escaping for values that can carry arbitrary
/// text (dataset names come from `--dir` directory names, skip
/// reasons embed error messages).
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '\\' => "\\\\".chars().collect::<Vec<_>>(),
            '"' => "\\\"".chars().collect(),
            '\n' => "\\n".chars().collect(),
            '\r' => "\\r".chars().collect(),
            '\t' => "\\t".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Fixed-precision float formatting for the stable JSON (6 decimals,
/// `+∞` → [`PSNR_SENTINEL_DB`]).
fn fmt(v: f64) -> String {
    let v = if v.is_infinite() { PSNR_SENTINEL_DB } else { v };
    format!("{v:.6}")
}

fn point_json(p: &RdPoint) -> String {
    let entropy = p.entropy.map_or("null".to_string(), |e| format!("\"{e}\""));
    let mut s = format!(
        "{{\"codec\": \"{}\", \"entropy\": {entropy}, \"tile\": {}, \"d\": {}, \"bits\": {}, \
         \"bpp\": {}, \"psnr_db\": {}, \"ssim\": {}, \"side_bytes\": {}",
        p.codec,
        p.tile_size,
        p.latent_dim,
        p.bits,
        fmt(p.bpp),
        fmt(p.psnr_db),
        fmt(p.ssim),
        p.side_bytes,
    );
    if let Some(t) = p.throughput {
        s.push_str(&format!(
            ", \"encode_tiles_per_s\": {}, \"decode_tiles_per_s\": {}",
            fmt(t.encode_tiles_per_s),
            fmt(t.decode_tiles_per_s)
        ));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn tiny_report() -> QualityReport {
        QualityReport::build(
            &registry::resolve("glyphs", 0).unwrap(),
            &Grid::parse("d=4;bits=8").unwrap(),
            &BaselineSet::parse("svd,pca").unwrap(),
            false,
            0,
        )
        .unwrap()
    }

    #[test]
    fn json_is_byte_stable_across_reruns() {
        let a = tiny_report().to_json();
        let b = tiny_report().to_json();
        assert_eq!(a, b);
        assert!(a.ends_with("}\n"));
        assert!(a.contains("\"format\": \"qn-eval-quality\""));
        assert!(a.contains("\"codec\": \"quantum\""));
        assert!(a.contains("\"codec\": \"svd\""));
        assert!(a.contains("\"codec\": \"pca\""));
        assert!(a.contains("\"golden\""));
    }

    #[test]
    fn baseline_roster_parses() {
        let all = BaselineSet::parse("all").unwrap();
        assert!(all.svd && all.pca && all.csc);
        let none = BaselineSet::parse("none").unwrap();
        assert!(!none.svd && !none.pca && !none.csc);
        let some = BaselineSet::parse("svd, csc").unwrap();
        assert!(some.svd && !some.pca && some.csc);
        assert!(BaselineSet::parse("jpeg").is_err());
    }

    #[test]
    fn infeasible_baselines_are_skipped_with_reasons() {
        // blobs: 6 images → SVD rank 8 > min(M, N) = 6, CSC over the
        // dictionary cap. Both must land in `skipped`, not vanish.
        let report = QualityReport::build(
            &registry::resolve("blobs", 0).unwrap(),
            &Grid::parse("d=8;bits=8").unwrap(),
            &BaselineSet::all(),
            false,
            0,
        )
        .unwrap();
        let ds = &report.datasets[0];
        assert_eq!(ds.skipped.len(), 2, "skipped: {:?}", ds.skipped);
        assert!(ds.points.iter().any(|p| p.codec == "quantum"));
        assert!(ds.points.iter().any(|p| p.codec == "pca"));
        assert!(!ds.points.iter().any(|p| p.codec == "svd"));
        let json = report.to_json();
        assert!(json.contains("\"skipped\": [\""));
    }

    #[test]
    fn human_table_lists_every_point() {
        let report = tiny_report();
        let table = report.human_table();
        let expected: usize = report.datasets.iter().map(|d| d.points.len()).sum();
        // Header + separator + one row per point.
        assert_eq!(table.lines().count(), 2 + expected);
        assert!(table.contains("glyphs"));
        assert!(table.starts_with("dataset"));
    }

    #[test]
    fn psnr_sentinel_replaces_infinity_in_json() {
        assert_eq!(fmt(f64::INFINITY), "999.000000");
        assert_eq!(fmt(1.25), "1.250000");
    }

    #[test]
    fn hostile_dataset_names_stay_valid_json() {
        // --dir dataset names come from directory names, which may
        // hold quotes/backslashes/control characters.
        assert_eq!(json_escape(r#"my"set"#), r#"my\"set"#);
        assert_eq!(json_escape(r"a\b"), r"a\\b");
        assert_eq!(json_escape("a\nb\tc"), "a\\nb\\tc");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let ds = crate::registry::Dataset {
            name: "quo\"te\\dir".into(),
            images: crate::registry::builtin("glyphs", 0).unwrap().images,
        };
        let report = QualityReport::build(
            &[ds],
            &Grid::parse("d=4;bits=8").unwrap(),
            &BaselineSet::none(),
            false,
            0,
        )
        .unwrap();
        let json = report.to_json();
        assert!(json.contains(r#""name": "quo\"te\\dir""#), "{json}");
    }
}
