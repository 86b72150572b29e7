//! Reproduce **Fig. 5c** and **Table I** (experiments E6–E7): the
//! QN-vs-CSC comparison at the same 16×16 scale on the same dataset.
//!
//! Paper: "For the same data set, the training time (CPU runs) of the
//! CSC-based algorithm is longer, and the training loss of the QN-based
//! algorithm is much lower" — Table I: QN 97.75 % / 575.67 s vs CSC
//! 93.63 % / 763.83 s, both 16×16.
//!
//! Absolute seconds are not comparable (MATLAB vs optimised Rust); the
//! *shape* under test is: QN accuracy > CSC accuracy, QN final loss <
//! CSC final loss, and QN cheaper per equal iteration budget. A PCA row
//! (ref \[11\]'s classically-simulable content) is added as an extension.
//!
//! Outputs: `results/fig5c_loss.csv`, `results/table1.csv`, stdout table.

use qn_bench::{results_dir, write_csv, Table};
use qn_classical::csc::{CscConfig, CscPipeline};
use qn_classical::pca::Pca;
use qn_core::config::NetworkConfig;
use qn_core::trainer::Trainer;
use qn_image::{datasets, metrics, GrayImage};
use std::time::Instant;

fn main() {
    let data = datasets::paper_binary_16(25);
    let iterations = 150;

    // --- Quantum network (same budget as the paper). ---
    let qn_cfg = NetworkConfig::paper_default().with_iterations(iterations);
    let mut qn = Trainer::new(qn_cfg, &data).expect("valid configuration");
    let qn_report = qn.train().expect("training runs");

    // --- CSC baseline: 16×16 dictionary, SVD-based learning. ---
    let csc_cfg = CscConfig {
        iterations,
        ..CscConfig::paper_default()
    };
    let mut csc = CscPipeline::new(csc_cfg, &data);
    let csc_report = csc.train();

    // --- PCA (qPCA's classical content), single-shot fit. ---
    let samples: Vec<Vec<f64>> = data.iter().map(|i| i.to_vector()).collect();
    let pca_start = Instant::now();
    let pca = Pca::fit(&samples, 4).expect("pca fits");
    let pca_seconds = pca_start.elapsed().as_secs_f64();
    let pca_recons: Vec<GrayImage> = samples
        .iter()
        .zip(&data)
        .map(|(x, img)| {
            let y = pca.roundtrip(x);
            GrayImage::from_pixels(img.width(), img.height(), y)
                .expect("dimensions preserved")
                .snapped()
        })
        .collect();
    let pca_accuracy = metrics::mean_pixel_accuracy(&pca_recons, &data, 0.01);
    let pca_binarised: Vec<GrayImage> = pca_recons.iter().map(|r| r.thresholded(0.5)).collect();
    let pca_accuracy_binary = metrics::mean_pixel_accuracy(&pca_binarised, &data, 0.01);

    // --- Fig 5c: compression-loss curves on a common iteration axis. ---
    let h = &qn_report.history;
    let rows: Vec<Vec<f64>> = (0..iterations)
        .map(|i| {
            vec![
                i as f64,
                h.compression_loss[i].sum,
                h.compression_loss[i].mean,
                csc_report.loss[i],
                csc_report.loss_mean[i],
            ]
        })
        .collect();
    let dir = results_dir();
    write_csv(
        &dir.join("fig5c_loss.csv"),
        &[
            "iteration",
            "qn_loss_sum",
            "qn_loss_mean",
            "csc_loss_sum",
            "csc_loss_mean",
        ],
        &rows,
    );

    // --- Table I. ---
    write_csv(
        &dir.join("table1.csv"),
        &["method", "accuracy_pct", "cpu_seconds", "matrix_size"],
        &[
            vec![
                0.0,
                qn_report.max_accuracy_binary,
                qn_report.train_seconds,
                16.0,
            ],
            vec![
                1.0,
                csc_report.max_accuracy_binary,
                csc_report.train_seconds,
                16.0,
            ],
            vec![2.0, pca_accuracy_binary, pca_seconds, 16.0],
        ],
    );

    // Binary images in, binary images out: the §IV-B binary-threshold
    // accuracy is the comparable metric; the strict Eq. 10 snap accuracy
    // is reported alongside.
    let mut t = Table::new(&[
        "Method",
        "Accuracy (binary)",
        "Accuracy (snap)",
        "CPU Runs",
        "Matrix Size",
    ]);
    t.row(&[
        "QN-based".into(),
        format!("{:.2}% (paper: 97.75%)", qn_report.max_accuracy_binary),
        format!("{:.2}%", qn_report.max_accuracy),
        format!("{:.3}s (paper: 575.67s)", qn_report.train_seconds),
        "16x16".into(),
    ]);
    t.row(&[
        "CSC-based".into(),
        format!("{:.2}% (paper: 93.63%)", csc_report.max_accuracy_binary),
        format!("{:.2}%", csc_report.max_accuracy),
        format!("{:.3}s (paper: 763.83s)", csc_report.train_seconds),
        csc_report.matrix_size.clone(),
    ]);
    t.row(&[
        "PCA (ext.)".into(),
        format!("{pca_accuracy_binary:.2}%"),
        format!("{pca_accuracy:.2}%"),
        format!("{pca_seconds:.4}s"),
        "16x16".into(),
    ]);
    println!("{}", t.render());

    let qn_final = h.compression_loss[iterations - 1].sum;
    let csc_final = csc_report.loss[iterations - 1];
    println!(
        "final training loss (sum): QN {qn_final:.4} vs CSC {csc_final:.4}  → {}",
        if qn_final < csc_final {
            "QN lower, matching Fig. 5c"
        } else {
            "SHAPE MISMATCH: CSC lower"
        }
    );
    println!(
        "wall-clock: QN {:.3}s vs CSC {:.3}s → {}",
        qn_report.train_seconds,
        csc_report.train_seconds,
        if qn_report.train_seconds < csc_report.train_seconds {
            "QN cheaper, matching Table I"
        } else {
            "CSC cheaper here (absolute times are substrate-dependent)"
        }
    );

    // Supplementary: the same comparison on the *hard* dataset (off-
    // subspace energy), where neither method saturates — shows the
    // ordering holds away from the lossless regime too.
    let hard = datasets::paper_binary_16_hard(25);
    let mut qn_h = Trainer::new(
        NetworkConfig::paper_default().with_iterations(iterations),
        &hard,
    )
    .expect("valid configuration");
    let qn_h_report = qn_h.train().expect("training runs");
    let mut csc_h = CscPipeline::new(
        CscConfig {
            iterations,
            ..CscConfig::paper_default()
        },
        &hard,
    );
    let csc_h_report = csc_h.train();
    let mut th = Table::new(&[
        "Method (hard set)",
        "Accuracy (binary)",
        "Accuracy (snap)",
        "CPU Runs",
    ]);
    th.row(&[
        "QN-based".into(),
        format!("{:.2}%", qn_h_report.max_accuracy_binary),
        format!("{:.2}%", qn_h_report.max_accuracy),
        format!("{:.3}s", qn_h_report.train_seconds),
    ]);
    th.row(&[
        "CSC-based".into(),
        format!("{:.2}%", csc_h_report.max_accuracy_binary),
        format!("{:.2}%", csc_h_report.max_accuracy),
        format!("{:.3}s", csc_h_report.train_seconds),
    ]);
    println!("\n{}", th.render());
    write_csv(
        &dir.join("table1_hard.csv"),
        &[
            "method",
            "accuracy_binary_pct",
            "accuracy_snap_pct",
            "cpu_seconds",
        ],
        &[
            vec![
                0.0,
                qn_h_report.max_accuracy_binary,
                qn_h_report.max_accuracy,
                qn_h_report.train_seconds,
            ],
            vec![
                1.0,
                csc_h_report.max_accuracy_binary,
                csc_h_report.max_accuracy,
                csc_h_report.train_seconds,
            ],
        ],
    );
    println!("CSV series written to {}", dir.display());
}
