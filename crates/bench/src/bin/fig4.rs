//! Reproduce **Fig. 4** (experiments E1–E5 below): the full training run
//! of the paper's Sec. IV.
//!
//! Paper setting: 25 binary 4×4 images, N = 16, d = 4, l_C = 12,
//! l_R = 14, 150 iterations. We run 300 iterations (the strict Eq. 10
//! tolerance of 0.01 needs the extra depth with our optimiser; the
//! binary-threshold accuracy of §IV-B saturates well within the paper's
//! 150) and report both checkpoints.
//!
//! Outputs (under `results/`):
//! - `fig4a_input_XX.pgm` / `fig4b_recon_XX.pgm` — input & reconstruction
//!   images (E1), plus an ASCII montage on stdout;
//! - `fig4c_loss.csv` — L_C and L_R per iteration (E2);
//! - `fig4d_accuracy.csv` — both accuracy metrics per iteration (E3);
//! - `fig4ef_amplitudes.csv` — compression/reconstruction amplitudes of
//!   sample 25 per iteration (E4);
//! - `fig4g_theta.csv` — θ trajectories and gradient norms (E5).

use qn_bench::{results_dir, write_csv, Table};
use qn_core::config::NetworkConfig;
use qn_core::encoding;
use qn_core::spectral;
use qn_core::trainer::Trainer;
use qn_image::{ascii, datasets, pgm};

fn main() {
    let iterations = 300;
    let data = datasets::paper_binary_16(25);
    let cfg = NetworkConfig::paper_default().with_iterations(iterations);
    println!(
        "Fig. 4 reproduction: M={} binary 4x4 images, N={}, d={}, lC={}, lR={}, {} iterations",
        data.len(),
        cfg.dim,
        cfg.compressed_dim,
        cfg.layers_c,
        cfg.layers_r,
        cfg.iterations
    );
    let inputs: Vec<Vec<f64>> = encoding::encode_images(&data, cfg.dim)
        .expect("dataset encodes")
        .into_iter()
        .map(|e| e.amplitudes)
        .collect();
    let bound = spectral::compression_loss_lower_bound(&inputs, cfg.dim, cfg.compressed_dim)
        .expect("bound computable");
    println!(
        "dataset: effective rank {} | rank-4 energy {:.4} | PCA loss bound (sum) {:.3e}",
        datasets::effective_rank(&data, 1e-10),
        datasets::rank_energy(&data, 4),
        bound
    );

    let mut trainer = Trainer::new(cfg, &data).expect("valid configuration");
    let report = trainer.train().expect("training runs");
    let h = &report.history;
    let dir = results_dir();

    // E2: loss curves.
    write_csv(
        &dir.join("fig4c_loss.csv"),
        &["iteration", "lc_sum", "lc_mean", "lr_sum", "lr_mean"],
        &(0..h.compression_loss.len())
            .map(|i| {
                vec![
                    i as f64,
                    h.compression_loss[i].sum,
                    h.compression_loss[i].mean,
                    h.reconstruction_loss[i].sum,
                    h.reconstruction_loss[i].mean,
                ]
            })
            .collect::<Vec<_>>(),
    );

    // E3: accuracy curves.
    write_csv(
        &dir.join("fig4d_accuracy.csv"),
        &["iteration", "accuracy_snap_pct", "accuracy_binary_pct"],
        &(0..h.accuracy.len())
            .map(|i| vec![i as f64, h.accuracy[i], h.accuracy_binary[i]])
            .collect::<Vec<_>>(),
    );

    // E4: amplitude traces for the tracked sample (paper's sample 25).
    let n = trainer.config().dim;
    let mut header: Vec<String> = vec!["iteration".to_string()];
    header.extend((0..n).map(|j| format!("compressed_a{j}")));
    header.extend((0..n).map(|j| format!("reconstructed_b{j}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    write_csv(
        &dir.join("fig4ef_amplitudes.csv"),
        &header_refs,
        &(0..h.compressed_trace.len())
            .map(|i| {
                let mut row = vec![i as f64];
                row.extend(&h.compressed_trace[i]);
                row.extend(&h.reconstructed_trace[i]);
                row
            })
            .collect::<Vec<_>>(),
    );

    // E5: θ trajectories (U_C) + gradient norms.
    let p = h.theta_c_trace[0].len();
    let mut theta_header: Vec<String> = vec!["iteration".to_string(), "grad_norm_c".to_string()];
    theta_header.extend((0..p).map(|j| format!("theta_{j}")));
    let theta_refs: Vec<&str> = theta_header.iter().map(String::as_str).collect();
    write_csv(
        &dir.join("fig4g_theta.csv"),
        &theta_refs,
        &(0..h.theta_c_trace.len())
            .map(|i| {
                let mut row = vec![i as f64, h.grad_norm_c[i]];
                row.extend(&h.theta_c_trace[i]);
                row
            })
            .collect::<Vec<_>>(),
    );

    // E1: input & reconstruction images.
    let ae = trainer.into_autoencoder();
    println!("\ninput (left) vs reconstruction (right), first 5 samples:");
    for (i, img) in data.iter().enumerate() {
        let recon = ae.roundtrip_image(img).expect("roundtrip");
        pgm::write_pgm(img, &dir.join(format!("fig4a_input_{i:02}.pgm"))).expect("pgm write");
        pgm::write_pgm(&recon, &dir.join(format!("fig4b_recon_{i:02}.pgm"))).expect("pgm write");
        if i < 5 {
            println!(
                "{}",
                ascii::render_row(&[img, &recon.snapped()], "   ->   ")
            );
        }
    }

    // Summary vs the paper's reported numbers.
    let it150 = 149.min(h.accuracy.len() - 1);
    let mut t = Table::new(&["quantity", "paper", "this run"]);
    t.row(&[
        "min L_C (mean)".into(),
        "0.017".into(),
        format!(
            "{:.4}",
            h.compression_loss
                .iter()
                .map(|l| l.mean)
                .fold(f64::MAX, f64::min)
        ),
    ]);
    t.row(&[
        "min L_R (mean)".into(),
        "0.023".into(),
        format!(
            "{:.4}",
            h.reconstruction_loss
                .iter()
                .map(|l| l.mean)
                .fold(f64::MAX, f64::min)
        ),
    ]);
    t.row(&[
        "max accuracy (Eq.10+snap)".into(),
        "97.75%".into(),
        format!("{:.2}%", report.max_accuracy),
    ]);
    t.row(&[
        "accuracy @ iter 150".into(),
        "97.75%".into(),
        format!(
            "{:.2}% (binary {:.2}%)",
            h.accuracy[it150], h.accuracy_binary[it150]
        ),
    ]);
    t.row(&[
        "max accuracy (binary 0.5)".into(),
        "(not reported)".into(),
        format!("{:.2}%", report.max_accuracy_binary),
    ]);
    t.row(&[
        "train time".into(),
        "575.67s (MATLAB)".into(),
        format!("{:.2}s", report.train_seconds),
    ]);
    println!("{}", t.render());
    println!("CSV series written to {}", dir.display());
}
