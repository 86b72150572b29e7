//! The paper's full Sec. IV pipeline with live progress output —
//! Fig. 1's four stages end to end, streaming per-iteration metrics
//! through the observer hook and a bounded channel (the kind of
//! monitoring a real training harness would attach).
//!
//! Run with: `cargo run --release --example train_paper`

use qn::core::config::NetworkConfig;
use qn::core::trainer::{IterationEvent, Trainer};
use qn::image::{ascii, datasets, metrics};
use std::sync::mpsc;
use std::thread;

fn main() {
    let data = datasets::paper_binary_16(25);
    let config = NetworkConfig::paper_default().with_iterations(300);
    println!(
        "training: N={}, d={}, l_C={}, l_R={}, {} iterations, seed {}",
        config.dim,
        config.compressed_dim,
        config.layers_c,
        config.layers_r,
        config.iterations,
        config.seed
    );

    // Stream events to a printer thread so the training loop never blocks
    // on stdout.
    let (tx, rx) = mpsc::sync_channel::<IterationEvent>(64);
    let printer = thread::spawn(move || {
        for ev in rx {
            if ev.iteration % 25 == 0 {
                println!(
                    "iter {:>4}: L_C = {:.3e}  L_R = {:.3e}  accuracy = {:.2}%",
                    ev.iteration, ev.loss_c.mean, ev.loss_r.mean, ev.accuracy
                );
            }
        }
    });

    let mut trainer = Trainer::new(config, &data).expect("valid configuration");
    let report = trainer
        .train_with_observer(|ev| {
            let _ = tx.send(ev);
        })
        .expect("training runs");
    drop(tx);
    printer.join().expect("printer thread exits cleanly");

    println!(
        "\nfinal: L_C = {:.2e}, L_R = {:.2e}, max accuracy {:.2}% (snap) / {:.2}% (binary)",
        report.final_compression_loss,
        report.final_reconstruction_loss,
        report.max_accuracy,
        report.max_accuracy_binary
    );

    // Show every image against its reconstruction (Fig. 4a vs 4b).
    let autoencoder = trainer.into_autoencoder();
    let mut worst = (100.0_f64, 0usize);
    for (i, img) in data.iter().enumerate() {
        let recon = autoencoder.roundtrip_image(img).expect("roundtrip");
        let acc = metrics::pixel_accuracy(&recon.snapped(), img, 0.01);
        if acc < worst.0 {
            worst = (acc, i);
        }
        if i < 3 {
            println!(
                "sample {i:>2} ({acc:.1}%):\n{}",
                ascii::render_row(&[img, &recon.snapped()], "  →  ")
            );
        }
    }
    println!("worst sample: #{} at {:.1}%", worst.1, worst.0);
}
