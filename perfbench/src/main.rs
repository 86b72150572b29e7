//! The repository benchmark. One run measures one workload for a fixed
//! window, checks every output against references the same build
//! computed in the same run, and prints a readable report followed by a
//! one-line JSON result. See README.md for the workloads, the metrics and
//! what each layer metric is predicted to move.
//!
//! ```text
//! perfbench --workload <bulk-1024|standalone-256|zoo-32> --seed <n>
//!           --seconds <s> --trace <0|1> --qnc <qnc binary> --out <dir>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of a traced repeat of the workload.

mod bulk;
mod host;
mod inputs;
mod layers;
mod loadgen;
mod oracle;
mod report;
mod served;
mod server;
mod stats;

use qn_image::GrayImage;
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// Codec tile edge: the `qnc` default.
pub const TILE: usize = 4;
/// Latent dimension d: the `qnc` default.
pub const LATENT: usize = 8;

/// Error text of any displayable error.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `qnc` binary served workloads start.
    pub qnc: PathBuf,
    /// Directory for server logs and span dumps.
    pub out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <bulk-1024|standalone-256|zoo-32> --seed <n> \
                     --seconds <s> --trace <0|1> --qnc <path> --out <dir>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
        },
        qnc: PathBuf::from(value("--qnc")?),
        out: PathBuf::from(value("--out")?),
    })
}

/// Container rate and aggregate reconstruction quality over a workload's
/// distinct images.
#[derive(Debug, Default)]
pub struct Quality {
    container_bytes: u64,
    pixels: u64,
    squared_error: f64,
}

impl Quality {
    pub fn add(&mut self, source: &GrayImage, container: &[u8], decoded: &GrayImage) {
        self.container_bytes += container.len() as u64;
        self.pixels += source.len() as u64;
        // Decoded amplitudes may overshoot 1 slightly; score them clamped
        // like every quality figure in the workspace.
        self.squared_error += source
            .pixels()
            .iter()
            .zip(decoded.pixels())
            .map(|(&s, &d)| (s - d.clamp(0.0, 1.0)).powi(2))
            .sum::<f64>();
    }

    /// Mean container bits per pixel.
    pub fn bpp(&self) -> f64 {
        self.container_bytes as f64 * 8.0 / self.pixels as f64
    }

    /// PSNR (peak 1.0) of all decoded pixels against their sources.
    pub fn psnr_db(&self) -> f64 {
        -10.0 * (self.squared_error / self.pixels as f64).log10()
    }
}

/// Push the p50 latencies, and note every p99 the sample supports.
pub fn latency_metrics(out: &mut Outcome, enc_ms: &[f64], dec_ms: &[f64]) {
    for (dir, samples) in [("encode", enc_ms), ("decode", dec_ms)] {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        out.metric(
            &format!("{dir}_latency_p50_ms"),
            stats::median(&sorted),
            "ms",
        );
        match stats::supported_quantile(&sorted, 0.99) {
            Some(p99) => out.note(format!(
                "{dir}_latency_p99_ms {p99:.4} ms ({} samples)",
                sorted.len()
            )),
            None => out.note(format!(
                "{dir}_latency_p99_ms not reported: {} samples, p99 needs {}",
                sorted.len(),
                100 * stats::MIN_TAIL
            )),
        }
    }
}

/// bpp and PSNR over the distinct images, checked against the floor;
/// metrics of the untraced run, notes of the traced one.
pub fn quality_metrics(
    out: &mut Outcome,
    q: &Quality,
    floor_db: f64,
    as_metrics: bool,
    oracle: &mut oracle::Oracle,
) {
    let psnr = q.psnr_db();
    oracle.require(0, "psnr floor", psnr >= floor_db, || {
        format!("{psnr:.3} dB below the {floor_db} dB floor")
    });
    if as_metrics {
        out.metric("bpp", q.bpp(), "bits/px");
        out.metric("psnr_db", psnr, "dB");
    } else {
        out.note(format!(
            "bpp {:.6}, psnr_db {psnr:.6} (floor {floor_db} dB)",
            q.bpp()
        ));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    let result = match args.workload.as_str() {
        "bulk-1024" => bulk::run(&args),
        "standalone-256" => served::run(&args, &served::STANDALONE),
        "zoo-32" => served::run(&args, &served::ZOO),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let title = format!(
        "perfbench {} seed {} window {} s trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    match result.and_then(|outcome| outcome.print(&title).map(|()| outcome.correct)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
