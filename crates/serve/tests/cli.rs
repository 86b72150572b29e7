//! End-to-end tests of the `qnc` binary: the acceptance path
//! (`compress` → `decompress` → PSNR floor, size bound), model
//! training/reuse, `info` (text and `--json`), error behaviour on
//! malformed input, and the serving path — `qnc serve` booted as a real
//! subprocess on an ephemeral port with `qnc remote` driven against it.

use qn_image::{datasets, metrics, pgm};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};

fn qnc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qnc"))
}

fn work_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("qnc_cli_tests").join(name);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn write_dataset_image(path: &Path, w: usize, h: usize, seed: u64) -> qn_image::GrayImage {
    let img = datasets::grayscale_blobs(1, w, h, seed).remove(0);
    pgm::write_pgm(&img, path).expect("write pgm");
    img
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn qnc");
    assert!(
        out.status.success(),
        "qnc failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The PR's acceptance criterion: compress a dataset image at d=8 /
/// 8-bit latents, decompress it standalone, and require PSNR ≥ 20 dB
/// with the container smaller than the raw pixel payload.
#[test]
fn compress_decompress_roundtrip_meets_acceptance() {
    let dir = work_dir("roundtrip");
    let input = dir.join("img.pgm");
    let container = dir.join("out.qnc");
    let restored = dir.join("rt.pgm");
    let img = write_dataset_image(&input, 128, 96, 42);

    run_ok(qnc().arg("compress").arg(&input).arg("-o").arg(&container));
    run_ok(
        qnc()
            .arg("decompress")
            .arg(&container)
            .arg("-o")
            .arg(&restored),
    );

    let container_bytes = std::fs::metadata(&container).unwrap().len() as usize;
    let raw_bytes = img.len(); // one byte per pixel
    assert!(
        container_bytes < raw_bytes,
        "container {container_bytes} B not smaller than raw {raw_bytes} B"
    );

    let back = pgm::read_pgm(&restored).unwrap();
    assert_eq!((back.width(), back.height()), (128, 96));
    let psnr = metrics::psnr(&img, &back);
    assert!(psnr >= 20.0, "PSNR {psnr:.2} dB below the 20 dB floor");
}

/// Model save → load reproduces identical reconstructions: compressing
/// with a saved model file and decompressing with the same file must
/// give byte-identical output to the standalone (inline-model) path.
#[test]
fn trained_model_file_reproduces_identical_output() {
    let dir = work_dir("model_reuse");
    let input = dir.join("img.pgm");
    let model = dir.join("model.qnm");
    write_dataset_image(&input, 64, 64, 7);

    run_ok(qnc().arg("train").arg(&input).arg("-o").arg(&model));

    // Compress twice with the same model file; outputs must be
    // byte-identical (bit-exact model load).
    let c1 = dir.join("a.qnc");
    let c2 = dir.join("b.qnc");
    for c in [&c1, &c2] {
        run_ok(
            qnc()
                .arg("compress")
                .arg(&input)
                .arg("-o")
                .arg(c)
                .arg("--model")
                .arg(&model)
                .arg("--no-inline-model")
                .arg("--no-verify"),
        );
    }
    assert_eq!(
        std::fs::read(&c1).unwrap(),
        std::fs::read(&c2).unwrap(),
        "same model file must produce identical containers"
    );

    // Decompress with the model file (no inline model present).
    let restored = dir.join("rt.pgm");
    run_ok(
        qnc()
            .arg("decompress")
            .arg(&c1)
            .arg("-o")
            .arg(&restored)
            .arg("--model")
            .arg(&model),
    );
    let img = pgm::read_pgm(&input).unwrap();
    let back = pgm::read_pgm(&restored).unwrap();
    let psnr = metrics::psnr(&img, &back);
    assert!(psnr >= 20.0, "PSNR {psnr:.2} dB below the 20 dB floor");
}

#[test]
fn gradient_refined_training_runs() {
    let dir = work_dir("train_iters");
    let input = dir.join("img.pgm");
    let model = dir.join("model.qnm");
    write_dataset_image(&input, 16, 16, 3);
    run_ok(
        qnc()
            .arg("train")
            .arg(&input)
            .arg("-o")
            .arg(&model)
            .arg("--iters")
            .arg("5")
            .arg("--latent")
            .arg("8"),
    );
    assert!(model.exists());
}

#[test]
fn info_reports_both_formats() {
    let dir = work_dir("info");
    let input = dir.join("img.pgm");
    let container = dir.join("out.qnc");
    let model = dir.join("model.qnm");
    write_dataset_image(&input, 32, 32, 11);
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&container)
            .arg("--no-verify"),
    );
    run_ok(qnc().arg("train").arg(&input).arg("-o").arg(&model));

    let out = run_ok(qnc().arg("info").arg(&container));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("qnc container v1"), "got: {text}");
    assert!(text.contains("32x32 px"));
    let names_coder = |text: &str, coder: &str| {
        text.lines()
            .any(|l| l.split_whitespace().eq(["entropy", coder]))
    };
    assert!(names_coder(&text, "rice"), "got: {text}");

    // A v2 container's plain view names its coder, as `--json` does.
    let v2 = dir.join("out-rice-pos.qnc");
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&v2)
            .arg("--entropy")
            .arg("rice-pos")
            .arg("--no-verify"),
    );
    let out = run_ok(qnc().arg("info").arg(&v2));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("qnc container v2"), "got: {text}");
    assert!(names_coder(&text, "rice-pos"), "got: {text}");

    let out = run_ok(qnc().arg("info").arg(&model));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("qnm model v1"), "got: {text}");
    assert!(text.contains("N=16 -> d=8"));
}

#[test]
fn corrupt_container_fails_cleanly_without_panicking() {
    let dir = work_dir("corrupt");
    let input = dir.join("img.pgm");
    let container = dir.join("out.qnc");
    write_dataset_image(&input, 32, 32, 13);
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&container)
            .arg("--no-verify"),
    );

    let mut bytes = std::fs::read(&container).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    let corrupt = dir.join("corrupt.qnc");
    std::fs::write(&corrupt, &bytes).unwrap();

    let out = qnc()
        .arg("decompress")
        .arg(&corrupt)
        .arg("-o")
        .arg(dir.join("never.pgm"))
        .output()
        .expect("spawn qnc");
    assert!(!out.status.success(), "corrupt container must fail");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        !stderr.contains("panicked"),
        "decoder panicked on corrupt input: {stderr}"
    );
    assert!(
        stderr.contains("checksum") || stderr.contains("truncated"),
        "{stderr}"
    );
}

/// Bitstream v2 through the binary: every entropy coder compresses
/// and decompresses to pixel-identical output, both v2 coders shrink
/// the container on a multi-tile image, and an unknown coder name
/// fails cleanly.
#[test]
fn entropy_coders_are_selectable_and_decode_identically() {
    let dir = work_dir("entropy");
    let input = dir.join("img.pgm");
    write_dataset_image(&input, 48, 32, 83);

    let mut sizes = Vec::new();
    let mut decodes = Vec::new();
    for coder in ["rice", "rice-pos", "range"] {
        let container = dir.join(format!("{coder}.qnc"));
        let decoded = dir.join(format!("{coder}.pgm"));
        run_ok(
            qnc()
                .arg("compress")
                .arg(&input)
                .arg("-o")
                .arg(&container)
                .arg("--entropy")
                .arg(coder)
                .arg("--no-verify"),
        );
        // `info` names the coder.
        let info = run_ok(qnc().arg("info").arg(&container).arg("--json"));
        let json = String::from_utf8_lossy(&info.stdout).into_owned();
        assert!(
            json.contains(&format!("\"entropy\":\"{coder}\"")),
            "info --json must report the coder: {json}"
        );
        run_ok(
            qnc()
                .arg("decompress")
                .arg(&container)
                .arg("-o")
                .arg(&decoded),
        );
        sizes.push(std::fs::metadata(&container).unwrap().len());
        decodes.push(std::fs::read(&decoded).unwrap());
    }
    assert_eq!(decodes[0], decodes[1], "rice-pos decode differs from rice");
    assert_eq!(decodes[0], decodes[2], "range decode differs from rice");
    assert!(
        sizes[1] < sizes[0] && sizes[2] < sizes[0],
        "v2 coders must shrink the container: rice {} rice-pos {} range {}",
        sizes[0],
        sizes[1],
        sizes[2]
    );

    let out = qnc()
        .arg("compress")
        .arg(&input)
        .arg("-o")
        .arg(dir.join("bad.qnc"))
        .arg("--entropy")
        .arg("huffman")
        .output()
        .expect("spawn qnc");
    assert!(!out.status.success(), "unknown coder must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown entropy coder"));
}

/// Flags that no longer exist fail by name: `--backend` on every
/// command that took it (each runs the simd backend; scalar is the
/// test oracle, not an option), `--serial`, and the removed `serve`
/// flags (`--batch-tiles`, `--no-metrics`, `--no-tracing`,
/// `--metrics-dump-secs`). A server that accepted one would serve
/// forever, so every command gets a few seconds to exit.
#[test]
fn removed_flags_are_rejected_by_name() {
    let dir = work_dir("removed_flags");
    let input = dir.join("img.pgm");
    let container = dir.join("img.qnc");
    let never = dir.join("never.out");
    write_dataset_image(&input, 16, 16, 29);
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&container)
            .arg("--no-verify"),
    );
    let compress = |extra: &[&str]| {
        let mut cmd = qnc();
        cmd.arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&never)
            .args(extra);
        cmd
    };
    let decompress = |extra: &[&str]| {
        let mut cmd = qnc();
        cmd.arg("decompress").arg(&container).arg("-o").arg(&never);
        cmd.args(extra);
        cmd
    };
    let serve = |extra: &[&str]| {
        let mut cmd = qnc();
        cmd.args(["serve", "--addr", "127.0.0.1:0"]).args(extra);
        cmd
    };
    let eval = |extra: &[&str]| {
        let mut cmd = qnc();
        cmd.args(["eval", "--datasets", "blobs", "--grid", "smoke"]);
        cmd.args(["--baselines", "none"]).args(extra);
        cmd
    };
    let backend = ["--backend", "simd"];
    let cases = [
        (compress(&backend), "--backend"),
        (decompress(&backend), "--backend"),
        (serve(&backend), "--backend"),
        (eval(&backend), "--backend"),
        (compress(&["--serial"]), "--serial"),
        (serve(&["--batch-tiles", "1"]), "--batch-tiles"),
        (serve(&["--no-metrics"]), "--no-metrics"),
        (serve(&["--no-tracing"]), "--no-tracing"),
        (serve(&["--metrics-dump-secs", "1"]), "--metrics-dump-secs"),
        (serve(&["--workers", "4"]), "--workers"),
    ];
    for (mut cmd, flag) in cases {
        let mut child = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn qnc");
        for _ in 0..500 {
            if child.try_wait().unwrap().is_some() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let _ = child.kill();
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{cmd:?} must be rejected");
        assert!(
            stderr.contains(&format!("unknown flag {flag}")),
            "{cmd:?}: {stderr}"
        );
    }
    assert!(!never.exists());
}

#[test]
fn info_json_is_machine_readable() {
    let dir = work_dir("info_json");
    let input = dir.join("img.pgm");
    let container = dir.join("out.qnc");
    write_dataset_image(&input, 32, 32, 17);
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&container)
            .arg("--no-verify"),
    );
    let out = run_ok(qnc().arg("info").arg(&container).arg("--json"));
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        json.trim().starts_with('{') && json.trim().ends_with('}'),
        "{json}"
    );
    assert!(json.contains("\"format\":\"qnc\""), "{json}");
    assert!(json.contains("\"width\":32,\"height\":32"), "{json}");
    assert!(json.contains("\"payload_bytes\":"), "{json}");
    // And it matches the library producer the server's INFO reply uses.
    let bytes = std::fs::read(&container).unwrap();
    assert_eq!(json.trim(), qn_codec::info::file_info_json(&bytes).unwrap());
}

/// A `qnc serve` subprocess on an ephemeral port; killed on drop.
struct ServeProcess {
    child: Child,
    addr: String,
    // Keeps the stdout pipe's read end open for the child's lifetime.
    _stdout: BufReader<std::process::ChildStdout>,
}

impl ServeProcess {
    fn start(extra: &[&str]) -> ServeProcess {
        let mut child = qnc()
            .arg("serve")
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn qnc serve");
        let stdout = child.stdout.take().expect("serve stdout");
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader.read_line(&mut banner).expect("read serve banner");
        let addr = banner
            .strip_prefix("qn-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
            .trim()
            .to_string();
        ServeProcess {
            child,
            addr,
            _stdout: reader,
        }
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The PR's acceptance criterion: a `.qnc` encoded via `qnc remote
/// compress` against a running `qn-serve` is byte-identical to offline
/// `qnc compress` with the same model/options — for both the spectral
/// and the explicit-model path — and `remote decompress` reproduces the
/// offline pixels.
#[test]
fn remote_compress_is_byte_identical_to_offline() {
    let dir = work_dir("remote");
    let input = dir.join("img.pgm");
    let model = dir.join("model.qnm");
    write_dataset_image(&input, 48, 32, 23);
    run_ok(qnc().arg("train").arg(&input).arg("-o").arg(&model));

    let server = ServeProcess::start(&["--store", dir.join("zoo").to_str().unwrap()]);

    // Spectral path (no --model on either side).
    let offline = dir.join("offline.qnc");
    let remote = dir.join("remote.qnc");
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&offline)
            .arg("--no-verify"),
    );
    run_ok(
        qnc()
            .arg("remote")
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&remote)
            .arg("--addr")
            .arg(&server.addr),
    );
    assert_eq!(
        std::fs::read(&offline).unwrap(),
        std::fs::read(&remote).unwrap(),
        "spectral remote compress must be byte-identical"
    );

    // Explicit-model path: remote uploads the model to the zoo first.
    let offline_m = dir.join("offline_m.qnc");
    let remote_m = dir.join("remote_m.qnc");
    run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&offline_m)
            .arg("--model")
            .arg(&model)
            .arg("--no-inline-model")
            .arg("--no-verify"),
    );
    run_ok(
        qnc()
            .arg("remote")
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(&remote_m)
            .arg("--model")
            .arg(&model)
            .arg("--no-inline-model")
            .arg("--addr")
            .arg(&server.addr),
    );
    assert_eq!(
        std::fs::read(&offline_m).unwrap(),
        std::fs::read(&remote_m).unwrap(),
        "model remote compress must be byte-identical"
    );

    // Remote decompress (zoo model, no inline) matches offline decode.
    let offline_pgm = dir.join("offline.pgm");
    let remote_pgm = dir.join("remote.pgm");
    run_ok(
        qnc()
            .arg("decompress")
            .arg(&offline_m)
            .arg("-o")
            .arg(&offline_pgm)
            .arg("--model")
            .arg(&model),
    );
    run_ok(
        qnc()
            .arg("remote")
            .arg("decompress")
            .arg(&remote_m)
            .arg("-o")
            .arg(&remote_pgm)
            .arg("--addr")
            .arg(&server.addr),
    );
    assert_eq!(
        std::fs::read(&offline_pgm).unwrap(),
        std::fs::read(&remote_pgm).unwrap(),
        "remote decompress must reproduce the offline pixels"
    );

    // Remote info over the wire equals local `info --json`.
    let out = run_ok(
        qnc()
            .arg("remote")
            .arg("info")
            .arg(&offline)
            .arg("--addr")
            .arg(&server.addr),
    );
    let local = run_ok(qnc().arg("info").arg(&offline).arg("--json"));
    assert_eq!(out.stdout, local.stdout);

    // Server status names the serving parameters.
    let out = run_ok(
        qnc()
            .arg("remote")
            .arg("info")
            .arg("--addr")
            .arg(&server.addr),
    );
    let status = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(status.contains("\"format\":\"qn-serve\""), "{status}");
}

/// `qnc remote models` lists zoo contents after a model upload and
/// reports an empty zoo before it.
#[test]
fn remote_models_lists_the_zoo() {
    let dir = work_dir("remote_models");
    let input = dir.join("img.pgm");
    let model = dir.join("model.qnm");
    write_dataset_image(&input, 16, 16, 77);
    run_ok(qnc().arg("train").arg(&input).arg("-o").arg(&model));

    // The work dir persists across test runs: start from a fresh zoo
    // so the emptiness check below means what it says.
    let _ = std::fs::remove_dir_all(dir.join("zoo"));
    let server = ServeProcess::start(&["--store", dir.join("zoo").to_str().unwrap()]);
    let out = run_ok(
        qnc()
            .arg("remote")
            .arg("models")
            .arg("--addr")
            .arg(&server.addr),
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("model zoo is empty"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Upload the model through a remote compress, then list again.
    run_ok(
        qnc()
            .arg("remote")
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(dir.join("out.qnc"))
            .arg("--model")
            .arg(&model)
            .arg("--addr")
            .arg(&server.addr),
    );
    let out = run_ok(
        qnc()
            .arg("remote")
            .arg("models")
            .arg("--addr")
            .arg(&server.addr),
    );
    let listing = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(listing.contains("1 model(s)"), "{listing}");
    assert!(listing.contains("yes"), "cached column: {listing}");
    let model_bytes = std::fs::metadata(&model).unwrap().len();
    assert!(listing.contains(&model_bytes.to_string()), "{listing}");
}

/// The codec-stage lines of the span tree in `stdout`, one `(depth,
/// name, attribute keys)` per line; the root and the server's own
/// frame read, queue wait, parse, spectral fit and reply write are
/// left out.
fn codec_stages(stdout: &[u8]) -> Vec<(usize, String, Vec<String>)> {
    let out = String::from_utf8_lossy(stdout);
    out.lines()
        .skip_while(|l| !l.starts_with("trace "))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| {
            let depth = (l.len() - l.trim_start().len()) / 2;
            let mut words = l.split_whitespace();
            let name = words.next()?.to_string();
            let keys = words
                .filter_map(|w| Some(w.split_once('=')?.0.to_string()))
                .collect();
            Some((depth, name, keys))
        })
        .filter(|(_, name, _)| {
            ![
                "frame_read",
                "queue_wait",
                "parse",
                "spectral",
                "reply_write",
            ]
            .contains(&name.as_str())
        })
        .collect()
}

/// The names of the root's children in the span tree in `stdout`.
fn root_children(stdout: &[u8]) -> Vec<String> {
    String::from_utf8_lossy(stdout)
        .lines()
        .skip_while(|l| !l.starts_with("trace "))
        .skip(1)
        .filter(|l| l.starts_with("  ") && !l.starts_with("    "))
        .filter_map(|l| Some(l.split_whitespace().next()?.to_string()))
        .collect()
}

/// The stage names of the `timings: name=time …` line in `stdout`, in
/// order.
fn timings_stages(stdout: &[u8]) -> Vec<String> {
    let out = String::from_utf8_lossy(stdout);
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("timings: "))
        .unwrap_or_else(|| panic!("no timings line in: {out}"));
    line.split_whitespace()
        .filter_map(|stage| Some(stage.split_once('=')?.0.to_string()))
        .collect()
}

/// `--trace` end to end: a remote compress prints the server's span
/// tree for that exact request, `qnc remote trace` lists it again
/// afterwards, and offline `compress/decompress --trace` render the
/// same codec stages, in the same order, as the remote ones.
#[test]
fn trace_flag_prints_span_trees_locally_and_remotely() {
    let dir = work_dir("trace_cli");
    let input = dir.join("img.pgm");
    write_dataset_image(&input, 32, 24, 9);

    let server = ServeProcess::start(&["--store", dir.join("zoo").to_str().unwrap()]);
    let out = run_ok(
        qnc()
            .arg("remote")
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(dir.join("out.qnc"))
            .arg("--trace")
            .arg("--addr")
            .arg(&server.addr),
    );
    let tree = String::from_utf8_lossy(&out.stdout).to_string();
    for stage in ["encode", "mesh_pass", "entropy", "reply_write"] {
        assert!(tree.contains(stage), "stage {stage} missing from: {tree}");
    }
    assert!(tree.contains("\n  mesh_pass +"), "a root child: {tree}");
    assert!(!tree.contains("backend="), "no backend attribute: {tree}");
    assert!(!tree.contains("cause="), "no flush cause: {tree}");
    let remote_encode = codec_stages(&out.stdout);

    // The ring keeps it: `remote trace` lists at least that one trace.
    let out = run_ok(
        qnc()
            .arg("remote")
            .arg("trace")
            .arg("--addr")
            .arg(&server.addr),
    );
    let listing = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(listing.contains("encode"), "{listing}");
    assert!(listing.contains("trace(s)"), "{listing}");

    // Offline `compress --trace` renders the same codec stages without
    // a server.
    let out = run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(dir.join("offline.qnc"))
            .arg("--trace")
            .arg("--no-verify"),
    );
    let tree = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(tree.contains("compress"), "{tree}");
    let names: Vec<&str> = remote_encode.iter().map(|s| s.1.as_str()).collect();
    assert_eq!(names, ["prepare", "mesh_pass", "quantize", "entropy"]);
    assert_eq!(codec_stages(&out.stdout), remote_encode, "{tree}");
    // Without --model, compress fits its own model from the tiles
    // prepare gathered: spectral sits between prepare and mesh_pass.
    let offline_encode = root_children(&out.stdout);
    let at = |stage: &str| offline_encode.iter().position(|s| s == stage);
    assert_eq!(at("prepare"), Some(0), "{tree}");
    assert_eq!(at("spectral"), Some(1), "{tree}");
    assert_eq!(at("mesh_pass"), Some(2), "{tree}");
    // --timings is the same stages, flat: same names, same order.
    let out = run_ok(
        qnc()
            .arg("compress")
            .arg(&input)
            .arg("-o")
            .arg(dir.join("offline.qnc"))
            .arg("--timings")
            .arg("--no-verify"),
    );
    assert_eq!(timings_stages(&out.stdout), offline_encode);

    // And decompress: remote and offline trees of the same container.
    let remote = run_ok(
        qnc()
            .arg("remote")
            .arg("decompress")
            .arg(dir.join("out.qnc"))
            .arg("-o")
            .arg(dir.join("remote.pgm"))
            .arg("--trace")
            .arg("--addr")
            .arg(&server.addr),
    );
    let offline = run_ok(
        qnc()
            .arg("decompress")
            .arg(dir.join("out.qnc"))
            .arg("-o")
            .arg(dir.join("offline.pgm"))
            .arg("--trace"),
    );
    let remote_decode = codec_stages(&remote.stdout);
    let names: Vec<&str> = remote_decode.iter().map(|s| s.1.as_str()).collect();
    assert_eq!(names, ["prepare", "mesh_pass", "stitch"]);
    assert_eq!(codec_stages(&offline.stdout), remote_decode);
    let offline_decode = root_children(&offline.stdout);
    assert_eq!(offline_decode, ["parse", "prepare", "mesh_pass", "stitch"]);
    let timed = run_ok(
        qnc()
            .arg("decompress")
            .arg(dir.join("out.qnc"))
            .arg("-o")
            .arg(dir.join("offline.pgm"))
            .arg("--timings"),
    );
    assert_eq!(timings_stages(&timed.stdout), offline_decode);
}

/// `qnc eval` — the smoke sweep passes its pinned quality gates and
/// two runs write byte-identical JSON (the CI byte-stability check in
/// miniature).
#[test]
fn eval_smoke_is_gated_and_byte_stable() {
    let dir = work_dir("eval");
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    for path in [&a, &b] {
        let out = run_ok(
            qnc()
                .arg("eval")
                .arg("--datasets")
                .arg("blobs")
                .arg("--grid")
                .arg("smoke")
                .arg("--baselines")
                .arg("pca")
                .arg("--check")
                .arg("-o")
                .arg(path),
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("quality gates: OK"), "{stderr}");
        let table = String::from_utf8_lossy(&out.stdout);
        assert!(table.contains("quantum"), "{table}");
        assert!(table.contains("pca"), "{table}");
    }
    let a_bytes = std::fs::read(&a).unwrap();
    assert_eq!(
        a_bytes,
        std::fs::read(&b).unwrap(),
        "reports must be byte-stable"
    );
    let json = String::from_utf8_lossy(&a_bytes);
    assert!(json.contains("\"format\": \"qn-eval-quality\""), "{json}");
    assert!(json.contains("\"codec\": \"quantum\""), "{json}");

    // --json prints the same stable document to stdout.
    let out = run_ok(
        qnc()
            .arg("eval")
            .arg("--datasets")
            .arg("blobs")
            .arg("--grid")
            .arg("smoke")
            .arg("--baselines")
            .arg("pca")
            .arg("--json"),
    );
    assert_eq!(out.stdout, a_bytes, "--json must match the file report");

    // Unknown datasets fail cleanly with the registry listed.
    let out = qnc()
        .arg("eval")
        .arg("--datasets")
        .arg("imagenet")
        .output()
        .expect("spawn qnc");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("registry"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `qnc eval --check -o` checks the gates before it writes: a sweep
/// that misses the golden point exits 2 and leaves no report behind.
#[test]
fn failing_eval_check_writes_no_report() {
    let dir = work_dir("eval_check_fails");
    let report = dir.join("f.json");
    let _ = std::fs::remove_file(&report);
    let out = qnc()
        .arg("eval")
        .arg("--datasets")
        .arg("paper")
        .arg("--grid")
        .arg("smoke")
        .arg("--baselines")
        .arg("none")
        .arg("--check")
        .arg("-o")
        .arg(&report)
        .output()
        .expect("spawn qnc");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("golden point"), "{stderr}");
    assert!(
        !report.exists(),
        "a failing --check wrote {}",
        report.display()
    );
}

#[test]
fn remote_against_a_dead_server_fails_cleanly() {
    let dir = work_dir("remote_dead");
    let input = dir.join("img.pgm");
    write_dataset_image(&input, 16, 16, 9);
    let out = qnc()
        .arg("remote")
        .arg("compress")
        .arg(&input)
        .arg("-o")
        .arg(dir.join("never.qnc"))
        .arg("--addr")
        .arg("127.0.0.1:1") // nothing listens on port 1
        .output()
        .expect("spawn qnc");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("connecting"), "{stderr}");
}

#[test]
fn usage_errors_exit_nonzero_with_help() {
    let out = qnc().output().expect("spawn qnc");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));

    let out = qnc().arg("explode").output().expect("spawn qnc");
    assert!(!out.status.success());

    // `remote` without a subcommand names all six.
    let out = qnc().arg("remote").output().expect("spawn qnc");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "remote needs a subcommand: compress, decompress, info, models, stats or trace"
        ),
        "{stderr}"
    );

    let out = qnc()
        .arg("compress")
        .arg("/nonexistent/input.pgm")
        .arg("-o")
        .arg("/tmp/never.qnc")
        .output()
        .expect("spawn qnc");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));

    // A tile size outside 1..=16 is rejected up front, by name, on both
    // offline commands that tile an image and in an eval grid, before
    // any model is sized by it.
    let dir = work_dir("usage_errors");
    let input = dir.join("img.pgm");
    write_dataset_image(&input, 16, 16, 3);
    for (command, output, tile, extra) in [
        ("compress", "never.qnc", "0", &[][..]),
        ("train", "never.qnm", "0", &["--iters", "2"][..]),
        ("compress", "never.qnc", "17", &[][..]),
    ] {
        let out = qnc()
            .arg(command)
            .arg(&input)
            .arg("-o")
            .arg(dir.join(output))
            .args(["--tile", tile])
            .args(extra)
            .output()
            .expect("spawn qnc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{command} --tile {tile}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(stderr.contains("--tile"), "{command}: {stderr}");
    }
    // In a grid, 17 would fit a 289-mode model and 2³² overflows tile².
    for tile in ["17", "4294967296"] {
        let out = qnc()
            .args(["eval", "--datasets", "blobs", "--baselines", "none"])
            .arg("--grid")
            .arg(format!("tile={tile};d=8;bits=8"))
            .output()
            .expect("spawn qnc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "eval tile={tile}: {stderr}");
        assert!(!stderr.contains("panicked"), "eval tile={tile}: {stderr}");
        assert!(stderr.contains("1..=16"), "eval tile={tile}: {stderr}");
    }

    // Tile 1 is in range, but a spectral fit needs two modes: compress,
    // train and an eval grid at tile 1 fail typed, never panic.
    for (command, args) in [
        (
            "compress",
            &["-o", "never.qnc", "--tile", "1", "--latent", "1"][..],
        ),
        (
            "train",
            &["-o", "never.qnm", "--tile", "1", "--latent", "1"][..],
        ),
        (
            "eval",
            &["--datasets", "blobs", "--grid", "tile=1;d=1;bits=8"][..],
        ),
    ] {
        let mut cmd = qnc();
        cmd.current_dir(&dir).arg(command);
        if command != "eval" {
            cmd.arg(&input);
        }
        let out = cmd.args(args).output().expect("spawn qnc");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{command} at tile 1: {stderr}");
        assert!(!stderr.contains("panicked"), "{command}: {stderr}");
        assert!(
            stderr.contains("tile size must be at least 2"),
            "{command}: {stderr}"
        );
    }
}
