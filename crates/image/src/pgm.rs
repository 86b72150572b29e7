//! Plain (ASCII) PGM/PBM image IO.
//!
//! The repro binaries dump inputs, compressed representations and
//! reconstructions as portable graymaps so results are inspectable with
//! any image viewer, without pulling an image codec dependency.

use crate::image::{GrayImage, ImageError};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Serialise as plain PGM (P2) with 255 gray levels.
pub fn to_pgm_string(img: &GrayImage) -> String {
    let mut s = String::with_capacity(32 + img.len() * 4);
    s.push_str("P2\n");
    s.push_str(&format!("{} {}\n255\n", img.width(), img.height()));
    for y in 0..img.height() {
        let row: Vec<String> = (0..img.width())
            .map(|x| {
                let v = (img.get(x, y).clamp(0.0, 1.0) * 255.0).round() as u32;
                v.to_string()
            })
            .collect();
        s.push_str(&row.join(" "));
        s.push('\n');
    }
    s
}

/// Write a plain PGM file.
///
/// # Errors
/// Propagates IO failures.
pub fn write_pgm(img: &GrayImage, path: &Path) -> std::io::Result<()> {
    let mut f = fs::File::create(path)?;
    f.write_all(to_pgm_string(img).as_bytes())
}

/// Parse a plain PGM (P2) file's bytes. Tokens are ASCII, so the input
/// is never decoded as a whole: a binary file is named by its magic.
///
/// # Errors
/// Returns [`ImageError`] for malformed content: a magic other than
/// `P2`, a missing or non-numeric token, a zero maxval, a pixel count
/// that overflows, or a sample above maxval.
pub fn from_pgm_bytes(bytes: &[u8]) -> Result<GrayImage, ImageError> {
    let mut tokens = bytes
        .split(|&b| b == b'\n')
        .filter(|l| !l.trim_ascii_start().starts_with(b"#"))
        .flat_map(|l| l.split(u8::is_ascii_whitespace))
        .filter(|t| !t.is_empty());
    let magic = tokens
        .next()
        .ok_or_else(|| ImageError("empty PGM".into()))?;
    if magic != b"P2" {
        return Err(ImageError(format!(
            "unsupported PGM magic '{}'",
            String::from_utf8_lossy(magic)
        )));
    }
    let mut next_num = |what: &str| -> Result<usize, ImageError> {
        let token = tokens
            .next()
            .ok_or_else(|| ImageError(format!("missing {what}")))?;
        std::str::from_utf8(token)
            .map_err(|e| ImageError(format!("bad {what}: {e}")))?
            .parse::<usize>()
            .map_err(|e| ImageError(format!("bad {what}: {e}")))
    };
    let width = next_num("width")?;
    let height = next_num("height")?;
    let maxval = next_num("maxval")?;
    if maxval == 0 {
        return Err(ImageError("maxval must be positive".into()));
    }
    let count = width
        .checked_mul(height)
        .ok_or_else(|| ImageError(format!("{width}x{height} image is too large")))?;
    // Every sample takes at least one byte, so the input's length bounds
    // what a truthful header can claim.
    let mut pixels = Vec::with_capacity(count.min(bytes.len()));
    for _ in 0..count {
        let v = next_num("pixel")?;
        if v > maxval {
            return Err(ImageError(format!("pixel {v} exceeds maxval {maxval}")));
        }
        pixels.push(v as f64 / maxval as f64);
    }
    GrayImage::from_pixels(width, height, pixels)
}

/// Read a plain PGM file.
///
/// # Errors
/// Returns [`ImageError`] for IO failures or malformed content.
pub fn read_pgm(path: &Path) -> Result<GrayImage, ImageError> {
    let bytes = fs::read(path).map_err(|e| ImageError(format!("read {path:?}: {e}")))?;
    from_pgm_bytes(&bytes)
}

/// Read every `.pgm` file in a directory, sorted by file name so the
/// resulting dataset order is stable across platforms and reruns.
/// Returns `(file stem, image)` pairs; non-`.pgm` entries are ignored.
///
/// # Errors
/// Returns [`ImageError`] when the directory cannot be read, when it
/// holds no `.pgm` files, or when any PGM file is malformed.
pub fn read_pgm_dir(dir: &Path) -> Result<Vec<(String, GrayImage)>, ImageError> {
    let entries =
        fs::read_dir(dir).map_err(|e| ImageError(format!("read directory {dir:?}: {e}")))?;
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "pgm"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(ImageError(format!("no .pgm files in {dir:?}")));
    }
    paths
        .into_iter()
        .map(|p| {
            let name = p
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            read_pgm(&p).map(|img| (name, img))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip_preserves_quantised_pixels() {
        let img = GrayImage::from_pixels(3, 2, vec![0.0, 0.5, 1.0, 0.25, 0.75, 1.0]).unwrap();
        let s = to_pgm_string(&img);
        let back = from_pgm_bytes(s.as_bytes()).unwrap();
        assert_eq!((back.width(), back.height()), (3, 2));
        for (a, b) in back.pixels().iter().zip(img.pixels()) {
            assert!((a - b).abs() <= 0.5 / 255.0 + 1e-12);
        }
    }

    #[test]
    fn pgm_header_format() {
        let img = GrayImage::zeros(4, 4);
        let s = to_pgm_string(&img);
        assert!(s.starts_with("P2\n4 4\n255\n"));
    }

    #[test]
    fn pgm_dir_reads_sorted_and_rejects_empty() {
        let dir = std::env::temp_dir()
            .join("qn_pgm_dir_tests")
            .join(std::process::id().to_string());
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(read_pgm_dir(&dir).is_err(), "empty directory must error");
        let a = GrayImage::from_pixels(2, 1, vec![0.0, 1.0]).unwrap();
        let b = GrayImage::from_pixels(1, 2, vec![1.0, 0.0]).unwrap();
        // Written in reverse name order: the read must still sort.
        write_pgm(&b, &dir.join("b.pgm")).unwrap();
        write_pgm(&a, &dir.join("a.pgm")).unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let loaded = read_pgm_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, "a");
        assert_eq!(loaded[1].0, "b");
        assert_eq!((loaded[0].1.width(), loaded[0].1.height()), (2, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pgm_parser_rejects_garbage() {
        let cases: [(&[u8], &str); 8] = [
            (b"", "empty PGM"),
            (b"P5\n1 1\n255\n0", "unsupported PGM magic 'P5'"),
            // A binary P5 file is not UTF-8; it is still named by its magic.
            (b"P5\n2 1\n255\n\xff\x80", "unsupported PGM magic 'P5'"),
            (b"P2\n2 2\n255\n0 0 0", "missing pixel"),
            (b"P2\n1 1\n0\n0", "maxval must be positive"),
            // A header claiming 10^10 pixels must not reserve 80 GB.
            (b"P2\n100000 100000\n255\n0 0 0\n", "missing pixel"),
            // 2^32 × 2^32 wraps to 0 pixels in release builds.
            (b"P2\n4294967296 4294967296\n255\n", "too large"),
            (b"P2\n1 1\n255\n300", "pixel 300 exceeds maxval 255"),
        ];
        for (input, expected) in cases {
            let err = from_pgm_bytes(input).unwrap_err();
            assert!(
                err.0.contains(expected),
                "{:?}: got '{err}', want '{expected}'",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn pgm_parser_skips_comments() {
        let s = "P2\n# a comment\n1 1\n255\n128\n";
        let img = from_pgm_bytes(s.as_bytes()).unwrap();
        assert!((img.get(0, 0) - 128.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("qn_pgm_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.pgm");
        let img = GrayImage::from_pixels(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        write_pgm(&img, &path).unwrap();
        let back = read_pgm(&path).unwrap();
        assert_eq!(back.thresholded(0.5), img);
        fs::remove_file(&path).ok();
    }
}
