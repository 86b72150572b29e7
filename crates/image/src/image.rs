//! Grayscale image container.

use std::fmt;

/// A grayscale image with pixel intensities in `[0, 1]`, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayImage {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

/// Error for invalid image construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageError(pub String);

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image error: {}", self.0)
    }
}

impl std::error::Error for ImageError {}

impl GrayImage {
    /// All-black image.
    pub fn zeros(width: usize, height: usize) -> Self {
        GrayImage {
            width,
            height,
            pixels: vec![0.0; width * height],
        }
    }

    /// Build from row-major pixels.
    ///
    /// # Errors
    /// Returns [`ImageError`] when the pixel count does not match the
    /// dimensions, or when `width × height` overflows.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<f64>) -> Result<Self, ImageError> {
        let count = width
            .checked_mul(height)
            .ok_or_else(|| ImageError(format!("{width}x{height} image is too large")))?;
        if pixels.len() != count {
            return Err(ImageError(format!(
                "{}x{} image needs {} pixels, got {}",
                width,
                height,
                count,
                pixels.len()
            )));
        }
        Ok(GrayImage {
            width,
            height,
            pixels,
        })
    }

    /// Parse a binary glyph from rows of `#` (on) and `.` (off).
    ///
    /// # Errors
    /// Returns [`ImageError`] for ragged rows or other characters.
    pub fn from_glyph(rows: &[&str]) -> Result<Self, ImageError> {
        let height = rows.len();
        let width = rows.first().map_or(0, |r| r.chars().count());
        let mut pixels = Vec::with_capacity(width * height);
        for row in rows {
            if row.chars().count() != width {
                return Err(ImageError("ragged glyph rows".to_string()));
            }
            for c in row.chars() {
                match c {
                    '#' => pixels.push(1.0),
                    '.' => pixels.push(0.0),
                    other => {
                        return Err(ImageError(format!(
                            "glyph character '{other}' is not '#' or '.'"
                        )))
                    }
                }
            }
        }
        Ok(GrayImage {
            width,
            height,
            pixels,
        })
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    #[inline]
    pub fn len(&self) -> usize {
        self.pixels.len()
    }

    /// True for a 0×0 image.
    pub fn is_empty(&self) -> bool {
        self.pixels.is_empty()
    }

    /// Borrow pixels row-major.
    #[inline]
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }

    /// Mutably borrow pixels.
    #[inline]
    pub fn pixels_mut(&mut self) -> &mut [f64] {
        &mut self.pixels
    }

    /// Pixel accessor.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> f64 {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x]
    }

    /// Pixel mutator.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f64) {
        debug_assert!(x < self.width && y < self.height);
        self.pixels[y * self.width + x] = v;
    }

    /// Flatten to the row-major data vector the encoder consumes.
    pub fn to_vector(&self) -> Vec<f64> {
        self.pixels.clone()
    }

    /// Rebuild from a flat vector with the given dimensions.
    ///
    /// # Errors
    /// Returns [`ImageError`] on length mismatch.
    pub fn from_vector(width: usize, height: usize, v: &[f64]) -> Result<Self, ImageError> {
        Self::from_pixels(width, height, v.to_vec())
    }

    /// True when all pixels are within `tol` of 0 or 1.
    pub fn is_binary(&self, tol: f64) -> bool {
        self.pixels
            .iter()
            .all(|&p| p.abs() <= tol || (p - 1.0).abs() <= tol)
    }

    /// Binarise with a cut at `threshold` (paper §IV-B: output amplitude
    /// below 0.5 → 0, otherwise 1).
    pub fn thresholded(&self, threshold: f64) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            pixels: self
                .pixels
                .iter()
                .map(|&p| if p < threshold { 0.0 } else { 1.0 })
                .collect(),
        }
    }

    /// The paper's threshold *adjustment* (not full binarisation): values
    /// ≤ 0.01 snap to 0 and ≥ 0.99 snap to 1; everything else is kept.
    pub fn snapped(&self) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            pixels: self
                .pixels
                .iter()
                .map(|&p| {
                    if p <= 0.01 {
                        0.0
                    } else if p >= 0.99 {
                        1.0
                    } else {
                        p
                    }
                })
                .collect(),
        }
    }

    /// Clamp all pixels into `[0, 1]`.
    pub fn clamped(&self) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            pixels: self.pixels.iter().map(|&p| p.clamp(0.0, 1.0)).collect(),
        }
    }

    /// Fraction of pixels that are "on" (> 0.5).
    pub fn density(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        self.pixels.iter().filter(|&&p| p > 0.5).count() as f64 / self.pixels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut img = GrayImage::zeros(3, 2);
        assert_eq!((img.width(), img.height(), img.len()), (3, 2, 6));
        img.set(2, 1, 0.7);
        assert_eq!(img.get(2, 1), 0.7);
        assert_eq!(img.pixels()[5], 0.7);
    }

    #[test]
    fn from_pixels_validates_length() {
        assert!(GrayImage::from_pixels(2, 2, vec![0.0; 3]).is_err());
        assert!(GrayImage::from_pixels(2, 2, vec![0.0; 4]).is_ok());
        // 2^(bits−1) × 2 wraps to 0: an empty buffer must not pass for it.
        let err = GrayImage::from_pixels(usize::MAX / 2 + 1, 2, Vec::new()).unwrap_err();
        assert!(err.0.contains("too large"), "{err}");
    }

    #[test]
    fn glyph_parsing() {
        let img = GrayImage::from_glyph(&["#.", ".#"]).unwrap();
        assert_eq!(img.get(0, 0), 1.0);
        assert_eq!(img.get(1, 0), 0.0);
        assert_eq!(img.get(1, 1), 1.0);
        assert!(GrayImage::from_glyph(&["#.", "#"]).is_err());
        assert!(GrayImage::from_glyph(&["#x"]).is_err());
    }

    #[test]
    fn vector_roundtrip() {
        let img = GrayImage::from_glyph(&["##..", "..##"]).unwrap();
        let v = img.to_vector();
        assert_eq!(v.len(), 8);
        let back = GrayImage::from_vector(4, 2, &v).unwrap();
        assert_eq!(back, img);
        assert!(GrayImage::from_vector(3, 2, &v).is_err());
    }

    #[test]
    fn binary_detection_and_threshold() {
        let img = GrayImage::from_pixels(2, 1, vec![0.2, 0.8]).unwrap();
        assert!(!img.is_binary(1e-6));
        let t = img.thresholded(0.5);
        assert_eq!(t.pixels(), &[0.0, 1.0]);
        assert!(t.is_binary(0.0));
    }

    #[test]
    fn snapping_follows_paper_rule() {
        let img = GrayImage::from_pixels(4, 1, vec![0.005, 0.995, 0.5, 0.02]).unwrap();
        let s = img.snapped();
        assert_eq!(s.pixels(), &[0.0, 1.0, 0.5, 0.02]);
    }

    #[test]
    fn clamp_and_density() {
        let img = GrayImage::from_pixels(3, 1, vec![-0.5, 0.7, 1.5]).unwrap();
        let c = img.clamped();
        assert_eq!(c.pixels(), &[0.0, 0.7, 1.0]);
        assert!((c.density() - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(GrayImage::zeros(0, 0).density(), 0.0);
    }
}
