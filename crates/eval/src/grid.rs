//! Operating-point grids: which (tile size, latent dimension, quantizer
//! bits) corners the sweep visits.
//!
//! Grid specs parse from a compact `key=values` syntax so CI and the
//! CLI share one vocabulary:
//!
//! ```text
//! tile=4;d=2,4,8;bits=4,8        # explicit grid (cartesian product)
//! tile=4;d=8;entropy=rice,range  # add the entropy-coder axis
//! smoke                          # the CI smoke grid
//! default                       # the full checked-in grid
//! ```
//!
//! The entropy axis is orthogonal to the geometry: the same operating
//! point is swept once per coder (entropy coding is lossless re the
//! quantized levels, so PSNR/SSIM repeat and only the rate moves — the
//! axis exists to measure exactly that rate delta). Both named grids
//! sweep all three coders.

use qn_codec::{EntropyCoder, MAX_TILE_SIZE};

/// One corner of the sweep: the codec settings a rate–distortion point
/// is measured at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatingPoint {
    /// Tile edge length (`tile_size²` pixels per state vector).
    pub tile_size: usize,
    /// Latent dimension `d` (and the matched classical rank).
    pub latent_dim: usize,
    /// Quantizer bit depth.
    pub bits: u8,
}

impl OperatingPoint {
    /// Compact stable label, e.g. `tile4-d8-b8`.
    pub fn label(&self) -> String {
        format!("tile{}-d{}-b{}", self.tile_size, self.latent_dim, self.bits)
    }
}

/// A full sweep grid: the cartesian product corners and the entropy
/// coders each corner is swept with. The sweep runs the default
/// (`simd`) backend; backends are bit-compatible, so no grid names one.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Stable name recorded in the report (`smoke`, `default`, `custom`).
    pub name: String,
    /// The operating points, in sweep order.
    pub points: Vec<OperatingPoint>,
    /// Entropy coders each point is swept with, in sweep order.
    pub coders: Vec<EntropyCoder>,
}

impl Grid {
    /// Build the cartesian product of the given axes.
    pub fn cartesian(
        name: &str,
        tiles: &[usize],
        dims: &[usize],
        bits: &[u8],
        coders: &[EntropyCoder],
    ) -> Self {
        let mut points = Vec::new();
        for &tile_size in tiles {
            for &latent_dim in dims {
                for &b in bits {
                    if latent_dim >= 1 && latent_dim <= tile_size * tile_size {
                        points.push(OperatingPoint {
                            tile_size,
                            latent_dim,
                            bits: b,
                        });
                    }
                }
            }
        }
        Grid {
            name: name.into(),
            points,
            coders: coders.to_vec(),
        }
    }

    /// The CI smoke grid: three latent dimensions at 8 bits, tile 4,
    /// all three entropy coders — small enough for every CI run, and
    /// it contains [`crate::GOLDEN`].
    pub fn smoke() -> Self {
        Grid::cartesian("smoke", &[4], &[2, 4, 8], &[8], &EntropyCoder::ALL)
    }

    /// The full checked-in grid behind `BENCH_quality.json`: latent
    /// dimensions 2/4/8 at 4 and 8 bits, tile 4, all three entropy
    /// coders.
    pub fn default_grid() -> Self {
        Grid::cartesian("default", &[4], &[2, 4, 8], &[4, 8], &EntropyCoder::ALL)
    }

    /// Parse a grid spec: `smoke`, `default`, or
    /// `tile=..;d=..;bits=..;entropy=..` with comma-separated values
    /// per axis (entropy values: `rice`, `rice-pos`, `range`).
    ///
    /// # Errors
    /// Describes the offending clause; rejects a tile outside
    /// `1..=`[`MAX_TILE_SIZE`], the range every command takes, before
    /// any corner is sized by it, and empty grids (e.g. every `d`
    /// exceeding `tile²`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec {
            "smoke" => return Ok(Grid::smoke()),
            "default" => return Ok(Grid::default_grid()),
            _ => {}
        }
        let mut tiles: Vec<usize> = vec![4];
        let mut dims: Vec<usize> = vec![8];
        let mut bits: Vec<u8> = vec![8];
        let mut coders: Vec<EntropyCoder> = vec![EntropyCoder::Rice];
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (key, values) = clause
                .split_once('=')
                .ok_or_else(|| format!("grid clause {clause:?} is not key=values"))?;
            let parse_list = |what: &str| -> Result<Vec<u64>, String> {
                values
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<u64>()
                            .map_err(|_| format!("bad {what} value {v:?} in grid spec"))
                    })
                    .collect()
            };
            match key.trim() {
                "tile" => {
                    let max = u64::from(MAX_TILE_SIZE);
                    tiles = parse_list("tile")?
                        .into_iter()
                        .map(|v| {
                            if (1..=max).contains(&v) {
                                Ok(v as usize)
                            } else {
                                Err(format!("grid tile must be in 1..={max}, got {v}"))
                            }
                        })
                        .collect::<Result<_, _>>()?;
                }
                "d" => dims = parse_list("d")?.iter().map(|&v| v as usize).collect(),
                "bits" => {
                    bits = parse_list("bits")?
                        .iter()
                        .map(|&v| {
                            u8::try_from(v).map_err(|_| format!("bits value {v} exceeds 255"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "entropy" => {
                    coders = values
                        .split(',')
                        .map(|v| v.trim().parse::<EntropyCoder>())
                        .collect::<Result<_, _>>()?;
                    if coders.is_empty() {
                        return Err("entropy axis must name at least one coder".into());
                    }
                }
                other => {
                    return Err(format!(
                        "unknown grid axis {other:?} (expected tile, d, bits or entropy)"
                    ))
                }
            }
        }
        let grid = Grid::cartesian("custom", &tiles, &dims, &bits, &coders);
        if grid.points.is_empty() {
            return Err(format!(
                "grid spec {spec:?} yields no valid operating points (is every d > tile²?)"
            ));
        }
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_grids_contain_the_golden_point() {
        for grid in [Grid::smoke(), Grid::default_grid()] {
            assert!(
                grid.points.contains(&crate::GOLDEN.point),
                "{} grid must include the golden operating point",
                grid.name
            );
            assert_eq!(
                grid.coders,
                EntropyCoder::ALL.to_vec(),
                "{} grid must sweep every entropy coder",
                grid.name
            );
        }
        assert_eq!(Grid::smoke().points.len(), 3);
        assert_eq!(Grid::default_grid().points.len(), 6);
    }

    #[test]
    fn specs_parse_as_cartesian_products() {
        let g = Grid::parse("tile=4;d=2,8;bits=4,8").unwrap();
        assert_eq!(g.points.len(), 4);
        assert_eq!(
            g.points[0],
            OperatingPoint {
                tile_size: 4,
                latent_dim: 2,
                bits: 4
            }
        );
        assert_eq!(g.coders, vec![EntropyCoder::Rice], "default entropy axis");
        // Named specs resolve too.
        assert_eq!(Grid::parse("smoke").unwrap().points.len(), 3);
        // Omitted axes take defaults.
        let d_only = Grid::parse("d=4").unwrap();
        assert_eq!(d_only.points.len(), 1);
        assert_eq!(d_only.points[0].tile_size, 4);
        assert_eq!(d_only.points[0].bits, 8);
    }

    #[test]
    fn entropy_axis_parses_and_rejects_unknown_coders() {
        let g = Grid::parse("d=8;entropy=rice,rice-pos,range").unwrap();
        assert_eq!(g.coders, EntropyCoder::ALL.to_vec());
        let one = Grid::parse("entropy=range").unwrap();
        assert_eq!(one.coders, vec![EntropyCoder::Range]);
        assert!(Grid::parse("entropy=huffman").is_err());
    }

    #[test]
    fn invalid_latent_dims_are_dropped_not_swept() {
        // d = 32 exceeds tile² = 16: dropped from the product.
        let g = Grid::parse("tile=4;d=8,32;bits=8").unwrap();
        assert_eq!(g.points.len(), 1);
        // A grid of only invalid corners is an error, not an empty sweep.
        assert!(Grid::parse("tile=2;d=5;bits=8").is_err());
        assert!(Grid::parse("potato").is_err());
        assert!(Grid::parse("speed=11").is_err());
    }

    #[test]
    fn tiles_outside_the_command_range_are_refused() {
        assert_eq!(Grid::parse("tile=1,16").unwrap().points.len(), 1);
        for bad in ["0", "17", "65536", "4294967296", "18446744073709551615"] {
            let err = Grid::parse(&format!("tile={bad};d=8")).unwrap_err();
            assert_eq!(err, format!("grid tile must be in 1..=16, got {bad}"));
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(crate::GOLDEN.point.label(), "tile4-d8-b8");
    }
}
