//! The full-image codec pipeline: tiling → amplitude encoding → the
//! trained compression mesh → quantized, entropy-coded latents in a
//! [`Container`] — and the exact reverse through the reconstruction
//! mesh.
//!
//! This is the layer that turns the paper's in-memory training loop
//! into a shippable codec: a [`Codec`] owns a trained
//! [`QuantumAutoencoder`] (loaded from a `.qnm` file, trained in
//! process, or PCA-spectrally initialised from the image itself) and
//! converts `GrayImage`s to `.qnc` bytes and back. The mesh passes that
//! dominate runtime run as whole-image batches through the
//! [`BackendKind`] in [`CodecOptions::backend`]: by default the mesh's
//! own panel pass,
//! [`Mesh::forward_panels`](qn_photonic::Mesh::forward_panels), or the
//! `scalar` per-lane reference. The two may differ only in the sign of
//! IEEE zeros, which the magnitude quantizer and the pixel decode erase,
//! so the bytes a container holds — and the pixels it decodes to —
//! never depend on the choice.
//!
//! # Tiles travel as panels
//!
//! Every occupied tile lives in one lane of a mode-major
//! [`qn_linalg::Panel`] of [`DEFAULT_PANEL_WIDTH`] lanes (only the last
//! panel is narrower), from pixels to bitstream and back:
//!
//! - **encode**: [`Codec::prepare_encode`] finds the occupied tiles and
//!   gathers and normalises each one straight into its lane (Eq. 1);
//!   the mesh pass rotates the panels in place; [`Codec::complete_encode`]
//!   quantizes the kept rows into the container's flat
//!   [`TileGrid`] arrays, which [`Container::to_bytes`] zigzags and
//!   Rice-codes one fixed chunk of grid tiles per pool task;
//! - **decode**: [`Container::from_bytes`] fills the flat arrays;
//!   [`Codec::prepare_decode`] dequantizes them into the kept rows of
//!   fresh panels; the mesh pass rotates them in place;
//!   [`Codec::complete_decode`] applies Eq. 2 while stitching the lanes
//!   into the image.
//!
//! No stage allocates per tile. Each per-tile stage runs on the thread
//! pool through `qn_linalg::parallel::par_map_chunked_into`, one panel
//! per chunk (stitching: one band of tile rows per panel; the encode's
//! occupancy scan: bands of whole tile rows of at least a panel's worth
//! of tiles; the Rice writers: sixteen panels' worth of grid tiles), so
//! chunk boundaries depend only on the image and never on the thread
//! count, and an image of at most one panel's tiles never forks. What
//! still runs serially: the decode's count of occupied tiles per row,
//! the splice of the coded chunks into the file, the CRC (a
//! carry-less-multiply fold at memory speed where the CPU has
//! `pclmulqdq`, see [`crate::bitstream::crc32_of_parts`]), the payload
//! parse on decode, and the `range` coder.
//!
//! Each direction has one schedule, prepare → mesh pass → complete:
//! [`Codec::encode_image_with_stats`] and [`Codec::decode_container`],
//! which run each [`stage`] through the caller's [`Stages`]: the server
//! and `qnc` pass a recorder that times every stage where it runs,
//! whether it succeeds or fails, and every other caller passes `()`, so
//! the codec itself reads no clock. An encode that fits its own model,
//! [`Codec::spectral_encode`], runs the same schedule with the fit
//! between prepare and the mesh pass: the fit reads the prepared
//! panels, so each tile is gathered once. Every other entry point wraps
//! these, and so does the server, which runs each request's mesh pass
//! inline. The `prepare_*`/`complete_*` halves stay public so each
//! layer can be timed on its own.

use crate::container::{
    dequantize_norm, quantize_norm, Container, ContainerHeader, TileGrid, FLAG_INLINE_MODEL,
    FLAG_PER_TILE_SCALE,
};
use crate::entropy::EntropyCoder;
use crate::error::{CodecError, Result};
use crate::model;
use crate::quantize::{tile_scale, Quantizer};
use qn_backend::BackendKind;
use qn_core::config::CompressionTargetKind;
use qn_core::reconstruction::ReconstructionNetwork;
use qn_core::spectral::SecondMoment;
use qn_core::{compression::CompressionNetwork, QuantumAutoencoder};
use qn_image::GrayImage;
use qn_linalg::panel::DEFAULT_PANEL_WIDTH;
use qn_linalg::parallel::par_map_chunked_into;
use qn_linalg::Panel;
use stage::Stages;
use std::ops::Range;
use std::path::Path;

/// The codec's stages, named once, and the [`Stages`] they run
/// through: the encode runs `prepare`, `mesh_pass`, `quantize`,
/// `entropy` ([`Codec::encode_image_with_stats`]), with `spectral`
/// after `prepare` when it fits its own model
/// ([`Codec::spectral_encode`]); the decode runs `prepare`,
/// `mesh_pass`, `stitch` ([`Codec::decode_container`]).
pub mod stage {
    /// Tile gather and amplitude encoding (Eq. 1), or dequantization
    /// into the kept rows of fresh panels.
    pub const PREPARE: &str = "prepare";
    /// The spectral model fit, from the panels `prepare` gathered.
    pub const SPECTRAL: &str = "spectral";
    /// The compression or reconstruction mesh pass.
    pub const MESH_PASS: &str = "mesh_pass";
    /// Latent scaling and level quantization into the tile arrays.
    pub const QUANTIZE: &str = "quantize";
    /// Zigzag mapping, entropy coding and container serialisation.
    pub const ENTROPY: &str = "entropy";
    /// Norm scaling (Eq. 2) and stitching into the image.
    pub const STITCH: &str = "stitch";

    /// What a schedule runs its stages through, one call per stage in
    /// schedule order. A runner never touches a stage's work, so bytes
    /// and pixels cannot depend on it: `()` runs each stage and nothing
    /// more, and a caller's recorder (the server's and `qnc`'s) also
    /// times it, whether it returns `Ok` or `Err`.
    pub trait Stages {
        /// Run `work` as stage `name` and return what it returns,
        /// `Ok` or `Err`.
        fn run<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T;
    }

    impl Stages for () {
        fn run<T>(&mut self, _name: &'static str, work: impl FnOnce() -> T) -> T {
            work()
        }
    }
}

/// Knobs for [`Codec::encode_image`].
#[derive(Debug, Clone)]
pub struct CodecOptions {
    /// Tile edge length; `tile_size²` pixels feed one state vector.
    pub tile_size: usize,
    /// Quantizer bit depth for latent amplitudes.
    pub bits: u8,
    /// Spend 32 bits/tile on a per-tile amplitude scale for extra
    /// precision on low-energy tiles.
    pub per_tile_scale: bool,
    /// Embed the model file in the container so it decodes standalone.
    pub inline_model: bool,
    /// Which mesh pass to run (default `simd`, the mesh's own panel
    /// pass; tests and benchmarks select `scalar`, the reference oracle
    /// — no `qnc` command or server exposes the choice). This knob
    /// changes throughput only, never bytes or pixels.
    pub backend: BackendKind,
    /// Entropy coder for the latent payload. `Rice` writes format v1
    /// (bit-exact with pre-v2 builds); `RicePos`/`Range` write format
    /// v2. Lossless re the quantized levels: every coder decodes to
    /// identical pixels, only the rate moves.
    pub entropy: EntropyCoder,
}

impl Default for CodecOptions {
    fn default() -> Self {
        CodecOptions {
            tile_size: 4,
            bits: 8,
            per_tile_scale: false,
            inline_model: true,
            backend: BackendKind::default(),
            entropy: EntropyCoder::Rice,
        }
    }
}

/// Encode-side size accounting, for logs, benchmarks and the
/// rate–distortion evaluation harness. Stage times are the caller's to
/// take, through the [`Stages`] it hands the schedule.
#[derive(Debug, Clone)]
pub struct EncodeStats {
    /// Total tiles in the grid.
    pub tiles: usize,
    /// Tiles skipped as all-zero (1 bit each in the stream).
    pub empty_tiles: usize,
    /// Raw payload: one byte per pixel.
    pub raw_bytes: usize,
    /// Bytes of the finished container (model included if inline).
    pub container_bytes: usize,
    /// Container bits per pixel.
    pub bits_per_pixel: f64,
}

impl EncodeStats {
    /// Compression ratio (raw ÷ compressed; > 1 means smaller).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.container_bytes as f64
    }
}

/// A trained model bound to its stable identity — the object that
/// encodes and decodes images.
#[derive(Debug, Clone)]
pub struct Codec {
    model: QuantumAutoencoder,
    model_id: u64,
}

impl Codec {
    /// Wrap a trained autoencoder.
    pub fn new(model: QuantumAutoencoder) -> Self {
        let model_id = model::model_id(&model);
        Codec { model, model_id }
    }

    /// Load the model from a `.qnm` file.
    ///
    /// # Errors
    /// IO and format errors from [`model::load_model`].
    pub fn from_model_file(path: &Path) -> Result<Self> {
        Ok(Codec::new(model::load_model(path)?))
    }

    /// Borrow the model.
    pub fn model(&self) -> &QuantumAutoencoder {
        &self.model
    }

    /// The model's stable identity (recorded in every container).
    pub fn model_id(&self) -> u64 {
        self.model_id
    }

    /// Build a codec whose compression mesh is the PCA-optimal rotation
    /// for this image's own tiles (spectral initialisation through the
    /// Clements decomposition) and whose reconstruction mesh is its
    /// exact inverse. Deterministic, training-free, and optimal in L2
    /// among orthogonal compressions of this tile distribution. To fit
    /// and encode one image, [`Codec::spectral_encode`] does both from
    /// one gather.
    ///
    /// # Errors
    /// See [`Codec::spectral_for_images`]; an all-zero image falls back
    /// to the identity mesh (every tile is then empty anyway).
    pub fn spectral_for_image(
        img: &GrayImage,
        tile_size: usize,
        latent_dim: usize,
    ) -> Result<Self> {
        Codec::spectral_for_images(std::slice::from_ref(img), tile_size, latent_dim)
    }

    /// Like [`Codec::spectral_for_image`], but fitted on the pooled
    /// tiles of a whole dataset: one shared model whose compression
    /// mesh is the PCA-optimal rotation for the *joint* tile
    /// distribution. This is the model source for dataset-level
    /// rate–distortion evaluation, where the model cost is amortized
    /// across every image it encodes.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for a tile edge below 2 (a mesh needs two
    /// modes, and a `.qnm` refuses `N < 2`), a latent dimension outside
    /// `1..=tile_size²`, or a non-finite pixel; eigensolver and
    /// decomposition failures. Images may differ in size.
    pub fn spectral_for_images(
        images: &[GrayImage],
        tile_size: usize,
        latent_dim: usize,
    ) -> Result<Self> {
        check_spectral(tile_size, latent_dim)?;
        // The fit sees exactly the states the encoder would: each
        // image's occupied tiles from the prepare gather, in tile order.
        let mut moment = SecondMoment::new(tile_size * tile_size);
        for img in images {
            for panel in &gather_tiles(img, tile_size)?.panels {
                moment.add_panel(panel);
            }
        }
        Codec::fit(&moment, latent_dim)
    }

    /// The spectral codec of the tile states summed in `moment`: the
    /// PCA-optimal compression mesh and its exact inverse, or the
    /// identity mesh when the sum holds no state.
    fn fit(moment: &SecondMoment, latent_dim: usize) -> Result<Self> {
        let s = moment.matrix();
        let mesh_c = if moment.samples() == 0 {
            qn_photonic::Mesh::zeros(s.rows(), 1)
        } else {
            qn_core::spectral::spectral_mesh_of_moment(&s, latent_dim, 1)?
        };
        let compression =
            CompressionNetwork::new(mesh_c, latent_dim, CompressionTargetKind::TrashPenalty)?;
        let n_layers = compression.mesh().n_layers();
        let reconstruction =
            ReconstructionNetwork::from_reversed_compression(&compression, n_layers);
        Ok(Codec::new(QuantumAutoencoder::new(
            compression,
            reconstruction,
        )))
    }

    /// Fit a spectral model to `img`'s own tiles and encode `img` with
    /// it, in one schedule whose stages run through `stages`:
    /// `prepare`, `spectral`, `mesh_pass`, `quantize`, `entropy` (see
    /// [`stage`]). The fit streams the panels the prepare stage
    /// gathered, and the mesh pass then rotates those same panels, so
    /// every tile is gathered and normalised once. The
    /// codec is [`Codec::spectral_for_image`]`(img, opts.tile_size,
    /// latent_dim)` and the bytes are what its [`Codec::encode_image`]
    /// writes; the model source of `qnc compress` without a model file
    /// and of every served ENCODE that names no model.
    ///
    /// # Errors
    /// The errors of [`Codec::spectral_for_images`] and
    /// [`Codec::encode_image`], with the tile and latent checks first.
    pub fn spectral_encode(
        img: &GrayImage,
        latent_dim: usize,
        opts: &CodecOptions,
        stages: &mut impl Stages,
    ) -> Result<(Codec, Vec<u8>, EncodeStats)> {
        check_spectral(opts.tile_size, latent_dim)?;
        let dim = opts.tile_size * opts.tile_size;
        let (plan, panels) = stages.run(stage::PREPARE, || prepare(img, opts, dim))?;
        let codec = stages.run(stage::SPECTRAL, || {
            let mut moment = SecondMoment::new(dim);
            for panel in &panels {
                moment.add_panel(panel);
            }
            Codec::fit(&moment, latent_dim)
        })?;
        let (bytes, stats) = codec.encode_prepared(plan, panels, stages)?;
        Ok((codec, bytes, stats))
    }

    /// Compress an image into `.qnc` bytes.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for empty images or tile sizes whose
    /// pixel count is not the model's state dimension.
    pub fn encode_image(&self, img: &GrayImage, opts: &CodecOptions) -> Result<Vec<u8>> {
        Ok(self.encode_image_with_stats(img, opts, &mut ())?.0)
    }

    /// The encode schedule: [`Codec::prepare_encode`], the compression
    /// mesh pass through [`CodecOptions::backend`], then
    /// [`Codec::complete_encode`], each stage run through `stages`.
    /// Returns the bytes with their size accounting.
    ///
    /// # Errors
    /// See [`Codec::encode_image`].
    pub fn encode_image_with_stats(
        &self,
        img: &GrayImage,
        opts: &CodecOptions,
        stages: &mut impl Stages,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        let (plan, panels) = stages.run(stage::PREPARE, || self.prepare_encode(img, opts))?;
        self.encode_prepared(plan, panels, stages)
    }

    /// The encode schedule from the prepared panels on: the compression
    /// mesh pass, then [`Codec::complete_encode`]'s stages.
    fn encode_prepared(
        &self,
        plan: EncodePlan,
        mut panels: Vec<Panel>,
        stages: &mut impl Stages,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        stages.run(stage::MESH_PASS, || {
            plan.opts
                .backend
                .forward_panels(self.model.compression.mesh(), &mut panels);
        });
        self.finish_encode(plan, panels, stages)
    }

    /// Everything *before* the encode's single mesh pass: find the
    /// occupied tiles and amplitude-encode each one into its panel lane,
    /// handing back the panels alongside the bookkeeping needed to
    /// finish. [`Codec::encode_image_with_stats`] then runs the compression
    /// mesh over the panels in place and feeds them to
    /// [`Codec::complete_encode`]; the halves are public so a caller
    /// can time each layer on its own, with either mesh pass (outputs
    /// equal up to zero signs by the `ZeroSignOnly` contract, which the
    /// quantizer erases).
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for empty images, zero tile sizes, tiles
    /// whose pixel count is not the model's state dimension,
    /// unsupported bit depths, or a non-finite pixel.
    pub fn prepare_encode(
        &self,
        img: &GrayImage,
        opts: &CodecOptions,
    ) -> Result<(EncodePlan, Vec<Panel>)> {
        prepare(img, opts, self.model.dim())
    }

    /// Everything *after* the encode's mesh pass: quantize the kept
    /// rows of the raw `U_C` output (projection only zeroes the
    /// discarded ones, so reading the kept rows is bit-identical to
    /// projecting first) straight into the container's tile arrays,
    /// then entropy-code and serialise. `panels` must be the panels of
    /// [`Codec::prepare_encode`], in order, after the mesh pass. These
    /// are the schedule's `quantize` and `entropy` stages, run here
    /// untimed.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when `panels` do not have the plan's
    /// panel layout, plus container serialisation errors.
    pub fn complete_encode(
        &self,
        plan: EncodePlan,
        panels: Vec<Panel>,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        self.finish_encode(plan, panels, &mut ())
    }

    /// [`Codec::complete_encode`], its `quantize` and `entropy` stages
    /// run through `stages`.
    fn finish_encode(
        &self,
        plan: EncodePlan,
        panels: Vec<Panel>,
        stages: &mut impl Stages,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        check_panels(&panels, plan.norms.len(), self.model.dim())?;
        let opts = &plan.opts;
        let quantizer = Quantizer::new(opts.bits)?;
        let latent_dim = self.model.compression.compressed_dim();
        let kept = self.model.compression.kept();
        let max_norm = plan.norms.iter().fold(0.0f64, |m, &n| m.max(n)) as f32;

        let mut flags = 0u16;
        if opts.per_tile_scale {
            flags |= FLAG_PER_TILE_SCALE;
        }
        if opts.inline_model {
            flags |= FLAG_INLINE_MODEL;
        }
        flags |= opts.entropy.container_flags();
        let header = ContainerHeader {
            version: opts.entropy.container_version(),
            flags,
            model_id: self.model_id,
            width: plan.width,
            height: plan.height,
            tile_size: opts.tile_size as u16,
            latent_dim: latent_dim as u16,
            bits: opts.bits,
            max_norm,
        };

        let occupied = plan.norms.len();
        let grid = plan.occupied.len();
        let tiles = stages.run(stage::QUANTIZE, || {
            let mut tiles = TileGrid {
                occupied: plan.occupied,
                norms_q: vec![0; occupied],
                scales: vec![0.0; if opts.per_tile_scale { occupied } else { 0 }],
                levels: vec![0; occupied * latent_dim],
            };
            // One job per panel: its lanes' slices of every tile array.
            let w = DEFAULT_PANEL_WIDTH;
            let mut jobs: Vec<_> = panels
                .iter()
                .zip(plan.norms.chunks(w))
                .zip(tiles.norms_q.chunks_mut(w))
                .zip(tiles.levels.chunks_mut((w * latent_dim).max(1)))
                .zip(
                    tiles
                        .scales
                        .chunks_mut(w)
                        .chain(std::iter::repeat_with(Default::default)),
                )
                .map(
                    |((((panel, norms), norms_q), levels), scales)| QuantizeJob {
                        panel,
                        norms,
                        norms_q,
                        levels,
                        scales,
                    },
                )
                .collect();
            par_map_chunked_into(&mut jobs, 1, |_, jobs| {
                for job in jobs {
                    job.run(&quantizer, kept.clone(), max_norm);
                }
            });
            tiles
        });

        let bytes = stages.run(stage::ENTROPY, || {
            Container {
                header,
                inline_model: opts.inline_model.then(|| model::encode_model(&self.model)),
                tiles,
            }
            .to_bytes()
        })?;
        let stats = EncodeStats {
            tiles: grid,
            empty_tiles: grid - occupied,
            raw_bytes: plan.raw_bytes,
            container_bytes: bytes.len(),
            bits_per_pixel: bytes.len() as f64 * 8.0 / plan.raw_bytes as f64,
        };
        Ok((bytes, stats))
    }

    /// Decompress `.qnc` bytes produced with this codec's model.
    ///
    /// # Errors
    /// All container parse errors, plus [`CodecError::ModelMismatch`]
    /// when the container was encoded with a different model.
    pub fn decode_bytes(&self, bytes: &[u8]) -> Result<GrayImage> {
        self.decode_bytes_with(bytes, BackendKind::default())
    }

    /// Decompress through an explicit mesh pass. The two differ at most
    /// in the sign of IEEE zeros, which decoding erases, so every
    /// [`BackendKind`] yields the identical image.
    ///
    /// # Errors
    /// See [`Codec::decode_bytes`].
    pub fn decode_bytes_with(&self, bytes: &[u8], backend: BackendKind) -> Result<GrayImage> {
        self.decode_container(&Container::from_bytes(bytes)?, backend, &mut ())
    }

    /// The decode schedule for a parsed container: check the model
    /// identity, then [`Codec::prepare_decode`], the reconstruction mesh
    /// pass through `backend`, and [`Codec::complete_decode`], run
    /// through `stages` as `prepare`, `mesh_pass`, `stitch` (see
    /// [`stage`]). The parse is not among them: the caller parsed the
    /// container and owns that stage.
    ///
    /// # Errors
    /// [`CodecError::ModelMismatch`] when the container was encoded
    /// with a different model, plus the errors of
    /// [`Codec::prepare_decode`].
    pub fn decode_container(
        &self,
        container: &Container,
        backend: BackendKind,
        stages: &mut impl Stages,
    ) -> Result<GrayImage> {
        self.check_container(container)?;
        let (plan, mut panels) = stages.run(stage::PREPARE, || self.prepare_decode(container))?;
        stages.run(stage::MESH_PASS, || {
            backend.forward_panels(self.model.reconstruction.mesh(), &mut panels);
        });
        stages.run(stage::STITCH, || self.complete_decode(plan, panels))
    }

    /// Verify that `container` was produced by this codec's model.
    ///
    /// # Errors
    /// [`CodecError::ModelMismatch`] on a model-id disagreement.
    pub fn check_container(&self, container: &Container) -> Result<()> {
        if container.header.model_id != self.model_id {
            return Err(CodecError::ModelMismatch {
                container: container.header.model_id,
                supplied: self.model_id,
            });
        }
        Ok(())
    }

    /// Everything *before* the decode's single mesh pass: validate the
    /// container geometry against the model and dequantize every
    /// occupied tile into the kept rows of its panel lane (the other
    /// rows stay zero: the re-embedded state).
    /// [`Codec::decode_container`] then runs the reconstruction
    /// mesh over the panels and feeds them to
    /// [`Codec::complete_decode`].
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when the container geometry disagrees
    /// with the model (latent dimension, state dimension) or its tile
    /// arrays disagree with its header.
    pub fn prepare_decode(&self, container: &Container) -> Result<(DecodePlan, Vec<Panel>)> {
        let header = &container.header;
        let dim = self.model.dim();
        let tile_px = header.tile_size as usize * header.tile_size as usize;
        if tile_px != dim {
            return Err(CodecError::Invalid(format!(
                "container tile of {0}×{0} = {tile_px} pixels does not match the model's state dimension {dim}",
                header.tile_size
            )));
        }
        let d = self.model.compression.compressed_dim();
        if header.latent_dim as usize != d {
            return Err(CodecError::Invalid(format!(
                "container stores {} latents per tile, model compresses to {}",
                header.latent_dim, d
            )));
        }
        let tiles = &container.tiles;
        tiles.check(header)?;
        let quantizer = Quantizer::new(header.bits)?;
        let trash = self.model.compression.kept().start;
        let occupied = tiles.occupied_count();

        let mut norms = vec![0.0; occupied];
        let panels = build_panels(&mut norms, |p, norms| {
            let o0 = p * DEFAULT_PANEL_WIDTH;
            let lanes = norms.len();
            for (norm, &norm_q) in norms.iter_mut().zip(&tiles.norms_q[o0..]) {
                *norm = dequantize_norm(norm_q, header.max_norm);
            }
            let levels = &tiles.levels[o0 * d..(o0 + lanes) * d];
            let scales = tiles.scales.get(o0..o0 + lanes);
            // The trash rows stay zero; the d kept rows (the last d)
            // hold the lanes' dequantized latents, in order.
            let mut data = Vec::with_capacity(dim * lanes);
            data.resize(trash * lanes, 0.0);
            for j in 0..d {
                data.extend((0..lanes).map(|lane| {
                    let a = quantizer.dequantize(levels[lane * d + j]);
                    match scales {
                        Some(s) => a * f64::from(s[lane]),
                        None => a,
                    }
                }));
            }
            Panel::from_mode_major(dim, lanes, data)
        });
        let plan = DecodePlan {
            occupied: tiles.occupied.clone(),
            norms,
            tile_size: header.tile_size as usize,
            width: header.width as usize,
            height: header.height as usize,
            tiles_x: header.tiles_x(),
        };
        Ok((plan, panels))
    }

    /// Everything *after* the decode's mesh pass: scale each lane by
    /// its tile norm (Eq. 2, `x̂ = √(B²)·‖x‖`, exactly
    /// `encoding::decode`) and stitch it into the image, clipped at the
    /// right and bottom edges. `panels` must be the panels of
    /// [`Codec::prepare_decode`], in order, after the mesh pass.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when `panels` do not have the plan's
    /// panel layout.
    pub fn complete_decode(&self, plan: DecodePlan, panels: Vec<Panel>) -> Result<GrayImage> {
        check_panels(&panels, plan.norms.len(), self.model.dim())?;
        let ts = plan.tile_size;
        let width = plan.width;
        let tiles_x = plan.tiles_x;
        let mut out = GrayImage::zeros(width, plan.height);
        if panels.is_empty() {
            return Ok(out); // every tile is empty: the canvas stays black
        }
        // Occupied tiles before each tile row, so a band of rows knows
        // which lane its first tile sits in.
        let mut row_start = Vec::with_capacity(plan.occupied.len() / tiles_x + 1);
        let mut seen = 0usize;
        for row in plan.occupied.chunks(tiles_x) {
            row_start.push(seen);
            seen += row.iter().filter(|&&o| o).count();
        }
        // One band of whole tile rows per chunk, at most one chunk per
        // panel: a one-panel image stitches on the calling thread.
        let rows_per_band = row_start.len().div_ceil(panels.len());
        let band_px = rows_per_band * ts * width;
        let w = DEFAULT_PANEL_WIDTH;
        par_map_chunked_into(out.pixels_mut(), band_px, |start, band| {
            let ty0 = start / (ts * width);
            let rows = band.len().div_ceil(ts * width);
            let mut o = row_start[ty0];
            for ty in ty0..ty0 + rows {
                let span_h = ts.min(plan.height - ty * ts);
                for tx in 0..tiles_x {
                    if !plan.occupied[ty * tiles_x + tx] {
                        continue; // an empty tile keeps the canvas black
                    }
                    // Occupied tile `o` sits in lane `o % w` of panel `o / w`.
                    let (panel, lane) = (&panels[o / w], o % w);
                    let (amps, lanes) = (panel.as_slice(), panel.width());
                    let norm = plan.norms[o];
                    o += 1;
                    let x0 = tx * ts;
                    let span_w = ts.min(width - x0);
                    for py in 0..span_h {
                        let d = ((ty - ty0) * ts + py) * width + x0;
                        for (px, p) in band[d..d + span_w].iter_mut().enumerate() {
                            let b = amps[(py * ts + px) * lanes + lane];
                            *p = (b * b).sqrt() * norm;
                        }
                    }
                }
            }
        });
        Ok(out)
    }
}

/// One panel's share of the quantize stage: its lanes' norms in, and
/// their slices of every tile array out.
struct QuantizeJob<'a> {
    panel: &'a Panel,
    norms: &'a [f64],
    norms_q: &'a mut [u16],
    levels: &'a mut [u32],
    /// Empty unless per-tile scales are on.
    scales: &'a mut [f32],
}

impl QuantizeJob<'_> {
    /// Quantize every lane's norm and its kept rows, optionally divided
    /// by the lane's peak — the exact arithmetic of quantizing a
    /// gathered latent vector. Swept a kept row at a time across the
    /// contiguous lanes, so the quantizer runs vectorized; each lane's
    /// peak still folds its kept rows in mode order.
    fn run(&mut self, quantizer: &Quantizer, kept: Range<usize>, max_norm: f32) {
        for (norm_q, &norm) in self.norms_q.iter_mut().zip(self.norms) {
            *norm_q = quantize_norm(norm, max_norm);
        }
        let lanes = self.panel.width();
        let d = kept.len();
        let scaled = !self.scales.is_empty();
        let mut scale = [0.0f64; DEFAULT_PANEL_WIDTH];
        let scale = &mut scale[..lanes];
        if scaled {
            for m in kept.clone() {
                for (peak, &a) in scale.iter_mut().zip(self.panel.row(m)) {
                    *peak = peak.max(a.abs());
                }
            }
            for (s, stored) in scale.iter_mut().zip(self.scales.iter_mut()) {
                *stored = tile_scale(*s);
                *s = f64::from(*stored);
            }
        }
        let mut row_levels = [0u32; DEFAULT_PANEL_WIDTH];
        let row_levels = &mut row_levels[..lanes];
        for (j, m) in kept.enumerate() {
            let row = self.panel.row(m);
            if scaled {
                for ((level, &a), &s) in row_levels.iter_mut().zip(row).zip(scale.iter()) {
                    *level = quantizer.quantize(a / s);
                }
            } else {
                for (level, &a) in row_levels.iter_mut().zip(row) {
                    *level = quantizer.quantize(a);
                }
            }
            for (lane, &level) in row_levels.iter().enumerate() {
                self.levels[lane * d + j] = level;
            }
        }
    }
}

/// Build the panels for `norms.len()` tiles on the pool, one
/// [`DEFAULT_PANEL_WIDTH`]-lane panel per chunk (the last may be
/// narrower): `fill(p, norms)` returns panel `p` (or what stands for
/// it) and writes its lanes' norms.
fn build_panels<T: Send>(
    norms: &mut [f64],
    fill: impl Fn(usize, &mut [f64]) -> T + Sync,
) -> Vec<T> {
    let mut jobs: Vec<(&mut [f64], Option<T>)> = norms
        .chunks_mut(DEFAULT_PANEL_WIDTH)
        .map(|norms| (norms, None))
        .collect();
    par_map_chunked_into(&mut jobs, 1, |first, jobs| {
        for (i, (norms, panel)) in jobs.iter_mut().enumerate() {
            *panel = Some(fill(first + i, norms));
        }
    });
    jobs.into_iter()
        .map(|(_, panel)| panel.expect("every chunk builds its panel"))
        .collect()
}

/// Reject panels that do not have the layout [`build_panels`] gives
/// `occupied` tiles of a `dim`-mode model: the lane arithmetic of the
/// complete stages relies on it.
fn check_panels(panels: &[Panel], occupied: usize, dim: usize) -> Result<()> {
    let lanes: usize = panels.iter().map(Panel::width).sum();
    let layout_ok = panels.len() == occupied.div_ceil(DEFAULT_PANEL_WIDTH)
        && panels.iter().enumerate().all(|(p, panel)| {
            panel.dim() == dim
                && panel.width() == DEFAULT_PANEL_WIDTH.min(occupied - p * DEFAULT_PANEL_WIDTH)
        });
    if !layout_ok {
        return Err(CodecError::Invalid(format!(
            "mesh pass returned {} panels of {lanes} lanes for {occupied} prepared tiles",
            panels.len()
        )));
    }
    Ok(())
}

/// Hard cap on the tile size a `qnc` command, an evaluation grid or a
/// served `ENCODE` may ask for. The spectral path fits a model of
/// dimension `tile_size²` to each image, at O(tile⁶) cost. On a 2-core
/// x86-64 host, the spectral fit and encode of one 64×64 image (`qnc
/// compress --no-verify`) took 2 ms at tile 4, 15 ms at 8, 0.85 s at 16,
/// 6.1 s at 24 and 79 s at 32, so at a cap of 32 or more a handful of
/// small frames pins a server's worker pool for minutes. 16 (state
/// dimension 256) bounds a fit at about a second and still covers every
/// tile this workspace encodes with.
pub const MAX_TILE_SIZE: u16 = 16;

/// Reject a spectral fit's geometry before any work: a mesh needs two
/// modes, and the latent dimension must be one of them.
fn check_spectral(tile_size: usize, latent_dim: usize) -> Result<()> {
    if tile_size < 2 {
        return Err(CodecError::Invalid(format!(
            "tile size must be at least 2 (a mesh needs two modes), got {tile_size}"
        )));
    }
    let dim = tile_size * tile_size;
    if latent_dim == 0 || latent_dim > dim {
        return Err(CodecError::Invalid(format!(
            "latent dimension must be in 1..={dim}, got {latent_dim}"
        )));
    }
    Ok(())
}

/// The prepare stage for a `dim`-mode model: validate the image and
/// options, then gather the occupied tiles into panels.
fn prepare(img: &GrayImage, opts: &CodecOptions, dim: usize) -> Result<(EncodePlan, Vec<Panel>)> {
    if img.is_empty() {
        return Err(CodecError::Invalid("cannot encode an empty image".into()));
    }
    if opts.tile_size == 0 {
        return Err(CodecError::Invalid("tile size must be positive".into()));
    }
    if opts.tile_size * opts.tile_size != dim {
        return Err(CodecError::Invalid(format!(
            "tile of {0}×{0} = {1} pixels does not match the model's state dimension {2}",
            opts.tile_size,
            opts.tile_size * opts.tile_size,
            dim
        )));
    }
    Quantizer::new(opts.bits)?; // validate the bit depth up front
    let gathered = gather_tiles(img, opts.tile_size)?;
    let plan = EncodePlan {
        occupied: gathered.occupied,
        norms: gathered.norms,
        width: img.width() as u32,
        height: img.height() as u32,
        raw_bytes: img.len(),
        opts: opts.clone(),
    };
    Ok((plan, gathered.panels))
}

/// An image's occupied tiles, amplitude-encoded into panel lanes.
struct GatheredTiles {
    /// One flag per grid tile, row-major.
    occupied: Vec<bool>,
    /// Eq. 1 norm of each occupied tile.
    norms: Vec<f64>,
    panels: Vec<Panel>,
}

/// The prepare gather: tile `img` at `tile_size`, and write every
/// occupied tile's pixels — row-major, the order `tiles::tile` +
/// `encoding::encode` produce — into its lane of a `tile_size²`-mode
/// panel, normalised in place. Norms and amplitudes are bit-identical
/// to that unfused path: on finite pixels the occupancy test `p ≠ 0`
/// for some pixel is exactly "the Eq. 1 norm is not ≤ 0", and the norm
/// replays `qn_linalg::vector::norm2`'s arithmetic lane by lane.
///
/// # Errors
/// [`CodecError::Invalid`] when an occupied tile's norm is not finite
/// and positive: a NaN or infinite pixel (a NaN counts as occupied, so
/// a lone NaN in a black tile is caught too), or finite pixels so large
/// that the norm overflows.
fn gather_tiles(img: &GrayImage, tile_size: usize) -> Result<GatheredTiles> {
    let ts = tile_size;
    let dim = ts * ts;
    let (width, height) = (img.width(), img.height());
    let tiles_x = width.div_ceil(ts).max(1);
    let tiles_y = height.div_ceil(ts).max(1);
    let src = img.pixels();
    let span = |t: usize, extent: usize| ts.min(extent.saturating_sub(t * ts));
    // The occupancy scan runs on the pool in bands of whole tile rows,
    // each holding at least a panel's worth of tiles, so an image of at
    // most one panel's tiles scans on the calling thread. A tile's scan
    // stops at its first non-zero pixel.
    let mut occupied = vec![false; tiles_x * tiles_y];
    let band = DEFAULT_PANEL_WIDTH.div_ceil(tiles_x) * tiles_x;
    par_map_chunked_into(&mut occupied, band, |first, flags| {
        for (ty, row) in (first / tiles_x..).zip(flags.chunks_mut(tiles_x)) {
            let rows = ty * ts..ty * ts + span(ty, height);
            for (tx, lit) in row.iter_mut().enumerate() {
                let (x0, span_w) = (tx * ts, span(tx, width));
                *lit = rows
                    .clone()
                    .any(|y| src[y * width + x0..][..span_w].iter().any(|&p| p != 0.0));
            }
        }
    });
    // The lit tiles' grid indices, compacted without a branch per tile:
    // every index is written, and only a lit one is kept.
    let lit = occupied.iter().filter(|&&o| o).count();
    let mut tile_of = vec![0; lit + 1];
    let mut slot = 0;
    for (t, &o) in occupied.iter().enumerate() {
        tile_of[slot] = t;
        slot += usize::from(o);
    }
    tile_of.truncate(lit);
    let mut norms = vec![0.0; tile_of.len()];
    let panels = build_panels(&mut norms, |p, norms| {
        let tiles = &tile_of[p * DEFAULT_PANEL_WIDTH..][..norms.len()];
        // Where each lane's tile starts in the image, and how many of
        // its columns and rows lie inside.
        let mut at = [(0usize, 0usize, 0usize); DEFAULT_PANEL_WIDTH];
        for (a, &t) in at.iter_mut().zip(tiles) {
            let (tx, ty) = (t % tiles_x, t / tiles_x);
            *a = (ty * ts * width + tx * ts, span(tx, width), span(ty, height));
        }
        // Mode by mode: mode `py·ts + px` of a lane is its tile's pixel
        // (px, py), or zero past the image edge.
        let lanes = tiles.len();
        let mut data = Vec::with_capacity(dim * lanes);
        for m in 0..dim {
            let (py, px) = (m / ts, m % ts);
            data.extend(at[..lanes].iter().map(|&(origin, cols, rows)| {
                if px < cols && py < rows {
                    src[origin + py * width + px]
                } else {
                    0.0
                }
            }));
        }
        let mut panel = Panel::from_mode_major(dim, lanes, data);
        if normalise_lanes(&mut panel, norms) {
            return Ok(panel);
        }
        let lane = norms
            .iter()
            .position(|n| !(*n > 0.0 && *n < f64::INFINITY))
            .expect("some lane's norm is unusable");
        Err(CodecError::Invalid(format!(
            "non-finite input: the tile at pixel ({}, {}) has norm {}; every pixel must be finite",
            tiles[lane] % tiles_x * ts,
            tiles[lane] / tiles_x * ts,
            norms[lane]
        )))
    });
    Ok(GatheredTiles {
        occupied,
        norms,
        panels: panels.into_iter().collect::<Result<_>>()?,
    })
}

/// Eq. 1 over every lane: each lane's `qn_linalg::vector::norm2`
/// (peak-scaled sum of squares, in mode order), written to `norms`,
/// then the lane divided by it. Swept a row at a time, so the per-lane
/// arithmetic is that of `norm2` while the loops run across contiguous
/// lanes. Returns whether every norm is finite and positive, checked
/// as the norms are written rather than in a pass of its own.
fn normalise_lanes(panel: &mut Panel, norms: &mut [f64]) -> bool {
    let dim = panel.dim();
    let lanes = norms.len();
    let mut peak = [0.0f64; DEFAULT_PANEL_WIDTH];
    let peak = &mut peak[..lanes];
    for m in 0..dim {
        for (pk, &v) in peak.iter_mut().zip(panel.row(m)) {
            *pk = pk.max(v.abs());
        }
    }
    let mut sum = [0.0f64; DEFAULT_PANEL_WIDTH];
    let sum = &mut sum[..lanes];
    for m in 0..dim {
        for ((s, &pk), &v) in sum.iter_mut().zip(peak.iter()).zip(panel.row(m)) {
            *s += (v / pk) * (v / pk);
        }
    }
    let mut usable = true;
    for ((norm, &pk), &s) in norms.iter_mut().zip(peak.iter()).zip(sum.iter()) {
        *norm = if pk == 0.0 || !pk.is_finite() {
            if pk.is_finite() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            pk * s.sqrt()
        };
        usable &= *norm > 0.0 && *norm < f64::INFINITY;
    }
    for m in 0..dim {
        for (a, &norm) in panel.row_mut(m).iter_mut().zip(norms.iter()) {
            *a /= norm;
        }
    }
    usable
}

/// Decode `.qnc` bytes that carry their model inline, with no external
/// model — the standalone path `qnc decompress` uses by default.
///
/// # Errors
/// [`CodecError::Invalid`] when no model is embedded; otherwise all
/// container/model parse errors.
pub fn decode_standalone(bytes: &[u8]) -> Result<GrayImage> {
    let container = Container::from_bytes(bytes)?;
    codec_from_inline(&container)?.decode_container(&container, BackendKind::default(), &mut ())
}

/// Build a [`Codec`] from a container's embedded model — the model
/// source of the standalone decode path and of servers handling
/// self-contained containers.
///
/// # Errors
/// [`CodecError::Invalid`] when no model is embedded; otherwise model
/// parse errors.
pub fn codec_from_inline(container: &Container) -> Result<Codec> {
    let model_bytes = container.inline_model.as_deref().ok_or_else(|| {
        CodecError::Invalid(
            "container has no inline model; supply the model file it was encoded with".into(),
        )
    })?;
    Ok(Codec::new(model::decode_model(model_bytes)?))
}

/// Opaque bookkeeping between [`Codec::prepare_encode`] and
/// [`Codec::complete_encode`]: tile occupancy, per-tile norms and the
/// geometry/options needed to assemble the container after the mesh
/// pass has run elsewhere.
#[derive(Debug, Clone)]
pub struct EncodePlan {
    /// One flag per grid tile, row-major (false = all-zero tile).
    occupied: Vec<bool>,
    /// Encoding norm per occupied tile, in lane order.
    norms: Vec<f64>,
    width: u32,
    height: u32,
    raw_bytes: usize,
    opts: CodecOptions,
}

/// Opaque bookkeeping between [`Codec::prepare_decode`] and
/// [`Codec::complete_decode`]: tile occupancy, dequantized norms and
/// the output geometry.
#[derive(Debug, Clone)]
pub struct DecodePlan {
    /// One flag per grid tile, row-major (false = all-zero tile).
    occupied: Vec<bool>,
    /// Dequantized tile norm per occupied tile, in lane order.
    norms: Vec<f64>,
    tile_size: usize,
    width: usize,
    height: usize,
    tiles_x: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qn_image::{datasets, metrics};

    fn test_image() -> GrayImage {
        // A 32×24 grayscale blob image: smooth structure, non-trivial.
        datasets::grayscale_blobs(1, 32, 24, 9).remove(0)
    }

    fn spectral_codec(img: &GrayImage, d: usize) -> Codec {
        Codec::spectral_for_image(img, 4, d).unwrap()
    }

    #[test]
    fn roundtrip_meets_psnr_floor_at_8_bits() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let (bytes, stats) = codec
            .encode_image_with_stats(&img, &CodecOptions::default(), &mut ())
            .unwrap();
        let back = codec.decode_bytes(&bytes).unwrap();
        assert_eq!((back.width(), back.height()), (32, 24));
        let psnr = metrics::psnr(&img, &back.clamped());
        assert!(psnr >= 20.0, "PSNR {psnr:.2} dB below floor");
        assert!(stats.bits_per_pixel > 0.0);
    }

    #[test]
    fn dataset_spectral_model_encodes_every_member() {
        // One shared model over a rank-4 family: every member decodes
        // accurately with the *same* model id, which is what amortizes
        // the model cost across a dataset.
        let data = datasets::paper_binary_16(25);
        let codec = Codec::spectral_for_images(&data, 4, 8).unwrap();
        let opts = CodecOptions {
            inline_model: false,
            ..CodecOptions::default()
        };
        for img in &data {
            let (bytes, stats) = codec.encode_image_with_stats(img, &opts, &mut ()).unwrap();
            assert_eq!(stats.container_bytes, bytes.len());
            let back = codec.decode_bytes(&bytes).unwrap();
            let psnr = metrics::psnr(img, &back.clamped());
            assert!(psnr >= 30.0, "PSNR {psnr:.2} dB");
        }
        // A single-image fit is the one-element dataset fit.
        let solo = Codec::spectral_for_image(&data[3], 4, 8).unwrap();
        let solo_set = Codec::spectral_for_images(&data[3..4], 4, 8).unwrap();
        assert_eq!(solo.model_id(), solo_set.model_id());
    }

    #[test]
    fn spectral_fit_from_the_prepare_gather_matches_tile_and_encode() {
        // The fit used to sample through `tiles::tile` +
        // `encoding::encode` into a vector per tile; it now streams
        // the prepare gather's panel lanes. Model ids must not move.
        use qn_core::encoding;
        use qn_image::tiles;
        let mut sparse = datasets::grayscale_blobs(1, 30, 22, 4).remove(0);
        for x in 0..12 {
            for y in 0..8 {
                sparse.set(x, y, 0.0);
            }
        }
        let sets = [
            vec![test_image()],
            vec![sparse],
            datasets::paper_binary_16(25),
            vec![GrayImage::zeros(8, 8)],
        ];
        for images in &sets {
            for (tile, d) in [(4usize, 8usize), (3, 4)] {
                let dim = tile * tile;
                let inputs: Vec<_> = images
                    .iter()
                    .flat_map(|img| tiles::tile(img, tile).tiles)
                    .filter_map(|t| encoding::encode(t.pixels(), dim).ok())
                    .map(|e| e.amplitudes)
                    .collect();
                let mesh_c = if inputs.is_empty() {
                    qn_photonic::Mesh::zeros(dim, 1)
                } else {
                    qn_core::spectral::spectral_mesh(&inputs, dim, d, 1).unwrap()
                };
                let compression =
                    CompressionNetwork::new(mesh_c, d, CompressionTargetKind::TrashPenalty)
                        .unwrap();
                let n_layers = compression.mesh().n_layers();
                let reconstruction =
                    ReconstructionNetwork::from_reversed_compression(&compression, n_layers);
                let reference = Codec::new(QuantumAutoencoder::new(compression, reconstruction));
                let fitted = Codec::spectral_for_images(images, tile, d).unwrap();
                assert_eq!(
                    fitted.model_id(),
                    reference.model_id(),
                    "tile {tile}, d {d}"
                );
            }
        }
    }

    #[test]
    fn stats_separate_model_bytes_from_payload() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let (with_model, _) = codec
            .encode_image_with_stats(&img, &CodecOptions::default(), &mut ())
            .unwrap();
        let (lean, stats) = codec
            .encode_image_with_stats(
                &img,
                &CodecOptions {
                    inline_model: false,
                    ..CodecOptions::default()
                },
                &mut (),
            )
            .unwrap();
        assert_eq!(stats.container_bytes, lean.len());
        // The inline model accounts for (almost all of) the size gap:
        // the container layout only adds a small length field around it.
        let model_bytes = model::encode_model(codec.model()).len();
        let gap = with_model.len() - lean.len();
        assert!(
            gap >= model_bytes && gap <= model_bytes + 16,
            "container gap {gap} vs model {model_bytes}"
        );
    }

    #[test]
    fn container_without_model_is_smaller_than_raw() {
        let img = datasets::grayscale_blobs(1, 64, 64, 5).remove(0);
        let codec = spectral_codec(&img, 8);
        let opts = CodecOptions {
            inline_model: false,
            ..CodecOptions::default()
        };
        let (bytes, stats) = codec.encode_image_with_stats(&img, &opts, &mut ()).unwrap();
        assert!(
            bytes.len() < img.len(),
            "container {} bytes ≥ raw {} bytes",
            bytes.len(),
            img.len()
        );
        assert!(stats.ratio() > 1.0);
    }

    #[test]
    fn every_backend_encodes_and_decodes_identically() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let reference = codec
            .encode_image(
                &img,
                &CodecOptions {
                    backend: BackendKind::Scalar,
                    ..CodecOptions::default()
                },
            )
            .unwrap();
        let reference_img = codec
            .decode_bytes_with(&reference, BackendKind::Scalar)
            .unwrap();
        for backend in BackendKind::ALL {
            let bytes = codec
                .encode_image(
                    &img,
                    &CodecOptions {
                        backend,
                        ..CodecOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(
                bytes, reference,
                "{backend}: encode bytes must not depend on the schedule"
            );
            let decoded = codec.decode_bytes_with(&bytes, backend).unwrap();
            assert_eq!(
                decoded, reference_img,
                "{backend}: decode must not depend on the schedule"
            );
        }
    }

    #[test]
    fn standalone_decode_uses_the_inline_model() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let bytes = codec.encode_image(&img, &CodecOptions::default()).unwrap();
        let via_codec = codec.decode_bytes(&bytes).unwrap();
        let via_inline = decode_standalone(&bytes).unwrap();
        assert_eq!(via_codec, via_inline);
        // Without the inline model the standalone path refuses.
        let lean = codec
            .encode_image(
                &img,
                &CodecOptions {
                    inline_model: false,
                    ..CodecOptions::default()
                },
            )
            .unwrap();
        assert!(matches!(
            decode_standalone(&lean),
            Err(CodecError::Invalid(_))
        ));
    }

    /// A stage runner that notes each stage's name as it runs it.
    #[derive(Default)]
    struct Names(Vec<&'static str>);

    impl Stages for Names {
        fn run<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> T {
            self.0.push(name);
            work()
        }
    }

    #[test]
    fn timed_paths_are_byte_identical_to_untimed_ones() {
        // The whole point of the stage runner: a recorder sees each
        // stage, data is never touched. A recorder's durations are
        // wall-clock and deliberately not asserted; names and their
        // order are.
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let opts = CodecOptions::default();
        let plain = codec.encode_image(&img, &opts).unwrap();
        let mut names = Names::default();
        let (timed, stats) = codec
            .encode_image_with_stats(&img, &opts, &mut names)
            .unwrap();
        assert_eq!(timed, plain, "timed encode must not perturb bytes");
        assert_eq!(stats.container_bytes, plain.len());
        assert_eq!(names.0, ["prepare", "mesh_pass", "quantize", "entropy"]);
        let mut names = Names::default();
        let (fitted, spectral, _) = Codec::spectral_encode(&img, 8, &opts, &mut names).unwrap();
        assert_eq!(spectral, plain, "one-gather spectral encode");
        assert_eq!(fitted.model_id(), codec.model_id());
        assert_eq!(
            names.0,
            ["prepare", "spectral", "mesh_pass", "quantize", "entropy"]
        );
        let plain_img = codec.decode_bytes(&plain).unwrap();
        let container = Container::from_bytes(&plain).unwrap();
        let mut names = Names::default();
        let timed_img = codec
            .decode_container(&container, BackendKind::default(), &mut names)
            .unwrap();
        assert_eq!(timed_img, plain_img, "timed decode must not perturb pixels");
        assert_eq!(names.0, ["prepare", "mesh_pass", "stitch"]);
        // A wrong model still errors through the timed path.
        let other = spectral_codec(&datasets::grayscale_blobs(1, 32, 24, 78).remove(0), 8);
        assert!(matches!(
            other.decode_container(&container, BackendKind::default(), &mut Names::default()),
            Err(CodecError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn model_mismatch_is_detected() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let other = spectral_codec(&datasets::grayscale_blobs(1, 32, 24, 77).remove(0), 8);
        let bytes = codec.encode_image(&img, &CodecOptions::default()).unwrap();
        assert!(matches!(
            other.decode_bytes(&bytes),
            Err(CodecError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn empty_tiles_cost_one_bit_and_decode_to_black() {
        // Mostly-black image with one lit region.
        let mut img = GrayImage::zeros(16, 16);
        img.set(1, 1, 0.8);
        let codec = spectral_codec(&img, 4);
        let opts = CodecOptions {
            inline_model: false,
            ..CodecOptions::default()
        };
        let (bytes, stats) = codec.encode_image_with_stats(&img, &opts, &mut ()).unwrap();
        assert_eq!(stats.tiles, 16);
        assert_eq!(stats.empty_tiles, 15);
        let back = codec.decode_bytes(&bytes).unwrap();
        for (y, x) in (0..16).flat_map(|y| (0..16).map(move |x| (y, x))) {
            if x >= 4 || y >= 4 {
                assert_eq!(back.get(x, y), 0.0, "empty tile pixel ({x},{y})");
            }
        }
    }

    #[test]
    fn quantize_rows_match_quantizing_each_lane() {
        // Amplitudes at level centres and decision boundaries, ±1 ulp,
        // signed zeros, out-of-range and non-finite values, and seeded
        // ones, in panels of 64 and of 37 lanes.
        let quantizer = Quantizer::new(6).unwrap();
        let step = quantizer.max_error();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut values = vec![0.0, -0.0, 1.0, -1.0, 1.5, -3.0, f64::NAN, f64::INFINITY];
        for level in 0..quantizer.levels() {
            let centre = quantizer.dequantize(level);
            for a in [centre, centre + step] {
                values.extend([a, a.next_up(), a.next_down()]);
            }
        }
        values.extend((0..600).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * 0.8 - 0.4
        }));
        let (dim, kept) = (16, 10..16);
        let d = kept.len();
        for lanes in [DEFAULT_PANEL_WIDTH, 37] {
            for (p, data) in values.chunks(dim * lanes).enumerate() {
                let mut data = data.to_vec();
                data.resize(dim * lanes, 0.25 * p as f64);
                let panel = Panel::from_mode_major(dim, lanes, data);
                let norms = vec![0.5; lanes];
                for scaled in [false, true] {
                    let mut norms_q = vec![0; lanes];
                    let mut levels = vec![0; lanes * d];
                    let mut scales = vec![0.0f32; if scaled { lanes } else { 0 }];
                    QuantizeJob {
                        panel: &panel,
                        norms: &norms,
                        norms_q: &mut norms_q,
                        levels: &mut levels,
                        scales: &mut scales,
                    }
                    .run(&quantizer, kept.clone(), 1.0);
                    for lane in 0..lanes {
                        let latent = |m: usize| panel.as_slice()[m * lanes + lane];
                        let scale = scaled.then(|| {
                            let peak = kept.clone().fold(0.0f64, |pk, m| pk.max(latent(m).abs()));
                            tile_scale(peak)
                        });
                        if let Some(s) = scale {
                            assert_eq!(scales[lane].to_bits(), s.to_bits(), "lane {lane} scale");
                        }
                        for (j, m) in kept.clone().enumerate() {
                            let a = match scale {
                                Some(s) => latent(m) / f64::from(s),
                                None => latent(m),
                            };
                            assert_eq!(
                                levels[lane * d + j],
                                quantizer.quantize(a),
                                "{lanes} lanes, panel {p}, lane {lane}, mode {m}, scaled {scaled}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn per_tile_scale_improves_low_energy_tiles() {
        // A dim image: amplitudes per tile are small, so the global
        // [-1,1] grid wastes levels; per-tile scaling must not be worse.
        let img = {
            let mut img = datasets::grayscale_blobs(1, 32, 32, 13).remove(0);
            for p in img.pixels_mut() {
                *p *= 0.2;
            }
            img
        };
        let codec = spectral_codec(&img, 8);
        let base = CodecOptions {
            bits: 5,
            inline_model: false,
            ..CodecOptions::default()
        };
        let scaled = CodecOptions {
            per_tile_scale: true,
            ..base.clone()
        };
        let flat = codec.encode_image(&img, &base).unwrap();
        let tight = codec.encode_image(&img, &scaled).unwrap();
        let psnr_flat = metrics::psnr(&img, &codec.decode_bytes(&flat).unwrap().clamped());
        let psnr_tight = metrics::psnr(&img, &codec.decode_bytes(&tight).unwrap().clamped());
        assert!(
            psnr_tight + 1e-9 >= psnr_flat,
            "per-tile scale regressed PSNR: {psnr_flat:.2} → {psnr_tight:.2}"
        );
    }

    #[test]
    fn oversize_tiles_and_empty_images_are_rejected() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let opts = CodecOptions {
            tile_size: 5, // 25 pixels > N = 16
            ..CodecOptions::default()
        };
        assert!(matches!(
            codec.encode_image(&img, &opts),
            Err(CodecError::Invalid(_))
        ));
        assert!(codec
            .encode_image(&GrayImage::zeros(0, 0), &CodecOptions::default())
            .is_err());
    }

    #[test]
    fn unaligned_image_sizes_roundtrip() {
        let img = datasets::grayscale_blobs(1, 13, 9, 21).remove(0);
        let codec = spectral_codec(&img, 8);
        let bytes = codec.encode_image(&img, &CodecOptions::default()).unwrap();
        let back = codec.decode_bytes(&bytes).unwrap();
        assert_eq!((back.width(), back.height()), (13, 9));
        let psnr = metrics::psnr(&img, &back.clamped());
        assert!(psnr >= 20.0, "PSNR {psnr:.2} dB");
    }
}
