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
//! dominate runtime are dispatched as whole-image batches through a
//! [`qn_backend::MeshBackend`] selected by [`CodecOptions::backend`]:
//! the `simd` panel path by default, or the `scalar` per-tile reference.
//! Backends may differ only in the sign of IEEE zeros, which the
//! magnitude quantizer and the pixel decode erase, so the bytes a
//! container holds — and the pixels it decodes to — never depend on the
//! backend.

use crate::container::{
    dequantize_norm, quantize_norm, Container, ContainerHeader, TilePayload, FLAG_INLINE_MODEL,
    FLAG_PER_TILE_SCALE,
};
use crate::entropy::EntropyCoder;
use crate::error::{CodecError, Result};
use crate::model;
use crate::quantize::{tile_scale, Quantizer};
use qn_backend::BackendKind;
use qn_core::config::{CompressionTargetKind, SubspaceKind};
use qn_core::reconstruction::ReconstructionNetwork;
use qn_core::{compression::CompressionNetwork, encoding, QuantumAutoencoder};
use qn_image::{tiles, GrayImage};
use std::path::Path;
use std::time::Instant;

/// Wall-clock nanoseconds spent in each encode stage. Produced by the
/// `*_timed` pipeline entry points for observability (the `--timings`
/// CLI report, the server's per-stage histograms); plain data with no
/// telemetry dependency, and never an influence on encoded bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodeTimings {
    /// Tiling plus amplitude encoding ([`Codec::prepare_encode`]).
    pub prepare_ns: u64,
    /// The compression mesh pass.
    pub mesh_ns: u64,
    /// Latent gather, scaling and level quantization (payload build).
    pub quantize_ns: u64,
    /// Entropy coding and container serialisation.
    pub entropy_ns: u64,
}

/// Wall-clock nanoseconds spent in each decode stage; see
/// [`EncodeTimings`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeTimings {
    /// Container parse, including entropy decoding of the payload.
    pub parse_ns: u64,
    /// Dequantization and state re-embedding
    /// ([`Codec::prepare_decode`]).
    pub prepare_ns: u64,
    /// The reconstruction mesh pass.
    pub mesh_ns: u64,
    /// Norm scaling, patch rebuild and stitching
    /// ([`Codec::complete_decode`]).
    pub stitch_ns: u64,
}

/// Nanoseconds since `t`, saturating at `u64::MAX`.
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
    /// Execution backend for the mesh passes (default `simd`; `scalar`
    /// is the reference). This knob changes throughput only, never
    /// bytes or pixels.
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

/// Encode-side accounting, for logs, benchmarks and the rate–distortion
/// evaluation harness.
#[derive(Debug, Clone, Copy)]
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
    /// Bytes of the embedded model body (0 without an inline model).
    /// Subtracting from [`EncodeStats::container_bytes`] isolates the
    /// per-image latent payload from the amortizable model cost.
    pub model_bytes: usize,
}

impl EncodeStats {
    /// Compression ratio (raw ÷ compressed; > 1 means smaller).
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.container_bytes as f64
    }

    /// Bits per pixel of the container *minus* the embedded model body —
    /// the per-image rate once the model is amortized (equal to
    /// [`EncodeStats::bits_per_pixel`] when no model is inlined).
    pub fn payload_bits_per_pixel(&self) -> f64 {
        (self.container_bytes - self.model_bytes) as f64 * 8.0 / self.raw_bytes as f64
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
    /// among orthogonal compressions of this tile distribution — the
    /// default model source for `qnc compress` when no model file is
    /// given.
    ///
    /// # Errors
    /// Propagates eigensolver/decomposition failures; an all-zero image
    /// falls back to the identity mesh (every tile is then empty
    /// anyway).
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
    /// See [`Codec::spectral_for_image`]; images may differ in size but
    /// every tile must fit the `tile_size²` state dimension.
    pub fn spectral_for_images(
        images: &[GrayImage],
        tile_size: usize,
        latent_dim: usize,
    ) -> Result<Self> {
        let dim = tile_size * tile_size;
        if latent_dim == 0 || latent_dim > dim {
            return Err(CodecError::Invalid(format!(
                "latent dimension must be in 1..={dim}, got {latent_dim}"
            )));
        }
        let inputs: Vec<Vec<f64>> = images
            .iter()
            .flat_map(|img| tiles::tile(img, tile_size).tiles)
            .filter_map(|t| encoding::encode(t.pixels(), dim).ok())
            .map(|e| e.amplitudes)
            .collect();
        let mesh_c = if inputs.is_empty() {
            qn_photonic::Mesh::zeros(dim, 1)
        } else {
            qn_core::spectral::spectral_mesh(&inputs, dim, latent_dim, SubspaceKind::KeepLast, 1)?
        };
        let compression = CompressionNetwork::new(
            mesh_c,
            latent_dim,
            SubspaceKind::KeepLast,
            CompressionTargetKind::TrashPenalty,
        )?;
        let n_layers = compression.mesh().n_layers();
        let reconstruction =
            ReconstructionNetwork::from_reversed_compression(&compression, n_layers);
        Ok(Codec::new(QuantumAutoencoder::new(
            compression,
            reconstruction,
        )))
    }

    /// Compress an image into `.qnc` bytes.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for empty images or tile sizes whose
    /// pixel count exceeds the model's state dimension.
    pub fn encode_image(&self, img: &GrayImage, opts: &CodecOptions) -> Result<Vec<u8>> {
        Ok(self.encode_image_with_stats(img, opts)?.0)
    }

    /// Compress, also returning size accounting.
    ///
    /// # Errors
    /// See [`Codec::encode_image`].
    pub fn encode_image_with_stats(
        &self,
        img: &GrayImage,
        opts: &CodecOptions,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        let (plan, states) = self.prepare_encode(img, opts)?;
        let outs = self
            .model
            .compression
            .forward_batch_with(&states, opts.backend.backend());
        self.complete_encode(plan, outs)
    }

    /// [`Codec::encode_image_with_stats`] with per-stage wall-clock
    /// accounting. The encoded bytes are identical to the untimed
    /// paths — timing reads clocks, never data.
    ///
    /// # Errors
    /// See [`Codec::encode_image`].
    pub fn encode_image_timed(
        &self,
        img: &GrayImage,
        opts: &CodecOptions,
    ) -> Result<(Vec<u8>, EncodeStats, EncodeTimings)> {
        let t = Instant::now();
        let (plan, states) = self.prepare_encode(img, opts)?;
        let prepare_ns = elapsed_ns(t);
        let t = Instant::now();
        let outs = self
            .model
            .compression
            .forward_batch_with(&states, opts.backend.backend());
        let mesh_ns = elapsed_ns(t);
        let (bytes, stats, mut timings) = self.complete_encode_timed(plan, outs)?;
        timings.prepare_ns = prepare_ns;
        timings.mesh_ns = mesh_ns;
        Ok((bytes, stats, timings))
    }

    /// Everything *before* the encode's single mesh pass: tile the
    /// image, amplitude-encode every non-empty tile, and hand back the
    /// state vectors alongside the bookkeeping needed to finish. Any
    /// executor may then run the compression mesh over the states —
    /// [`Codec::encode_image_with_stats`] dispatches them directly
    /// through [`CodecOptions::backend`], while a serving layer can
    /// coalesce them with other requests' tiles — and feed the outputs
    /// (equal up to zero signs by the backend contract, which the
    /// quantizer erases) to [`Codec::complete_encode`].
    ///
    /// # Errors
    /// [`CodecError::Invalid`] for empty images, zero/oversize tile
    /// sizes, or unsupported bit depths.
    pub fn prepare_encode(
        &self,
        img: &GrayImage,
        opts: &CodecOptions,
    ) -> Result<(EncodePlan, Vec<Vec<f64>>)> {
        if img.is_empty() {
            return Err(CodecError::Invalid("cannot encode an empty image".into()));
        }
        if opts.tile_size == 0 {
            return Err(CodecError::Invalid("tile size must be positive".into()));
        }
        let dim = self.model.dim();
        if opts.tile_size * opts.tile_size > dim {
            return Err(CodecError::Invalid(format!(
                "tile of {0}×{0} = {1} pixels exceeds the model's state dimension {2}",
                opts.tile_size,
                opts.tile_size * opts.tile_size,
                dim
            )));
        }
        Quantizer::new(opts.bits)?; // validate the bit depth up front
        let ts = opts.tile_size;
        let tiles_x = img.width().div_ceil(ts).max(1);
        let tiles_y = img.height().div_ceil(ts).max(1);
        let tile_px = ts * ts;
        let src = img.pixels();
        let n_tiles = tiles_x * tiles_y;
        let mut states: Vec<Vec<f64>> = Vec::with_capacity(n_tiles);
        let mut norms: Vec<f64> = Vec::with_capacity(n_tiles);
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(n_tiles);
        // Fused tiling + amplitude encoding (Eq. 1): gather each tile's
        // row spans straight into its padded state vector and normalise
        // in place, with no intermediate patch images. Values appear in
        // the exact order `tiles::tile` + `encoding::encode` would
        // produce them (row-major with trailing zero padding), so norms
        // and amplitudes are bit-identical to the unfused path.
        for ty in 0..tiles_y {
            for tx in 0..tiles_x {
                let x0 = tx * ts;
                let y0 = ty * ts;
                let span_w = ts.min(img.width().saturating_sub(x0));
                let span_h = ts.min(img.height().saturating_sub(y0));
                let mut state = vec![0.0; dim];
                for py in 0..span_h {
                    let s = (y0 + py) * img.width() + x0;
                    let d = py * ts;
                    state[d..d + span_w].copy_from_slice(&src[s..s + span_w]);
                }
                let norm = qn_linalg::vector::norm2(&state[..tile_px]);
                if norm <= 0.0 {
                    // All-zero tile: no quantum state can encode it.
                    slots.push(None);
                    continue;
                }
                for a in &mut state[..tile_px] {
                    *a /= norm;
                }
                slots.push(Some(states.len()));
                norms.push(norm);
                states.push(state);
            }
        }
        let plan = EncodePlan {
            slots,
            norms,
            tiles_x,
            tiles_y,
            width: img.width() as u32,
            height: img.height() as u32,
            raw_bytes: img.len(),
            opts: opts.clone(),
        };
        Ok((plan, states))
    }

    /// Everything *after* the encode's mesh pass: gather the kept
    /// latent amplitudes from the raw `U_C` outputs (projection only
    /// zeroes the discarded ones, so the gather is bit-identical to
    /// projecting first), quantize, entropy-code and serialise the
    /// container. `mesh_out[i]` must be the mesh output for state `i`
    /// of [`Codec::prepare_encode`].
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when `mesh_out` does not match the
    /// plan's state count, plus container serialisation errors.
    pub fn complete_encode(
        &self,
        plan: EncodePlan,
        mesh_out: Vec<Vec<f64>>,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        let (bytes, stats, _) = self.complete_encode_timed(plan, mesh_out)?;
        Ok((bytes, stats))
    }

    /// [`Codec::complete_encode`] with wall-clock accounting of its two
    /// stages: `quantize_ns` (latent gather + payload build) and
    /// `entropy_ns` (entropy coding + container serialisation). The
    /// `prepare_ns`/`mesh_ns` fields are left zero for the caller —
    /// whoever ran the mesh pass — to fill in.
    ///
    /// # Errors
    /// See [`Codec::complete_encode`].
    pub fn complete_encode_timed(
        &self,
        plan: EncodePlan,
        mesh_out: Vec<Vec<f64>>,
    ) -> Result<(Vec<u8>, EncodeStats, EncodeTimings)> {
        if mesh_out.len() != plan.norms.len() {
            return Err(CodecError::Invalid(format!(
                "mesh pass returned {} outputs for {} prepared tiles",
                mesh_out.len(),
                plan.norms.len()
            )));
        }
        let opts = &plan.opts;
        let quantizer = Quantizer::new(opts.bits)?;
        let latent_dim = self.model.compression.compressed_dim();
        let kept_indices = self.model.compression.projector().kept_indices();
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

        let t = Instant::now();
        let mut empty_tiles = 0usize;
        // One reused gather buffer: per tile only the `levels` vector
        // the payload keeps is allocated.
        let mut kept = vec![0.0f64; latent_dim];
        let tile_payloads: Vec<Option<TilePayload>> = plan
            .slots
            .iter()
            .map(|slot| match slot {
                None => {
                    empty_tiles += 1;
                    None
                }
                Some(i) => {
                    for (dst, &j) in kept.iter_mut().zip(kept_indices.iter()) {
                        *dst = mesh_out[*i][j];
                    }
                    let scale = opts.per_tile_scale.then(|| {
                        let s = tile_scale(&kept);
                        for a in &mut kept {
                            *a /= f64::from(s);
                        }
                        s
                    });
                    Some(TilePayload {
                        norm_q: quantize_norm(plan.norms[*i], max_norm),
                        scale,
                        levels: quantizer.quantize_block(&kept),
                    })
                }
            })
            .collect();
        let quantize_ns = elapsed_ns(t);

        let t = Instant::now();
        let container = Container {
            header,
            inline_model: opts.inline_model.then(|| model::encode_model(&self.model)),
            tiles: tile_payloads,
        };
        let model_bytes = container.inline_model.as_ref().map_or(0, Vec::len);
        let bytes = container.to_bytes()?;
        let entropy_ns = elapsed_ns(t);
        let stats = EncodeStats {
            tiles: plan.tiles_x * plan.tiles_y,
            empty_tiles,
            raw_bytes: plan.raw_bytes,
            container_bytes: bytes.len(),
            bits_per_pixel: bytes.len() as f64 * 8.0 / plan.raw_bytes as f64,
            model_bytes,
        };
        Ok((
            bytes,
            stats,
            EncodeTimings {
                prepare_ns: 0,
                mesh_ns: 0,
                quantize_ns,
                entropy_ns,
            },
        ))
    }

    /// Decompress `.qnc` bytes produced with this codec's model.
    ///
    /// # Errors
    /// All container parse errors, plus [`CodecError::ModelMismatch`]
    /// when the container was encoded with a different model.
    pub fn decode_bytes(&self, bytes: &[u8]) -> Result<GrayImage> {
        self.decode_bytes_with(bytes, BackendKind::default())
    }

    /// Decompress through an explicit execution backend. Backends
    /// differ at most in the sign of IEEE zeros, which decoding erases,
    /// so every [`BackendKind`] yields the identical image.
    ///
    /// # Errors
    /// See [`Codec::decode_bytes`].
    pub fn decode_bytes_with(&self, bytes: &[u8], backend: BackendKind) -> Result<GrayImage> {
        decode_parsed(self, &Container::from_bytes(bytes)?, backend)
    }

    /// [`Codec::decode_bytes_with`] with per-stage wall-clock
    /// accounting: container parse (including entropy decode),
    /// dequantization, the reconstruction mesh pass, and the stitch.
    /// The decoded image is identical to the untimed paths.
    ///
    /// # Errors
    /// See [`Codec::decode_bytes`].
    pub fn decode_bytes_timed(
        &self,
        bytes: &[u8],
        backend: BackendKind,
    ) -> Result<(GrayImage, DecodeTimings)> {
        let t = Instant::now();
        let container = Container::from_bytes(bytes)?;
        let parse_ns = elapsed_ns(t);
        self.check_container(&container)?;
        let t = Instant::now();
        let (plan, states) = self.prepare_decode(&container)?;
        let prepare_ns = elapsed_ns(t);
        let t = Instant::now();
        let outs = self
            .model
            .reconstruction
            .reconstruct_batch_with(&states, backend.backend());
        let mesh_ns = elapsed_ns(t);
        let t = Instant::now();
        let img = self.complete_decode(plan, outs)?;
        let stitch_ns = elapsed_ns(t);
        Ok((
            img,
            DecodeTimings {
                parse_ns,
                prepare_ns,
                mesh_ns,
                stitch_ns,
            },
        ))
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

    /// Decode a parsed container against this codec's model.
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when the container geometry disagrees
    /// with the model (latent dimension, state dimension).
    pub fn decode_container(
        &self,
        container: &Container,
        backend: BackendKind,
    ) -> Result<GrayImage> {
        let (plan, states) = self.prepare_decode(container)?;
        let outs = self
            .model
            .reconstruction
            .reconstruct_batch_with(&states, backend.backend());
        self.complete_decode(plan, outs)
    }

    /// Everything *before* the decode's single mesh pass: validate the
    /// container geometry against the model and dequantize every
    /// occupied tile into a re-embedded state vector. Any executor may
    /// then run the reconstruction mesh over the states and feed the
    /// outputs to [`Codec::complete_decode`].
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when the container geometry disagrees
    /// with the model (latent dimension, state dimension).
    pub fn prepare_decode(&self, container: &Container) -> Result<(DecodePlan, Vec<Vec<f64>>)> {
        let header = &container.header;
        let dim = self.model.dim();
        let tile_px = header.tile_size as usize * header.tile_size as usize;
        if tile_px > dim {
            return Err(CodecError::Invalid(format!(
                "container tile size {} exceeds the model's state dimension {dim}",
                header.tile_size
            )));
        }
        if header.latent_dim as usize != self.model.compression.compressed_dim() {
            return Err(CodecError::Invalid(format!(
                "container stores {} latents per tile, model compresses to {}",
                header.latent_dim,
                self.model.compression.compressed_dim()
            )));
        }
        let quantizer = Quantizer::new(header.bits)?;
        let kept_indices = self.model.compression.projector().kept_indices();

        // Dequantize every occupied tile into a re-embedded state vector.
        let mut states: Vec<Vec<f64>> = Vec::new();
        let mut norms: Vec<f64> = Vec::new();
        let mut slots: Vec<Option<usize>> = Vec::with_capacity(container.tiles.len());
        for tile in &container.tiles {
            match tile {
                None => slots.push(None),
                Some(payload) => {
                    // Dequantize straight into the re-embedded state —
                    // same values as dequantizing to a staging buffer,
                    // scaling, then scattering, with no per-tile
                    // intermediate allocation.
                    let mut state = vec![0.0; dim];
                    match payload.scale {
                        Some(scale) => {
                            for (&j, &level) in kept_indices.iter().zip(&payload.levels) {
                                state[j] = quantizer.dequantize(level) * f64::from(scale);
                            }
                        }
                        None => {
                            for (&j, &level) in kept_indices.iter().zip(&payload.levels) {
                                state[j] = quantizer.dequantize(level);
                            }
                        }
                    }
                    slots.push(Some(states.len()));
                    norms.push(dequantize_norm(payload.norm_q, header.max_norm));
                    states.push(state);
                }
            }
        }
        let plan = DecodePlan {
            slots,
            norms,
            tile_size: header.tile_size as usize,
            width: header.width as usize,
            height: header.height as usize,
            tiles_x: header.tiles_x(),
        };
        Ok((plan, states))
    }

    /// Everything *after* the decode's mesh pass: scale each
    /// reconstructed state by its tile norm, rebuild the patches and
    /// stitch the image. `mesh_out[i]` must be the reconstruction-mesh
    /// output for state `i` of [`Codec::prepare_decode`].
    ///
    /// # Errors
    /// [`CodecError::Invalid`] when `mesh_out` does not match the
    /// plan's state count.
    pub fn complete_decode(&self, plan: DecodePlan, mesh_out: Vec<Vec<f64>>) -> Result<GrayImage> {
        if mesh_out.len() != plan.norms.len() {
            return Err(CodecError::Invalid(format!(
                "mesh pass returned {} outputs for {} prepared tiles",
                mesh_out.len(),
                plan.norms.len()
            )));
        }
        // Stitch decoded amplitudes straight into the output image:
        // per-row spans clipped at the right/bottom edges, Eq. 2
        // (`x̂ = √(B²)·‖x‖`, exactly `encoding::decode`) applied in
        // place. Skipped (all-zero) tiles keep the canvas zeros, and
        // padding amplitudes beyond each clipped span are dropped — the
        // same crop `tiles::untile` performed on materialised patches.
        let ts = plan.tile_size;
        let mut out = GrayImage::zeros(plan.width, plan.height);
        let dst = out.pixels_mut();
        for (idx, slot) in plan.slots.iter().enumerate() {
            let Some(i) = slot else { continue };
            let amps = &mesh_out[*i];
            let norm = plan.norms[*i];
            let x0 = (idx % plan.tiles_x) * ts;
            let y0 = (idx / plan.tiles_x) * ts;
            let span_w = ts.min(plan.width.saturating_sub(x0));
            let span_h = ts.min(plan.height.saturating_sub(y0));
            for py in 0..span_h {
                let d = (y0 + py) * plan.width + x0;
                let s = py * ts;
                for (o, &b) in dst[d..d + span_w].iter_mut().zip(&amps[s..s + span_w]) {
                    *o = (b * b).sqrt() * norm;
                }
            }
        }
        Ok(out)
    }
}

/// Decode `.qnc` bytes that carry their model inline, with no external
/// model — the standalone path `qnc decompress` uses by default.
///
/// # Errors
/// [`CodecError::Invalid`] when no model is embedded; otherwise all
/// container/model parse errors.
pub fn decode_standalone(bytes: &[u8]) -> Result<GrayImage> {
    decode_standalone_with(bytes, BackendKind::default())
}

/// Standalone decode through an explicit execution backend.
///
/// # Errors
/// See [`decode_standalone`].
pub fn decode_standalone_with(bytes: &[u8], backend: BackendKind) -> Result<GrayImage> {
    let container = Container::from_bytes(bytes)?;
    let codec = codec_from_inline(&container)?;
    decode_parsed(&codec, &container, backend)
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

/// The one decode implementation behind every entry point: verify the
/// model identity, then decode.
fn decode_parsed(codec: &Codec, container: &Container, backend: BackendKind) -> Result<GrayImage> {
    codec.check_container(container)?;
    codec.decode_container(container, backend)
}

/// Opaque bookkeeping between [`Codec::prepare_encode`] and
/// [`Codec::complete_encode`]: tile occupancy, per-tile norms and the
/// geometry/options needed to assemble the container after the mesh
/// pass has run elsewhere.
#[derive(Debug, Clone)]
pub struct EncodePlan {
    /// Row-major tile → state index (None = all-zero tile).
    slots: Vec<Option<usize>>,
    /// Encoding norm per occupied state.
    norms: Vec<f64>,
    tiles_x: usize,
    tiles_y: usize,
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
    /// Row-major tile → state index (None = all-zero tile).
    slots: Vec<Option<usize>>,
    /// Dequantized tile norm per occupied state.
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
            .encode_image_with_stats(&img, &CodecOptions::default())
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
            let (bytes, stats) = codec.encode_image_with_stats(img, &opts).unwrap();
            assert_eq!(stats.model_bytes, 0);
            assert!((stats.payload_bits_per_pixel() - stats.bits_per_pixel).abs() < 1e-12);
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
    fn stats_separate_model_bytes_from_payload() {
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let (_, with_model) = codec
            .encode_image_with_stats(&img, &CodecOptions::default())
            .unwrap();
        assert!(with_model.model_bytes > 0);
        assert!(with_model.payload_bits_per_pixel() < with_model.bits_per_pixel);
        let (lean_bytes, lean) = codec
            .encode_image_with_stats(
                &img,
                &CodecOptions {
                    inline_model: false,
                    ..CodecOptions::default()
                },
            )
            .unwrap();
        assert_eq!(lean.model_bytes, 0);
        // The inline model accounts for (almost all of) the size gap:
        // the container layout only adds a small length field around it.
        let gap = with_model.container_bytes - lean_bytes.len();
        assert!(
            gap >= with_model.model_bytes && gap <= with_model.model_bytes + 16,
            "container gap {gap} vs model {}",
            with_model.model_bytes
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
        let (bytes, stats) = codec.encode_image_with_stats(&img, &opts).unwrap();
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

    #[test]
    fn timed_paths_are_byte_identical_to_untimed_ones() {
        // The whole point of the timing layer: clocks are read, data
        // is never touched. Durations themselves are wall-clock and
        // deliberately not asserted.
        let img = test_image();
        let codec = spectral_codec(&img, 8);
        let opts = CodecOptions::default();
        let (plain, plain_stats) = codec.encode_image_with_stats(&img, &opts).unwrap();
        let (timed, timed_stats, enc_t) = codec.encode_image_timed(&img, &opts).unwrap();
        assert_eq!(timed, plain, "timed encode must not perturb bytes");
        assert_eq!(timed_stats.container_bytes, plain_stats.container_bytes);
        // The stages actually ran (fields are populated, sum is sane).
        let _total = enc_t.prepare_ns + enc_t.mesh_ns + enc_t.quantize_ns + enc_t.entropy_ns;
        let plain_img = codec.decode_bytes(&plain).unwrap();
        let (timed_img, _dec_t) = codec
            .decode_bytes_timed(&plain, BackendKind::default())
            .unwrap();
        assert_eq!(timed_img, plain_img, "timed decode must not perturb pixels");
        // A wrong model still errors through the timed path.
        let other = spectral_codec(&datasets::grayscale_blobs(1, 32, 24, 78).remove(0), 8);
        assert!(matches!(
            other.decode_bytes_timed(&plain, BackendKind::default()),
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
        let (bytes, stats) = codec.encode_image_with_stats(&img, &opts).unwrap();
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
