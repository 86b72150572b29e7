//! Allocation budget of the codec's encode and decode paths.
//!
//! Tiles travel as mode-major panels from pixels to bitstream, so no
//! stage allocates per tile: an encode/decode pair may only allocate
//! per panel (the panel itself, once per direction) plus a count that
//! does not grow with the image. A counting global allocator measures
//! a 256×256 and a 512×512 image (4096 and 16384 tiles) on both
//! backends under all three entropy coders, with a fixed model and
//! with the spectral encode that fits its model from its own gather;
//! going from the smaller to the larger may add at most four
//! allocations per extra panel. (A `Vec` per tile in any stage, the
//! fit's second moment included, would add thousands.)
//!
//! This binary holds one test, so no other test allocates while it
//! counts.

use qn::backend::BackendKind;
use qn::codec::{Codec, CodecOptions, EntropyCoder};
use qn::image::{datasets, GrayImage};
use qn::linalg::panel::DEFAULT_PANEL_WIDTH;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter has no effect on the memory handed
// out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one encode/decode pair of `img` (with `codec`,
/// or with a spectral model the encode fits from its own gather when
/// `codec` is `None`), and its panel count.
fn pair(codec: Option<&Codec>, img: &GrayImage, opts: &CodecOptions) -> (usize, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (decoded, stats) = match codec {
        Some(codec) => {
            let (bytes, stats) = codec
                .encode_image_with_stats(img, opts, &mut ())
                .expect("encode");
            (codec.decode_bytes_with(&bytes, opts.backend), stats)
        }
        None => {
            let (codec, bytes, stats) =
                Codec::spectral_encode(img, 8, opts, &mut ()).expect("encode");
            (codec.decode_bytes_with(&bytes, opts.backend), stats)
        }
    };
    let decoded = decoded.expect("decode");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        (decoded.width(), decoded.height()),
        (img.width(), img.height())
    );
    let occupied = stats.tiles - stats.empty_tiles;
    (allocations, occupied.div_ceil(DEFAULT_PANEL_WIDTH))
}

#[test]
fn encode_and_decode_allocate_per_panel_not_per_tile() {
    let fit = datasets::grayscale_blobs(1, 64, 64, 3).remove(0);
    let codec = Codec::spectral_for_image(&fit, 4, 8).expect("spectral model");
    let small = datasets::grayscale_blobs(1, 256, 256, 11).remove(0);
    let large = datasets::grayscale_blobs(1, 512, 512, 12).remove(0);
    for backend in BackendKind::ALL {
        for entropy in EntropyCoder::ALL {
            let opts = CodecOptions {
                backend,
                entropy,
                inline_model: false,
                ..CodecOptions::default()
            };
            for (model, codec) in [("fixed model", Some(&codec)), ("spectral fit", None)] {
                // Build the meshes' gate tables and any other lazily
                // built state.
                pair(codec, &small, &opts);
                let (small_allocs, small_panels) = pair(codec, &small, &opts);
                let (large_allocs, large_panels) = pair(codec, &large, &opts);
                assert_eq!(
                    small_panels,
                    4096 / DEFAULT_PANEL_WIDTH,
                    "every tile is lit"
                );
                assert_eq!(
                    large_panels,
                    16384 / DEFAULT_PANEL_WIDTH,
                    "every tile is lit"
                );
                let extra = large_allocs.saturating_sub(small_allocs);
                let budget = 4 * (large_panels - small_panels);
                assert!(
                    extra <= budget,
                    "{model}, {backend} {entropy}: {small_allocs} → {large_allocs} allocations, \
                     {extra} more for {} more panels (budget {budget})",
                    large_panels - small_panels
                );
            }
        }
    }
}
