//! Criterion bench: codec encode/decode throughput in tiles/sec across
//! the execution backends (the scalar reference and simd) on identical
//! inputs — the numbers recorded in `BENCH_codec.json` (see `qn-bench`'s
//! `bench_codec` binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qn_codec::{BackendKind, Codec, CodecOptions};
use qn_image::{datasets, GrayImage};
use std::hint::black_box;

/// A codec + image fixture at the given square image size.
fn fixture(size: usize) -> (Codec, GrayImage, usize) {
    let img = datasets::grayscale_blobs(1, size, size, 42).remove(0);
    let codec = Codec::spectral_for_image(&img, 4, 8).expect("spectral model");
    let tiles = size.div_ceil(4) * size.div_ceil(4);
    (codec, img, tiles)
}

fn opts(backend: BackendKind) -> CodecOptions {
    CodecOptions {
        backend,
        inline_model: false,
        ..CodecOptions::default()
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_encode/tiles");
    for &size in &[64usize, 128, 256] {
        let (codec, img, tiles) = fixture(size);
        group.throughput(Throughput::Elements(tiles as u64));
        for backend in BackendKind::ALL {
            group.bench_with_input(BenchmarkId::new(backend.name(), size), &size, |b, _| {
                let o = opts(backend);
                b.iter(|| codec.encode_image(black_box(&img), &o).expect("encode"));
            });
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_decode/tiles");
    for &size in &[64usize, 128, 256] {
        let (codec, img, tiles) = fixture(size);
        let bytes = codec
            .encode_image(&img, &opts(BackendKind::default()))
            .expect("encode fixture");
        group.throughput(Throughput::Elements(tiles as u64));
        for backend in BackendKind::ALL {
            group.bench_with_input(BenchmarkId::new(backend.name(), size), &size, |b, _| {
                b.iter(|| {
                    codec
                        .decode_bytes_with(black_box(&bytes), backend)
                        .expect("decode")
                });
            });
        }
    }
    group.finish();
}

fn bench_container_parse(c: &mut Criterion) {
    // Bitstream-only cost: parse without running the meshes.
    let (codec, img, tiles) = fixture(128);
    let bytes = codec
        .encode_image(&img, &opts(BackendKind::default()))
        .expect("encode");
    let mut group = c.benchmark_group("codec_container");
    group.throughput(Throughput::Elements(tiles as u64));
    group.bench_function("parse/128", |b| {
        b.iter(|| qn_codec::Container::from_bytes(black_box(&bytes)).expect("parse"));
    });
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_container_parse);
criterion_main!(benches);
