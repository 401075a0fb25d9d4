//! Criterion micro-benchmarks for the serving JSON layer at the realistic
//! 64 × 256 request shape: the general `serde_json` decode against the flat
//! row decoder, and the serde response encode against the direct encoder.
//! Each pair produces the same matrix bits or the same bytes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sls_datasets::SyntheticBlobs;
use sls_linalg::{Matrix, MatrixRandomExt};
use sls_serve::api::{decode_rows, encode_features, matrix_to_rows};
use sls_serve::{FeaturesResponse, RowsRequest};

const ROWS: usize = 64;
const VISIBLE: usize = 256;
const HIDDEN: usize = 12;

fn bench_decode(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let blobs = SyntheticBlobs::new(ROWS, VISIBLE, 8)
        .separation(5.0)
        .generate(&mut rng);
    let body = serde_json::to_string(&RowsRequest {
        rows: matrix_to_rows(blobs.features()),
    })
    .unwrap();
    c.bench_function("serve_json/decode_general_64x256", |bench| {
        bench.iter(|| {
            let rows: RowsRequest = serde_json::from_str(black_box(&body)).unwrap();
            black_box(rows.to_matrix().unwrap())
        })
    });
    c.bench_function("serve_json/decode_flat_64x256", |bench| {
        bench.iter(|| black_box(decode_rows(black_box(&body)).unwrap()))
    });
}

fn bench_encode(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let features = Matrix::random_uniform(ROWS, HIDDEN, 0.0, 1.0, &mut rng);
    c.bench_function("serve_json/encode_serde_64x12", |bench| {
        bench.iter(|| {
            black_box(
                serde_json::to_string(&FeaturesResponse {
                    model: "wide".to_string(),
                    generation: 1,
                    features: matrix_to_rows(black_box(&features)),
                })
                .unwrap(),
            )
        })
    });
    c.bench_function("serve_json/encode_direct_64x12", |bench| {
        bench.iter(|| black_box(encode_features("wide", 1, black_box(&features))))
    });
}

criterion_group!(benches, bench_decode, bench_encode);
criterion_main!(benches);
